"""Facet widths and distance-ratio bounds for projected point configurations.

A configuration is the multiset image of {0, e_1, ..., e_d} under a lattice
projection to Z^k with k <= 3, given explicitly as integer points with one
index marked as the image of the origin.  Facets of the convex hull are found
by brute force over k-subsets, each carrying its primitive integer normal.

`facet_width` is the spread of the configuration along a facet normal;
`ell_L` is the max over facets of the min over off-facet non-origin points of
dist(facet, origin) / dist(facet, point), which caps the smallest weight of
any blowup whose generating point projects outside the hull.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class ProjectedConfig:
    """Multiset of integer points in Z^k (k <= 3) with a designated origin image."""

    points: tuple[tuple[int, ...], ...]
    origin_index: int = 0

    def __post_init__(self) -> None:
        pts = tuple(tuple(map(operator.index, p)) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("empty configuration")
        k = len(pts[0])
        if not 1 <= k <= 3:
            raise ValueError(f"ambient dimension must be 1, 2 or 3, got {k}")
        if any(len(p) != k for p in pts):
            raise ValueError("points have mixed dimensions")
        if not 0 <= self.origin_index < len(pts):
            raise ValueError(f"origin index {self.origin_index} out of range")
        if _affine_rank(pts) != k:
            raise ValueError("points do not affinely span the ambient space")

    @property
    def k(self) -> int:
        return len(self.points[0])


@dataclass(frozen=True)
class FacetData:
    """A facet-supporting hyperplane {x : normal . x = offset} of the hull.

    The primitive integer normal is oriented outward (normal . x <= offset for
    every configuration point); `incident` lists the indices of the points on
    the hyperplane.
    """

    normal: tuple[int, ...]
    offset: int
    incident: tuple[int, ...]


def _affine_rank(pts) -> int:
    rows = [
        [Fraction(a - b) for a, b in zip(p, pts[0])] for p in pts[1:]
    ]
    rank = 0
    cols = len(pts[0])
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*v)
    return tuple(c // g for c in v)


def _candidate_normals(pts, k) -> set[tuple[int, ...]]:
    distinct = sorted(set(pts))
    normals: set[tuple[int, ...]] = set()
    if k == 1:
        normals.add((1,))
    elif k == 2:
        for p, q in itertools.combinations(distinct, 2):
            dx, dy = q[0] - p[0], q[1] - p[1]
            normals.add(_primitive((dy, -dx)))
    else:
        for p, q, r in itertools.combinations(distinct, 3):
            u = tuple(q[i] - p[i] for i in range(3))
            v = tuple(r[i] - p[i] for i in range(3))
            cr = (
                u[1] * v[2] - u[2] * v[1],
                u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0],
            )
            if any(cr):
                normals.add(_primitive(cr))
    return normals


def facets(cfg: ProjectedConfig) -> list[FacetData]:
    """All facet-supporting hyperplanes of the convex hull, outward normals."""
    pts = cfg.points
    k = cfg.k
    found: dict[tuple[tuple[int, ...], int], FacetData] = {}
    for f in _candidate_normals(pts, k):
        values = [sum(a * b for a, b in zip(f, p)) for p in pts]
        for normal, offset in ((f, max(values)), (tuple(-c for c in f), -min(values))):
            vals = values if normal == f else [-v for v in values]
            incident = tuple(i for i, v in enumerate(vals) if v == offset)
            on_plane = [pts[i] for i in incident]
            if _affine_rank(on_plane) == k - 1:
                found[(normal, offset)] = FacetData(normal, offset, incident)
    return [found[key] for key in sorted(found)]


def facet_width(cfg: ProjectedConfig, facet: FacetData) -> int:
    """Spread of the configuration along the facet's primitive normal."""
    values = [sum(a * b for a, b in zip(facet.normal, p)) for p in cfg.points]
    return max(values) - min(values)


def ell_L(cfg: ProjectedConfig) -> Fraction:
    """Max over facets of the min distance ratio origin-to-facet / point-to-facet.

    Facets through the origin image contribute 0.  Every facet must miss at
    least one non-origin point for the ratio to exist.
    """
    s0 = cfg.points[cfg.origin_index]
    best = Fraction(0)
    for facet in facets(cfg):
        d0 = facet.offset - sum(a * b for a, b in zip(facet.normal, s0))
        if d0 == 0:
            continue
        ratios = []
        for i, p in enumerate(cfg.points):
            if i == cfg.origin_index:
                continue
            di = facet.offset - sum(a * b for a, b in zip(facet.normal, p))
            if di != 0:
                ratios.append(Fraction(d0, di))
        if not ratios:
            raise ValueError(
                f"facet {facet.normal}.x = {facet.offset} contains every "
                "non-origin point; the distance ratio is undefined"
            )
        best = max(best, min(ratios))
    return best
