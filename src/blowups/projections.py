"""Facet widths and distance-ratio bounds for projected point configurations.

A configuration is the multiset image of {0, e_1, ..., e_d} under a lattice
projection to Z^k with k <= 3, given explicitly as integer points with one
index marked as the image of the origin.  A facet of the convex hull is a
hyperplane through k affinely independent points with every point on one
side, found by testing each k-subset in integers with its primitive normal.

`facet_width` is the spread of the configuration along a facet normal;
`ell_L` is the max over facets of the min over off-facet non-origin points of
dist(facet, origin) / dist(facet, point), which caps the smallest weight of
any blowup whose generating point projects outside the hull (None if that
min is over an empty set for some facet: there is no finite bound).
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
        origin = operator.index(self.origin_index)
        object.__setattr__(self, "origin_index", origin)
        if not 0 <= origin < len(pts):
            raise ValueError(f"origin index {origin} out of range")
        # the points span Z^k iff some hyperplane through k of them misses one
        if not any(
            (f := _normal(sub)) and len({_dot(f, p) for p in pts}) > 1
            for sub in itertools.combinations(sorted(set(pts)), k)
        ):
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


def _dot(f, p) -> int:
    return sum(a * b for a, b in zip(f, p))


def _normal(sub) -> tuple[int, ...] | None:
    """Primitive normal of the hyperplane through k points of Z^k, or None."""
    p = sub[0]
    if len(p) == 1:
        return (1,)
    u = [a - b for a, b in zip(sub[1], p)]
    if len(p) == 2:
        n = (u[1], -u[0])
    else:
        v = [a - b for a, b in zip(sub[2], p)]
        n = (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
    g = gcd(*n)
    return tuple(c // g for c in n) if g else None


def facets(cfg: ProjectedConfig) -> list[FacetData]:
    """All facet-supporting hyperplanes of the convex hull, outward normals."""
    pts = cfg.points
    found: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    for sub in itertools.combinations(sorted(set(pts)), cfg.k):
        f = _normal(sub)
        if f is None:
            continue
        c = _dot(f, sub[0])
        values = [_dot(f, p) for p in pts]
        if min(values) == c:
            f, c, values = tuple(-a for a in f), -c, [-v for v in values]
        if max(values) == c:
            found[f, c] = tuple(i for i, v in enumerate(values) if v == c)
    return [FacetData(f, c, incident) for (f, c), incident in sorted(found.items())]


def facet_width(cfg: ProjectedConfig, facet: FacetData) -> int:
    """Spread of the configuration along the facet's primitive normal."""
    values = [_dot(facet.normal, p) for p in cfg.points]
    return max(values) - min(values)


def ell_L(cfg: ProjectedConfig) -> Fraction | None:
    """Max over facets of the min distance ratio origin-to-facet / point-to-facet.

    Facets through the origin image contribute 0.  None (no finite bound)
    when another facet holds every non-origin point: its min is +infinity.
    """
    s0 = cfg.points[cfg.origin_index]
    best = Fraction(0)
    for facet in facets(cfg):
        d0 = facet.offset - _dot(facet.normal, s0)
        if d0 == 0:
            continue
        ratios = [
            Fraction(d0, facet.offset - _dot(facet.normal, p))
            for i, p in enumerate(cfg.points)
            if i != cfg.origin_index and i not in facet.incident
        ]
        if not ratios:
            return None
        best = max(best, min(ratios))
    return best
