"""Facet widths and distance-ratio bounds for projected point configurations.

A configuration is the multiset image of {0, e_1, ..., e_d} under a lattice
projection to Z^k with k <= 3, given explicitly as integer points with one
index marked as the image of the origin.  A facet of the convex hull is a
hyperplane through k affinely independent points with every point on one
side, found by testing each k-subset in integers with its primitive normal.
The facets are computed once, with the configuration, together with the
width of each: the spread of the configuration along its normal.

`ell_L` is the max over facets of the min over off-facet non-origin points of
dist(facet, origin) / dist(facet, point), which caps the smallest weight of
any blowup whose generating point projects outside the hull (None if that
min is over an empty set for some facet: there is no finite bound).
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import gcd

from ._record import Record


class ProjectedConfig(Record):
    """Multiset of integer points in Z^k (k <= 3) with a designated origin image.

    `facets` holds every facet-supporting hyperplane of the convex hull, with
    outward normals, in (normal, offset) order.  It is computed from the
    points, so equality, hash and repr read the points and the origin alone.
    """

    __slots__ = ("points", "origin_index", "facets")
    _fields = ("points", "origin_index")

    def __init__(self, points: tuple[tuple[int, ...], ...], origin_index: int = 0) -> None:
        pts = tuple(tuple(map(operator.index, p)) for p in points)
        if not pts:
            raise ValueError("empty configuration")
        k = len(pts[0])
        if not 1 <= k <= 3:
            raise ValueError(f"ambient dimension must be 1, 2 or 3, got {k}")
        if any(len(p) != k for p in pts):
            raise ValueError("points have mixed dimensions")
        origin = operator.index(origin_index)
        super().__init__(pts, origin)
        if not 0 <= origin < len(pts):
            raise ValueError(f"origin index {origin} out of range")
        found: dict[tuple[tuple[int, ...], int], FacetData] = {}
        for sub in itertools.combinations(sorted(set(pts)), k):
            f = _normal(sub)
            if f is None:
                continue
            c = _dot(f, sub[0])
            values = [_dot(f, p) for p in pts]
            if min(values) == c:
                f, c, values = tuple(-a for a in f), -c, [-v for v in values]
            if max(values) == c:
                incident = tuple(i for i, v in enumerate(values) if v == c)
                found[f, c] = FacetData(f, c, incident, c - min(values))
        object.__setattr__(self, "facets", tuple(found[key] for key in sorted(found)))
        # the points span Z^k iff some facet leaves a point off its hyperplane
        if not any(f.width for f in self.facets):
            raise ValueError("points do not affinely span the ambient space")


class FacetData(Record):
    """A facet-supporting hyperplane {x : normal . x = offset} of the hull.

    The primitive integer normal is oriented outward (normal . x <= offset for
    every configuration point); `incident` lists the indices of the points on
    the hyperplane, and `width` is the spread of the configuration along the
    normal.
    """

    __slots__ = ("normal", "offset", "incident", "width")


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


def ell_L(cfg: ProjectedConfig) -> Fraction | None:
    """Max over facets of the min distance ratio origin-to-facet / point-to-facet.

    Facets through the origin image contribute 0.  None (no finite bound)
    when another facet holds every non-origin point: its min is +infinity.
    """
    s0 = cfg.points[cfg.origin_index]
    best = Fraction(0)
    for facet in cfg.facets:
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
