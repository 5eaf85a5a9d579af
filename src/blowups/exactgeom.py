"""Exact lattice geometry for shrunk standard simplices.

Everything here is computed over exact rationals (`fractions.Fraction` on top
of Python's arbitrary-precision integers), so membership predicates are exact
and integer overflow cannot occur.  A primitive weight vector n with index
V = sum(n) - 1 and a rational eps in (0, 1] fix the geometry, so every
membership function takes the pair (n, eps).  The generating point p = n/V
generates the cyclic lattice Z^d + Z*p of order V over Z^d, and the simplex
is Conv(0, e_1, ..., e_d) shrunk towards p by eps, with vertices (1-eps)*p
and p + eps*(e_i - p).

The module enumerates the non-vertex points of Z^d + Z*p inside the shrunk
simplex coset by coset (one candidate per residue class, O(V * d) steps at
most: the axes are visited heaviest first with a running sum, and a class is
dropped at its first negative coordinate or as soon as the sum overshoots).
Each such point is frac(k*p) for a class k >= 1, so a witness is k and its
membership, and `frac_point` rebuilds the point.  It also provides an
independent brute-force scan of the integer points of eps * Conv(e_1, ...,
e_d, n) in the original coordinates; the affine change of coordinates
mapping one picture to the other is `to_integer_lattice`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Sequence

ORACLE_CAP = 60  # largest index of the brute-force scan, whose cost is ~ eps^d * V


class MembershipClass(Enum):
    """Position of a point relative to a closed simplex."""

    OUTSIDE = "outside"
    INTERIOR = "interior"
    BOUNDARY_NONVERTEX = "boundary"
    VERTEX = "vertex"


class OracleCapExceeded(RuntimeError):
    """The brute-force box scan was asked for an index above its cap."""


def checked_eps(eps: Fraction | int) -> Fraction:
    """eps as an exact Fraction, refused outside (0, 1] or as a binary float."""
    if isinstance(eps, float):
        raise TypeError(f"eps {eps!r} is a float; pass a Fraction, an int or 'p/q'")
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be a rational in (0, 1], got {eps}")
    return eps


class ZeroWeightError(ValueError):
    """A weight below 1 is a degenerate blowup and is refused, not classified."""


@dataclass(frozen=True)
class WeightVector:
    """The weights of a blowup of A^d: d >= 2 positive integers with gcd 1.

    A weight below 1 raises `ZeroWeightError`, so every instance is a genuine
    blowup and its index V = sum(n) - 1 is at least 1.
    """

    n: tuple[int, ...]

    def __post_init__(self) -> None:
        n = tuple(map(operator.index, self.n))
        object.__setattr__(self, "n", n)
        if len(n) < 2:
            raise ValueError("need at least two weights")
        if min(n) < 1:
            raise ZeroWeightError(f"weights must be positive, got {n}")
        if gcd(*n) != 1:
            raise ValueError(f"weights {n} are not primitive")

    @property
    def d(self) -> int:
        return len(self.n)

    @property
    def V(self) -> int:
        return sum(self.n) - 1

    @property
    def n_min(self) -> int:
        return min(self.n)


@dataclass(frozen=True)
class LatticeWitness:
    """A non-vertex coset point of the simplex: its class k >= 1 and membership.

    The point is frac(k*p), with no integer translate; `frac_point` builds it.
    """

    k: int
    membership: MembershipClass


def frac_point(n: WeightVector, k: int) -> tuple[Fraction, ...]:
    """Fractional parts of k*n/V in [0,1)^d: the point of a witness of class k."""
    V = n.V
    if not 1 <= k <= V - 1:
        raise ValueError(f"k={k} outside [1, {V - 1}]")
    return tuple(Fraction((k * v) % V, V) for v in n.n)


def classify_point(
    x: Sequence[Fraction | int], n: WeightVector, eps: Fraction | int = 1
) -> MembershipClass:
    """Classify x against the simplex of (n, eps) by exact barycentric coordinates."""
    eps = checked_eps(eps)
    if len(x) != n.d:
        raise ValueError(f"point has dimension {len(x)}, simplex has {n.d}")
    V = n.V
    y = [(Fraction(xi) - (1 - eps) * ni / V) / eps for xi, ni in zip(x, n.n)]
    return _barycentric_class([1 - sum(y), *y], 1)


def _barycentric_class(coords: Sequence, total) -> MembershipClass:
    # coords are the d+1 barycentric coordinates scaled so they sum to `total`
    if any(c < 0 for c in coords):
        return MembershipClass.OUTSIDE
    if any(c == total for c in coords):
        return MembershipClass.VERTEX
    if all(c > 0 for c in coords):
        return MembershipClass.INTERIOR
    return MembershipClass.BOUNDARY_NONVERTEX


def lattice_points_in_shrunk_simplex(
    n: WeightVector, eps: Fraction | int = 1
) -> list[LatticeWitness]:
    """The classes k whose point lies in the closed simplex of (n, eps), in k order.

    Each axis window [(1-eps)*p_i, (1-eps)*p_i + eps] lies in [0, 1], as
    0 < p_i <= 1, so a point x = frac(k*p) + z has z_i in {0, 1}, and z_i = 1
    needs frac_i = 0 and x_i = 1, the top of the window.  In y = (x -
    (1-eps)*p)/eps that is y_i = 1, so every other y_j = 0 and x is the vertex
    (1-eps)*p + eps*e_i.  Its coordinates sum to 1 + (1-eps)/V and those of a
    point of class k to k/V mod 1, so it is a coset point only at k = 0 and
    eps = 1.  Hence class 0 gives the d+1 vertices at eps = 1 and nothing
    otherwise, and each class k >= 1 has the one candidate frac(k*p).  A
    vertex never decides a verdict, so the vertices are not listed.

    A candidate is outside exactly when some scaled coordinate ybar_i is
    negative or their sum exceeds a*V (eps = a/b).  The axes are visited in
    descending order of weight with a running sum, so a class is rejected at
    its first overshoot, and a survivor is classified in the same pass.  Its
    apex coordinate a*V - sum is positive: the sum equals a*V only if b | a,
    so eps = 1 and s(k) = V, but s(k) is congruent to k mod V.  Nor is
    every ybar_i zero: that needs b | n_i for all i, so b = 1 and V | k.  So a
    survivor is no vertex, and it is interior exactly when no ybar_i is zero.
    Witnesses come out in k order, which downstream code relies on; the
    cutoff changes neither the order nor the classes.
    """
    eps = checked_eps(eps)
    V = n.V
    a, b = eps.numerator, eps.denominator
    scale = a * V
    out: list[LatticeWitness] = []
    heaviest_first = [(ni, (b - a) * ni) for ni in sorted(n.n, reverse=True)]
    for k in range(1, V):
        # y scaled by a*V: ybar_i = b*(k*n_i mod V) - (b-a)*n_i
        total = 0
        on_facet = False
        for ni, si in heaviest_first:
            y = b * (k * ni % V) - si
            total += y
            if y < 0 or total > scale:
                break
            if not y:
                on_facet = True
        else:
            M = MembershipClass
            out.append(LatticeWitness(k, M.BOUNDARY_NONVERTEX if on_facet else M.INTERIOR))
    return out


def brute_force_lattice_points(
    n: WeightVector, eps: Fraction | int = 1
) -> list[tuple[tuple[int, ...], MembershipClass]]:
    """Integer points of the closed simplex eps * Conv(e_1, ..., e_d, n).

    Scans the integer bounding box and tests exact barycentric membership in
    the original coordinates; this is the independent oracle for the coset
    enumeration above.  An index above `ORACLE_CAP` is refused.
    """
    eps = checked_eps(eps)
    V, d = n.V, n.d
    if V > ORACLE_CAP:
        raise OracleCapExceeded(f"index {V} exceeds the oracle cap {ORACLE_CAP}")
    a, b = eps.numerator, eps.denominator
    scale = a * V
    his = [(a * ni) // b for ni in n.n]
    found = []
    for x in itertools.product(*(range(h + 1) for h in his)):
        mu = b * sum(x) - a
        if mu < 0:
            continue
        lam = [b * V * xj - mu * nj for xj, nj in zip(x, n.n)]
        cls = _barycentric_class([*lam, mu], scale)
        if cls is not MembershipClass.OUTSIDE:
            found.append((x, cls))
    return found


def to_integer_lattice(
    x: Sequence[Fraction | int], n: WeightVector
) -> tuple[Fraction, ...]:
    """Affine map fixing each e_i and sending the generating point to 0.

    Carries Z^d + Z*p bijectively onto Z^d and the shrunk simplex onto
    eps * Conv(e_1, ..., e_d, n); the origin goes to n.
    """
    t = 1 - sum(Fraction(v) for v in x)
    return tuple(Fraction(v) + t * ni for v, ni in zip(x, n.n))
