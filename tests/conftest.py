"""Strategies and exact references shared by test modules, each defined once."""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, inf

from hypothesis import assume, strategies as st

from blowups.exactgeom import (
    EPS_ONE,
    MembershipClass,
    WeightVector,
    _barycentric_class,
    brute_force_lattice_points,
    checked_eps,
)
from blowups.families import bound_dim1

F = Fraction


@st.composite
def weight_vectors(draw, min_d=2, max_d=5, max_index=40):
    """Primitive positive weight vectors with bounded index."""
    d = draw(st.integers(min_d, max_d))
    vals = draw(st.lists(st.integers(1, max_index), min_size=d, max_size=d))
    g = gcd(*vals)
    vals = tuple(v // g for v in vals)
    assume(2 <= sum(vals) <= max_index + 1)
    return WeightVector(vals)


@st.composite
def large_index_vectors(draw, min_d=4, max_d=6, max_index=400):
    """Primitive weight vectors of any index up to max_index: a composition
    of V + 1 into d positive parts, cut at d - 1 distinct points."""
    d = draw(st.integers(min_d, max_d))
    V = draw(st.integers(d - 1, max_index))
    cuts = sorted(draw(st.sets(st.integers(1, V), min_size=d - 1, max_size=d - 1)))
    parts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, V + 1])]
    assume(gcd(*parts) == 1)
    return WeightVector(tuple(parts))


PRUNE_EPSILONS = [F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(4, 5), F(1, 7)]

# the 18 rows whose base ratios reach 7, with the 19 proof-table entries
RATIO_TABLE = {
    ("Q2", 3): F(9), ("Q6", 2): F(8), ("Q7", 3): F(12), ("Q9", 3): F(12),
    ("Q11", 3): F(15, 2), ("Q11", 2): F(9), ("Q15", 2): F(7),
    ("Q16", 3): F(14), ("Q18", 2): F(8), ("Q19", 3): F(15),
    ("Q20", 3): F(15, 2), ("Q21", 2): F(9), ("Q23", 3): F(18),
    ("Q24", 2): F(10), ("Q25", 2): F(10), ("Q27", 3): F(20),
    ("Q28", 2): F(12), ("Q29", 2): F(15), ("N5", 3): F(8),
}


def flags_from_brute(w: WeightVector, eps=1) -> tuple[bool, bool]:
    """(terminal, canonical) from the integer points of the original simplex."""
    classes = [c for _, c in brute_force_lattice_points(w, eps)]
    canonical = MembershipClass.INTERIOR not in classes
    terminal = canonical and MembershipClass.BOUNDARY_NONVERTEX not in classes
    return terminal, canonical


def _unpruned_lattice_points(w, eps):
    """The coset enumeration over every class, as plain fields.

    Every class k >= 1 is tested in the original axis order, with no
    s(k) <= V filter, and whatever passes the sign test is classified whole.
    A witness is (k, z, V*point, class): V*point is integral, so the points
    compare exactly without building a `Fraction` per coordinate.
    """
    n, V, d = w.n, w.V, w.d
    a, b = eps.numerator, eps.denominator
    scale = a * V
    out = []
    if a == b:
        units = [tuple(int(j == i) for j in range(d)) for i in reversed(range(d))]
        for z in [(0,) * d, *units]:
            out.append((0, z, tuple(V * zi for zi in z), MembershipClass.VERTEX))
    for k in range(1, V):
        residues = tuple(k * ni % V for ni in n)
        ybar = [b * r - (b - a) * ni for r, ni in zip(residues, n)]
        if min(ybar) < 0:
            continue
        cls = _barycentric_class([scale - sum(ybar), *ybar], scale)
        if cls is not MembershipClass.OUTSIDE:
            out.append((k, (0,) * d, residues, cls))
    return out


def _verdicts(rows):
    """(terminal, canonical) read off rows of `_unpruned_lattice_points`.

    Terminal means no row but the vertices, canonical no interior row.
    """
    classes = {row[-1] for row in rows}
    return classes <= {MembershipClass.VERTEX}, MembershipClass.INTERIOR not in classes


def mld_reference(n: WeightVector) -> Fraction | float:
    """The minimal log discrepancy of the blowup with weights n, with no index cap.

    The blowup is the toric variety of the orthant's fan subdivided at n.  On
    the cone sigma_i spanned by n and the e_j, j != i, which is where v_i/n_i
    is least among the v_j/n_j, the log discrepancy is the linear function
    equal to 1 at n and at each e_j: phi(v) = |v| - V*v_i/n_i.  For fixed
    c = v_i, phi grows with every other v_j, which sigma_i bounds below by
    c*n_j/n_i, so its least lattice value is c + sum_{j != i} ceil(c*n_j/n_i)
    - V*c/n_i.  That is the minimum over i and c = 1..n_i-1.  No other point
    off the rays goes below 1: c = 0 gives |v| >= 2, and for c >= n_i the
    point minus n lies in sigma_i, so phi exceeds 1.  So for eps <= 1 the
    value decides both flags, terminal iff mld > eps and canonical iff
    mld >= eps, and it is infinite for (1, ..., 1), whose blowup is smooth.
    """
    w = n.n
    V = sum(w) - 1
    best: Fraction | float = inf
    for i, ni in enumerate(w):
        others = w[:i] + w[i + 1 :]
        if ni > 1:  # n_i * phi is an integer; -(-x // y) is ceil(x/y)
            least = min(
                ni * (c - sum(-c * nj // ni for nj in others)) - V * c for c in range(1, ni)
            )
            best = min(best, Fraction(least, ni))
    return best


# ------------------------------------- references and bounds only tests call


def kawakita_form(n: WeightVector) -> bool:
    """Dimension-3 terminality normal form: weights (1, a, b) with gcd(a, b) = 1."""
    if n.d != 3:
        raise ValueError(f"normal form is for 3 weights, got {n.d}")
    a, b, c = sorted(n.n)
    return a == 1 and gcd(b, c) == 1


def classify_point(x, n: WeightVector, eps=EPS_ONE) -> MembershipClass:
    """Classify x against the simplex of (n, eps) by exact barycentric coordinates."""
    eps = checked_eps(eps)
    if len(x) != n.d:
        raise ValueError(f"point has dimension {len(x)}, simplex has {n.d}")
    V = n.V
    y = [(Fraction(xi) - (1 - eps) * ni / V) / eps for xi, ni in zip(x, n.n)]
    return _barycentric_class([1 - sum(y), *y], 1)


def to_integer_lattice(x, n: WeightVector) -> tuple[Fraction, ...]:
    """Affine map fixing each e_i and sending the generating point to 0.

    Carries Z^d + Z*p bijectively onto Z^d and the shrunk simplex onto
    eps * Conv(e_1, ..., e_d, n); the origin goes to n.
    """
    t = 1 - sum(Fraction(v) for v in x)
    return tuple(Fraction(v) + t * ni for v, ni in zip(x, n.n))


def bound_subset(point, J, s: int) -> int | None:
    """Congruence bound on a subset of weights.

    `point` is a generating point in any integer-translate representation
    (entries exact rationals), `J` a proper nonempty set of 1-based coordinate
    positions and `s` a positive integer.  If sum_{i in J} p_i - s * sum_i p_i
    is an integer then sum_{i in J} n_i <= s for the blowup weights n (unless
    every weight off J vanishes), and s is returned; otherwise None.  The
    bound is the modulus s itself; sharper family-specific refinements (s - 1
    for one known family) are not generalised.
    """
    coords = tuple(Fraction(v) for v in point)
    J = sorted(set(map(operator.index, J)))
    s = operator.index(s)
    if not J or len(J) >= len(coords) or not all(1 <= j <= len(coords) for j in J):
        raise ValueError(f"J must be a proper nonempty subset of 1..{len(coords)}")
    if s < 1:
        raise ValueError("s must be a positive integer")
    value = sum(coords[j - 1] for j in J) - s * sum(coords)
    return s if value.denominator == 1 else None


def check_ratio_lemma(label: str) -> bool:
    """True when max(-q_1/q_3, -q_5/q_2) < 7 on the (sorted) base entries.

    Rows passing this test only produce blowups with smallest weight at most
    6, whichever entry serves as apex: the one-dimensional bound caps the
    smallest weight of every blowup in the family, not the largest.  N rows
    are evaluated on their base.  Every base row has q_1 > q_2 > 0 > q_3 >=
    q_4 >= q_5, so the bounds at apex 3 and apex 2 are exactly -q_1/q_3 and
    -q_5/q_2.
    """
    return max(bound_dim1(label, 3), bound_dim1(label, 2)) < 7
