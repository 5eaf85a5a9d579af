"""Terminal / canonical tests for weighted blowups of affine space.

A blowup with positive primitive weights n is eps-log terminal exactly when
the shrunk simplex is empty with respect to the coset lattice Z^d + Z*p
(p = n/V), and eps-log canonical exactly when it is hollow.  `classify` runs
the geometric test; `is_terminal_fast` and `is_canonical_fast` are eps = 1
shortcuts on fractional-part sums (the Reid-Tai criterion) whose agreement
with `classify` is enforced by the test suite before any caller is allowed to
rely on them.  They are the same membership test at eps = 1: class k >= 1
has the one candidate frac(k*p), with no integer translate, and its
barycentric coordinates scaled by V are V - s(k) and the residues
k*n_i mod V, where s(k) is their sum.

The shortcuts visit only k in [1, V//2].  The residues of k and V-k are
complementary (k*n_i mod V and (V-k)*n_i mod V add up to V unless both are
0), so the residue sums satisfy s(k) + s(V-k) = (d - z(k))*V, where z(k)
counts the zero residues, and one pass over the weights decides both k and
V-k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactgeom import (
    LatticeWitness,
    MembershipClass,
    WeightVector,
    checked_eps,
    lattice_points_in_shrunk_simplex,
)


@dataclass(frozen=True)
class SingularityClass:
    """Verdict of `classify`: eps and the refuting lattice point, if any.

    Both flags are read off the witness.  Terminal means there is none;
    canonical means there is none or it lies on the boundary (not at a
    vertex), so an interior witness refutes both flags and a boundary one
    refutes eps-log terminal only.
    """

    eps: Fraction
    witness: LatticeWitness | None = None

    @property
    def eps_log_terminal(self) -> bool:
        return self.witness is None

    @property
    def eps_log_canonical(self) -> bool:
        w = self.witness
        return w is None or w.membership is not MembershipClass.INTERIOR


def classify(n: WeightVector, eps: Fraction | int = 1) -> SingularityClass:
    """Decide eps-log terminal / eps-log canonical for the blowup with weights n.

    Terminal means the shrunk simplex meets the coset lattice only in
    vertices; canonical means only in its boundary.  The witness is the
    interior point of smallest class k, or failing one the boundary point of
    smallest k.
    """
    eps = checked_eps(eps)
    witness: LatticeWitness | None = None
    for w in lattice_points_in_shrunk_simplex(n, eps):
        if w.membership is MembershipClass.INTERIOR:
            witness = w
            break  # witnesses arrive in k order; the first interior one wins
        witness = witness or w  # no vertex is listed, so w is on the boundary
    return SingularityClass(eps, witness)


def _reid_tai(n: WeightVector, canonical: bool) -> bool:
    """The eps = 1 residue loop of both fast paths, over k in [1, V//2].

    s sums the nonzero residues k*n_i mod V and z counts the zero ones; k and
    V-k are judged together, as z(V-k) = z(k) and s(V-k) = (d - z)*V - s.  At
    even V, k = V/2 is its own complement and the identity gives s(V-k) = s.
    """
    V = n.V
    w = n.n
    dV = len(w) * V
    for k in range(1, V // 2 + 1):
        s = z = 0
        for ni in w:
            r = k * ni % V
            if r:
                s += r
            else:
                z += 1
        if canonical:
            if not z and (s < V or dV - s < V):
                return False
        elif s <= V or dV - z * V - s <= V:
            return False
    return True


def is_terminal_fast(n: WeightVector) -> bool:
    """Terminality via fractional-part sums: sum_i {k*n_i/V} > 1 for all k.

    Integer form: s(k) = sum_i (k*n_i mod V) > V for every k in [1, V-1].
    Only k <= V//2 is visited: s(V-k) = (d - z(k))*V - s(k), with z(k) the
    number of residues that vanish, so each k also decides V-k.
    """
    return _reid_tai(n, canonical=False)


def is_canonical_fast(n: WeightVector) -> bool:
    """Canonicity shortcut at eps = 1.

    A residue class k can only put a lattice point in the open simplex when
    its fractional representative has all coordinates nonzero and coordinate
    sum below 1; a zero coordinate parks the whole class on the boundary.
    Hence: canonical iff for every k, some k*n_i vanishes mod V or
    sum_i (k*n_i mod V) >= V.  Only k <= V//2 is visited: with no zero
    residue, s(V-k) = d*V - s(k), so each k also decides V-k.
    """
    return _reid_tai(n, canonical=True)


def kawakita_form(n: WeightVector) -> bool:
    """Dimension-3 terminality normal form: weights (1, a, b) with gcd(a, b) = 1."""
    if n.d != 3:
        raise ValueError(f"normal form is for 3 weights, got {n.d}")
    a, b, c = sorted(n.n)
    return a == 1 and gcd(b, c) == 1
