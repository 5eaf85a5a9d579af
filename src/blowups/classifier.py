"""Terminal / canonical tests for weighted blowups of affine space.

A blowup with positive primitive weights n is eps-log terminal exactly when
the shrunk simplex is empty with respect to the coset lattice Z^d + Z*p
(p = n/V), and eps-log canonical exactly when it is hollow.  `classify`
reports a witness from the coset enumeration; `is_terminal_fast` and
`is_canonical_fast` stop at the first class that decides the verdict.  The
kernels take their classes from the lazy residue pass
`exactgeom.residue_classes` and the coset enumeration lists all of them at
once from its own packed pass, so the two sides of their differential test
share no residue loop; all three place a class by `place_class`, at every
eps.  The kernels are the reference for a census block, which owns the
`exactgeom.PackedRows` of its index and tests its candidates without
calling them.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .exactgeom import (
    EPS_ONE,
    INTERIOR,
    OUTSIDE,
    LatticeWitness,
    WeightVector,
    checked_eps,
    lattice_points_in_shrunk_simplex,
    place_class,
    residue_classes,
)


class SingularityClass(Record):
    """Verdict of `classify`: eps and the refuting lattice point, if any.

    Both flags are read off the witness.  Terminal means there is none;
    canonical means there is none or it lies on the boundary (not at a
    vertex), so an interior witness refutes both flags and a boundary one
    refutes eps-log terminal only.
    """

    __slots__ = ("eps", "witness")

    def __init__(self, eps: Fraction, witness: LatticeWitness | None = None) -> None:
        _set_eps(self, eps)
        _set_witness(self, witness)

    @property
    def eps_log_terminal(self) -> bool:
        return self.witness is None

    @property
    def eps_log_canonical(self) -> bool:
        return self.witness is None or self.witness.membership is not INTERIOR


_set_eps, _set_witness = SingularityClass.eps.__set__, SingularityClass.witness.__set__


def classify(n: WeightVector, eps: Fraction | int = EPS_ONE) -> SingularityClass:
    """Decide eps-log terminal / eps-log canonical for the blowup with weights n.

    Terminal means the shrunk simplex meets the coset lattice only in
    vertices; canonical means only in its boundary.  The witness is the
    interior point of smallest class k, or failing one the boundary point of
    smallest k.
    """
    eps = checked_eps(eps)
    witnesses = lattice_points_in_shrunk_simplex(n, eps)  # in k order, no vertex
    interior = (w for w in witnesses if w.membership is INTERIOR)
    return SingularityClass(eps, next(interior, witnesses[0] if witnesses else None))


def is_terminal_fast(n: WeightVector, eps: Fraction | int = EPS_ONE) -> bool:
    """eps-log terminal: `place_class` puts every class of the residue pass
    outside the simplex; at eps = 1 this is the Reid-Tai test
    s(k) = sum_i (k*n_i mod V) > V for every k in [1, V-1].
    """
    eps = checked_eps(eps)
    return all(place_class(n, k, eps) is OUTSIDE for k in residue_classes(n))


def is_canonical_fast(n: WeightVector, eps: Fraction | int = EPS_ONE) -> bool:
    """eps-log canonical: `place_class` puts no class of the residue pass in
    the interior; at eps = 1 that is a class with no zero residue.
    """
    eps = checked_eps(eps)
    return all(place_class(n, k, eps) is not INTERIOR for k in residue_classes(n))
