"""Exact lattice geometry for shrunk standard simplices.

Everything here is computed over exact rationals (`fractions.Fraction` on top
of Python's arbitrary-precision integers), so membership predicates are exact
and integer overflow cannot occur.  A primitive weight vector n with index
V = sum(n) - 1 and a rational eps in (0, 1] fix the geometry, so every
membership function takes the pair (n, eps).  The generating point p = n/V
generates the cyclic lattice Z^d + Z*p of order V over Z^d, and the simplex
is Conv(0, e_1, ..., e_d) shrunk towards p by eps, with vertices (1-eps)*p
and p + eps*(e_i - p).

The residue pass `residue_classes` yields the classes k >= 1 whose point
frac(k*p) can lie in the simplex at any eps, and `place_class` places one at
a given eps; the fast kernels in `classifier` and the coset enumeration here
stand on them.  Inside `packed_residues(d, V)`, which the census enters per
index at d >= 3, the kernels answer instead from `packed_classes`: one
integer per weight value holds all its residues in w-bit fields, w the least
width with 2^(w-1) > d*V, and one recurrence of big-integer additions builds
all V+1 rows, (V+1)(V-1)*w bits, on entry.  A few more additions give the
bitset of every class of a vector, and one mask per weight value, built from
`place_class`'s test, keeps the classes in the closed or open simplex at eps.
A witness is a class k and its membership.  An independent brute-force scan
of eps * Conv(e_1, ..., e_d, n) in the original coordinates checks them;
`to_integer_lattice` maps one picture to the other.
"""

from __future__ import annotations

import itertools
import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Iterator, Sequence

ORACLE_CAP = 60  # largest index of the brute-force scan, whose cost is ~ eps^d * V
EPS_ONE = Fraction(1)  # the kernels' default eps, known valid by identity
_EPS_TEXT = re.compile(r"([0-9]+)(?:/([0-9]+))?")  # eps text, once stripped: an integer or p/q


class MembershipClass(Enum):
    """Position of a point relative to a closed simplex."""

    OUTSIDE = "outside"
    INTERIOR = "interior"
    BOUNDARY_NONVERTEX = "boundary"
    VERTEX = "vertex"


# module names for three members, as an attribute lookup on an Enum class is slow
OUTSIDE, INTERIOR = MembershipClass.OUTSIDE, MembershipClass.INTERIOR
BOUNDARY = MembershipClass.BOUNDARY_NONVERTEX


class OracleCapExceeded(RuntimeError):
    """The brute-force box scan was asked for an index above its cap."""


def checked_eps(eps: Fraction | int | str) -> Fraction:
    """eps as an exact Fraction, refused outside (0, 1], as a binary float, or
    as text other than an integer or p/q in ASCII digits with q > 0."""
    if type(eps) is Fraction:  # reduced, with a positive denominator
        if 0 < eps.numerator <= eps.denominator:
            return eps
        raise ValueError(f"eps must be a rational in (0, 1], got {eps}")
    if isinstance(eps, float):
        raise TypeError(f"eps {eps!r} is a float; pass a Fraction, an int or 'p/q'")
    if isinstance(eps, str):
        if not (m := _EPS_TEXT.fullmatch(eps.strip())):
            raise ValueError(f"epsilon must be an integer or p/q fraction, got {eps!r}")
        num, den = int(m[1]), int(m[2] or 1)
        if den == 0:
            raise ValueError("epsilon denominator is zero")
        eps = Fraction(num, den)
    else:
        eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must be a rational in (0, 1], got {eps}")
    return eps


def ascii_int(text: str) -> int:
    """An integer from text: an optional sign and the ASCII digits 0-9, with
    surrounding whitespace, which is what `int` reads in ASCII text with no "_"."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


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

    @cached_property  # in the instance dict, which equality, hash and repr never read
    def V(self) -> int:
        return sum(self.n) - 1

    @property
    def n_min(self) -> int:
        return min(self.n)


def _unchecked_weights(n: tuple[int, ...]) -> WeightVector:
    """A `WeightVector` of a tuple of ints already known to pass `__post_init__`."""
    w = object.__new__(WeightVector)
    object.__setattr__(w, "n", n)
    return w


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


class PackedRows(list):
    """The residues of every weight value at one index V, packed one int a value.

    Item v = 0..V holds k*v mod V for k = 1..V-1, field k-1 at bit w*(k-1),
    where w = `width` is the least with 2^(w-1) > d*V, so the fields of a sum
    of up to d rows cannot carry (see `packed_classes`).  `mask` holds each
    field's top bit.  One recurrence builds the rows: row 1 is the low V-1
    fields of ones*ones, and row v+1 is row v plus row 1, less V in each
    field that reaches V: the top bits of the sum plus (2^(w-1) - V)*ones,
    since a field of the sum is below 2V <= 2^(w-1) and so carries into no
    other.  The rows take (V+1)(V-1)*w bits, about 0.3 MB at d = 4, V = 419.
    """

    def __init__(self, d: int, V: int) -> None:
        self.d, self.V = d, V
        self.width = width = (d * V).bit_length() + 1
        top, low = 1 << width - 1, (1 << width * (V - 1)) - 1
        self._ones = ones = low // ((1 << width) - 1)
        self.mask = mask = top * ones
        self.bias = (top - 1 - V) * ones
        reach = (top - V) * ones
        row = step = (ones * ones) & low
        rows = [0, step]
        for _ in range(V - 1):
            row += step
            row -= (((row + reach) & mask) >> width - 1) * V
            rows.append(row)
        super().__init__(rows)
        self._verdict_masks: dict[tuple[int, int, bool], VerdictMasks] = {}

    def verdict_masks(self, eps: Fraction, interior: bool) -> VerdictMasks:
        """The per-value masks of the closed or the open simplex at eps, made once."""
        key = (eps.numerator, eps.denominator, interior)
        masks = self._verdict_masks.get(key)
        if masks is None:
            masks = self._verdict_masks[key] = VerdictMasks(self, *key)
        return masks


class VerdictMasks(dict):
    """Per weight value v, the top bits of the fields k that `place_class` keeps.

    At eps = a/b the point of class k lies in the closed simplex iff
    b*(k*v mod V) >= (b-a)*v for every weight v, and in its interior iff
    each inequality is strict (`place_class`; a zero residue fails both when
    a < b, and only the strict one at eps = 1).  So the mask of v keeps the
    fields whose residue reaches the least integer t that satisfies its
    inequality.  It is built from the row of v: adding 2^(width-1) - t to
    every field sets the top bit exactly where k*v mod V >= t, and carries
    into no other field, as 0 <= t <= v <= V and 2^(width-1) > 2*V.
    """

    def __init__(self, rows: PackedRows, a: int, b: int, interior: bool) -> None:
        super().__init__()
        self.rows, self.a, self.b, self.interior = rows, a, b, interior

    def __missing__(self, v: int) -> int:
        rows, c = self.rows, (self.b - self.a) * v
        t = c // self.b + 1 if self.interior else -(-c // self.b)
        mask = self[v] = (rows[v] + ((1 << rows.width - 1) - t) * rows._ones) & rows.mask
        return mask


# the block `packed_classes` reads: (rows, row getter, V + 1, d, mask, bias),
# with the getter bound once so that `map` builds no method wrapper per vector;
# set by `packed_residues`
_packed: tuple[PackedRows, Callable[[int], int], int, int, int, int] | None = None


@contextmanager
def packed_residues(d: int, V: int) -> Iterator[PackedRows]:
    """Answer `packed_classes`, and so the fast kernels, for vectors of index V
    and length <= d from packed rows.

    The census enters this for one index at d >= 3 and leaves it when the
    index is done, also on an exception; every row is built on entry, and
    the rows and masks are dropped on exit.  The rows are module state
    because the kernels keep their one-argument call.
    """
    global _packed
    rows = PackedRows(d, V)
    saved, _packed = _packed, (rows, rows.__getitem__, V + 1, d, rows.mask, rows.bias)
    try:
        yield rows
    finally:
        _packed = saved


def packed_classes(
    w: tuple[int, ...], eps: Fraction | int = EPS_ONE, interior: bool = False
) -> int | None:
    """The classes of w in the closed simplex at eps, or in its interior, as a bitset.

    Class k is bit width*k - 1 of the result, the top bit of field k-1 of
    the rows.  Inside `packed_residues(d, V)`, for a vector of index V and at
    most d weights, the sum of its rows plus a bias of 2^(w-1) - 1 - V in
    each w-bit field holds s(k) + 2^(w-1) - 1 - V in field k-1.  As
    0 <= s(k) <= d*(V-1) and 2^(w-1) > d*V, each field lies in [0, 2^w), so
    no field carries into the next, and its top bit is clear exactly when
    s(k) <= V: `mask & ~(rows + bias)` holds the classes of `residue_classes`.
    At eps = 1 every one of them lies in the closed simplex; otherwise the
    result is ANDed with the `VerdictMasks` of each weight.  Outside such a
    block the result is None, and the caller takes the scalar pass.

    The census enters a block at d >= 3 (`search.PACKED_FROM_DIM`); at d = 2
    an index has about V/2 candidates against V rows of V-1 fields, and a
    single call would build every row for one vector only.
    """
    packed = _packed
    if packed is None:
        return None
    rows, row, size, d, mask, bias = packed
    if sum(w) != size or len(w) > d:
        return None
    free = mask & ~sum(map(row, w), bias)
    if eps is not EPS_ONE:
        eps = checked_eps(eps)
    elif not interior:
        return free
    if free and (interior or eps.numerator != eps.denominator):
        masks = rows.verdict_masks(eps, interior)
        for v in w:
            free &= masks[v]
    return free


def residue_classes(n: WeightVector) -> Iterator[int]:
    """The classes k in [1, V-1] with s(k) = sum_i (k*n_i mod V) <= V: the residue pass.

    No other class meets the simplex at any eps = a/b: the scaled coordinates
    ybar_i = b*(k*n_i mod V) - (b-a)*n_i of frac(k*p) sum to b*s - (b-a)*(V+1),
    so the apex inequality sum ybar_i <= a*V reads s <= V + (b-a)/b, and since
    s is an integer, s(k) <= V.

    The pass visits only k <= V//2: the residues of k and V-k add up to V
    unless both vanish, so with z(k) zero residues s(V-k) = (d - z)*V - s(k).
    At even V the class V/2 is its own complement and is yielded once.
    Classes come in pairs (k, V-k), not in k order.
    """
    w = n.n
    V = sum(w) - 1
    top = (len(w) - 1) * V  # s(V-k) <= V reads s(k) + z*V >= top
    for k in range(1, V // 2 + 1):
        s = z = 0
        for ni in w:
            r = k * ni % V
            if r:
                s += r
            else:
                z += 1
        if s <= V:
            yield k
        if s + z * V >= top and k + k != V:
            yield V - k


def place_class(n: WeightVector, k: int, eps: Fraction) -> MembershipClass:
    """Where the point frac(k*p) of a class from `residue_classes` lies at eps = a/b.

    The apex coordinate a*V - sum ybar_i is positive: it is 0 only if b
    divides b-a, so eps = 1 and s(k) = V, but s(k) is congruent to k mod V.
    So the signs of the ybar_i decide, at every eps: at eps = 1 they are the
    residues, and below 1 a zero residue gives ybar_i = -(b-a)*n_i < 0.  The
    point is no vertex: every ybar_i = 0 needs b | n_i for all i, so b = 1
    and V | k.
    """
    a, b, V = eps.numerator, eps.denominator, n.V
    on_facet = False
    for ni in n.n:
        y = b * (k * ni % V) - (b - a) * ni
        if y < 0:
            return OUTSIDE
        if not y:
            on_facet = True
    return BOUNDARY if on_facet else INTERIOR


def lattice_points_in_shrunk_simplex(
    n: WeightVector, eps: Fraction | int = 1
) -> list[LatticeWitness]:
    """The classes k whose point lies in the closed simplex of (n, eps), in k order.

    Each axis window [(1-eps)*p_i, (1-eps)*p_i + eps] lies in [0, 1], as
    0 < p_i <= 1, so a coset point x = frac(k*p) + t has t_i in {0, 1}, and
    t_i = 1 puts x at the top of its window: y_i = 1 in y = (x - (1-eps)*p)/eps,
    so every other y_j is 0 and x is the vertex (1-eps)*p + eps*e_i.  Its
    coordinates sum to 1 + (1-eps)/V and those of a point of class k to k/V
    mod 1, so that needs k = 0 and eps = 1.  Class 0 thus gives only the d+1
    vertices, which decide no verdict and are not listed, and each class
    k >= 1 has one candidate, frac(k*p), which the residue pass decides.
    """
    eps = checked_eps(eps)
    placed = [(k, place_class(n, k, eps)) for k in sorted(residue_classes(n))]
    return [LatticeWitness(k, m) for k, m in placed if m is not OUTSIDE]


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
