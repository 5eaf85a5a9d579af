"""Exact lattice geometry for shrunk standard simplices.

Everything here is computed over exact rationals (`fractions.Fraction` on top
of Python's arbitrary-precision integers), so membership predicates are exact
and integer overflow cannot occur.  A primitive weight vector n with index
V = sum(n) - 1 and a rational eps in (0, 1] fix the geometry, so every
membership function takes the pair (n, eps).  The generating point p = n/V
generates the cyclic lattice Z^d + Z*p of order V over Z^d, and the simplex
is Conv(0, e_1, ..., e_d) shrunk towards p by eps, with vertices (1-eps)*p
and p + eps*(e_i - p).

The classes k >= 1 whose point frac(k*p) can lie in the simplex at any eps
are those with residue sum s(k) <= V, and `place_class` places one at a
given eps.  Three passes list them, each the fastest on some input, so a
choice between them by input would be a fork with a workload on each side.
`residue_classes` serves the fast kernels in `classifier` lazily, so that
they stop at the first class that decides their verdict, which d = 2 needs;
`_coset_classes` serves the coset enumeration behind `classify`, with every
class at once in k order by packed integer arithmetic, and these two check
each other; `PackedRows` serves census blocks of at least V candidates.
A witness is a class k and its membership.  An independent brute-force scan
of eps * Conv(e_1, ..., e_d, n) in the original coordinates checks them; the
affine map fixing each e_i and sending p to 0 carries one picture onto the
other, and the tests compare the two through it.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from fractions import Fraction
from math import gcd

from ._record import Record

ORACLE_CAP = 60  # largest index of the brute-force scan, whose cost is ~ eps^d * V
EPS_ONE = Fraction(1)  # the kernels' default eps
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
    if type(eps) is not Fraction:
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
    if 0 < eps.numerator <= eps.denominator:  # reduced, with a positive denominator
        return eps
    raise ValueError(f"eps must be a rational in (0, 1], got {eps}")


def ascii_int(text: str) -> int:
    """An integer from text: an optional sign and the ASCII digits 0-9, with
    surrounding whitespace, which is what `int` reads in ASCII text with no "_"."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


class ZeroWeightError(ValueError):
    """A weight below 1 is a degenerate blowup and is refused, not classified."""


class WeightVector(Record):
    """The weights of a blowup of A^d: d >= 2 positive integers with gcd 1.

    A weight below 1 raises `ZeroWeightError`, so every instance is a genuine
    blowup and its index V = sum(n) - 1 is at least 1.  V is a slot summed
    once, when the vector is made, and equality, hash and repr read only n.
    """

    __slots__ = ("n", "V")
    _fields = ("n",)

    def __init__(self, n: tuple[int, ...]) -> None:
        n = tuple(map(operator.index, n))
        _set_n(self, n)
        if len(n) < 2:
            raise ValueError("need at least two weights")
        if min(n) < 1:
            raise ZeroWeightError(f"weights must be positive, got {n}")
        if gcd(*n) != 1:
            raise ValueError(f"weights {n} are not primitive")
        _set_V(self, sum(n) - 1)

    @property
    def d(self) -> int:
        return len(self.n)

    @property
    def n_min(self) -> int:
        return min(self.n)


# the slot descriptors set a field of a frozen record without its __setattr__
_set_n, _set_V = WeightVector.n.__set__, WeightVector.V.__set__


class LatticeWitness(Record):
    """A non-vertex coset point of the simplex: its class k >= 1 and membership.

    The point is frac(k*p), with no integer translate; `frac_point` builds it.
    """

    __slots__ = ("k", "membership")

    def __init__(self, k: int, membership: MembershipClass) -> None:
        _set_k(self, k)
        _set_membership(self, membership)


_set_k, _set_membership = LatticeWitness.k.__set__, LatticeWitness.membership.__set__


def frac_point(n: WeightVector, k: int) -> tuple[Fraction, ...]:
    """Fractional parts of k*n/V in [0,1)^d: the point of a witness of class k."""
    V = n.V
    if not 1 <= k <= V - 1:
        raise ValueError(f"k={k} outside [1, {V - 1}]")
    return tuple(Fraction((k * v) % V, V) for v in n.n)


def _barycentric_class(coords: Sequence, total) -> MembershipClass:
    # coords are the d+1 barycentric coordinates scaled so they sum to `total`
    if any(c < 0 for c in coords):
        return MembershipClass.OUTSIDE
    if any(c == total for c in coords):
        return MembershipClass.VERTEX
    if all(c > 0 for c in coords):
        return MembershipClass.INTERIOR
    return MembershipClass.BOUNDARY_NONVERTEX


_WORDS: dict[int, tuple[int, int, int]] = {}  # width -> (count, ones, K)


def _counting_words(w: int, m: int) -> tuple[int, int]:
    """The packed counting words of m fields of w bits, for m < 2^w: `ones`
    holds 1 in every field and K holds k in field k-1.

    They depend only on (w, m), so the coset pass and `PackedRows` both take
    them from here.  Per width the longest pair built is kept, at exactly
    its count c of fields, and a longer one grows from it by doubling, as
    K_2c is K_c and, above it, K_c + c*ones_c; the result is masked to m
    fields.  What is kept is the words of the largest index met at each
    width, about 2 x 11 MB once `classify` has met V ~ 10^6.
    """
    count, ones, K = _WORDS.get(w, (1, 1, 1))
    if m == count:
        return ones, K
    c = count
    while c < m:
        K |= (K + c * ones) << w * c
        ones |= ones << w * c
        c += c
    fields = (1 << w * m) - 1
    ones, K = ones & fields, K & fields
    if m > count:
        _WORDS[w] = m, ones, K
    return ones, K


class PackedRows:
    """The residues of every weight value at one index V, packed one int a
    value, with one verdict at eps = a/b folded in: the packed census format,
    which no other module reads.

    Row v = 0..V holds in field k-1, at bit w*(k-1), the residue k*v mod V
    of k = 1..V-1, or V + 1 where it fails the verdict: the point of class k
    lies in the closed simplex iff b*(k*v mod V) >= (b-a)*v for every weight
    v, and in its interior iff each inequality is strict (`place_class`), so
    a residue fails below the least t that meets the inequality of v.  At
    eps = 1 in the closed simplex t = 0, and no row changes.  The width
    w = `width` is the least with 2^(w-1) > d*V; `mask` holds each field's
    top bit.  No sum of rows carries: with `bias`, field k-1 of the rows of a
    vector of m <= d weights is s'(k) + 2^(w-1) - 1 - V, where s'(k) is s(k)
    if no residue fails and above V otherwise; each field holds at most
    V + 1 and m <= V + 1, as the weights are positive and sum to V + 1, so
    s'(k) <= m*(V+1) <= d*V + V + 1 < 2^(w-1) + V + 1, and 2^(w-1) > V.  The
    top bit is thus clear exactly when s'(k) <= V: when the class lies in
    the simplex.  So `classes(n)`, `mask & ~(sum of the rows of n + bias)`,
    is the bitset of the classes of the weights n that meet the verdict,
    class k at bit w*k - 1.

    `passes` tests a run of candidates by the same rule without negating a
    big integer: the bitset is empty iff the sum has every bit of `mask`
    set.  Each candidate has exactly d weights, as the census gives it, so
    the prefix n[:d-2] and the last two weights n[d-2], n[d-1] are read at
    offsets fixed by d.  P, the bias plus the rows of that prefix, is summed
    again only when the prefix changes, so along the last loop of
    `enumerate_blowups` each candidate costs two additions, the `& mask` and
    the compare.  The rows are the plain list `rows`, not a subclass of one:
    CPython 3.11 specialises an int index only on an exact list, and a
    subclass would send each of the two row reads through the generic path.

    Row 1 is K of `_counting_words`, k in field k-1, and row v+1 is row v
    plus row 1, less V in each field that reaches V: the top bits of the
    sum plus (2^(w-1) - V)*ones, as a field of the sum is below
    2V <= 2^(w-1).  In the same way a residue fails where the row plus
    (2^(w-1) - t)*ones leaves the top bit clear, as 0 <= t <= V.  The rows
    take (V+1)(V-1)*w bits, about 0.3 MB at d = 4, V = 419.
    """

    def __init__(self, d: int, V: int, eps: Fraction = EPS_ONE, interior: bool = False):
        self.d = d
        self.width = width = (d * V).bit_length() + 1
        top = 1 << width - 1
        ones, step = _counting_words(width, V - 1)
        self.mask = mask = top * ones
        self.bias = (top - 1 - V) * ones
        reach = (top - V) * ones
        row = step
        rows = [0, step]
        for _ in range(V - 1):
            row += step
            row -= (((row + reach) & mask) >> width - 1) * V
            rows.append(row)
        a, b, full = eps.numerator, eps.denominator, (1 << width) - 1
        for v, row in enumerate(rows):
            c = (b - a) * v  # t is the least residue that meets the inequality of v
            t = c // b + 1 if interior else -(-c // b)
            if t:
                fails = (mask & ~(row + (top - t) * ones)) >> width - 1
                rows[v] = row & ~(fails * full) | fails * (V + 1)
        self.rows = rows

    def classes(self, n: Sequence[int]) -> int:
        """The bitset of the classes of the weights n that meet the verdict."""
        rows = self.rows
        return self.mask & ~sum([rows[v] for v in n], self.bias)

    def passes(self, candidates: Iterable[WeightVector]) -> list[int]:
        """The weights, d a candidate in candidate order, of the candidates of
        d weights none of whose classes meets the verdict, in one flat list."""
        rows, mask, bias, k = self.rows, self.mask, self.bias, self.d - 2
        hits = []
        prefix = None
        for w in candidates:
            n = w.n
            if n[:k] != prefix:
                prefix = n[:k]
                P = bias
                for v in prefix:
                    P += rows[v]
            if (P + rows[n[k]] + rows[n[k + 1]]) & mask == mask:
                hits += n
        return hits


def residue_classes(n: WeightVector) -> Iterator[int]:
    """The classes k in [1, V-1] with s(k) = sum_i (k*n_i mod V) <= V: the
    lazy residue pass of the fast kernels, which stop at the first class
    that decides their verdict.

    No other class meets the simplex at any eps = a/b: the scaled coordinates
    ybar_i = b*(k*n_i mod V) - (b-a)*n_i of frac(k*p) sum to b*s - (b-a)*(V+1),
    so the apex inequality sum ybar_i <= a*V reads s <= V + (b-a)/b, and since
    s is an integer, s(k) <= V.

    The pass visits only k <= V//2: the residues of k and V-k add up to V
    unless both vanish, so with z(k) zero residues s(V-k) = (d - z)*V - s(k).
    At even V the class V/2 is its own complement and is yielded once.
    Classes come in pairs (k, V-k), not in k order.
    """
    w, V = n.n, n.V
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


def _coset_classes(n: WeightVector) -> list[int]:
    """The classes of `residue_classes`, all at once and in k order, from one
    packed floor sum Q(k) = sum_i floor(k*n_i/V).

    As the weights sum to V + 1, s(k) = sum_i (k*n_i - V*floor(k*n_i/V)) =
    k*(V+1) - V*Q(k), and Q(k) <= floor(k*(V+1)/V) = k for k < V.  So
    s(k) <= V reads V*(k - Q(k)) <= V - k < V, that is Q(k) = k.

    Each k = 1..V-1 gets a field of B bytes, w = 8*B bits: K holds k and
    `ones` holds 1 in field k-1 (`_counting_words`).  Every floor comes from
    one multiply-shift: with x = k*n_i < V^2 <= 2^N, 2^L > V, s = N + L and
    M = ceil(2^s/V), so that V*M = 2^s + e with 0 <= e < V, x*M/2^s exceeds
    x/V by x*e/(V*2^s) < V^2/2^s <= 2^-L < 1/V, while frac(x/V) <= 1 - 1/V;
    so floor(x*M/2^s) = floor(x/V).  B is the least with 2^(w-1) > V^2*M, so no
    field of K*(n_i*M) carries; shifted right by s, field k-1 holds
    floor(k*n_i/V) < 2^L in its low L bits and, from bit w - s >= L up, the
    low bits of the field above (V^2*M >= 2^(L-1+s), so w > s + L), which
    the mask of L bits per field drops.  Field k-1 of Q + mask - K, with
    `mask` the top bit of each field, is then 2^(w-1) - (k - Q(k)): no field
    borrows or carries, as 0 <= k - Q(k) < 2^(w-1), and its top bit is set
    exactly when Q(k) = k.  The top byte of each field is read as a flag.
    """
    V = n.V
    N, L = (V * V - 1).bit_length(), V.bit_length()
    s = N + L
    M = -(-(1 << s) // V)
    B = (V * V * M).bit_length() // 8 + 1
    w = 8 * B
    ones, K = _counting_words(w, V - 1)
    low, mask = ((1 << L) - 1) * ones, ones << w - 1
    Q = sum([(K * (v * M) >> s) & low for v in n.n])
    flags = ((Q + mask - K) & mask).to_bytes(B * (V - 1), "little")[B - 1 :: B]
    return list(itertools.compress(range(1, V), flags))


def lattice_points_in_shrunk_simplex(
    n: WeightVector, eps: Fraction | int = EPS_ONE
) -> list[LatticeWitness]:
    """The classes k whose point lies in the closed simplex of (n, eps), in k order.

    Each axis window [(1-eps)*p_i, (1-eps)*p_i + eps] lies in [0, 1], as
    0 < p_i <= 1, so a coset point x = frac(k*p) + t has t_i in {0, 1}, and
    t_i = 1 puts x at the top of its window: y_i = 1 in y = (x - (1-eps)*p)/eps,
    so every other y_j is 0 and x is the vertex (1-eps)*p + eps*e_i.  Its
    coordinates sum to 1 + (1-eps)/V and those of a point of class k to k/V
    mod 1, so that needs k = 0 and eps = 1.  Class 0 thus gives only the d+1
    vertices, which decide no verdict and are not listed, and each class
    k >= 1 has one candidate, frac(k*p).  `_coset_classes` lists, in k order,
    the classes whose candidate can lie in the simplex at any eps, and
    `place_class` places each.
    """
    eps = checked_eps(eps)
    return [LatticeWitness(k, m) for k in _coset_classes(n)
            if (m := place_class(n, k, eps)) is not OUTSIDE]


def brute_force_lattice_points(
    n: WeightVector, eps: Fraction | int = EPS_ONE
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
