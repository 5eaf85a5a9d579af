from __future__ import annotations

import collections.abc
import dataclasses
import hashlib
import inspect
import pickle
import random
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from blowups import exactgeom
from blowups._record import Record
from blowups.classifier import classify, is_canonical_fast, is_terminal_fast
from blowups.exactgeom import (
    EPS_ONE,
    ORACLE_CAP,
    LatticeWitness,
    MembershipClass,
    OracleCapExceeded,
    PackedRows,
    WeightVector,
    ZeroWeightError,
    _coset_classes,
    _counting_words,
    ascii_int,
    brute_force_lattice_points,
    checked_eps,
    frac_point,
    lattice_points_in_shrunk_simplex,
    place_class,
    residue_classes,
)
from blowups.families import Quintuple, get_quintuple
from blowups.projections import ProjectedConfig
from blowups.search import (
    CensusQuery,
    CensusResult,
    Histogram,
    enumerate_blowups,
    partition_count,
    run_census,
)
from blowups.sporadic import EMBEDDED_RECORDS

from conftest import (
    PRUNE_EPSILONS,
    _unpruned_lattice_points,
    _verdicts,
    classify_point,
    large_index_vectors,
    mld_reference,
    to_integer_lattice,
    weight_vectors,
)

F = Fraction


# ---------------------------------------------------------------- types


def test_weight_vector_invariants():
    w = WeightVector((6, 10, 15, 7))
    assert (w.d, w.V, w.n_min) == (4, 37, 6)
    # V is a slot summed once; there is no instance dict, and equality, hash
    # and repr read n alone
    assert not hasattr(w, "__dict__") and WeightVector.__slots__ == ("n", "V")
    assert repr(w) == "WeightVector(n=(6, 10, 15, 7))"
    twin = WeightVector((6, 10, 15, 7))
    WeightVector.V.__set__(twin, 0)  # a wrong V, on purpose
    assert twin == w and hash(twin) == hash(w) == hash(WeightVector((6, 10, 15, 7)))
    assert repr(twin) == repr(w)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.V = 36
    with pytest.raises(ValueError):
        WeightVector((2, 2, 2))  # imprimitive
    with pytest.raises(ValueError):
        WeightVector((1,))  # d < 2
    with pytest.raises(ValueError):
        WeightVector((1, -1, 1))
    with pytest.raises(ValueError):
        WeightVector((0, 1))  # V = 0
    # a zero weight is refused by the type, even when primitive with V >= 1
    with pytest.raises(ZeroWeightError):
        WeightVector((0, 1, 2))


class _Pair(Record):
    __slots__ = ("a", "b")


def test_weight_vector_pickle_round_trip():
    # a record pickles as its constructor and its fields, so loading checks it
    # again and rebuilds what is derived: V, and a configuration's facets; each
    # of the package's ten records also compares, hashes and stays frozen
    for w in (WeightVector((6, 10, 15, 7)), next(enumerate_blowups(4, 37))):
        back = pickle.loads(pickle.dumps(w))
        assert type(back) is WeightVector and (back.n, back.V) == (w.n, w.V)
    bad = object.__new__(WeightVector)
    WeightVector.n.__set__(bad, (2, 4))
    with pytest.raises(ValueError, match="not primitive"):
        pickle.loads(pickle.dumps(bad))
    cfg = ProjectedConfig(((0, 0), (2, 0), (0, 2)), 1)
    records = [
        WeightVector((6, 10, 15, 7)),
        lattice_points_in_shrunk_simplex(WeightVector((1, 2)), 1)[0],
        classify(WeightVector((1, 2)), 1),
        get_quintuple("N17"),
        cfg,
        cfg.facets[0],
        CensusQuery(d=4, v_max=30, eps=F(1, 2), verdict="eps-lc", min_weight=2),
        Histogram({1: 3, 2: 1}),
        run_census(CensusQuery(d=3, v_max=12)),
        EMBEDDED_RECORDS[0],
    ]
    assert len({type(r) for r in records}) == 10
    for r in records:
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is type(r) and back == r and repr(back) == repr(r)
        if isinstance(r, (Histogram, CensusResult)):  # they hold a dict and a list
            with pytest.raises(TypeError, match="unhashable"):
                hash(r)
            # hash() raises from the dict alone; the ABC reads `__hash__ = None`
            assert not isinstance(r, collections.abc.Hashable)
        else:
            assert hash(back) == hash(r)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, r._fields[0], None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(r, r._fields[-1])
    assert pickle.loads(pickle.dumps(cfg)).facets == cfg.facets
    # a record equals only a record of its own class
    w = records[0]
    assert w.__eq__(w.n) is NotImplemented and w != w.n
    assert WeightVector((1, 2)) != LatticeWitness(1, MembershipClass.INTERIOR)
    # a record declared by its slots alone takes them as its fields, in order,
    # through the base constructor, which wants exactly one value per field
    p = _Pair(1, (2, 3))
    back = pickle.loads(pickle.dumps(p))
    assert _Pair._fields == ("a", "b") and type(back) is _Pair and back == p
    assert repr(back) == "_Pair(a=1, b=(2, 3))" and hash(back) == hash(p)
    assert p != _Pair((2, 3), 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.a = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del p.b
    for make in (Histogram, lambda: Quintuple("Q1"), lambda: _Pair(1, 2, 3)):
        with pytest.raises(TypeError, match="takes"):
            make()


def test_weight_vector_refuses_non_integers():
    # int() would truncate 1.9 to 1 and 5/2 to 2 without a word
    for bad in ((1.9, 2), (F(5, 2), 3), ("2", 3)):
        with pytest.raises(TypeError):
            WeightVector(bad)


def test_membership_layer_rejects_bad_eps():
    w = WeightVector((1, 2))
    calls = (
        lambda eps: lattice_points_in_shrunk_simplex(w, eps),
        lambda eps: classify_point((F(1, 2), 0), w, eps),
        lambda eps: is_terminal_fast(w, eps),
        lambda eps: is_canonical_fast(w, eps),
    )
    for call in calls:
        for eps in (0, -1, F(3, 2), 2, F(0), F(-1, 2)):
            with pytest.raises(ValueError):
                call(eps)
        with pytest.raises(TypeError):
            call(0.5)
    # an exact Fraction is checked on its integers, with the general message
    for eps in (F(0), F(3, 2), F(-1, 2)):
        with pytest.raises(ValueError, match=rf"in \(0, 1\], got {eps}$"):
            checked_eps(eps)
    assert checked_eps(F(1)) == 1 and checked_eps(F(2, 3)) == F(2, 3)
    # every eps default is the one object EPS_ONE, which `checked_eps` returns as is
    defaults = [
        inspect.signature(f).parameters["eps"].default
        for f in (lattice_points_in_shrunk_simplex, classify_point, brute_force_lattice_points,
                  classify, is_terminal_fast, is_canonical_fast, CensusQuery)
    ]
    assert all(x is EPS_ONE is checked_eps(x) for x in defaults), defaults


def test_checked_eps_text():
    assert checked_eps("1") == 1 and str(checked_eps("1/2")) == "1/2"
    assert checked_eps(" 1/2 ") == checked_eps("2/4") == F(1, 2)
    # pytest.raises(ValueError) does not catch ZeroDivisionError
    # int() would read a fullwidth or Arabic-Indic digit, or an underscore
    for bad in ("0.5", "0", "3/2", "1/0", "-1/2", "x", "1e-1", "+1/2",
                "1/\uff12", "\u0661/\u0662", "1_0/20"):
        with pytest.raises(ValueError):
            checked_eps(bad)
    with pytest.raises(ValueError, match="^epsilon denominator is zero$"):
        checked_eps("1/0")
    with pytest.raises(ValueError, match="^epsilon must be an integer or p/q fraction, got '1e-1'$"):
        checked_eps("1e-1")


def test_ascii_int_text():
    assert [ascii_int(t) for t in ("37", " -12 ", "+3", "007")] == [37, -12, 3, 7]
    # int() would read a fullwidth or Arabic-Indic digit, or an underscore
    for bad in ("\uff12", "\uff120", "\u0662", "1_0", "3_7", "\u20035"):
        with pytest.raises(ValueError, match="^not an integer in ASCII digits: "):
            ascii_int(bad)
    for bad in ("", " ", "1.0", "0x10", "1 2", "+-1", "x"):
        with pytest.raises(ValueError):
            ascii_int(bad)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_checked_eps_text_is_the_fraction(p, q):
    text = f"{p}/{q}"
    if 0 < p <= q:
        assert checked_eps(text) == F(p, q)
    else:
        with pytest.raises(ValueError):
            checked_eps(text)


# ---------------------------------------------------------------- frac_point


def test_frac_point_examples():
    assert frac_point(WeightVector((1, 2, 3)), 1) == (F(1, 5), F(2, 5), F(3, 5))
    assert frac_point(WeightVector((1, 1, 2, 2)), 3) == (F(3, 5), F(3, 5), F(1, 5), F(1, 5))
    assert frac_point(WeightVector((6, 10, 15, 7)), 36) == (
        F(31, 37), F(27, 37), F(22, 37), F(30, 37),
    )


def test_frac_point_range_errors():
    w = WeightVector((1, 2, 3))
    for k in (0, 5, -1):
        with pytest.raises(ValueError):
            frac_point(w, k)


@given(weight_vectors(max_index=30))
def test_frac_point_nonzero_in_range(w):
    for k in range(1, w.V):
        fp = frac_point(w, k)
        assert all(0 <= c < 1 for c in fp)
        assert any(c != 0 for c in fp)  # primitivity forbids k*p integral


# ---------------------------------------------------------------- classify_point


def test_classify_point_apex_is_vertex():
    w, eps = WeightVector((1, 2)), F(1, 2)
    apex = tuple((1 - eps) * F(ni, w.V) for ni in w.n)
    assert classify_point(apex, w, eps) is MembershipClass.VERTEX


def test_classify_point_examples():
    w = WeightVector((1, 2))
    assert classify_point((F(1, 2), 0), w, 1) is MembershipClass.BOUNDARY_NONVERTEX
    assert classify_point((F(1, 2), 1), w, F(1, 2)) is MembershipClass.OUTSIDE


def test_classify_point_interior():
    w = WeightVector((1, 2))
    assert classify_point((F(1, 4), F(1, 4)), w, 1) is MembershipClass.INTERIOR


def test_classify_point_dimension_mismatch():
    with pytest.raises(ValueError):
        classify_point((F(1, 2),), WeightVector((1, 2)), 1)


# ---------------------------------------------------------------- enumeration


def test_enumeration_example_1_2():
    got = lattice_points_in_shrunk_simplex(WeightVector((1, 2)), 1)
    assert len(got) == 1
    w = got[0]
    assert w.k == 1 and frac_point(WeightVector((1, 2)), w.k) == (F(1, 2), F(0))
    assert w.membership is MembershipClass.BOUNDARY_NONVERTEX


def test_enumeration_example_1_1_1():
    # the simplex meets the coset lattice only in its vertices, which are not listed
    assert lattice_points_in_shrunk_simplex(WeightVector((1, 1, 1)), 1) == []


def test_enumeration_v1_has_no_nonzero_cosets():
    assert lattice_points_in_shrunk_simplex(WeightVector((1, 1)), 1) == []


def test_enumeration_order_is_k():
    got = lattice_points_in_shrunk_simplex(WeightVector((7, 8, 8)), 1)
    assert [w.k for w in got] == [11, 14, 17, 20]


@given(weight_vectors(max_index=25), st.sampled_from([F(1), F(1, 2), F(1, 3)]))
@settings(max_examples=120, deadline=None)
def test_coset_soundness_and_recheck(w, eps):
    got = lattice_points_in_shrunk_simplex(w, eps)
    points = [frac_point(w, wit.k) for wit in got]
    for wit, x in zip(got, points):
        assert classify_point(x, w, eps) is wit.membership
        assert wit.membership is not MembershipClass.VERTEX
    # no point of class k >= 1 lies on the facet opposite the apex, so the
    # running-sum cutoff of the enumeration can never meet its bound exactly
    y_sums = [sum(x) - (1 - eps) * F(sum(w.n), w.V) for x in points]
    assert all(t != eps for t in y_sums)


# ------------------------------------------- pruned loop against the full one


def _fields(witnesses, w, eps):
    """The witnesses in the reference's fields, with the vertex rows at eps = 1.

    A witness of class k has translate 0 and V*point = (k*n_i mod V); the
    enumeration no longer lists the d+1 vertices of class 0, so they are
    added back as the reference emits them.
    """
    n, V, d = w.n, w.V, w.d
    out = []
    if eps == 1:
        units = [tuple(int(j == i) for j in range(d)) for i in reversed(range(d))]
        for z in [(0,) * d, *units]:
            out.append((0, z, tuple(V * zi for zi in z), MembershipClass.VERTEX))
    for x in witnesses:
        out.append((x.k, (0,) * d, tuple(x.k * ni % V for ni in n), x.membership))
    return out


# sha256 over every (vector, eps) pair and its witness fields, taken from the
# enumeration before the running-sum cutoff; 75,936 pairs in all
PRUNE_DIGESTS = {
    (2, 150):
        "9a883ab1a9ab28f3ac627e446c3e5034e51d78161f086533bbaf71ba4c3c723c",
    (3, 60):
        "a3087d572e037a29a3cb94170b9e9067862e633a9888867d074e237ceac8d10f",
    (4, 30):
        "bf86309a0be1d62d0826817a9c8027f9ea4f9e978a60cd0a64a83fc182e87cf7",
    (5, 16):
        "9bbc85c540493ae93073a2f00601d761d554121ef8f71c1436584259b41a6aab",
}


@pytest.mark.parametrize("d,vmax", sorted(PRUNE_DIGESTS))
def test_pruned_enumeration_matches_unpruned_exhaustive(d, vmax):
    # the digests were taken from fields equal to the unpruned reference's, so
    # they pin the same rows without recomputing it; the fast kernels, whose
    # residue pass the enumeration does not use, are checked against those
    # rows.  eps = 1 passed as a Fraction or an int, or left to its default,
    # gives the same verdicts
    h = hashlib.sha256()
    for V in range(1, vmax + 1):
        for w in enumerate_blowups(d, V):
            for eps in PRUNE_EPSILONS:
                got = _fields(lattice_points_in_shrunk_simplex(w, eps), w, eps)
                verdicts = (is_terminal_fast(w, eps), is_canonical_fast(w, eps))
                assert verdicts == _verdicts(got), (w.n, eps)
                if eps == 1:
                    assert verdicts == (is_terminal_fast(w), is_canonical_fast(w))
                    assert verdicts == (is_terminal_fast(w, 1), is_canonical_fast(w, 1))
                h.update(repr((w.n, str(eps), got)).encode())
    assert h.hexdigest() == PRUNE_DIGESTS[d, vmax]


@st.composite
def _epsilons(draw):
    b = draw(st.integers(1, 12))
    return F(draw(st.integers(1, b)), b)


@given(large_index_vectors(), _epsilons())
@settings(max_examples=150, deadline=None)
def test_pruned_enumeration_matches_unpruned_sampled(w, eps):
    # the fast kernels take their classes from another pass, checked here too
    reference = _unpruned_lattice_points(w, eps)
    assert _fields(lattice_points_in_shrunk_simplex(w, eps), w, eps) == reference
    assert (is_terminal_fast(w, eps), is_canonical_fast(w, eps)) == _verdicts(reference)


# ------------------------------------- packed coset pass against the scalar one


def _check_coset_classes(ws):
    for w in ws:
        assert _coset_classes(w) == sorted(residue_classes(w)), w.n


@pytest.mark.parametrize("d,vmax", [(2, 300), (3, 100), (4, 60), (5, 20), (6, 20)])
def test_coset_classes_match_residue_pass_exhaustive(d, vmax):
    for V in range(1, vmax + 1):
        _check_coset_classes(enumerate_blowups(d, V))


def _field_bytes(V):
    # the field width of `_coset_classes` in bytes: the least B with
    # 2^(8B-1) > V^2*M, M = ceil(2^s/V), s = N + L, V^2 <= 2^N and 2^L > V
    N, L = (V * V - 1).bit_length(), V.bit_length()
    M, B = -(-(2 ** (N + L)) // V), 1
    while 2 ** (8 * B - 1) <= V * V * M:
        B += 1
    return B


# both sides of each step of the field width, from 1 byte at V = 2 to 8 at 11,586
_WIDTH_STEPS = [2, 3, 11, 12, 45, 46, 181, 182, 724, 725, 2896, 2897, 11585, 11586]


def _compositions(d, V, rng):
    """Primitive vectors of d weights and index V: the weights 1, ..., 1,
    V + 2 - d, the most balanced ones, and three seeded random ones."""
    q, r = divmod(V + 1, d)
    found = [(1,) * (d - 1) + (V + 2 - d,), (q,) * (d - r) + (q + 1,) * r]
    for _ in range(3):
        cuts = sorted(rng.sample(range(1, V + 1), d - 1))
        found.append(tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, V + 1])))
    return [WeightVector(n) for n in dict.fromkeys(found) if gcd(*n) == 1]


def test_coset_classes_at_width_steps():
    assert [_field_bytes(V) for V in _WIDTH_STEPS] == [1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8]
    rng = random.Random(1)
    for V in _WIDTH_STEPS:
        for d in range(2, min(6, V + 1) + 1):
            ws = _compositions(d, V, rng)
            assert ws, (d, V)
            _check_coset_classes(ws)


@given(large_index_vectors(min_d=2, max_d=8, max_index=12_000))
@settings(max_examples=150, deadline=None)
def test_coset_classes_match_residue_pass_sampled(w):
    _check_coset_classes([w])


def test_coset_classes_edges():
    assert _coset_classes(WeightVector((1, 1))) == []  # V = 1 has no class k >= 1
    for V in (2, 3, 12, 46, 419, 2897):
        # s(k) = k for the weights (1, V), so every class is listed
        assert _coset_classes(WeightVector((1, V))) == list(range(1, V))
    # every weight divides V, so some residues vanish at many k
    divisors = [(2, 2, 3), (1, 1, 2, 3), (3, 4, 6), (2, 3, 4, 4), (5, 6, 10, 20, 20)]
    for n in divisors:
        w = WeightVector(n)
        assert all(w.V % v == 0 for v in n)
        _check_coset_classes([w])


# ------------------------------------------ packed counting words, one builder


def test_counting_words_match_reference(monkeypatch):
    # every width from 1 to 48 bits, m = 0..300 fields with m < 2^w, each
    # width grown one field at a time from a cold cache
    monkeypatch.setattr(exactgeom, "_WORDS", {})
    for w in range(1, 49):
        ones = K = 0
        for m in range(min(301, 2**w)):
            assert _counting_words(w, m) == (ones, K), (w, m)
            ones += 1 << w * m
            K += m + 1 << w * m


def test_counting_words_in_any_call_order(monkeypatch):
    # grow, shrink, repeat a count, and grow from counts that are no power of
    # two; the longest pair is kept at its count and a repeat returns it
    monkeypatch.setattr(exactgeom, "_WORDS", {})
    w, longest = 12, 1
    for m in [5, 3, 5, 5, 12, 7, 0, 100, 37, 100, 1, 1000, 999, 2, 1000, 1001]:
        ones, K = _counting_words(w, m)
        assert ones == sum(1 << w * i for i in range(m)), m
        assert K == sum(i + 1 << w * i for i in range(m)), m
        longest = max(longest, m)
        count, kept_ones, kept_K = exactgeom._WORDS[w]
        assert count == longest, m
        if m == longest:
            assert (kept_ones, kept_K) == (ones, K)
            again = _counting_words(w, m)
            assert again[0] is kept_ones and again[1] is kept_K


def _cold(monkeypatch, build):
    monkeypatch.setattr(exactgeom, "_WORDS", {})
    return build()


def test_packed_words_from_a_warm_cache_match_a_cold_one(monkeypatch):
    # the coset pass at both sides of each byte step, 4 -> 5 bytes included,
    # after the largest index of its width has warmed the cache
    rng = random.Random(3)
    last = {}  # field bytes -> the largest index of the width among the steps
    for V in _WIDTH_STEPS:
        last[_field_bytes(V)] = V
    for V in _WIDTH_STEPS:
        ws = _compositions(min(4, V + 1), V, rng)
        cold = [_cold(monkeypatch, lambda: _coset_classes(w)) for w in ws]
        _coset_classes(WeightVector((1, last[_field_bytes(V)])))
        assert [_coset_classes(w) for w in ws] == cold, V
    # the packed census rows, every block, after the largest index of their width
    for d, V in [(2, 7), (3, 60), (4, 60), (4, 419), (4, 725), (5, 100)]:
        widest = ((1 << (d * V).bit_length()) - 1) // d
        for block in _BLOCKS[::3]:
            cold = _cold(monkeypatch, lambda: PackedRows(d, V, *block).rows)
            PackedRows(d, widest)
            assert PackedRows(d, V, *block).rows == cold, (d, V, block)


# --------------------------------------- packed verdict bitsets against scalar


_EPSILONS = [EPS_ONE, *PRUNE_EPSILONS]  # the kernels' default object first
# the (eps, interior) of a block: its verdict is the closed simplex or its interior
_BLOCKS = [(e, interior) for e in _EPSILONS for interior in (False, True)]


def _classes_of(bits, width):
    """The classes k of a bitset of `PackedRows.classes`, in k order."""
    ks = []
    while bits:
        low = bits & -bits
        ks.append(low.bit_length() // width)
        bits ^= low
    return ks


def _scalar_placed(w):
    """Per block of `_BLOCKS`, the classes of the scalar pass that `place_class`
    puts in the closed simplex or in its interior, in k order, and the
    verdict of the scalar kernel of that block."""
    classes = sorted(residue_classes(w))
    out = []
    for e in _EPSILONS:
        placed = [(k, place_class(w, k, e)) for k in classes]
        closed = [k for k, m in placed if m is not MembershipClass.OUTSIDE]
        interior = [k for k, m in placed if m is MembershipClass.INTERIOR]
        out += [(closed, is_terminal_fast(w, e)), (interior, is_canonical_fast(w, e))]
    return out


def _packed_placed(ws, d, V, blocks=_BLOCKS):
    """`_scalar_placed` of each vector of ws, per block at (d, V): the classes
    read off its bitset, and the verdict that no class is left."""
    out = [[] for _ in ws]
    for e, interior in blocks:
        rows = PackedRows(d, V, e, interior)
        for got, w in zip(out, ws):
            bits = rows.classes(w.n)
            got.append((_classes_of(bits, rows.width), not bits))
        del rows  # at V = 8,193 the rows of one block take 140 MB
    return out


def _check_packed_against_scalar(ws, d, V):
    assert _packed_placed(ws, d, V) == [_scalar_placed(w) for w in ws], (d, V)


def _row_fields(bits, width, count):
    return [bits >> width * i & (1 << width) - 1 for i in range(count)]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_packed_rows_hold_every_residue(d):
    # every field of every row v = 0..V is k*v mod V, or V + 1 where that
    # residue r fails the block's verdict at eps = a/b: b*r < (b-a)*v in the
    # closed simplex, b*r <= (b-a)*v in its interior; nothing lies above the
    # fields.  Every block at V <= 30; the closed one at eps = 1 at V <= 60,
    # V = 419, and both sides of each width edge d*V = 2^j above V = 60, up
    # to d*V = 512
    edges = {V for j in range(7, 10) for V in ((2**j - 1) // d, -(-2**j // d))}
    for V in sorted({*range(1, 61), 419, *edges}):
        for e, interior in _BLOCKS if V <= 30 else _BLOCKS[:1]:
            packed = PackedRows(d, V, e, interior)
            rows, w, a, b = packed.rows, packed.width, e.numerator, e.denominator
            assert type(rows) is list and len(rows) == V + 1 and packed.d == d
            assert 2 ** (w - 1) > d * V >= 2 ** (w - 2)
            for v, row in enumerate(rows):
                fields = [
                    V + 1 if b * r < (b - a) * v or interior and b * r == (b - a) * v else r
                    for r in (k * v % V for k in range(1, V))
                ]
                assert _row_fields(row, w, V - 1) == fields, (V, v, e, interior)
                assert row >> w * (V - 1) == 0, (V, v)
            assert _row_fields(packed.mask, w, V - 1) == [1 << w - 1] * (V - 1)
            assert _row_fields(packed.bias, w, V - 1) == [(1 << w - 1) - 1 - V] * (V - 1)


@pytest.mark.parametrize("d,vmax", [(2, 60), (3, 36), (4, 26), (5, 18)])
def test_packed_pass_matches_scalar_exhaustive(d, vmax):
    # per (eps, verdict), the bitsets of one block and its kernel against place_class
    for V in range(1, vmax + 1):
        _check_packed_against_scalar(list(enumerate_blowups(d, V)), d, V)


@given(large_index_vectors(max_index=419))
@settings(max_examples=150, deadline=None)
def test_packed_pass_matches_scalar_sampled(w):
    _check_packed_against_scalar([w], w.d, w.V)


@st.composite
def _candidate_windows(draw):
    # a block of `_BLOCKS` at d = 3..6, V <= 419, and up to 2,000 consecutive
    # candidates of the enumeration from an offset of at most 500,000: any
    # offset at d <= 4, and a skip of at most 0.2 s where an index has
    # millions of candidates
    d = draw(st.integers(3, 6))
    V = draw(st.integers(d - 1, 419))
    block = draw(st.sampled_from(_BLOCKS))
    offset = draw(st.integers(0, min(partition_count(V + 1, d) - 1, 500_000)))
    size = draw(st.integers(1, 2000))
    window = list(islice(enumerate_blowups(d, V), offset, offset + size))
    assume(window)  # the partitions counted include imprimitive ones
    return PackedRows(d, V, *block), block, window


@given(_candidate_windows())
@settings(max_examples=60, deadline=None)
def test_packed_passes_match_classes_and_kernel_sampled(drawn):
    # the prefix cache of `passes`, across the prefix changes of a window,
    # against the bitset of each candidate and the scalar kernel of the block
    rows, block, window = drawn
    _check_passes(rows, block, window)


def _check_passes(rows, block, window):
    # `passes` over a run of candidates against the bitset of each and the
    # scalar kernel of the block
    e, interior = block
    kernel = is_canonical_fast if interior else is_terminal_fast
    got = rows.passes(window)
    assert got == [x for w in window if not rows.classes(w.n) for x in w.n], (rows.d, block)
    assert got == [x for w in window if kernel(w, e) for x in w.n], (rows.d, block)


def test_packed_field_width_edges():
    # both sides of d*V = 2^j at d = 2..5 and j = 6, 7: at d = 4, d*V = 124
    # fits 8-bit fields and d*V = 128 needs 9 bits.  Every candidate of each
    # edge index, by its bitsets and by `passes` in every block
    for d in (2, 3, 4, 5):
        for V in sorted({V for j in (6, 7) for V in ((2**j - 1) // d, -(-2**j // d))}):
            assert PackedRows(d, V).width == (d * V).bit_length() + 1
            window = list(enumerate_blowups(d, V))
            _check_packed_against_scalar(window, d, V)
            for block in _BLOCKS:
                _check_passes(PackedRows(d, V, *block), block, window)
    assert [PackedRows(4, V).width for V in (31, 32)] == [8, 9]
    # d*V = 32,772 is just past 2^15, so 16-bit fields no longer do; the rows
    # at V = 8,193 take 140 MB, so its vectors share a block of each of two
    # verdicts, the second with folded fields
    assert PackedRows(4, 8191).width == 16
    large = [(1, 2, 3, 8188), (2047, 2048, 2049, 2050), (1, 1, 4096, 4096), (3, 3, 5, 8183)]
    large = [WeightVector(n) for n in large]
    blocks = [(EPS_ONE, False), (F(1, 2), True)]
    got = _packed_placed(large, 4, 8193, blocks)
    expected = [_scalar_placed(w) for w in large]
    assert got == [[placed[_BLOCKS.index(b)] for b in blocks] for placed in expected]
    # the d = 2 vector (1, V), every class of which is in the closed simplex
    # at eps = 1, and V = 1
    for V in (1, 2, 7, 64, 419):
        w = WeightVector((1, V))
        _check_packed_against_scalar([w], 2, V)
        assert len(_scalar_placed(w)[0][0]) == V - 1
    # a vector shorter than the block's dimension fits its fields too
    _check_packed_against_scalar([WeightVector((1, 1, 2))], 4, 3)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_packed_all_ones_vector_fails_every_field(d):
    # at V = d - 1, s(k) = d*k > V: every field of the sum has its top bit set,
    # in every block, and the vector is terminal at every eps
    w, V = WeightVector((1,) * d), d - 1
    for e, interior in _BLOCKS:
        rows = PackedRows(d, V, e, interior)
        assert rows.classes(w.n) == 0
    _check_packed_against_scalar([w], d, V)


def _verdicts_at_every_eps(w):
    return [(is_terminal_fast(w, e), is_canonical_fast(w, e)) for e in _EPSILONS]


@given(large_index_vectors(min_d=2, max_d=6, max_index=419))
@settings(max_examples=150, deadline=None)
def test_kernels_match_mld_reference(w):
    # terminal iff mld > eps, canonical iff mld >= eps, by the scalar kernels
    # and by the bitset of packed rows of each eps and verdict
    mld = mld_reference(w)
    expected = [(mld > e, mld >= e) for e in _EPSILONS]
    assert _verdicts_at_every_eps(w) == expected, w.n
    for e, interior in _BLOCKS:
        passes = not PackedRows(w.d, w.V, e, interior).classes(w.n)
        assert passes == (mld >= e if interior else mld > e), (w.n, e, interior)


def test_mld_reference_examples():
    assert mld_reference(WeightVector((4, 5))) == F(2, 5)  # the classical d = 2 value
    assert mld_reference(WeightVector((1, 1, 1))) == float("inf")
    assert mld_reference(WeightVector((32, 41, 71, 102))) > 1  # the d = 4 maximiser is terminal
    assert mld_reference(WeightVector((300, 303, 313, 366))) == F(1, 2)


# ---------------------------------------------------------------- brute force


def test_brute_force_examples():
    got = dict(brute_force_lattice_points(WeightVector((1, 2)), 1))
    assert got == {
        (1, 0): MembershipClass.VERTEX,
        (0, 1): MembershipClass.VERTEX,
        (1, 2): MembershipClass.VERTEX,
        (1, 1): MembershipClass.BOUNDARY_NONVERTEX,
    }
    got = brute_force_lattice_points(WeightVector((1, 1, 1)), 1)
    assert sorted(p for p, _ in got) == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    assert all(c is MembershipClass.VERTEX for _, c in got)
    got = brute_force_lattice_points(WeightVector((1, 2, 3)), 1)
    assert all(c is MembershipClass.VERTEX for _, c in got) and len(got) == 4


def test_brute_force_cap():
    assert ORACLE_CAP == 60
    with pytest.raises(OracleCapExceeded):
        brute_force_lattice_points(WeightVector((29, 33)), 1)  # V = 61
    assert brute_force_lattice_points(WeightVector((30, 31)), 1)  # V = 60


def test_brute_force_rejects_bad_eps():
    with pytest.raises(ValueError):
        brute_force_lattice_points(WeightVector((1, 2)), F(5, 4))


# -------------------------------------------------- oracle equivalence (small)


@pytest.mark.parametrize("d,vmax", [(2, 14), (3, 12), (4, 16), (5, 10)])
@pytest.mark.parametrize("eps", [F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 4)])
def test_oracle_equivalence_exhaustive(d, vmax, eps):
    for V in range(1, vmax + 1):
        for w in enumerate_blowups(d, V):
            coset = lattice_points_in_shrunk_simplex(w, eps)
            brute = {tuple(map(F, p)): c for p, c in brute_force_lattice_points(w, eps)}
            # the vertices, which the enumeration does not list, are n and
            # the e_i in these coordinates, and lattice points only at eps = 1
            vertices = {p for p, c in brute.items() if c is MembershipClass.VERTEX}
            units = [tuple(map(F, (int(j == i) for j in range(d)))) for i in range(d)]
            assert vertices == ({tuple(map(F, w.n)), *units} if eps == 1 else set())
            # point-level correspondence through the coordinate change
            mapped = {
                to_integer_lattice(frac_point(w, wit.k), w): wit.membership
                for wit in coset
            }
            assert len(mapped) == len(coset)
            assert mapped == {p: c for p, c in brute.items() if p not in vertices}


def test_exactness_everything_is_fraction():
    w = WeightVector((1, 1, 2, 2))
    for wit in lattice_points_in_shrunk_simplex(w, F(2, 3)):
        assert all(isinstance(c, F) for c in frac_point(w, wit.k))
