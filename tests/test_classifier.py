from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from blowups.classifier import (
    SingularityClass,
    classify,
    is_canonical_fast,
    is_terminal_fast,
)
from blowups.exactgeom import (
    MembershipClass,
    WeightVector,
    ZeroWeightError,
    _coset_classes,
    frac_point,
    residue_classes,
)
from blowups.search import enumerate_blowups

from conftest import (
    PRUNE_EPSILONS,
    classify_point,
    flags_from_brute,
    kawakita_form,
    large_index_vectors,
    weight_vectors,
)

F = Fraction


def W(*n):
    return WeightVector(n)


# ---------------------------------------------------------------- classify


def test_classify_terminal_family_member():
    v = classify(W(6, 10, 15, 7), 1)
    assert v.eps_log_terminal and v.eps_log_canonical and v.witness is None


def test_classify_non_kawakita_not_terminal():
    assert not classify(W(2, 3, 5), 1).eps_log_terminal


def test_classify_1_2_boundary_witness():
    v = classify(W(1, 2), 1)
    assert (v.eps_log_terminal, v.eps_log_canonical) == (False, True)
    assert frac_point(W(1, 2), v.witness.k) == (F(1, 2), F(0))
    assert v.witness.membership is MembershipClass.BOUNDARY_NONVERTEX


def test_classify_1_2_shrunk_is_terminal():
    v = classify(W(1, 2), F(1, 2))
    assert v.eps_log_terminal and v.eps_log_canonical and v.witness is None


def test_classify_named_maximizers():
    for n in ((32, 41, 71, 102), (20, 57, 133, 210), (21, 60, 140, 199)):
        assert classify(WeightVector(n), 1).eps_log_terminal


def test_classify_rejects_zero_weight_and_bad_eps():
    with pytest.raises(ZeroWeightError):
        classify(W(0, 1, 2), 1)
    with pytest.raises(ValueError):
        classify(W(1, 2), F(3, 2))
    with pytest.raises(ValueError):
        classify(W(1, 2), 0)


def test_witness_reproduces_refutation():
    for n, eps in (((2, 3, 5), F(1)), ((1, 2), F(1)), ((3, 4, 5, 7), F(1, 2))):
        w = WeightVector(n)
        v = classify(w, eps)
        if v.witness is None:
            continue
        assert classify_point(frac_point(w, v.witness.k), w, eps) is v.witness.membership
        if not v.eps_log_canonical:
            assert v.witness.membership is MembershipClass.INTERIOR


def test_singularity_class_flags_read_off_witness():
    # no witness: both flags; a boundary one refutes terminal only; an
    # interior one refutes both, so "terminal but not canonical" cannot occur
    empty = SingularityClass(F(1))
    assert empty.eps_log_terminal and empty.eps_log_canonical
    for n, flags in (((2, 3, 5), (False, True)), ((3, 4, 4), (False, False))):
        v = classify(W(*n), 1)
        assert (v.eps_log_terminal, v.eps_log_canonical) == flags
        assert v == SingularityClass(F(1), v.witness)


def test_classify_refuses_float_eps():
    # 0.1 is the binary fraction 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="0.1"):
        classify(W(2, 3, 5), 0.1)
    assert classify(W(2, 3, 5), "1/10").eps == F(1, 10)


# -------------------------------------------------------------- fast paths


def test_is_terminal_fast_examples():
    assert is_terminal_fast(W(1, 1, 2, 2))
    assert not is_terminal_fast(W(1, 2))
    assert is_terminal_fast(W(1, 1, 1))


def test_is_canonical_fast_examples():
    # (1,2): the k=1 representative (1/2, 0) has a zero coordinate, hence lies
    # on the boundary; the coordinate-sum test alone would wrongly say no.
    assert is_canonical_fast(W(1, 2))
    assert is_canonical_fast(W(1, 1, 4))
    with pytest.raises(ValueError):
        WeightVector((2, 2, 2))


def test_boundary_facet_subtlety_6_6_10_15():
    # canonical but not terminal; residue class k=12 sums to 1/3 < 1 yet has
    # zero coordinates, so it cannot refute hollowness
    w = W(6, 6, 10, 15)
    v = classify(w, 1)
    assert (v.eps_log_terminal, v.eps_log_canonical) == (False, True)
    assert is_canonical_fast(w) and not is_terminal_fast(w)


def test_fast_paths_reject_zero_weight():
    for fn in (is_terminal_fast, is_canonical_fast):
        with pytest.raises(ZeroWeightError):
            fn(W(0, 1, 1, 1))


# ------------------------------------------------------------ kawakita form


def test_kawakita_form_examples():
    assert kawakita_form(W(1, 2, 3))
    assert not kawakita_form(W(2, 3, 5))
    assert not kawakita_form(W(1, 2, 4))
    with pytest.raises(ValueError):
        kawakita_form(W(1, 2))


def test_kawakita_equivalence_exhaustive():
    for V in range(1, 61):
        for w in enumerate_blowups(3, V):
            assert classify(w, 1).eps_log_terminal == kawakita_form(w), w.n


# ------------------------------------------------------- invariant properties


def test_fast_geometric_agreement_exhaustive_small():
    for d, vmax in ((2, 30), (3, 25), (4, 16), (5, 10)):
        for V in range(1, vmax + 1):
            for w in enumerate_blowups(d, V):
                v = classify(w, 1)
                assert is_terminal_fast(w) == v.eps_log_terminal, w.n
                assert is_canonical_fast(w) == v.eps_log_canonical, w.n


def _full_range_flags(w: WeightVector) -> tuple[bool, bool]:
    # (terminal, canonical) by the Reid-Tai test over every k in [1, V-1], as
    # first written; a class that refutes canonical refutes terminal too
    V = w.V
    terminal = True
    for k in range(1, V):
        res = [(k * ni) % V for ni in w.n]
        s = sum(res)
        if s < V and 0 not in res:
            return False, False
        terminal = terminal and s > V
    return terminal, True


def test_fast_paths_match_full_range_reference():
    # the fast paths visit k <= V/2 only; odd and even V both occur, and at
    # even V the middle residue k = V/2 is its own complement.  Every eps is
    # checked against the unpruned coset enumeration by
    # test_pruned_enumeration_matches_unpruned_exhaustive, and against
    # classify, whose packed pass shares no residue loop with them, past the
    # oracle cap by test_fast_geometric_agreement_large_index_sampled.
    parities = set()
    for d, vmax in ((2, 300), (3, 100), (4, 40), (5, 24)):
        for V in range(1, vmax + 1):
            for w in enumerate_blowups(d, V):
                parities.add(V % 2)
                assert (is_terminal_fast(w), is_canonical_fast(w)) == _full_range_flags(w), w.n
    assert parities == {0, 1}


@given(weight_vectors(max_d=5, max_index=200))
@settings(max_examples=80, deadline=None)
def test_fast_geometric_agreement_sampled(w):
    v = classify(w, 1)
    assert is_terminal_fast(w) == v.eps_log_terminal
    assert is_canonical_fast(w) == v.eps_log_canonical


def _check_kernels_against_classify(w: WeightVector, epsilons) -> None:
    for e in epsilons:
        v = classify(w, e)
        assert is_terminal_fast(w, e) == v.eps_log_terminal, (w.n, e)
        assert is_canonical_fast(w, e) == v.eps_log_canonical, (w.n, e)


@given(
    large_index_vectors(min_d=3, max_d=6, max_index=2000),
    st.sampled_from([e for e in PRUNE_EPSILONS if e < 1]),
)
@settings(max_examples=100, deadline=None)
def test_fast_geometric_agreement_large_index_sampled(w, eps):
    # the kernels' lazy residue pass and the packed pass of classify are
    # independent, so each checks the other well past the oracle cap
    _check_kernels_against_classify(w, (F(1), eps))


@st.composite
def large_dimension_vectors(draw):
    """d = 20..200 and V <= d + 400: g times a composition of V/g + 1 into d
    parts, with g - 1 taken off the last.  At g = 1 that is any composition
    of V + 1, nearly always terminal at this d; at g >= 2 the classes
    k = V/g, 2V/g, ... have s(k) = k and d - 1 zero residues."""
    d = draw(st.integers(20, 200))
    g = draw(st.integers(1, (d + 400) // (d - 1)))
    m = draw(st.integers(d - 1, (d + 400) // g))
    # up to 199 cuts: one seeded sample is far cheaper than as many draws
    cuts = sorted(random.Random(draw(st.integers(0, 2**32))).sample(range(1, m + 1), d - 1))
    parts = [g * (hi - lo) for lo, hi in zip([0, *cuts], [*cuts, m + 1])]
    parts[-1] -= g - 1
    assume(gcd(*parts) == 1)
    return WeightVector(tuple(parts))


def _check_large_dimension(w: WeightVector) -> None:
    # at d >= 20 the lazy pass yields its classes V-k through the complement
    # identity s(V-k) = (d - z)*V - s(k), which the other tests reach
    # only up to d = 8; the packed pass of classify has no such step, so the
    # two passes and both kernels check each other here
    assert _coset_classes(w) == sorted(residue_classes(w)), w.n
    _check_kernels_against_classify(w, (F(1), F(1, 2), F(2, 3)))


def test_fast_geometric_agreement_large_dimension():
    ws = list(enumerate_blowups(398, 400))
    assert [w.n[-3:] for w in ws] == [(1, 1, 4), (1, 2, 3), (2, 2, 2)]
    for w in ws:
        _check_large_dimension(w)


@given(large_dimension_vectors())
@settings(max_examples=100, deadline=None)
def test_fast_geometric_agreement_large_dimension_sampled(w):
    _check_large_dimension(w)


@given(weight_vectors(max_index=30), st.sampled_from([F(1), F(1, 2), F(1, 3)]))
@settings(max_examples=100, deadline=None)
def test_terminal_implies_canonical(w, eps):
    v = classify(w, eps)
    assert not v.eps_log_terminal or v.eps_log_canonical


@given(
    weight_vectors(max_index=25),
    st.sampled_from([F(1), F(2, 3), F(1, 2)]),
    st.sampled_from([F(1, 2), F(1, 3), F(1, 6)]),
)
@settings(max_examples=80, deadline=None)
def test_eps_monotonicity(w, eps, shrink):
    smaller = eps * shrink
    big, small = classify(w, eps), classify(w, smaller)
    assert not big.eps_log_terminal or small.eps_log_terminal
    assert not big.eps_log_canonical or small.eps_log_canonical


@given(weight_vectors(max_index=25), st.data(), st.sampled_from([F(1), F(1, 2)]))
@settings(max_examples=80, deadline=None)
def test_permutation_invariance(w, data, eps):
    perm = data.draw(st.permutations(range(w.d)))
    sigma = tuple(w.n[i] for i in perm)
    a = classify(w, eps)
    b = classify(WeightVector(sigma), eps)
    assert (a.eps_log_terminal, a.eps_log_canonical) == (
        b.eps_log_terminal, b.eps_log_canonical)


@given(weight_vectors(max_index=25), st.sampled_from([F(1), F(1, 2), F(1, 3)]))
@settings(max_examples=100, deadline=None)
def test_classify_matches_original_coordinates_oracle(w, eps):
    v = classify(w, eps)
    assert (v.eps_log_terminal, v.eps_log_canonical) == flags_from_brute(w, eps)
