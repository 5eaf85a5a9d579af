from __future__ import annotations

from fractions import Fraction
from math import floor, gcd

import pytest

from blowups.classifier import is_canonical_fast, is_terminal_fast
from blowups.families import (
    APICES,
    DivisibilityError,
    apex_residues,
    blowup_from_quintuple,
    bound_dim1,
    get_quintuple,
    instantiate,
    quintuple_table,
    scan_families,
    sign_choices,
    table_csv,
)

from conftest import RATIO_TABLE, bound_subset, check_ratio_lemma

F = Fraction


# ------------------------------------------------------------------- table


def test_table_shape():
    rows = quintuple_table()
    assert len(rows) == 46
    labels = [q.label for q in rows]
    assert labels[:29] == [f"Q{i}" for i in range(1, 30)]
    assert labels[29:] == [f"N{i}" for i in range(1, 18)]


def test_table_row_invariants():
    for q in quintuple_table():
        assert sum(q.base) == 0
        b = q.base
        assert b[0] > b[1] > 0 > b[2] >= b[3] >= b[4], q.label
        assert q.index in (1, 2, 3, 4, 6)
        assert sum(q.nums) == (0 if q.index == 1 else q.index)
        assert gcd(*q.nums, q.index) == 1


def test_table_verbatim_rows():
    assert get_quintuple("Q1").base == (9, 1, -2, -3, -5)
    assert get_quintuple("Q11").base == (15, 1, -2, -5, -9)
    assert get_quintuple("Q29").base == (30, 1, -6, -10, -15)
    n5 = get_quintuple("N5")
    assert n5.base == (8, 3, -1, -4, -6)
    assert (n5.nums, n5.index) == ((0, 0, 0, 1, 1), 2)
    n1 = get_quintuple("N1")
    assert n1.base == (6, 1, -2, -2, -3)
    assert (n1.nums, n1.index) == ((1, 0, 0, 1, 0), 2)
    with pytest.raises(ValueError, match="^unknown quintuple label 'Q30'$"):
        get_quintuple("Q30")


def test_table_csv_round_trip():
    lines = table_csv().strip().splitlines()
    assert lines[0] == "label,q1,q2,q3,q4,q5,r1,r2,r3,r4,r5,den"
    assert len(lines) == 47
    for line, q in zip(lines[1:], quintuple_table()):
        fields = line.split(",")
        assert fields[0] == q.label
        base = tuple(int(x) for x in fields[1:6])
        nums = [int(x) for x in fields[6:11]]
        den = int(fields[11])
        assert base == q.base and den == q.index
        assert tuple(nums) == q.nums


# ------------------------------------------------------------- instantiate


def test_instantiate_examples():
    assert instantiate("Q29", 7) == (30, 1, -6, -10, -15)
    assert instantiate("N5", 10) == (8, 3, -1, 1, -1)
    assert instantiate("N1", 4) == (8, 1, -2, 0, -3)


def test_instantiate_divisibility():
    with pytest.raises(DivisibilityError):
        instantiate("N5", 7)
    with pytest.raises(DivisibilityError):
        instantiate("N7", 4)
    with pytest.raises(DivisibilityError):
        instantiate("N15", 2)
    with pytest.raises(DivisibilityError):
        instantiate("N17", 3)
    assert instantiate("N17", 6) == (3, 2, -1, 0, 2)


def test_instantiate_signs():
    assert instantiate("N7", 3, sign=1) == (3, 1, 0, 1, -2)
    assert instantiate("N7", 3, sign=-1) == (3, 1, -2, -3, -2)
    with pytest.raises(ValueError):
        instantiate("N1", 4, sign=-1)  # fixed-sign row
    assert instantiate("Q3", 11, sign=-1) == get_quintuple("Q3").base
    with pytest.raises(ValueError):
        instantiate("Q3", 11, sign=2)
    with pytest.raises(ValueError):
        instantiate("Q3", 0)


def test_instantiate_refuses_non_integers():
    # V = 3.0 or sign = 1.0 once gave the float row (3.0, 1.0, 0.0, 1.0, -2.0)
    with pytest.raises(TypeError):
        instantiate("N7", 3.0)
    with pytest.raises(TypeError):
        instantiate("N7", 3, 1.0)


def test_instantiate_sum_is_zero_mod_v():
    for q in quintuple_table():
        for sign in sign_choices(q):
            V = 12 * q.index
            assert sum(instantiate(q.label, V, sign)) % V == 0


def test_instantiate_matches_rational_definition():
    # reference: base + sign*V*r with r = nums/index as rationals; the error
    # names the denominator of r at the first entry that is not integral
    for q in quintuple_table():
        rs = [F(m, q.index) for m in q.nums]
        for sign in (1, -1):
            if sign == -1 and q.index == 2:
                continue  # a fixed-sign row; see test_instantiate_signs
            for V in range(1, 121):
                want = [b + sign * V * r for b, r in zip(q.base, rs)]
                dens = [r.denominator for x, r in zip(want, rs) if x.denominator != 1]
                if not dens:
                    assert instantiate(q.label, V, sign) == tuple(map(int, want))
                    continue
                with pytest.raises(DivisibilityError) as err:
                    instantiate(q.label, V, sign)
                assert str(err.value) == (
                    f"{q.label} needs V divisible by {dens[0]}, got V={V}"
                )


# ------------------------------------------------------------------ recipe


def test_blowup_from_quintuple_q29_examples():
    assert blowup_from_quintuple("Q29", 2, 37).n == (7, 6, 10, 15)
    # V=36 runs the recipe to completion: residues (6,6,10,15) sum to V+1 and
    # are primitive, so the vector is produced; it is canonical, not terminal
    w = blowup_from_quintuple("Q29", 2, 36)
    assert w.n == (6, 6, 10, 15)
    assert not is_terminal_fast(w) and is_canonical_fast(w)
    # apex 1 at V=37: the unit step succeeds but the residue sum fails
    assert blowup_from_quintuple("Q29", 1, 37) is None


def test_blowup_from_quintuple_validation():
    with pytest.raises(ValueError):
        blowup_from_quintuple("Q29", 0, 37)
    with pytest.raises(ValueError):
        blowup_from_quintuple("Q29", 6, 37)
    assert blowup_from_quintuple("Q29", 2, 1) is None  # V=1 has no units


def test_apex_residues_recipe():
    assert apex_residues((30, 1, -6, -10, -15), 2, 37) == (7, 6, 10, 15)
    assert apex_residues((30, 1, -6, -10, -15), 1, 37) is None  # sum fails
    assert apex_residues((2, 2, 2, 2, 0), 1, 4) is None  # not a unit
    assert all(apex_residues((0,) * 5, apex, 1) is None for apex in APICES)
    # the residues sum to V+1 but contain a zero: the family policy drops them
    assert apex_residues(instantiate("Q1", 2), 1, 2) == (1, 0, 1, 1)
    assert blowup_from_quintuple("Q1", 1, 2) is None


def test_scan_matches_per_apex_extraction():
    produced = terminal = 0
    for q in quintuple_table():
        for sign in sign_choices(q):
            for V in range(1, 41):
                try:
                    instantiate(q.label, V, sign)
                except DivisibilityError:
                    continue
                for apex in APICES:
                    w = blowup_from_quintuple(q.label, apex, V, sign)
                    if w is not None:
                        produced += 1
                        terminal += is_terminal_fast(w)
    doc = scan_families(40)
    assert (doc["blowups"], doc["terminal"]) == (produced, terminal)
    assert doc["violations"] == [] and doc["max_terminal_n_min"] <= 6


def test_recipe_outputs_are_canonical_and_round_trip():
    # Every produced vector generates the same coset lattice as the
    # instantiated tuple with the apex deleted, up to a unit, and its simplex
    # is hollow (the family consists of hollow simplices).
    for q in quintuple_table():
        for sign in sign_choices(q):
            for V in range(2, 61):
                try:
                    inst = instantiate(q.label, V, sign)
                except DivisibilityError:
                    continue
                for apex in APICES:
                    w = blowup_from_quintuple(q.label, apex, V, sign)
                    if w is None:
                        continue
                    assert is_canonical_fast(w), (q.label, apex, V, sign)
                    rest = [inst[i] % V for i in range(5) if i != apex - 1]
                    units = [
                        u for u in range(1, V)
                        if gcd(u, V) == 1
                        and all((u * r) % V == wi for r, wi in zip(rest, w.n))
                    ]
                    assert units, (q.label, apex, V, sign)


def test_recipe_soundness_terminal_nmin_bound():
    for q in quintuple_table():
        for sign in sign_choices(q):
            for V in range(2, 101):
                try:
                    instantiate(q.label, V, sign)
                except DivisibilityError:
                    continue
                for apex in APICES:
                    w = blowup_from_quintuple(q.label, apex, V, sign)
                    if w is not None and is_terminal_fast(w):
                        assert w.n_min <= 6
                        assert w.n_min <= floor(bound_dim1(q.label, apex))


# ------------------------------------------------------------------ bounds


def test_bound_dim1_examples():
    assert bound_dim1("Q29", 2) == 15
    assert bound_dim1("Q2", 3) == 9
    assert bound_dim1("Q1", 1) == F(5, 9)
    assert bound_dim1("N5", 3) == 8


def test_bound_dim1_ratio_table():
    for (label, apex), expected in RATIO_TABLE.items():
        assert bound_dim1(label, apex) == expected, (label, apex)


def test_bound_dim1_vanishing_apex_entry():
    # N1 at V=4 instantiates to (8, 1, -2, 0, -3), where apex 4 vanishes, but
    # the bound reads the base entry -2: max(-6/-2, -1/-2, 2/-2, 3/-2) = 3
    assert bound_dim1("N1", 4) == 3
    with pytest.raises(ValueError):
        bound_dim1("Q1", 0)


def test_bound_subset_examples():
    V = 23  # any index works; the hypothesis is translation invariant
    q11 = [F(15, V), F(1, V), F(-5, V), F(-9, V)]
    assert bound_subset(q11, {1, 4}, 3) == 3
    q20 = [F(15, V), F(4, V), F(-5, V), F(-12, V)]
    assert bound_subset(q20, {1, 3}, 5) == 5
    V = 10
    n5 = [F(8, V), F(3, V), F(-4, V) + F(1, 2), F(-6, V) + F(1, 2)]
    assert sum(n5) == 1 + F(1, V)
    assert bound_subset(n5, {2}, 3) == 3  # hypothesis value 3/V - 3(1+1/V) = -3


def test_bound_subset_rejections():
    p = [F(15, 23), F(1, 23), F(-5, 23), F(-9, 23)]
    assert bound_subset(p, {1, 4}, 2) is None  # hypothesis fails for s=2
    with pytest.raises(ValueError):
        bound_subset(p, set(), 3)
    with pytest.raises(ValueError):
        bound_subset(p, {1, 2, 3, 4}, 3)
    with pytest.raises(ValueError):
        bound_subset(p, {1}, 0)


def test_bound_subset_refuses_non_integers():
    p = [F(15, 23), F(1, 23), F(-5, 23), F(-9, 23)]
    with pytest.raises(TypeError):
        bound_subset(p, {1, 4}, 1.5)  # once an AttributeError on the float sum
    with pytest.raises(TypeError):
        bound_subset(p, {1.0, 4}, 3)


# ------------------------------------------------------------- ratio lemma


def test_check_ratio_lemma_examples():
    assert check_ratio_lemma("Q1")
    assert not check_ratio_lemma("Q2")
    assert not check_ratio_lemma("Q29")


def test_ratio_table_integrity():
    flagged = {q.label for q in quintuple_table() if not check_ratio_lemma(q.label)}
    assert flagged == {label for label, _ in RATIO_TABLE}
    assert len(flagged) == 18


def test_sign_choices():
    assert sign_choices(get_quintuple("Q1")) == (1,)
    assert sign_choices(get_quintuple("N1")) == (1,)
    assert sign_choices(get_quintuple("N7")) == (1, -1)


def test_sign_matters_exactly_above_index_2():
    # the two resolutions base +/- V*nums/index differ by 2*V*nums/index: a
    # multiple of V at index 2, so every apex gives the same blowup there
    def residues(q, V, sign):
        return [(b + sign * V * m // q.index) % V for b, m in zip(q.base, q.nums)]

    for q in quintuple_table():
        if q.index == 2:
            assert all(
                residues(q, V, 1) == residues(q, V, -1) for V in range(2, 121, 2)
            ), q.label
        elif q.index > 2:
            assert any(
                residues(q, V, 1) != residues(q, V, -1)
                for V in range(q.index, 121, q.index)
            ), q.label
