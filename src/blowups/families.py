"""The 46 one-parameter families of hollow 4-simplices and their weight bounds.

Each family is labelled by a zero-sum quintuple of affine-dependence
coefficients.  The 29 primitive families Q1-Q29 are constant in the index V;
the 17 non-primitive families N1-N17 add the correction V*nums/index, held
in integers (index 2, 3, 4 or 6).  The correction carries a sign, applied to
the whole vector at once, exactly when index > 2 (N7-N17): at index 2 the
two resolutions differ by V*nums, so they agree mod V and give the same
blowups.

A blowup is extracted from a family instance at index V by distinguishing an
apex entry: if that entry is a unit mod V, scale the quintuple so the apex
becomes -1, drop it, and keep the residues of the remaining four entries in
[0, V-1]; they are blowup weights precisely when they add up to V + 1 (the
result is then validated to be positive and primitive).  `apex_residues` is
that recipe, shared with the sporadic records; `scan_families` runs it over
the whole table.

A note on the one-dimensional bound (`bound_dim1`): it caps the smallest
weight of every blowup in the family, and that is the reading implemented
here; a stronger largest-weight phrasing is sometimes attached to the ratio
criterion built on it in the literature but is not what the bound proves.
The ratio criterion and the congruence bound on a subset of weights serve
only the tests, which keep them in `tests/conftest.py`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

from ._record import Record
from .classifier import is_terminal_fast
from .exactgeom import WeightVector


class DivisibilityError(ValueError):
    """The index V is incompatible with the family's correction denominators."""


class Quintuple(Record):
    """One family row: base + sign*V*nums/index, all in integers.

    `base` sums to 0.  `index` is the order of the family's group over its
    primitive part: 1 for the Q rows, whose `nums` are all 0, and 2, 3, 4 or 6
    for the N rows, whose `nums` sum to `index` and share no factor with it.
    """

    __slots__ = ("label", "base", "nums", "index")  # nums: the '+' resolution


def _q(label: str, base: tuple[int, ...]) -> Quintuple:
    return Quintuple(label, base, (0,) * 5, 1)


_TABLE: tuple[Quintuple, ...] = (
    _q("Q1", (9, 1, -2, -3, -5)),
    _q("Q2", (9, 2, -1, -4, -6)),
    _q("Q3", (12, 3, -4, -5, -6)),
    _q("Q4", (12, 2, -3, -4, -7)),
    _q("Q5", (9, 4, -2, -3, -8)),
    _q("Q6", (12, 1, -2, -3, -8)),
    _q("Q7", (12, 3, -1, -6, -8)),
    _q("Q8", (15, 4, -5, -6, -8)),
    _q("Q9", (12, 2, -1, -4, -9)),
    _q("Q10", (10, 6, -2, -5, -9)),
    _q("Q11", (15, 1, -2, -5, -9)),
    _q("Q12", (12, 5, -3, -4, -10)),
    _q("Q13", (15, 2, -3, -4, -10)),
    _q("Q14", (12, 1, -3, -4, -6)),
    _q("Q15", (14, 1, -3, -5, -7)),
    _q("Q16", (14, 3, -1, -7, -9)),
    _q("Q17", (15, 7, -3, -5, -14)),
    _q("Q18", (15, 1, -3, -5, -8)),
    _q("Q19", (15, 2, -1, -6, -10)),
    _q("Q20", (15, 4, -2, -5, -12)),
    _q("Q21", (18, 1, -4, -6, -9)),
    _q("Q22", (18, 2, -5, -6, -9)),
    _q("Q23", (18, 4, -1, -9, -12)),
    _q("Q24", (20, 1, -4, -7, -10)),
    _q("Q25", (20, 1, -3, -8, -10)),
    _q("Q26", (20, 3, -4, -9, -10)),
    _q("Q27", (20, 3, -1, -10, -12)),
    _q("Q28", (24, 1, -5, -8, -12)),
    _q("Q29", (30, 1, -6, -10, -15)),
    Quintuple("N1", (6, 1, -2, -2, -3), (1, 0, 0, 1, 0), 2),
    Quintuple("N2", (4, 3, -1, -2, -4), (0, 0, 0, 1, 1), 2),
    Quintuple("N3", (8, 1, -2, -3, -4), (0, 0, 1, 0, 1), 2),
    Quintuple("N4", (6, 3, -1, -2, -6), (1, 0, 0, 1, 0), 2),
    Quintuple("N5", (8, 3, -1, -4, -6), (0, 0, 0, 1, 1), 2),
    Quintuple("N6", (12, 1, -3, -4, -6), (0, 0, 0, 1, 1), 2),
    Quintuple("N7", (3, 1, -1, -1, -2), (0, 0, 1, 2, 0), 3),
    Quintuple("N8", (3, 2, -1, -1, -3), (0, 0, 0, 2, 1), 3),
    Quintuple("N9", (3, 2, -1, -2, -2), (0, 0, 0, 1, 2), 3),
    Quintuple("N10", (4, 2, -1, -1, -4), (1, 0, 0, 2, 0), 3),
    Quintuple("N11", (6, 1, -2, -2, -3), (0, 0, 0, 2, 1), 3),
    Quintuple("N12", (6, 1, -1, -2, -4), (0, 0, 2, 0, 1), 3),
    Quintuple("N13", (4, 3, -1, -2, -4), (0, 0, 2, 0, 1), 3),
    Quintuple("N14", (6, 3, -1, -2, -6), (0, 1, 0, 1, 1), 3),
    Quintuple("N15", (3, 2, -1, -1, -3), (1, 0, 0, 1, 2), 4),
    Quintuple("N16", (6, 1, -1, -3, -3), (0, 1, 0, 1, 2), 4),
    Quintuple("N17", (3, 1, -1, -1, -2), (0, 1, 0, 1, 4), 6),
)

_BY_LABEL = {q.label: q for q in _TABLE}

APICES = (1, 2, 3, 4, 5)


def quintuple_table() -> tuple[Quintuple, ...]:
    """The 29 primitive and 17 non-primitive family rows."""
    return _TABLE


def get_quintuple(label: str) -> Quintuple:
    try:
        return _BY_LABEL[label]
    except KeyError:
        raise ValueError(f"unknown quintuple label {label!r}") from None


def sign_choices(q: Quintuple) -> tuple[int, ...]:
    """The correction signs to try for a row: both exactly when index > 2.

    Below that the '-' resolution is the '+' one (index 1) or agrees with it
    mod V (index 2), so it gives no other blowup.
    """
    return (1, -1) if q.index > 2 else (1,)


def instantiate(label: str, V: int, sign: int = 1) -> tuple[int, ...]:
    """Evaluate base + sign*V*nums/index; entries must come out integral."""
    q = get_quintuple(label)
    V, sign = operator.index(V), operator.index(sign)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign == -1 and q.index == 2:
        raise ValueError(f"{label} has a fixed correction sign")
    if V < 1:
        raise ValueError("index V must be positive")
    # the nums share no factor with index, so every entry is integral iff
    # index divides V, and sign does not matter
    if V % q.index:
        raise DivisibilityError(f"{label} needs V divisible by {q.index}, got V={V}")
    if q.index == 1:
        return q.base
    c = sign * V // q.index
    return tuple(b + c * m for b, m in zip(q.base, q.nums))


def apex_residues(
    a: tuple[int, ...], apex: int, V: int
) -> tuple[int, ...] | None:
    """The apex recipe: the residues left when entry `apex` is scaled to -1.

    `a` is any tuple of integer representatives of residues mod V and `apex`
    is 1-based.  Returns the other entries times -1/a_apex, reduced into
    [0, V-1], when a_apex is a unit mod V and they add up to V + 1; otherwise
    None.  Whether the result is positive and primitive is left to the
    caller.  At V = 1 the inverse is 0, so the sum check fails.
    """
    al = a[apex - 1] % V
    if gcd(al, V) != 1:
        return None
    unit = -pow(al, -1, V)
    w = [x * unit % V for x in a[: apex - 1] + a[apex:]]
    return tuple(w) if sum(w) == V + 1 else None


def _blowup(a: tuple[int, ...], apex: int, V: int) -> WeightVector | None:
    w = apex_residues(a, apex, V)
    if w is None:
        return None
    try:
        return WeightVector(w)
    except ValueError:  # a zero residue, or imprimitive
        return None


def blowup_from_quintuple(
    label: str, apex: int, V: int, sign: int = 1
) -> WeightVector | None:
    """Extract the blowup of index V determined by a family row and apex.

    `apex` is the 1-based position of the entry that plays the origin role.
    Returns None when the apex entry is not a unit mod V or when the residue
    sum / positivity / primitivity checks fail; absence is a value here.
    """
    if apex not in APICES:
        raise ValueError(f"apex must be in {APICES}")
    return _blowup(instantiate(label, V, sign), apex, V)


def scan_families(v_max: int) -> dict:
    """Run the blowup recipe over every row, sign, apex and index up to v_max.

    A violation is a terminal blowup with smallest weight above 6, which the
    one-dimensional bounds rule out.  Zero violations follows from the apex
    extraction alone: every blowup it yields, terminal or not, has smallest
    weight at most 6 (with the kernel made to pass every blowup, the scan to
    300 still finds none), so the kernel cannot produce a violation, and the
    list tests the recipe rather than terminality.
    """
    if v_max < 1:
        raise ValueError(f"v_max must be >= 1, got {v_max}")
    produced = 0
    terminal = 0
    worst = 0
    violations = []
    for q in _TABLE:
        for sign in sign_choices(q):
            for V in range(1, v_max + 1):
                try:
                    a = instantiate(q.label, V, sign)
                except DivisibilityError:
                    continue
                for apex in APICES:
                    w = _blowup(a, apex, V)
                    if w is None:
                        continue
                    produced += 1
                    if is_terminal_fast(w):
                        terminal += 1
                        worst = max(worst, w.n_min)
                        if w.n_min > 6:
                            violations.append(
                                {
                                    "id": q.label,
                                    "apex": apex,
                                    "V": V,
                                    "sign": "+" if sign == 1 else "-",
                                    "weights": list(w.n),
                                    "n_min": w.n_min,
                                }
                            )
    return {
        "v_max": v_max,
        "blowups": produced,
        "terminal": terminal,
        "max_terminal_n_min": worst,
        "violations": violations,
    }


def bound_dim1(label: str, apex: int) -> Fraction:
    """Smallest-weight bound max_i(-q_i / q_apex) over the non-apex entries.

    The bound depends only on the line spanned by the base quintuple, so the
    base entries are used for every row, whatever the index and the sign of
    the correction.  Every base entry is nonzero.
    """
    if apex not in APICES:
        raise ValueError(f"apex must be in {APICES}")
    b = get_quintuple(label).base
    return max(Fraction(-x, b[apex - 1]) for i, x in enumerate(b) if i != apex - 1)


def table_csv() -> str:
    """Audit export: label, base entries, correction numerators, denominator."""
    lines = ["label,q1,q2,q3,q4,q5,r1,r2,r3,r4,r5,den"]
    for q in _TABLE:
        lines.append(",".join(map(str, (q.label, *q.base, *q.nums, q.index))))
    return "\n".join(lines) + "\n"
