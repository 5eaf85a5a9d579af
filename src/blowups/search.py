"""Exhaustive census of weighted blowups by index.

Candidates are enumerated one representative per permutation class (weights
nondecreasing) since the classification flags are permutation invariant.
Work is partitioned by index V, which is embarrassingly parallel; the largest
index is submitted first, and results are merged in V order so the output is
identical for any worker count.  `enumerate_blowups` walks the prefixes of
the first d - 2 weights lazily by `_prefix_runs` and runs the last loop
itself, so every candidate is built inline and yielded from one generator
frame, not passed up through one frame per weight.  A block keeps its hits
as one flat `array` of weights, d per hit, and builds no `WeightVector` for
them.  The hits come in lex order, each nondecreasing, so the first column
of the array is the sorted n_min column: the block's histogram counts it,
and the min-weight filter cuts the array at one `bisect_left` on it.

A block of at least V candidates tests them by `PackedRows.passes` of its
index, eps and verdict (see `exactgeom.PackedRows`); any other block calls
the scalar kernel of `classifier` for its verdict once per candidate, chosen
with its eps once per block.

The process pool is imported by the first census that starts one, so a
serial census, or any other command, never loads `concurrent.futures` or
`multiprocessing`; `search.ProcessPoolExecutor` stays a module attribute,
resolved on first read.
"""

from __future__ import annotations

import operator
import os
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from functools import partial
from math import comb, factorial, gcd

from ._record import Record
from .classifier import is_canonical_fast, is_terminal_fast
from .exactgeom import EPS_ONE, PackedRows, WeightVector, _set_n, _set_V, checked_eps

VERDICTS = ("terminal", "canonical", "eps-lt", "eps-lc")


def __getattr__(name: str):
    # PEP 562: the pool's import is paid on the first read of its name
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BudgetExceeded(RuntimeError):
    """Projected residue steps are above the census budget."""


class CensusQuery(Record):
    """The census to run: dimension, index range, verdict at eps, the least
    n_min kept among the hits, and the budget in residue steps.

    The defaults are class attributes, which the CLI's defaults read too.
    """

    _fields = ("d", "v_max", "v_min", "eps", "verdict", "min_weight", "budget")
    v_min = 1
    eps = EPS_ONE
    verdict = "terminal"
    min_weight = None
    budget = 10**11  # residue steps

    def __init__(
        self,
        d: int,
        v_max: int,
        v_min: int = v_min,
        eps: Fraction = eps,
        verdict: str = verdict,
        min_weight: int | None = min_weight,
        budget: int = budget,
    ) -> None:
        eps = checked_eps(eps)
        d, v_min, v_max, budget = map(operator.index, (d, v_min, v_max, budget))
        if min_weight is not None:
            min_weight = operator.index(min_weight)
        super().__init__(d, v_max, v_min, eps, verdict, min_weight, budget)
        if d < 2:
            raise ValueError("dimension must be at least 2")
        if not 1 <= v_min <= v_max:
            raise ValueError(f"empty index range [{v_min}, {v_max}]")
        if verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}")
        if verdict in ("terminal", "canonical") and eps != 1:
            raise ValueError(f"verdict {verdict!r} means eps = 1")
        if min_weight is not None and min_weight < 1:
            raise ValueError("min_weight threshold must be >= 1")
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")


class Histogram(Record):
    """Counts of the smallest weight over a population of blowups."""

    __slots__ = ("counts",)
    __hash__ = None

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())


class CensusResult(Record):
    """The histogram of a census and its hits, as (V, weights) blocks in V order.

    The weights of a block are those of its hits in lex order, d per hit,
    each hit nondecreasing, so its smallest weight comes first and the
    block's first column, `weights[::d]`, is its sorted n_min column; the
    histogram and the min-weight cut were read off that column.
    """

    __slots__ = ("histogram", "d", "blocks")
    __hash__ = None


def _prefix_runs(prefix: tuple[int, ...], g: int, remaining: int, slots: int, lo: int):
    # one (prefix, g, remaining, lo) per nondecreasing prefix that leaves two
    # slots: the last two weights sum to `remaining`, the first is at least lo,
    # and g is the gcd of the prefix and `remaining`; g enters as the gcd of
    # the prefix alone
    if slots == 2:
        yield prefix, gcd(g, remaining), remaining, lo
        return
    for v in range(lo, remaining // slots + 1):
        yield from _prefix_runs(prefix + (v,), gcd(g, v), remaining - v, slots - 1, v)


def enumerate_blowups(d: int, V: int) -> Iterator[WeightVector]:
    """Primitive nondecreasing positive weight vectors with index V, in lex order.

    A vector with t ones has V + 1 >= t + 2(d - t), so it starts with at
    least 2d - V - 1 ones.  They are emitted as one prefix (keeping two slots
    for the last loop), so the recursion is never deeper than V + 1 - d.
    `_prefix_runs` walks the first d - 2 weights lazily and yields each prefix
    once, with g = gcd(prefix, remaining): the vector (prefix, v, remaining - v)
    is primitive iff gcd(g, v) = 1.  The last loop runs here, so every vector
    is yielded from this one frame rather than passed up through one frame per
    weight, and it builds each vector inline by the slot setters, unchecked.
    """
    if d < 2 or V < 1:
        raise ValueError("need d >= 2 and V >= 1")
    if V + 1 < d:  # d positive weights sum to at least d
        return
    new, set_n, set_V = object.__new__, _set_n, _set_V
    ones = min(max(2 * d - V - 1, 0), d - 2)
    runs = _prefix_runs((1,) * ones, min(ones, 1), V + 1 - ones, d - ones, 1)
    for prefix, g, remaining, lo in runs:
        for v in range(lo, remaining // 2 + 1):
            if g == 1 or gcd(g, v) == 1:  # positive and primitive, as WeightVector checks
                w = new(WeightVector)
                set_n(w, prefix + (v, remaining - v))
                set_V(w, V)
                yield w


def _partition_row(j_max: int, parts: int) -> tuple[int, ...]:
    # taking 1 from each part maps partitions of m into exactly `parts` parts
    # onto partitions of j = m - parts into parts of size at most `parts`;
    # one coin-change row counts the latter for every j <= j_max
    row = [1] + [0] * j_max
    for k in range(1, min(parts, j_max) + 1):
        for j in range(k, j_max + 1):
            row[j] += row[j - k]
    return tuple(row)


def partition_count(m: int, parts: int) -> int:
    """Number of partitions of m into exactly `parts` positive parts."""
    if m < parts:
        return 0
    return _partition_row(m - parts, parts)[m - parts]


def _first_index(q: CensusQuery) -> int:
    # below V = d - 1 no d positive weights sum to V + 1
    return max(q.v_min, q.d - 1)


def _candidate_counts(q: CensusQuery) -> tuple[int, ...]:
    # the partitions of V + 1 into d parts, for each V from `_first_index(q)` up
    lo = _first_index(q)
    if lo > q.v_max:
        return ()
    return _partition_row(q.v_max + 1 - q.d, q.d)[lo + 1 - q.d :]


def projected_candidates(q: CensusQuery) -> int:
    """Upper bound on the candidates a census enumerates, used for the budget.

    It counts every partition of V + 1 into d parts, imprimitive ones
    included, so it exceeds what `enumerate_blowups` yields: 26,385 against
    24,308 for d = 4, V <= 60.
    """
    return sum(_candidate_counts(q))


def _candidates_lower_bound(q: CensusQuery) -> int:
    """Lower bound on `projected_candidates(q)` from a few multiplications.

    Padding with ones gives p_d(m) >= p_e(m - d + e) for e <= d, and a
    partition of j into e parts orders into at most e! of the C(j-1, e-1)
    compositions of j, so p_e(j) >= C(j-1, e-1)/e!.  The hockey-stick identity
    sums C(j-1, e-1) over lo <= j <= hi to C(hi, e) - C(lo-1, e).  Capping e
    at 8 keeps `comb` cheap for any d.
    """
    e = min(q.d, 8)
    pad = q.d - e
    total = comb(max(q.v_max + 1 - pad, 0), e) - comb(max(q.v_min - pad, 0), e)
    return total // factorial(e)


def _hit_typecode(v_max: int) -> str:
    # each weight is at most its index V <= v_max, as d >= 2 positive weights
    # sum to V + 1, and C makes "H" at least 16 bits wide and "Q" 64; no census
    # to 2^64 gets here, as its partition row alone has 2^64 entries
    return "H" if v_max < 1 << 16 else "Q"


def _census_block(args: tuple[CensusQuery, int, bool]) -> tuple[dict, array]:
    q, V, packed = args
    interior = q.verdict in ("canonical", "eps-lc")
    candidates = enumerate_blowups(q.d, V)
    if packed:
        passing = PackedRows(q.d, V, q.eps, interior).passes(candidates)
    else:
        kernel = is_canonical_fast if interior else is_terminal_fast
        if q.eps != 1:  # called bare at eps = 1, the kernel keeps its default eps
            kernel = partial(kernel, eps=q.eps)
        passing = [x for w in candidates if kernel(w) for x in w.n]
    hits = array(_hit_typecode(q.v_max), passing)
    n_min = hits[:: q.d]  # sorted: the weights are nondecreasing, the hits in lex order
    del hits[: bisect_left(n_min, q.min_weight or 1) * q.d]
    return Counter(n_min), hits


def pool_size(workers: int, tasks: int) -> int:
    """Worker processes to start: no more than asked, than tasks, or than CPUs.

    The CPUs are those this process may run on, where the platform says, and
    never more than `os.cpu_count()`.
    """
    cpus = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        cpus = min(cpus, len(os.sched_getaffinity(0)))
    return max(1, min(workers, tasks, cpus))


def _check_budget(q: CensusQuery, bound: str, count: int) -> None:
    # a candidate of index V costs at most d*V residue steps in either kernel
    steps = count * q.d * q.v_max
    if steps > q.budget:
        raise BudgetExceeded(
            f"{bound} {count} candidates, {steps} residue steps, exceed budget {q.budget}"
        )


def run_census(q: CensusQuery, workers: int = 1) -> CensusResult:
    """Classify every candidate in the index range and aggregate smallest weights.

    The hits are every passing vector meeting the min-weight filter, sorted
    by (V, lex), in one weight array per index that has any.  Output is
    bit-identical for any worker count >= 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    # the exact count takes about min(d, j) * j additions, j = v_max + 1 - d;
    # above a million, a closed-form lower bound gets the chance to refuse first
    j = max(q.v_max + 1 - q.d, 0)
    if min(q.d, j) * j > 10**6:
        _check_budget(q, "at least", _candidates_lower_bound(q))
    candidates = _candidate_counts(q)
    _check_budget(q, "projected", sum(candidates))
    # an index is packed when its V+1 rows serve at least V candidates, so
    # d = 2 and the few candidates of an index near d, whose rows would grow
    # like V^2, stay scalar; the largest, heaviest index starts first
    tasks = [(q, V, c >= V) for V, c in enumerate(candidates, _first_index(q))]
    tasks.reverse()
    workers = pool_size(workers, len(tasks))
    if workers <= 1:
        blocks = [_census_block(t) for t in tasks]
    else:
        # read through the module, so its lazy import and any class set on it apply
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_census_block, tasks, chunksize=1))
    blocks.reverse()  # back to V order for the merge
    hist = Histogram(dict(sum((counts for counts, _ in blocks), Counter())))
    hits = [(V, weights) for V, (_, weights) in enumerate(blocks, _first_index(q)) if weights]
    return CensusResult(hist, q.d, hits)
