from __future__ import annotations

import subprocess
import sys
import time
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path

import pytest

from blowups import classifier, exactgeom, search
from blowups.classifier import classify, is_canonical_fast, is_terminal_fast
from blowups.exactgeom import WeightVector
from blowups.search import (
    BudgetExceeded,
    CensusQuery,
    CensusResult,
    Histogram,
    _candidates_lower_bound,
    enumerate_blowups,
    partition_count,
    pool_size,
    projected_candidates,
    run_census,
)

from conftest import PRUNE_EPSILONS, flags_from_brute

F = Fraction


# ------------------------------------------------------------- enumeration


def test_enumerate_examples():
    assert [w.n for w in enumerate_blowups(3, 5)] == [(1, 1, 4), (1, 2, 3)]
    assert [w.n for w in enumerate_blowups(2, 1)] == [(1, 1)]
    assert (6, 7, 10, 15) in {w.n for w in enumerate_blowups(4, 37)}
    for d, V in ((1, 5), (0, 5), (3, 0), (2, -1)):
        with pytest.raises(ValueError, match="^need d >= 2 and V >= 1$"):
            next(enumerate_blowups(d, V))


def test_enumerate_lex_order_and_shape():
    # up to the paper's scale: 431,096 vectors at d = 4, V = 419
    for d, V in ((4, 20), (4, 245), (4, 419), (5, 80), (6, 40)):
        got = list(enumerate_blowups(d, V))
        assert all(type(w) is WeightVector and w.V == V for w in got), (d, V)
        tuples = [w.n for w in got]
        assert all(a < b for a, b in zip(tuples, tuples[1:])), (d, V)  # strictly increasing
        assert all(
            list(t) == sorted(t) and sum(t) == V + 1 and gcd(*t) == 1 for t in tuples
        ), (d, V)
        assert len(tuples) == _primitive_count(d, V), (d, V)


def test_enumerate_is_lazy():
    # the first vectors come before the rest are built: listing the prefix
    # runs first would peak at about 28 MiB here
    tracemalloc.start()
    try:
        first = [w.n for _, w in zip(range(5), enumerate_blowups(5, 400))]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [(1, 1, 1, 1, 397), (1, 1, 1, 2, 396), (1, 1, 1, 3, 395),
                     (1, 1, 1, 4, 394), (1, 1, 1, 5, 393)]
    assert peak < 1 << 20, peak


def _naive_vectors(d, V):
    # nested-loop oracle: nondecreasing positive d-tuples with sum V+1, gcd 1,
    # in lex order
    def rec(prefix, lo, remaining, slots):
        if slots == 0:
            return [prefix] if remaining == 0 and gcd(*prefix) == 1 else []
        return [
            t
            for v in range(lo, remaining + 1)
            for t in rec(prefix + (v,), v, remaining - v, slots - 1)
        ]

    return rec((), 1, V + 1, d)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_enumerated_vectors_equal_checked_construction(d):
    # enumerate_blowups skips the checks of WeightVector, whose tuples pass them
    for V in range(1, 25):
        for w in enumerate_blowups(d, V):
            checked = WeightVector(w.n)
            assert type(w) is WeightVector and w == checked and hash(w) == hash(checked)
            assert w.V == checked.V  # the slot the enumerator sets, unread by ==
            assert all(type(v) is int for v in w.n)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_enumerate_completeness_vs_naive(d):
    for V in range(1, 31):
        assert [w.n for w in enumerate_blowups(d, V)] == _naive_vectors(d, V), (d, V)


def test_partition_count_matches_enumeration_superset():
    for d in (2, 3, 4, 5, 6, 7):
        for V in range(1, 25):
            raw = sum(1 for _ in _all_partitions(d, V))
            assert partition_count(V + 1, d) == raw


def _mobius(m):
    result, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def _primitive_count(d, V):
    # primitive partitions of m into d parts: sum over e | m of mu(e) p_d(m/e)
    m = V + 1
    return sum(_mobius(e) * partition_count(m // e, d) for e in range(1, m + 1) if m % e == 0)


def test_enumeration_count_is_mobius_inverted_partition_count():
    for d in (2, 3, 4):
        for V in range(1, 61):
            assert sum(1 for _ in enumerate_blowups(d, V)) == _primitive_count(d, V), (d, V)
    assert _primitive_count(4, 419) == 431_096
    assert projected_candidates(CensusQuery(d=4, v_max=60)) == 26385


def _all_partitions(d, V):
    def rec(prefix, lo, remaining, slots):
        if slots == 1:
            if remaining >= lo:
                yield prefix + (remaining,)
            return
        for v in range(lo, remaining // slots + 1):
            yield from rec(prefix + (v,), v, remaining - v, slots - 1)

    yield from rec((), 1, V + 1, d)


# ------------------------------------------------------------------ census


def test_census_kawakita_structure():
    res = run_census(CensusQuery(d=3, v_max=60))
    for h in res.hits:
        a, b, c = h.n
        assert a == 1 and gcd(b, c) == 1 and b + c == h.V


def test_census_histogram_consistency():
    res = run_census(CensusQuery(d=4, v_max=30))
    assert res.histogram.total == len(res.hits)  # no min-weight filter
    assert all(k >= 1 for k in res.histogram.counts)


def test_census_min_weight_filter():
    # the filter drops exactly the hits of n_min < m and the blocks it empties,
    # in scalar and packed blocks alike; the histogram still counts every hit
    for d, v_max in ((2, 40), (3, 40), (4, 30), (5, 20)):
        for verdict, eps in (("terminal", 1), ("canonical", 1),
                             ("eps-lt", F(2, 3)), ("eps-lc", F(1, 2))):
            q = CensusQuery(d=d, v_max=v_max, eps=eps, verdict=verdict)
            full = run_census(q)
            for m in (2, 3, 7, 10**6):
                kept = [
                    (V, array(w.typecode, [x for i in range(0, len(w), d) if w[i] >= m
                                           for x in w[i : i + d]]))
                    for V, w in full.blocks
                ]
                expected = CensusResult(full.histogram, d, [(V, w) for V, w in kept if w])
                cut = CensusQuery(d=d, v_max=v_max, eps=eps, verdict=verdict, min_weight=m)
                assert run_census(cut) == expected, (q, m)


def test_census_unique_maximizer_at_245():
    res = run_census(CensusQuery(d=4, v_max=245, v_min=245, min_weight=32))
    assert [(h.n, h.n_min) for h in res.hits] == [((32, 41, 71, 102), 32)]


def test_census_deterministic_across_workers():
    queries = (
        CensusQuery(d=4, v_max=35),
        CensusQuery(d=4, v_max=20, verdict="canonical"),
        CensusQuery(d=4, v_max=20, eps=F(1, 2), verdict="eps-lc"),
    )
    for q in queries:
        a = run_census(q, workers=1)
        b = run_census(q, workers=2)
        c = run_census(q, workers=3)
        assert a.histogram.counts == b.histogram.counts == c.histogram.counts, q
        assert a.hits == b.hits == c.hits, q
    # every verdict, with packed blocks built in pool workers at d = 3..6
    # (at d = 6 each keeps the row sum of a prefix of four weights): the
    # whole result, histogram and hit arrays, at one and two workers
    queries = (
        CensusQuery(d=4, v_max=30),
        CensusQuery(d=3, v_max=40, eps=F(2, 3), verdict="eps-lt"),
        CensusQuery(d=3, v_max=60, verdict="canonical"),
        CensusQuery(d=3, v_max=60, eps=F(1, 2), verdict="eps-lc"),
        CensusQuery(d=5, v_max=24),
        CensusQuery(d=4, v_max=40, eps=F(1, 2), verdict="eps-lc"),
        CensusQuery(d=6, v_max=20),
        CensusQuery(d=4, v_max=40, verdict="canonical"),
        CensusQuery(d=5, v_max=24, eps=F(2, 3), verdict="eps-lt"),
    )
    for q in queries:
        assert run_census(q, workers=1) == run_census(q, workers=2), q


def test_census_submits_largest_index_first(monkeypatch):
    # the heaviest block starts first; the merge still gives (V, lex) order
    seen = []
    block = search._census_block

    def recording_block(task):
        seen.append(task[1])
        return block(task)

    monkeypatch.setattr(search, "_census_block", recording_block)
    got = run_census(CensusQuery(d=3, v_max=20, v_min=5))
    assert seen == list(range(20, 4, -1))
    keys = [(h.V, h.n) for h in got.hits]
    assert keys == sorted(keys) and {V for V, _ in keys} == set(range(5, 21))


@pytest.mark.parametrize("workers", [0, -3])
def test_census_refuses_workers_below_one(monkeypatch, workers):
    def failing_block(task):
        raise AssertionError("a block ran")

    monkeypatch.setattr(search, "_census_block", failing_block)
    with pytest.raises(ValueError, match=f"^workers must be at least 1, got {workers}$"):
        run_census(CensusQuery(d=3, v_max=5), workers=workers)


@pytest.mark.parametrize("d,first", [(2, 25), (3, 10), (4, 9), (5, 10)])
def test_census_packs_an_index_with_at_least_V_candidates(monkeypatch, d, first):
    # an index builds the rows of (d, V) at eps = 1 in the closed simplex
    # when V + 1 has at least V partitions into d parts: at d = 2, with
    # (V+1)//2 of them, only V = 1, whose one candidate has no class.  Every
    # other index calls the kernel once per candidate, with the vector alone
    built, called = [], Counter()
    rows, kernel = search.PackedRows, search.is_terminal_fast

    def recording_rows(*args):
        built.append(args)
        return rows(*args)

    def recording_kernel(w):
        called[w.V] += 1
        return kernel(w)

    monkeypatch.setattr(search, "PackedRows", recording_rows)
    monkeypatch.setattr(search, "is_terminal_fast", recording_kernel)
    run_census(CensusQuery(d=d, v_max=24))
    packed = {V for V in range(d - 1, 25) if partition_count(V + 1, d) >= V}
    assert packed == {*range(first, 25)} | ({1} if d == 2 else set())
    assert sorted(built) == [(d, V, F(1), False) for V in sorted(packed)]
    assert called == Counter(
        w.V for V in range(d - 1, 25) if V not in packed for w in enumerate_blowups(d, V)
    )


def test_census_keeps_an_index_of_few_candidates_scalar(monkeypatch):
    # d = 398, V = 400 has 3 candidates: rows of 399 fields for each of 401
    # weight values would serve them, and at V = 6,000 take 142 MB
    def refuse(*args):
        raise AssertionError("packed rows were built")

    monkeypatch.setattr(search, "PackedRows", refuse)
    got = run_census(CensusQuery(d=398, v_min=400, v_max=400))
    assert [(h.n.count(1), h.n[-3:]) for h in got.hits] == [
        (397, (1, 1, 4)), (396, (1, 2, 3)), (395, (2, 2, 2))
    ]
    assert got.histogram.items() == [(1, 3)]


def test_census_drains_each_index_once_through_the_module_global(monkeypatch):
    # the traced benchmark round counts candidates by swapping
    # `search.enumerate_blowups` for an eager, counting wrapper, so every
    # block, packed or scalar, looks it up through the module once per index
    # and drains it.  d = 4, V <= 30 has both kinds of index
    q = CensusQuery(d=4, v_max=30)
    packed = {V for V in range(3, 31) if partition_count(V + 1, 4) >= V}
    assert packed and packed != set(range(3, 31))
    unwrapped = run_census(q)
    enumerate_lazily, calls, handed = search.enumerate_blowups, [], []

    def eager(d, V):
        ws = list(enumerate_lazily(d, V))
        calls.append((d, V, len(ws)))
        handed.append(it := iter(ws))
        return it

    monkeypatch.setattr(search, "enumerate_blowups", eager)
    got = run_census(q)
    assert got.histogram == unwrapped.histogram and got.hits == unwrapped.hits

    def primitive(V):  # the primitive partitions of V + 1 into 4 parts
        parts = combinations_with_replacement(range(1, V), 4)
        return sum(sum(n) == V + 1 and gcd(*n) == 1 for n in parts)

    # each index once, with all of its candidates
    assert sorted(calls, key=lambda c: c[1]) == [(4, V, primitive(V)) for V in range(3, 31)]
    assert all(next(it, None) is None for it in handed)  # every candidate consumed


@pytest.mark.parametrize(
    "verdict,eps", [("terminal", 1), ("canonical", 1), ("eps-lt", F(2, 3)), ("eps-lc", F(1, 2))]
)
def test_census_block_never_places_a_class(monkeypatch, verdict, eps):
    # a packed block tests every verdict by one bitset: no kernel is called
    # and no class is iterated or placed, and the hits are those of the
    # scalar kernels
    q = CensusQuery(d=4, v_max=30, eps=eps, verdict=verdict)
    kernel = is_terminal_fast if verdict in ("terminal", "eps-lt") else is_canonical_fast
    expected = [w for w in enumerate_blowups(4, 30) if kernel(w, eps)]

    def failing(*args):
        raise AssertionError("a kernel was called or a class iterated or placed")

    for module in (classifier, exactgeom):
        monkeypatch.setattr(module, "place_class", failing)
        monkeypatch.setattr(module, "residue_classes", failing)
    monkeypatch.setattr(search, "is_terminal_fast", failing)
    monkeypatch.setattr(search, "is_canonical_fast", failing)
    counts, hits = search._census_block((q, 30, True))
    # one flat array of the hits' weights, 4 per hit, in enumeration order
    assert hits.typecode == "H" and hits.tolist() == [x for w in expected for x in w.n]
    assert sum(counts.values()) == len(expected) > 0


# every verdict: both at eps = 1, and both eps verdicts at each eps < 1
_CENSUS_VERDICTS = [("terminal", F(1)), ("canonical", F(1))] + [
    (verdict, e) for e in PRUNE_EPSILONS if e < 1 for verdict in ("eps-lt", "eps-lc")
]


@pytest.mark.parametrize("d,vmax", [(2, 80), (3, 60), (4, 36), (5, 24), (6, 20)])
def test_census_matches_scalar_kernels_exhaustive(d, vmax):
    # the census, packed blocks and scalar ones, against the enumeration and
    # one scalar kernel call per candidate, from V = 1 (at d = 2 a packed
    # block whose prefix is empty and whose one candidate has no class)
    assert any(partition_count(V + 1, d) >= V for V in range(d - 1, vmax + 1))
    ws = [w for V in range(1, vmax + 1) for w in enumerate_blowups(d, V)]
    for verdict, eps in _CENSUS_VERDICTS:
        kernel = is_canonical_fast if verdict in ("canonical", "eps-lc") else is_terminal_fast
        expected = [w for w in ws if kernel(w, eps)]
        got = run_census(CensusQuery(d=d, v_max=vmax, eps=eps, verdict=verdict))
        assert got.hits == expected, (verdict, eps)
        assert got.histogram.counts == Counter(w.n_min for w in expected), (verdict, eps)


def test_census_hit_array_holds_every_weight():
    # a weight is at most its index, so the typecode follows v_max alone:
    # 16 bits up to 65535, 64 above
    for v_max, code in ((65535, "H"), (65536, "Q")):
        q = CensusQuery(d=3, v_min=12, v_max=v_max, budget=10**30)
        counts, hits = search._census_block((q, 12, False))
        assert hits.typecode == code and hits.itemsize * 8 >= v_max.bit_length()
        assert hits.tolist() == [x for w in enumerate_blowups(3, 12) if is_terminal_fast(w) for x in w.n]
        assert counts == {1: len(hits) // 3}


def test_pool_size_clamp(monkeypatch):
    # a plain function: no pool is started here
    monkeypatch.setattr("blowups.search.os.cpu_count", lambda: 2)
    assert pool_size(1, 100) == 1
    assert pool_size(64, 100) == 2
    assert pool_size(64, 1) == 1
    assert pool_size(2, 5) == 2
    assert pool_size(0, 5) == 1
    monkeypatch.setattr("blowups.search.os.cpu_count", lambda: None)
    assert pool_size(8, 8) == 1


def test_pool_size_capped_at_affinity(monkeypatch):
    # a process allowed on one CPU of eight starts one worker
    monkeypatch.setattr("blowups.search.os.cpu_count", lambda: 8)
    monkeypatch.setattr("blowups.search.os.sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert pool_size(8, 100) == 1
    # and an affinity set never raises the count above cpu_count
    monkeypatch.setattr("blowups.search.os.sched_getaffinity",
                        lambda pid: set(range(16)), raising=False)
    assert pool_size(64, 100) == 8


SRC = str(Path(search.__file__).resolve().parents[1])
needs_two_workers = pytest.mark.skipif(
    pool_size(2, 2) == 1, reason="one CPU: a census starts no pool"
)


def _python(code: str) -> str:
    # a fresh isolated interpreter that imports the package from this source tree
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, SRC],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_commands_without_a_pool_never_import_one():
    # dataclasses and inspect count only when the package is what loads them,
    # not a site hook that ran before it; the package itself loads no layer
    out = _python(
        "import contextlib, io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import blowups\n"
        "print(sorted(m for m in sys.modules if m.startswith('blowups.')))\n"
        "from blowups import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['classify', '--weights', '32,41,71,102']) == 0\n"
        "    assert cli.main(['family', '--id', 'Q29', '--apex', '2', '--volume', '37']) == 0\n"
        "    assert cli.main(['family-scan', '--vmax', '30']) == 0\n"
        "    assert cli.main(['sporadic', '--fixtures']) == 0\n"
        "    assert cli.main(['width', '--points', '[[0,0],[2,0],[0,2]]']) == 0\n"
        "    assert cli.main(['census', '--dim', '4', '--vmax', '30', '--threads', '1']) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.partition('.')[0] in ('concurrent', 'multiprocessing')))\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    assert out == "[]\n[]\n[]\n"


def test_pool_class_is_the_module_attribute():
    import concurrent.futures

    assert search.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    with pytest.raises(AttributeError, match="has no attribute 'ThreadPoolExecutor'"):
        search.ThreadPoolExecutor


@needs_two_workers
def test_pooled_census_loads_the_pool_and_matches_serial():
    q = CensusQuery(d=4, v_max=30)
    pooled = run_census(q, workers=2)
    assert "concurrent.futures.process" in sys.modules
    assert pooled == run_census(q, workers=1)


@needs_two_workers
def test_census_enters_the_pool_class_set_on_the_module(monkeypatch):
    # a class set on `search.ProcessPoolExecutor` is the one a census enters
    entered = []

    class RecordingPool(search.ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self._max_workers)
            return super().__enter__()

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    q = CensusQuery(d=3, v_max=20)
    assert run_census(q, workers=2) == run_census(q, workers=1)
    assert entered == [2]


@needs_two_workers
def test_spawned_workers_import_the_package_from_scratch():
    # spawn-started workers re-import `blowups.search`, which has no pool yet
    out = _python(
        "import multiprocessing, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "multiprocessing.set_start_method('spawn')\n"
        "from blowups.search import CensusQuery, run_census\n"
        "q = CensusQuery(d=4, v_max=30)\n"
        "pooled = run_census(q, workers=2)\n"
        "assert pooled == run_census(q, workers=1)\n"
        "print(pooled.histogram.items(), [(V, w.tolist()) for V, w in pooled.blocks])\n"
    )
    serial = run_census(CensusQuery(d=4, v_max=30), workers=1)
    assert out == f"{serial.histogram.items()} {[(V, w.tolist()) for V, w in serial.blocks]}\n"


def test_census_budget_guard():
    q = CensusQuery(d=4, v_max=50, budget=100)
    with pytest.raises(BudgetExceeded) as err:
        run_census(q)
    assert str(projected_candidates(q)) in str(err.value)


def test_census_budget_counts_residue_steps():
    # two candidates, but each costs up to d * v_max residue steps
    t = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="18000000 residue steps"):
        run_census(CensusQuery(d=3000, v_max=3000, budget=10**7))
    assert time.perf_counter() - t < 0.5
    # the paper's d = 4 census to V = 419 stays inside the default budget
    q = CensusQuery(d=4, v_max=419)
    assert projected_candidates(q) * 4 * 419 <= q.budget == 10**11


def test_census_of_two_huge_candidates_is_refused_at_default_budget():
    # two candidates of 10**12 residue steps each would run for hours
    t = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        run_census(CensusQuery(d=10**6, v_max=10**6))
    assert time.perf_counter() - t < 0.5


def test_census_huge_dimension_is_immediate():
    # no partition of V+1 <= 4 has 10**9 parts; the count must not loop to d
    t = time.perf_counter()
    result = run_census(CensusQuery(d=10**9, v_max=3))
    assert result.hits == [] and result.histogram.total == 0
    assert time.perf_counter() - t < 5


def test_census_dimension_near_or_above_the_index():
    # the forced leading ones keep the recursion shallow
    assert [w.n for w in enumerate_blowups(3000, 2999)] == [(1,) * 3000]
    assert [w.n for w in enumerate_blowups(3000, 3000)] == [(1,) * 2999 + (2,)]
    # an index below d - 1 yields nothing, and allocates nothing either
    tracemalloc.start()
    try:
        assert list(enumerate_blowups(10**6, 5)) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # no index below d - 1 has a candidate, so none of them is visited, and
    # the count runs over j <= v_max + 1 - d only
    t = time.perf_counter()
    assert projected_candidates(CensusQuery(d=10**7, v_max=10**6)) == 0
    assert projected_candidates(CensusQuery(d=3000, v_max=3000)) == 2
    assert projected_candidates(CensusQuery(d=10**6, v_max=10**6)) == 2
    result = run_census(CensusQuery(d=10**7, v_max=10**6))
    assert result.hits == [] and result.histogram.total == 0
    assert time.perf_counter() - t < 0.5


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the address-space limit is checked on Linux")
def test_census_of_few_candidates_fits_in_120_mb():
    # an index of 3 candidates stays scalar: its packed rows would peak at 142 MB
    out = _python(
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (120_000 * 1024,) * 2)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from blowups import cli\n"
        "sys.exit(cli.main(['census', '--dim', '5998', '--vmin', '6000',\n"
        "                   '--vmax', '6000', '--threads', '1']))\n"
    )
    assert '"total": 3' in out


def test_census_huge_single_index_is_refused_at_once():
    # the exact count would fill a partition row of length 10**8 + 2
    t = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        run_census(CensusQuery(d=4, v_min=10**8, v_max=10**8))
    assert time.perf_counter() - t < 0.5
    # the closed-form bound never exceeds the exact count it stands in for
    for d in (2, 3, 4, 9, 12):
        for v_min, v_max in ((1, 1), (1, 40), (7, 7), (10, 60), (30, 33)):
            q = CensusQuery(d=d, v_min=v_min, v_max=v_max)
            assert _candidates_lower_bound(q) <= projected_candidates(q)


def test_census_query_validation():
    with pytest.raises(ValueError):
        CensusQuery(d=1, v_max=5)
    with pytest.raises(ValueError):
        CensusQuery(d=3, v_max=0)
    with pytest.raises(ValueError):
        CensusQuery(d=3, v_max=5, v_min=6)
    with pytest.raises(ValueError):
        CensusQuery(d=3, v_max=5, verdict="smooth")
    with pytest.raises(ValueError):
        CensusQuery(d=3, v_max=5, verdict="terminal", eps=F(1, 2))
    with pytest.raises(ValueError):
        CensusQuery(d=3, v_max=5, min_weight=0)
    with pytest.raises(ValueError):
        CensusQuery(d=3, v_max=5, budget=-1)
    CensusQuery(d=3, v_max=5, budget=0)  # a zero budget is valid
    # 0.3 would run at 5404319552844595/18014398509481984, not 3/10
    with pytest.raises(TypeError, match="0.3"):
        CensusQuery(d=3, v_max=5, eps=0.3, verdict="eps-lc")


def test_census_query_refuses_non_integers():
    # v_min = 2.5 once ran from 3 and echoed 2.5
    for field in ("d", "v_min", "v_max", "budget", "min_weight"):
        with pytest.raises(TypeError):
            CensusQuery(**{"d": 4, "v_max": 10, field: 2.5})
    assert CensusQuery(4, 10, min_weight=None).min_weight is None


@cache
def _brute_flags(d, vmax):
    """Oracle (terminal, canonical) per (V, n), shared by both verdict cases."""
    return {
        (V, w.n): flags_from_brute(w)
        for V in range(1, vmax + 1) for w in enumerate_blowups(d, V)
    }


@pytest.mark.parametrize("verdict,flag", [("terminal", 0), ("canonical", 1)])
def test_census_agrees_with_brute_force_oracle(verdict, flag):
    for d, vmax in ((2, 40), (3, 40)):
        res = run_census(CensusQuery(d=d, v_max=vmax, verdict=verdict))
        expected = {key for key, f in _brute_flags(d, vmax).items() if f[flag]}
        assert {(h.V, h.n) for h in res.hits} == expected, (d, verdict)


def test_census_eps_verdicts_match_classify():
    # classify runs once per (vector, eps) and gives both verdicts
    for eps in (F(1, 2), F(2, 3)):
        verdicts = {
            w.n: classify(w, eps) for V in range(1, 15) for w in enumerate_blowups(3, V)
        }
        for verdict, flag in (("eps-lt", "eps_log_terminal"), ("eps-lc", "eps_log_canonical")):
            res = run_census(CensusQuery(d=3, v_max=14, eps=eps, verdict=verdict))
            got = {h.n for h in res.hits}
            expected = {n for n, v in verdicts.items() if getattr(v, flag)}
            assert got == expected, (eps, verdict)


def test_census_eps_table_largest_smallest_weight():
    # the README's eps < 1 table, each row as (eps-lc, eps-lt): d = 3, V <= 60
    table = {F(1, 2): (18, 17), F(2, 3): (13, 13), F(3, 4): (11, 8), F(4, 5): (7, 7)}
    for eps, row in table.items():
        got = tuple(
            max(run_census(CensusQuery(d=3, v_max=60, eps=eps, verdict=v)).histogram.counts)
            for v in ("eps-lc", "eps-lt")
        )
        assert got == row, eps


def test_histogram_type():
    # the benchmark's smoke check reads `total` as an int attribute, not a
    # method, and the CLI writes `items()` in key order
    h = Histogram({3: 3, 10: 1, 2: 2})
    assert h.total == 6 and type(h.total) is int
    assert h.items() == [(2, 2), (3, 3), (10, 1)]
