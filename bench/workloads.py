"""The benchmark's workloads: seeded inputs, the timed job, checks, traced rounds.

Each workload is built from its seed before anything is timed, and the package
receives only the generated inputs.  `job` is the unit of timed work; the
harness repeats it for the run's window.  `trace_round` pairs an untraced and
a traced job for a traced run.  `check` runs after the window, outside any
timed region.

Why each workload exists:

* census-d4: the paper's hot path, a d = 4 census from V = 1 as users run it.
  The residue kernel `is_terminal_fast` dominates it.  In its traced rounds
  the pool runs one task per index in ascending order, so the heaviest task
  comes last: this is the workload where kernel speed and pool load
  balancing show.
* classify-geom: single `classify` calls, one per index and epsilon.  It
  exercises the exact coset enumeration in `exactgeom` and never touches the
  fast kernel or the pool, so it is the bypass case for census optimisations
  (and they for it).
* extract-scan: the family scan and a sporadic dataset, call by call.  It
  loads `families` and `sporadic` (apex extraction, dataset parsing) and uses
  the residue kernel on few, small-index vectors of which about half are
  terminal, where early exit rarely helps.

Each workload times its job unit by unit, and `wall_s` is the sum over units
of each unit's fastest time in the window: on a shared host the speed of the
same code changes within seconds, and a median job moves with the share of
its window spent in slow spells, while each unit's fastest pass does not.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from array import array
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def random_weights(rng: random.Random, V: int) -> tuple[int, int, int, int]:
    """A uniformly random primitive composition of V + 1 into 4 positive parts."""
    while True:
        a, b, c = sorted(rng.sample(range(1, V + 1), 3))
        w = (a, b - a, c - b, V + 1 - c)
        if gcd(*w) == 1:
            return w


def mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


class JobFailed(RuntimeError):
    """A CLI call in the timed job exited with a non-zero code."""


class Workload:
    """A job made of many short units, each timed, and shared bookkeeping.

    Subclasses set `ops_per_job` and `inputs`; `job` sets `self.last` to the
    unit latencies of the job just run and its outcome, which must be the
    same on every job.
    """

    name = ""
    jobs_per_trace_round = 2

    def __init__(self, api, seed: int, workdir: Path, workers: int):
        self.api = api
        self.seed = seed
        self.workdir = workdir
        self.workers = workers
        self.outputs: dict[str, set[str]] = {}
        self.failures: list[str] = []
        self.passes: list[array] = []
        self.outcomes: set = set()

    def cli(self, argv: list[str]) -> None:
        rc = self.api.cli.main(argv)
        if rc != 0:
            raise JobFailed(f"blowups {' '.join(argv)} exited {rc}")

    def record_output(self, label: str, path: Path) -> None:
        self.outputs.setdefault(label, set()).add(sha256_file(path))

    def after_job(self) -> None:
        """Untimed bookkeeping after each job."""
        lat, outcome = self.last
        self.passes.append(lat)
        self.outcomes.add(outcome)

    def wall(self) -> float:
        """One job with every unit at its fastest of the window's jobs."""
        return sum(map(min, zip(*self.passes)))

    def check_outputs_repeat(self) -> None:
        for label, digests in self.outputs.items():
            if len(digests) != 1:
                self.failures.append(f"{label}: output differs between jobs")

    def check_outcomes_repeat(self) -> None:
        if len(self.outcomes) != 1:
            self.failures.append(f"{self.name}: outcome differs between jobs")

    def report(self) -> dict:
        """Extra human-readable figures for this workload."""
        return {
            "job_median_s": {"value": statistics.median(map(sum, self.passes)), "unit": "s"},
            "job_units": {"value": len(self.passes[0]), "unit": "count"},
        }

    def trace_round(self, traced_first: bool):
        """One untraced and one traced job back to back, in the given order.

        Returns the tracer and the layer metrics of the traced job, with
        `trace.overhead` as the traced job's wall over the untraced one's.
        """
        tracer = Tracer(self.name)
        walls = {}
        for traced in (traced_first, not traced_first):
            with tracer.patched(self.api) if traced else nullcontext():
                t = perf_counter()
                self.job()
                walls[traced] = perf_counter() - t
            self.after_job()
        m = layer_metrics(tracer)
        m["trace.overhead"] = walls[True] / walls[False]
        return [tracer], m


class CensusD4(Workload):
    """`blowups census --dim 4 --vmax N --threads 1` in-process, in timed units.

    The timed census is serial, so that its parts are timed from outside:
    each call of the residue kernel is a unit, so is the rest of each index's
    block (`search._census_block`: enumeration and tallying), and so is the
    rest of the CLI call (parsing, the merge, JSON output).  The pool,
    `--threads min(2, nproc)`, runs in the traced rounds.
    """

    name = "census-d4"
    jobs_per_trace_round = 3
    # a job is short so that each unit is timed 30 or so times in a 30 s
    # window.  The pooled census to N = 80 (13 to 16 jobs of about 2 s) could
    # only report its median job, and over ten seeds that spread from 0.06 to
    # 0.22 as the host's slow spells came and went
    VMAX = 60
    # (primitive candidates, terminal vectors) at d = 4 and N = 60, from the
    # parent code of the benchmark
    REFERENCE = (24_308, 6_656)
    SAMPLE = 200

    def __init__(self, api, seed, workdir, workers):
        super().__init__(api, seed, workdir, workers)
        search = api.search
        self.projected = search.projected_candidates(search.CensusQuery(d=4, v_max=self.VMAX))
        # the projection counts every partition of V + 1 into 4 parts; the
        # enumeration keeps the primitive ones, counted here by Moebius inversion
        self.ops_per_job = sum(
            mobius(g) * search.partition_count((V + 1) // g, 4)
            for V in range(1, self.VMAX + 1)
            for g in range(1, V + 2)
            if (V + 1) % g == 0
        )
        self.argv = ["census", "--dim", "4", "--vmax", str(self.VMAX)]
        self.out = workdir / "census.json"
        self.rng = random.Random(seed)  # picks the spot-check sample
        self.inputs = {"argv": self.argv, "pool_threads": workers, "spot_check_seed": seed}

    def job(self):
        search = self.api.search
        block, kernel = search._census_block, search.is_terminal_fast
        lat, rest = array("d"), array("d")

        def timed_kernel(w):
            t = perf_counter()
            passed = kernel(w)
            lat.append(perf_counter() - t)
            return passed

        def timed_block(task):
            n, t = len(lat), perf_counter()
            result = block(task)
            rest.append(perf_counter() - t - sum(lat[n:]))
            return result

        # run_census looks the block up per index, and the block its kernel
        search._census_block, search.is_terminal_fast = timed_block, timed_kernel
        try:
            t = perf_counter()
            self.cli(self.argv + ["--threads", "1", "--out", str(self.out)])
            wall = perf_counter() - t
        finally:
            search._census_block, search.is_terminal_fast = block, kernel
        lat.extend(rest)
        lat.append(wall - sum(lat))
        self.last = lat, None  # the output is compared by its digest

    def after_job(self):
        super().after_job()
        self.record_output("census --threads 1", self.out)

    def check(self):
        self.check_outputs_repeat()
        fail = self.failures.append
        search, classifier = self.api.search, self.api.classifier
        data = json.loads(self.out.read_text())
        hits = [(h["V"], tuple(h["weights"]), h["n_min"]) for h in data["hits"]]
        if hits != sorted(hits):
            fail("census: hits are not in (V, lex) order")
        if any(sum(w) != V + 1 or list(w) != sorted(w) or m != w[0] for V, w, m in hits):
            fail("census: a hit is not a nondecreasing vector of index V with n_min first")
        hist = Counter(m for _, _, m in hits)
        if {str(k): c for k, c in hist.items()} != data["histogram"] or data["total"] != len(hits):
            fail("census: histogram and total disagree with the hit list")
        terminal = {w for _, w, _ in hits}
        # every candidate, counted against the projection; a seeded reservoir of rejects
        count, rejected, sample = 0, 0, []
        for V in range(1, self.VMAX + 1):
            for w in search.enumerate_blowups(4, V):
                count += 1
                if w.n in terminal:
                    continue
                rejected += 1
                if len(sample) < self.SAMPLE:
                    sample.append(w)
                else:
                    j = self.rng.randrange(rejected)
                    if j < self.SAMPLE:
                        sample[j] = w
        if count != self.ops_per_job:
            fail(f"census: enumerated {count} candidates, {self.ops_per_job} primitive projected")
        if self.projected != sum(search.partition_count(V + 1, 4) for V in range(1, self.VMAX + 1)):
            fail("census: projected_candidates is not the partition count")
        if (count, len(hits)) != self.REFERENCE:
            fail(f"census: (candidates, terminal) = {(count, len(hits))}, expected {self.REFERENCE}")
        if len(self.outputs) > 1 and len(set.union(*self.outputs.values())) != 1:
            fail("census: --threads 1 and --threads 2 outputs differ")
        WeightVector = self.api.exactgeom.WeightVector
        for _, w, _ in self.rng.sample(hits, min(self.SAMPLE, len(hits))):
            if not classifier.classify(WeightVector(w), 1).eps_log_terminal:
                fail(f"census: hit {w} is not terminal by classify")
        for w in sample:
            if classifier.classify(w, 1).eps_log_terminal:
                fail(f"census: rejected {w.n} is terminal by classify")
        return self.failures

    def trace_round(self, traced_first):
        """A pooled traced census, then a serial one traced and one not.

        Workers of the pool cannot report spans, so the kernel and enumeration
        are traced in the serial run; the pooled run gives the wall that the
        pool efficiency divides by.  All outputs must be byte-identical.
        """
        pooled, serial = Tracer("pooled"), Tracer("serial")
        with pooled.patched(self.api):
            self.cli(self.argv + ["--threads", str(self.workers), "--out", str(self.out)])
        self.record_output(f"census --threads {self.workers}", self.out)
        walls = {}
        for traced in (traced_first, not traced_first):
            out = self.workdir / f"census-serial-{int(traced)}.json"
            with serial.patched(self.api) if traced else nullcontext():
                t = perf_counter()
                self.cli(self.argv + ["--threads", "1", "--out", str(out)])
                walls[traced] = perf_counter() - t
            self.record_output("census --threads 1", out)
        m = layer_metrics(serial)
        m.update(layer_metrics(pooled))
        busy = m["search.enumerate_blowups.s"] + m["classifier.is_terminal_fast.s"]
        m["search.pool.workers"] = self.workers
        m["search.pool.efficiency"] = busy / (
            self.workers * pooled.summary()["search.run_census"]["s"]
        )
        m["trace.overhead"] = walls[True] / walls[False]
        if m["search.candidates"] != self.ops_per_job:
            self.failures.append("census: traced enumeration count is off the primitive projection")
        return [pooled, serial], m


class ClassifyGeom(Workload):
    """A closed loop with one client calling `classify(w, eps)`, each call a unit."""

    name = "classify-geom"
    V_RANGE = (50, 419)
    EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
    BRUTE_FORCE_MAX_V = 60

    def __init__(self, api, seed, workdir, workers):
        super().__init__(api, seed, workdir, workers)
        rng = random.Random(seed)
        WeightVector = api.exactgeom.WeightVector
        # one call per V in a pass, eps cycling with V, in random order: the
        # cost of a call grows with V and depends on eps, so stratifying keeps
        # a pass the same work on every seed; the seed picks the weights and
        # the order.  A pass is short so that each call is timed many times in
        # a window: at four calls per V (1,480) about 18 passes fitted, and
        # the sum of each call's fastest time still moved with the host
        self.calls = [
            (WeightVector(random_weights(rng, V)), self.EPSILONS[V % 4])
            for V in range(self.V_RANGE[0], self.V_RANGE[1] + 1)
        ]
        rng.shuffle(self.calls)
        self.ops_per_job = len(self.calls)
        self.inputs = {"calls": [[list(w.n), str(e)] for w, e in self.calls]}

    def job(self):
        classify = self.api.classifier.classify
        lat, verdicts = array("d"), []
        for w, eps in self.calls:
            t = perf_counter()
            v = classify(w, eps)
            lat.append(perf_counter() - t)
            verdicts.append((v.eps_log_terminal, v.eps_log_canonical))
        self.last = lat, tuple(verdicts)

    def check(self):
        self.check_outcomes_repeat()
        fail = self.failures.append
        classifier, exactgeom = self.api.classifier, self.api.exactgeom
        verdicts = next(iter(self.outcomes), ())
        for (w, eps), (terminal, canonical) in zip(self.calls, verdicts):
            if eps == 1 and (terminal, canonical) != (
                classifier.is_terminal_fast(w), classifier.is_canonical_fast(w)
            ):
                fail(f"classify: {w.n} at eps=1 disagrees with the fast paths")
            if w.V <= self.BRUTE_FORCE_MAX_V:
                classes = {c for _, c in exactgeom.brute_force_lattice_points(w, eps)}
                M = exactgeom.MembershipClass
                expected = (classes <= {M.VERTEX}, M.INTERIOR not in classes)
                if (terminal, canonical) != expected:
                    fail(f"classify: {w.n} at eps={eps} disagrees with brute force")
        return self.failures

    def report(self):
        latencies = [x for lat in self.passes for x in lat]
        q = statistics.quantiles(latencies, n=100)
        return {
            **super().report(),
            "op_p50_ms": {"value": q[49] * 1e3, "unit": "ms"},
            "op_p99_ms": {"value": q[98] * 1e3, "unit": "ms"},
            "op_samples": {"value": len(latencies), "unit": "count"},
        }


def extract_apices(V: int, b: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """The apex recipe, written independently of the package as a reference.

    Returns the blowup weights of each unit apex whose scaled residues sum to
    V + 1, or None when such residues are not positive primitive weights (the
    package rejects that record with DatasetIntegrityError).
    """
    out = []
    for a in range(5):
        if gcd(b[a], V) != 1:
            continue
        unit = (-pow(b[a], -1, V)) % V
        w = tuple((x * unit) % V for i, x in enumerate(b) if i != a)
        if sum(w) != V + 1:
            continue
        if min(w) < 1 or gcd(*w) != 1:
            return None
        out.append(w)
    return out


class ExtractScan(Workload):
    """The family scan to V = 100, then a sporadic dataset of seeded records.

    The job makes the library calls of `blowups family-scan --vmax 100` and of
    `blowups sporadic`, in the same order.  A scan unit is one (row, sign, V):
    `instantiate`, then `blowup_from_quintuple` per apex and the residue
    kernel on each blowup.  A sporadic unit parses a file of CHUNK records and
    reports on it.  The check runs both commands once through the CLI.
    """

    name = "extract-scan"
    # a job is short so that each unit is timed many times in a window: at
    # V = 200 with 20,000 records 9 to 13 jobs fitted, and the sum of each
    # unit's fastest time still moved with the host
    SCAN_VMAX = 100
    # (blowups, terminal, max terminal n_min) of the scan to V = 100, from the
    # parent code of the benchmark
    SCAN_REFERENCE = (3_176, 1_691, 6)
    RECORDS = 5_000
    CHUNK = 50
    V_RANGE = (50, 419)
    SAMPLE = 200

    def __init__(self, api, seed, workdir, workers):
        super().__init__(api, seed, workdir, workers)
        rng = random.Random(seed)
        self.records_path = workdir / "records.txt"
        self.scan_out = workdir / "scan.json"
        self.sporadic_out = workdir / "sporadic.json"
        self.generate(rng)
        families = api.families
        self.scan_units = [
            (q.label, sign, V)
            for q in families.quintuple_table()
            for sign in families.sign_choices(q)
            for V in range(1, self.SCAN_VMAX + 1)
        ]
        attempts = 0
        for label, sign, V in self.scan_units:
            try:
                families.instantiate(label, V, sign)
            except families.DivisibilityError:
                continue
            attempts += len(families.APICES)
        self.ops_per_job = attempts + 5 * self.RECORDS
        self.inputs = {
            "records_sha256": sha256_file(self.records_path),
            "records": self.RECORDS,
            "dropped_integrity": self.dropped,
            "scan_vmax": self.SCAN_VMAX,
        }

    def generate(self, rng):
        """Records (*w, V - 1) scaled by a random unit mod V and shuffled.

        A record whose other apices give residues summing to V + 1 that are not
        primitive is invalid data the package rightly rejects; it is dropped
        here and counted, so every record in the file is valid.  The records
        go to one file and, CHUNK at a time, to the chunk files of the job.
        """
        sample_at = set(rng.sample(range(self.RECORDS), self.SAMPLE))
        self.sample, self.dropped = [], 0
        hist, distinct, total = Counter(), set(), 0
        lines = []
        lo, hi = self.V_RANGE
        while len(lines) < self.RECORDS:
            V = lo + len(lines) % (hi - lo + 1)  # every index equally often
            w = random_weights(rng, V)
            while True:
                u = rng.randrange(1, V)
                if gcd(u, V) == 1:
                    break
            b = [x * u % V for x in w] + [(V - 1) * u % V]
            rng.shuffle(b)
            blowups = extract_apices(V, b)
            if blowups is None:
                self.dropped += 1
                continue
            if len(lines) in sample_at:
                self.sample.append((V, tuple(b), tuple(sorted(w))))
            for x in blowups:
                total += 1
                hist[min(x)] += 1
                s = sorted(x)
                distinct.add((((V * 512 + s[0]) * 512 + s[1]) * 512 + s[2]) * 512 + s[3])
            lines.append(f"{V} {b[0]} {b[1]} {b[2]} {b[3]} {b[4]}\n")
        self.records_path.write_text("".join(lines))
        self.chunks = []
        for i in range(0, self.RECORDS, self.CHUNK):
            path = self.workdir / f"records-{i // self.CHUNK:04d}.txt"
            path.write_text("".join(lines[i : i + self.CHUNK]))
            self.chunks.append(path)
        self.expected = {
            "records": self.RECORDS,
            "blowups_total": total,
            "blowups_distinct": len(distinct),
            "histogram": {str(k): c for k, c in hist.items()},
        }

    def job(self):
        # looked up per job, where the CLI's scan looks them up, so that a
        # traced job sees the tracer's wrappers
        families, sporadic = self.api.families, self.api.sporadic
        instantiate, blowup = families.instantiate, families.blowup_from_quintuple
        is_terminal_fast = self.api.cli.is_terminal_fast
        apices, DivisibilityError = families.APICES, families.DivisibilityError
        lat = array("d")
        produced = terminal = worst = violations = 0
        for label, sign, V in self.scan_units:
            t = perf_counter()
            try:
                instantiate(label, V, sign)
            except DivisibilityError:
                lat.append(perf_counter() - t)
                continue
            for apex in apices:
                w = blowup(label, apex, V, sign)
                if w is None:
                    continue
                produced += 1
                if is_terminal_fast(w):
                    terminal += 1
                    worst = max(worst, w.n_min)
                    violations += w.n_min > 6
            lat.append(perf_counter() - t)
        total, hist = 0, Counter()
        for path in self.chunks:
            t = perf_counter()
            report = sporadic.sporadic_report(sporadic.parse_dataset(path))
            lat.append(perf_counter() - t)
            total += report["blowups_total"]
            hist.update({k: c for k, c in report["histogram"].items()})
        outcome = (produced, terminal, worst, violations, total, tuple(sorted(hist.items())))
        self.last = lat, outcome

    def check(self):
        self.check_outcomes_repeat()
        fail = self.failures.append
        produced, terminal, worst, violations, total, hist = next(iter(self.outcomes))
        if violations:
            fail(f"scan: {violations} violations")
        if (produced, terminal, worst) != self.SCAN_REFERENCE:
            fail(f"scan: (blowups, terminal, max n_min) = {(produced, terminal, worst)}, "
                 f"expected {self.SCAN_REFERENCE}")
        if total != self.expected["blowups_total"] or dict(hist) != self.expected["histogram"]:
            fail("sporadic: the chunks' reports differ from the reference extraction")
        self.cli(["family-scan", "--vmax", str(self.SCAN_VMAX), "--out", str(self.scan_out)])
        self.record_output("family-scan", self.scan_out)
        scan = json.loads(self.scan_out.read_text())
        if (scan["blowups"], scan["terminal"], scan["max_terminal_n_min"]) != self.SCAN_REFERENCE:
            fail("family-scan: the CLI's counts differ from the reference")
        self.cli(["sporadic", "--input", str(self.records_path), "--out", str(self.sporadic_out)])
        self.record_output("sporadic", self.sporadic_out)
        report = json.loads(self.sporadic_out.read_text())
        for key, value in self.expected.items():
            if report[key] != value:
                fail(f"sporadic: {key} differs from the reference extraction")
        sporadic = self.api.sporadic
        for V, b, source in self.sample:
            got = {tuple(sorted(w.n)) for _, w in sporadic.blowups_from_record(sporadic.SporadicRecord(V, b))}
            if source not in got:
                fail(f"sporadic: record {V} {b} does not give back {source}")
        return self.failures


WORKLOADS = {w.name: w for w in (CensusD4, ClassifyGeom, ExtractScan)}
