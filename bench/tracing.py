"""Spans around calls into the blowups package, recorded from outside it.

Nothing under src/ knows about tracing.  A Tracer swaps module attributes of
the package for timing wrappers while a phase runs and restores them after.
Spans (name, start, end, parent) are kept in compact arrays in memory and
written out once, when the benchmark ends.  A span's self time is its
duration minus the time its child spans cover; children of one span never
overlap, because everything traced runs on one thread.
"""

from __future__ import annotations

import gzip
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, phase: str):
        self.phase = phase
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, observe=None, eager: bool = False):
        """Timing wrapper; `eager` drains a generator inside the span."""

        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                # a forked pool worker: its spans could not reach the parent
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                self.close(idx)
            if observe is not None:
                observe(self.counts, args, result)
            return iter(result) if eager else result

        return traced

    def pool_class(self, base, name: str):
        """Subclass of an executor whose whole lifetime is one span."""
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                self._span = tracer.open(name)
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

        return TracedPool

    @contextmanager
    def patched(self, api):
        """Wrap every traced entry point of the package for the block's duration."""
        saved = []
        try:
            for module, attr, name, kw in _targets(api):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if kw.get("pool"):
                    setattr(module, attr, self.pool_class(original, name))
                else:
                    setattr(module, attr, self.wrap(original, name, **kw))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(n):
            row = out.setdefault(
                self.names[self.name_id[i]], {"calls": 0, "s": 0.0, "self_s": 0.0}
            )
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - covered[i]
        return out

    def write(self, path: Path) -> None:
        with gzip.open(path, "at") as fh:
            for i in range(len(self.start)):
                fh.write(
                    f"{self.phase},{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )


def _count_out_bytes(counts, args, result):
    argv = args[0]
    if "--out" in argv:
        counts["cli.out_bytes"] += os.path.getsize(argv[argv.index("--out") + 1])


def _count_passes(counts, args, result):
    counts["classifier.is_terminal_fast.passed"] += bool(result)


def _count_lattice(counts, args, result):
    counts["exactgeom.lattice_points.witnesses"] += len(result)
    counts["exactgeom.lattice_points.cosets"] += args[0].V


def _count_candidates(counts, args, result):
    counts["search.candidates"] += len(result)


def _count_yield(counts, args, result):
    counts["families.blowup_from_quintuple.yielded"] += result is not None


def _count_parsed(counts, args, result):
    counts["sporadic.parse_dataset.records"] += len(result)
    counts["sporadic.parse_dataset.bytes"] += os.path.getsize(args[0])


def _count_extracted(counts, args, result):
    counts["sporadic.blowups_from_record.blowups"] += len(result)


def _targets(api):
    """(module, attribute, span name, wrapper options) for each traced call site.

    A function is patched where its caller looks it up: `cli` imported
    `run_census`, `classify`, `is_terminal_fast` and `scan_families` into its
    own namespace, `search` and `classifier` did the same with their kernels.
    `projections` is not traced: it serves only the one-shot `width` command.
    """
    cli, search, classifier = api.cli, api.search, api.classifier
    families, sporadic = api.families, api.sporadic
    return [
        (cli, "main", "cli.main", {"observe": _count_out_bytes}),
        (cli, "run_census", "search.run_census", {}),
        (search, "run_census", "search.run_census", {}),
        (search, "projected_candidates", "search.projected_candidates", {}),
        (search, "enumerate_blowups", "search.enumerate_blowups",
         {"eager": True, "observe": _count_candidates}),
        (search, "ProcessPoolExecutor", "search.pool", {"pool": True}),
        (search, "is_terminal_fast", "classifier.is_terminal_fast",
         {"observe": _count_passes}),
        (cli, "is_terminal_fast", "classifier.is_terminal_fast",
         {"observe": _count_passes}),
        (cli, "classify", "classifier.classify", {}),
        (classifier, "classify", "classifier.classify", {}),
        (classifier, "lattice_points_in_shrunk_simplex", "exactgeom.lattice_points",
         {"observe": _count_lattice}),
        (cli, "scan_families", "cli.scan_families", {}),
        (families, "instantiate", "families.instantiate", {}),
        (families, "blowup_from_quintuple", "families.blowup_from_quintuple",
         {"observe": _count_yield}),
        (sporadic, "parse_dataset", "sporadic.parse_dataset",
         {"observe": _count_parsed}),
        (sporadic, "sporadic_report", "sporadic.report", {}),
        (sporadic, "blowups_from_record", "sporadic.blowups_from_record",
         {"observe": _count_extracted}),
    ]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures for every traced layer that ran in this tracer's phase."""
    s, c = tr.summary(), tr.counts
    m: dict[str, float] = {}

    def calls_and_time(name: str, *, self_time: bool = False) -> int:
        row = s[name]
        m[f"{name}.calls"] = row["calls"]
        m[f"{name}.s"] = row["s"]
        if self_time:
            m[f"{name}.self_s"] = row["self_s"]
        return row["calls"]

    if "cli.main" in s:
        # cli.main minus the library calls it made: parsing and serialisation
        m["cli.serialise.s"] = s["cli.main"]["self_s"]
        m["cli.out_bytes"] = c["cli.out_bytes"]
    if "search.run_census" in s:
        m["search.run_census.s"] = s["search.run_census"]["s"]
        m["search.run_census.self_s"] = s["search.run_census"]["self_s"]
    if "search.enumerate_blowups" in s:
        m["search.enumerate_blowups.s"] = s["search.enumerate_blowups"]["s"]
        m["search.candidates"] = c["search.candidates"]
    if "classifier.is_terminal_fast" in s:
        n = calls_and_time("classifier.is_terminal_fast")
        m["classifier.is_terminal_fast.us_per_call"] = (
            s["classifier.is_terminal_fast"]["s"] / n * 1e6
        )
        m["classifier.is_terminal_fast.pass_ratio"] = (
            c["classifier.is_terminal_fast.passed"] / n
        )
    if "classifier.classify" in s:
        calls_and_time("classifier.classify", self_time=True)
    if "exactgeom.lattice_points" in s:
        calls_and_time("exactgeom.lattice_points")
        m["exactgeom.lattice_points.witnesses"] = c["exactgeom.lattice_points.witnesses"]
        m["exactgeom.lattice_points.cosets"] = c["exactgeom.lattice_points.cosets"]
    if "families.instantiate" in s:
        calls_and_time("families.instantiate")
    if "families.blowup_from_quintuple" in s:
        n = calls_and_time("families.blowup_from_quintuple")
        m["families.blowup_from_quintuple.yield_ratio"] = (
            c["families.blowup_from_quintuple.yielded"] / n
        )
    if "sporadic.parse_dataset" in s:
        m["sporadic.parse_dataset.s"] = s["sporadic.parse_dataset"]["s"]
        m["sporadic.parse_dataset.bytes"] = c["sporadic.parse_dataset.bytes"]
        m["sporadic.parse_dataset.records"] = c["sporadic.parse_dataset.records"]
    if "sporadic.blowups_from_record" in s:
        n = calls_and_time("sporadic.blowups_from_record")
        m["sporadic.blowups_from_record.blowups_per_record"] = (
            c["sporadic.blowups_from_record.blowups"] / n
        )
    if "sporadic.report" in s:
        m["sporadic.report.s"] = s["sporadic.report"]["s"]
    return m
