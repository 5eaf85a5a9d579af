"""Benchmark of the blowups package, one seeded workload per run.

    python3 bench/run.py --workload census-d4 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`.  It builds the workload's inputs from the seed, repeats the
workload's job for `--seconds` seconds, checks the outputs, and prints every
metric by name with its unit.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
A full record with provenance goes to .bench_out/results/.  The exit code is
1 when a check fails and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 11  # spread evenly over the window, and topped up to this
MIN_TRACE_ROUNDS = 3
MAX_WORKERS = 2


def load_package():
    package = SRC / "blowups"
    if not (package / "__init__.py").is_file():
        print(f"bench: no package source at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import blowups
    import blowups.cli  # the package's __init__ imports the other layers

    if Path(blowups.__file__).resolve().parent != package.resolve():
        print(f"bench: imported blowups from {blowups.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)
    return blowups


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "blowups").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() or None


def host_loop_s() -> float:
    """Median seconds of a fixed pure-Python loop: the machine's speed just now.

    Provenance only.  On a shared host the same loop can take much longer
    for minutes at a time; this tells such a spell apart from slower code.
    """
    times = []
    for _ in range(5):
        t = perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i % 7
        times.append(perf_counter() - t)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process; the timed jobs start no child processes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def setup_sample(workdir: Path, failures: list[str]) -> float:
    """A fresh interpreter that imports blowups and makes one tiny call per layer."""
    code = (
        "import sys; from pathlib import Path; "
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
        "import smoke; "
        f"sys.exit(1 if smoke.run(Path({str(workdir)!r})) else 0)"
    )
    t = perf_counter()
    done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT)
    wall = perf_counter() - t
    if done.returncode != 0:
        failures.append(f"set-up smoke call exited {done.returncode}")
    return wall


def timed_window(wl, seconds: float, workdir: Path):
    """Repeat the job until the window has passed; at least once.

    Peak RSS is read after the first job, as one CLI run would leave it, and
    before any set-up interpreter starts.  A set-up sample follows the first
    job past each SETUP_SAMPLES-th of the window, so that set-up, like the
    job, is sampled across the whole window; the window is topped up to
    SETUP_SAMPLES of them.
    """
    walls: list[float] = []
    setup: list[float] = []
    failures: list[str] = []
    rss = 0.0
    start = perf_counter()
    next_setup = start
    while not walls or perf_counter() - start < seconds:
        gc.collect()
        t = perf_counter()
        wl.job()
        walls.append(perf_counter() - t)
        if len(walls) == 1:
            rss = peak_rss_mb()
        wl.after_job()
        if perf_counter() >= next_setup:
            setup.append(setup_sample(workdir, failures))
            next_setup += seconds / SETUP_SAMPLES
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workdir, failures))
    return walls, setup, rss, failures


def traced_window(api, wl, seconds: float, workdir: Path, trace_path: Path):
    """Rounds of one untraced and one traced job until the window has passed.

    Each per-layer figure is its median over the rounds, and `trace.overhead`
    the median of the rounds' traced-over-untraced ratios; the rounds
    alternate which job runs first.  `trace.spans` counts one round's spans.
    Layers the workload does not use report the set-up smoke call, traced
    in-process.
    """
    import smoke
    from tracing import Tracer, layer_metrics

    smoke_tracer = Tracer("smoke")
    with smoke_tracer.patched(api):
        failures = smoke.run(workdir)
    tracers, rounds = [smoke_tracer], []
    start = perf_counter()
    while len(rounds) < MIN_TRACE_ROUNDS or perf_counter() - start < seconds:
        gc.collect()
        round_tracers, m = wl.trace_round(traced_first=len(rounds) % 2 == 1)
        m["trace.spans"] = sum(len(t.start) for t in round_tracers)
        tracers += round_tracers
        rounds.append(m)
    layers = layer_metrics(smoke_tracer)
    layers.update({k: statistics.median(m[k] for m in rounds) for k in rounds[0]})
    layers.setdefault("search.pool.workers", 0)
    layers.setdefault("search.pool.efficiency", 0.0)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.unlink(missing_ok=True)
    summaries = {}
    for t in tracers:
        t.write(trace_path)
        summaries.setdefault(t.phase, t.summary())  # the smoke call and the first round
    return layers, len(rounds), summaries, failures


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    api = load_package()
    from workloads import WORKLOADS

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": nproc(),
        "loadavg_start": os.getloadavg(),
        "host_loop_s_start": host_loop_s(),
    }
    wl = WORKLOADS[args.workload](api, args.seed, workdir, min(MAX_WORKERS, nproc()))
    failures: list[str] = []
    walls, setup_walls, layers, summaries, rss, jobs = [], [], {}, {}, 0.0, 0
    try:
        if args.trace:
            layers, rounds, summaries, failures = traced_window(
                api, wl, args.seconds, workdir, OUT / "traces" / f"{tag}.csv.gz"
            )
            jobs = rounds * wl.jobs_per_trace_round
        else:
            walls, setup_walls, rss, failures = timed_window(wl, args.seconds, workdir)
            jobs = len(walls)
        failures += wl.check()
    except Exception as exc:  # report the run as failed instead of dying silently
        traceback.print_exc()
        failures.append(f"benchmark raised {exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    provenance["loadavg_end"] = os.getloadavg()
    provenance["host_loop_s_end"] = host_loop_s()

    attempted = wl.ops_per_job * max(1, jobs)
    end_to_end = {}
    if walls and setup_walls:
        wall = wl.wall()
        end_to_end = {
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": wl.ops_per_job / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else {k: v["value"] for k, v in end_to_end.items()}
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif jobs:
            failures.append(f"metric {m['name']} was not measured")

    extra = wl.report() if walls else {}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  jobs {jobs}")
    for name, m in {**metrics, **extra}.items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':<52} {len(failures) / attempted:>16.6g} failed/attempted")
    for f in failures:
        print(f"  FAILED: {f}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        **result,
        "end_to_end": end_to_end,
        "report": extra,
        "per_layer": layers,
        "trace_summary": summaries,
        "job_walls_s": walls,
        "setup_walls_s": setup_walls,
        "failures": failures,
        "provenance": {
            **provenance,
            "inputs_sha256": hashlib.sha256(
                json.dumps(wl.inputs, sort_keys=True).encode()
            ).hexdigest(),
            "inputs": {k: v for k, v in wl.inputs.items() if k != "calls"},
            "outputs_sha256": {k: sorted(v) for k, v in wl.outputs.items()},
        },
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
