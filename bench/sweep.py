"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/sweep.py --seeds 1-10
    python3 bench/sweep.py --seeds 1-10 --trace-seed 1 --out bench/BENCH_1.json

Runs bench/run.py one run at a time for every workload of BENCHMARK.json, at
its run_seconds, and prints per workload and end-to-end metric the median,
the quartiles (statistics.quantiles with n=4) and the spread
(Q3 - Q1) / median next to the metric's bound.  With --trace-seed, one traced
run per workload adds the per-layer metrics.  With --out, the summary is
written as one entry of the benchmark's results trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    record = ROOT / ".bench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result["provenance"] = json.loads(record.read_text())["provenance"] if record.exists() else {}
    result["returncode"] = done.returncode
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    entry = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        ok &= all(r["correct"] and r["returncode"] == 0 for r in runs)
        summary = {}
        print(f"{workload}: {len(runs)} runs, failed {sum(r.get('failed', 1) for r in runs)}")
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            s = summarise(values)
            s.update(unit=m["unit"], bound=m["bound"])
            summary[name] = s
            flag = "ok" if s["spread"] <= m["bound"] / 3 else ("WIDE" if s["spread"] <= m["bound"] else "OVER")
            print(f"  {name:<14} median {s['median']:>12.6g} {m['unit']:<4} "
                  f"q1 {s['q1']:>12.6g} q3 {s['q3']:>12.6g} spread {s['spread']:.4f} "
                  f"bound {m['bound']} {flag}")
        loops = [r["provenance"].get("host_loop_s_start") for r in runs]
        known = [x for x in loops if x is not None]
        if known:
            print(f"  host loop {min(known):.4f} to {max(known):.4f} s at run starts")
        item = {"end_to_end": summary, "host_loop_s_start": loops, "provenance": runs[0]["provenance"]}
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            ok &= traced["correct"] and traced["returncode"] == 0
            item["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            item["per_layer_seed"] = args.trace_seed
            print(f"  traced run (seed {args.trace_seed}): correct {traced['correct']}, "
                  f"overhead {item['per_layer'].get('trace.overhead')}")
        entry["workloads"][workload] = item
    if args.out:
        args.out.write_text(json.dumps(entry, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
