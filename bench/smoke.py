"""One tiny call into each measured layer of blowups, with known answers.

Run in a fresh interpreter, importing the package and making these calls is
the set-up that `setup_s` times.  Run in-process under a tracer, it gives
every per-layer figure a measured span on every workload, so a layer that a
workload does not otherwise use reports the smoke call alone.
"""

from __future__ import annotations

import json
import sys
from math import gcd
from pathlib import Path

FIXTURE_LINES = "245 32 41 71 102 244\n419 20 57 133 210 418\n37 6 10 15 7 36\n"


def run(workdir: Path) -> list[str]:
    """Make the calls; return a description of every wrong answer."""
    from blowups import cli, families, search, sporadic

    failures = []
    out = workdir / "smoke-classify.json"
    rc = cli.main(["classify", "--weights", "6,10,15,7", "--out", str(out)])
    if rc != 0 or not json.loads(out.read_text())["eps_log_terminal"]:
        failures.append("smoke: (6,10,15,7) is terminal")
    # terminal 3-weight blowups of index V are (1, a, V - a) with gcd(a, V - a) = 1
    census = search.run_census(search.CensusQuery(d=3, v_max=12), workers=1)
    expected = sum(
        1 for V in range(1, 13) for a in range(1, V // 2 + 1) if gcd(a, V - a) == 1
    )
    if census.histogram.total != expected:
        failures.append(f"smoke: d=3 census to V=12 has {expected} terminal")
    w = families.blowup_from_quintuple("Q29", 2, 37)
    if w is None or sorted(w.n) != [6, 7, 10, 15]:
        failures.append("smoke: Q29 apex 2 at V=37 gives (6, 7, 10, 15)")
    records_path = workdir / "smoke-records.txt"
    records_path.write_text(FIXTURE_LINES)
    report = sporadic.sporadic_report(sporadic.parse_dataset(records_path))
    if report["blowups_total"] != 7 or report["max_n_min"]["n_min"] != 32:
        failures.append("smoke: the three fixtures give 7 blowups, max n_min 32")
    return failures


if __name__ == "__main__":
    sys.exit(1 if run(Path(sys.argv[1])) else 0)
