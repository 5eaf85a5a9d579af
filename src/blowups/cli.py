"""Command-line front end: classification, census, families, widths, sporadic data.

All output pipelines are deterministic: identical inputs and flags produce
byte-identical output.  Exit codes: 0 success, 1 `family-scan` found a
terminal blowup above the smallest-weight bound, 2 usage or invalid input
(an unreadable input file or unwritable `--out` included), 3 resource budget
exceeded, 4 data integrity failure, 141 a reader closed stdout before the
output was all written (a broken pipe: the status of a tool that SIGPIPE
kills, with nothing on stderr).  Commands return (text chunks, exit
code), `census` one chunk per index block; `main` alone writes the chunks,
to stdout or to `--out`, which it opens only once the command has returned,
and maps the errors above to codes; any other exception is a bug and
propagates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from pathlib import Path

from . import families, projections, sporadic
from .classifier import classify, is_terminal_fast
from .exactgeom import WeightVector, ascii_int, frac_point
from .families import scan_families
from .search import VERDICTS, BudgetExceeded, CensusQuery, run_census

DATASET_ENV = "BLOWUPS_SPORADIC_DATA"


def parse_weights(text: str) -> WeightVector:
    try:
        n = tuple(map(ascii_int, text.split(",")))
    except ValueError:
        raise ValueError(f"weights must be comma-separated integers, got {text!r}") from None
    return WeightVector(n)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _witness_json(w, n: WeightVector) -> dict:
    # a witness of class k >= 1 is frac(k*p) itself: its translate is always 0
    return {
        "k": w.k,
        "z": [0] * n.d,
        "point": [str(c) for c in frac_point(n, w.k)],
        "class": w.membership.value,
    }


def cmd_classify(args) -> tuple[Iterable[str], int]:
    weights = parse_weights(args.weights)
    verdict = classify(weights, args.epsilon)
    payload = {
        "weights": list(weights.n),
        "V": weights.V,
        "epsilon": str(verdict.eps),
        "eps_log_terminal": verdict.eps_log_terminal,
        "eps_log_canonical": verdict.eps_log_canonical,
        "witness": _witness_json(verdict.witness, weights) if verdict.witness else None,
    }
    return [_json(payload)], 0


def _histogram_csv(items) -> list[str]:
    """CSV rows of an n_min histogram, given (n_min, count) pairs in order."""
    return ["n_min,count", *(f"{k},{c}" for k, c in items)]


def _hit_rows(result, row: str, at: int, sep: str) -> Iterator[str]:
    """One chunk per block: `row % V` once per hit, joined and led by `sep`
    (no lead on the first), then filled with each hit's d weights and its
    n_min, its first weight, put in at position `at` of its d + 1 fields."""
    d, lead = result.d, ""
    for V, weights in result.blocks:
        args = [0] * (len(weights) // d * (d + 1))
        args[at :: d + 1] = weights[::d]
        for i in range(d):
            args[i + (i >= at) :: d + 1] = weights[i::d]
        yield lead + sep.join([row % V] * (len(weights) // d)) % tuple(args)
        lead = sep


def _census_csv(result) -> Iterator[str]:
    d = result.d
    lines = _histogram_csv(result.histogram.items())
    lines.append("")
    lines.append("V," + ",".join(f"n_{i + 1}" for i in range(d)) + ",n_min")
    yield "\n".join(lines) + "\n"
    # V, the weights, n_min
    yield from _hit_rows(result, "%d," + ",".join(["%%d"] * (d + 1)) + "\n", d, "")


def cmd_census(args) -> tuple[Iterable[str], int]:
    query = CensusQuery(
        d=args.dim,
        v_min=args.vmin,
        v_max=args.vmax,
        eps=args.epsilon,
        verdict=args.verdict,
        min_weight=args.min_weight,
        budget=args.budget,
    )
    result = run_census(query, workers=args.threads)
    if args.format == "csv":
        return _census_csv(result), 0
    return _census_json(query, result), 0


def _census_json(query: CensusQuery, result) -> Iterator[str]:
    """The census exactly as `_json` would print it, hits from a fixed template.

    The header, with an empty hit list, goes through `_json`, so its key order,
    string histogram keys and `null` come from `json` itself.  `json.dumps`
    with `indent` runs the pure-Python encoder, several times slower per hit.
    The hits follow one block at a time, each formatted by one `%`.
    """
    head = _json({
        "dim": query.d,
        "v_min": query.v_min,
        "v_max": query.v_max,
        "epsilon": str(query.eps),
        "verdict": query.verdict,
        "min_weight": query.min_weight,
        "histogram": {str(k): c for k, c in result.histogram.items()},
        "total": result.histogram.total,
        "hits": [],
    })
    if not result.blocks:
        yield head
        return
    # no other key or value of the header can read `"hits": []`
    before, after = head.split('"hits": []')
    yield before + '"hits": [\n'
    hit = (
        '    {\n      "V": %d,\n      "n_min": %%d,\n      "weights": [\n        '
        + ",\n        ".join(["%%d"] * query.d)
        + "\n      ]\n    }"
    )
    yield from _hit_rows(result, hit, 0, ",\n")
    yield "\n  ]" + after


def cmd_family(args) -> tuple[Iterable[str], int]:
    if args.volume is None:  # the bound is the same for either sign
        bound = families.bound_dim1(args.id, args.apex)
        return [_json({"id": args.id, "apex": args.apex, "bound": str(bound)})], 0
    sign = -1 if args.sign == "-" else 1
    weights = families.blowup_from_quintuple(args.id, args.apex, args.volume, sign)
    payload = {
        "id": args.id,
        "apex": args.apex,
        "V": args.volume,
        "sign": args.sign,
        "weights": list(weights.n) if weights else None,
    }
    if weights is not None:
        payload["eps_log_terminal"] = is_terminal_fast(weights)
        payload["n_min"] = weights.n_min
    return [_json(payload)], 0


def cmd_family_table(args) -> tuple[Iterable[str], int]:
    return [families.table_csv()], 0


def cmd_family_scan(args) -> tuple[Iterable[str], int]:
    payload = scan_families(args.vmax)
    return [_json(payload)], 1 if payload["violations"] else 0


def cmd_width(args) -> tuple[Iterable[str], int]:
    try:
        raw = json.loads(args.points)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--points is not valid JSON: {exc}")
    # type(c) is int, not isinstance: JSON true and false load as bools, and
    # bool is a subclass of int
    if not isinstance(raw, list) or not all(
        isinstance(p, list) and all(type(c) is int for c in p) for p in raw
    ):
        raise ValueError("--points must be a JSON array of integer arrays")
    cfg = projections.ProjectedConfig(
        tuple(tuple(p) for p in raw), args.origin_index
    )
    ell = projections.ell_L(cfg)
    payload = {  # tuples dump as lists
        "points": cfg.points,
        "origin_index": cfg.origin_index,
        "facets": [
            {"normal": f.normal, "offset": f.offset, "incident": f.incident, "width": f.width}
            for f in cfg.facets
        ],
        "max_facet_width": max(f.width for f in cfg.facets),
        "ell_L": None if ell is None else str(ell),
    }
    return [_json(payload)], 0


def cmd_sporadic(args) -> tuple[Iterable[str], int]:
    if args.fixtures and (args.input or args.strict):
        # the fixtures are never read from a file, so the file and its parsing
        # mode would be ignored; $BLOWUPS_SPORADIC_DATA is only a default
        raise ValueError("--fixtures cannot be combined with --input or --strict")
    path = None if args.fixtures else args.input or os.environ.get(DATASET_ENV)
    if args.strict and not path:
        raise ValueError(f"--strict needs a dataset file: --input or ${DATASET_ENV}")
    if path:
        records = sporadic.parse_dataset(path, strict=args.strict)
    else:
        records = sporadic.EMBEDDED_RECORDS
    report = sporadic.sporadic_report(records)
    report["source"] = path or "embedded-fixtures"
    if args.format == "csv":
        # the report's histogram is already in n_min order
        return ["\n".join(_histogram_csv(report["histogram"].items())) + "\n"], 0
    return [_json(report)], 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowups",
        description="Exact classification of weighted blowups of affine space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", help="write the output to this file, not stdout")
        p.set_defaults(func=func)
        return p

    p = command("classify", cmd_classify, "classify one weight vector")
    p.add_argument("--weights", required=True, help="comma-separated positive integers")
    p.add_argument("--epsilon", default="1", help="rational in (0,1], e.g. 1 or 1/2")

    p = command("census", cmd_census, "exhaustive census over an index range")
    p.add_argument("--dim", type=ascii_int, required=True)
    p.add_argument("--vmax", type=ascii_int, required=True)
    p.add_argument("--vmin", type=ascii_int, default=CensusQuery.v_min)
    p.add_argument("--epsilon", default=CensusQuery.eps)
    p.add_argument("--verdict", default=CensusQuery.verdict, choices=VERDICTS)
    p.add_argument("--min-weight", type=ascii_int, default=CensusQuery.min_weight)
    p.add_argument("--threads", type=ascii_int, default=os.cpu_count() or 1)
    p.add_argument("--budget", type=ascii_int, default=CensusQuery.budget,
                   help="most residue steps, candidates x dim x vmax (default 10^11)")
    p.add_argument("--format", default="json", choices=["json", "csv"])

    p = command("family", cmd_family, "instantiate one family row (or query its bound)")
    p.add_argument("--id", required=True)
    p.add_argument("--apex", type=ascii_int, required=True)
    p.add_argument("--volume", type=ascii_int, default=None)
    p.add_argument("--sign", default="+", choices=["+", "-"])

    command("family-table", cmd_family_table, "audit CSV of the 46 family rows")

    p = command("family-scan", cmd_family_scan, "scan all rows/apices/signs up to an index")
    p.add_argument("--vmax", type=ascii_int, default=300)

    p = command("width", cmd_width, "facet widths of a projected configuration")
    p.add_argument("--points", required=True, help="JSON array of integer points")
    p.add_argument("--origin-index", type=ascii_int, default=0)

    p = command("sporadic", cmd_sporadic, "blowup histogram of a sporadic-simplex dataset")
    p.add_argument("--input", default=None,
                   help=f"dataset file (default: ${DATASET_ENV} or embedded fixtures)")
    p.add_argument("--fixtures", action="store_true",
                   help="force the embedded fixture records")
    p.add_argument("--strict", action="store_true", help="strict parsing of a dataset file")
    p.add_argument("--format", default="json", choices=["json", "csv"])

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        chunks, code = args.func(args)
        with (Path(args.out).open("w", encoding="utf-8") if args.out
              else nullcontext(sys.stdout)) as out:
            out.writelines(chunks)
            out.flush()  # so a closed pipe fails here, not in the flush at exit
        return code
    except (sporadic.DatasetFormatError, sporadic.DatasetIntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout early, as `census ... | head` does: point fd 1
        # at the null device so the flush at exit stays quiet, and exit as a
        # tool killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
