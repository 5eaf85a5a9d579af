from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import blowups
from blowups import families
from blowups.classifier import is_terminal_fast
from blowups.cli import main, parse_weights
from blowups.search import CensusQuery, run_census


SRC = str(Path(blowups.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------ parsing


def test_parse_weights():
    assert parse_weights("6,10,15,7").n == (6, 10, 15, 7)
    for bad in ("6,0,15", "a,b", "6;7"):
        with pytest.raises(ValueError):
            parse_weights(bad)


# ----------------------------------------------------------------- classify


def test_classify_terminal(capsys):
    code, out, _ = run(capsys, "classify", "--weights", "6,10,15,7", "--epsilon", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["eps_log_terminal"] is True and doc["V"] == 37
    assert doc["witness"] is None


def test_classify_witness_payload(capsys):
    code, out, _ = run(capsys, "classify", "--weights", "1,2")
    doc = json.loads(out)
    assert code == 0 and doc["eps_log_terminal"] is False
    assert doc["witness"] == {
        "k": 1, "z": [0, 0], "point": ["1/2", "0"], "class": "boundary"}


def test_classify_exit_codes(capsys):
    assert run(capsys, "classify", "--weights", "2,4,6")[0] == 2
    assert run(capsys, "classify", "--weights", "2,0,5")[0] == 2
    # int() would read an underscore or a non-ASCII digit
    for weights in ("1_0,3", "2,\uff13,5", "\u0662,3"):
        code, out, err = run(capsys, "classify", "--weights", weights)
        assert (code, out) == (2, "")
        assert err == f"error: weights must be comma-separated integers, got {weights!r}\n"
    # bad eps text reaches stderr with the message of `checked_eps`
    for eps, msg in (("0.3", "epsilon must be an integer or p/q fraction, got '0.3'"),
                     ("1e-1", "epsilon must be an integer or p/q fraction, got '1e-1'"),
                     ("1/\uff12", "epsilon must be an integer or p/q fraction, got '1/\uff12'"),
                     ("\u0661/\u0662",
                      "epsilon must be an integer or p/q fraction, got '\u0661/\u0662'"),
                     ("1/0", "epsilon denominator is zero"),
                     ("3/2", "eps must be a rational in (0, 1], got 3/2")):
        code, out, err = run(capsys, "classify", "--weights", "2,3,5", "--epsilon", eps)
        assert (code, out, err) == (2, "", f"error: {msg}\n")
    code, out, _ = run(capsys, "classify", "--weights", "2,3,5")
    assert code == 0 and json.loads(out)["eps_log_terminal"] is False


# ------------------------------------------------------------------- census


def test_census_json_and_determinism(capsys):
    args = ("census", "--dim", "3", "--vmax", "25")
    code, out1, _ = run(capsys, *args, "--threads", "1")
    assert code == 0
    code, out2, _ = run(capsys, *args, "--threads", "2")
    assert code == 0 and out1 == out2
    doc = json.loads(out1)
    assert all(h["weights"][0] == 1 for h in doc["hits"])


def test_census_csv(capsys):
    code, out, _ = run(capsys, "census", "--dim", "3", "--vmax", "8",
                       "--format", "csv", "--threads", "1")
    assert code == 0
    head, hits = out.split("\n\n")
    assert head.splitlines()[0] == "n_min,count"
    assert hits.splitlines()[0] == "V,n_1,n_2,n_3,n_min"
    assert "2,1,1,1,1" in hits.splitlines()
    # nothing passes the filter: the header still names d weights
    code, out, _ = run(capsys, "census", "--dim", "4", "--vmax", "30",
                       "--min-weight", "100", "--format", "csv", "--threads", "1")
    assert code == 0
    assert out.split("\n\n")[1] == "V,n_1,n_2,n_3,n_4,n_min\n"


def test_census_includes_ordinary_blowup(capsys):
    code, out, _ = run(capsys, "census", "--dim", "4", "--vmax", "3",
                       "--threads", "1")
    doc = json.loads(out)
    assert code == 0
    assert {"V": 3, "weights": [1, 1, 1, 1], "n_min": 1} in doc["hits"]


def test_census_dimension_close_to_index(capsys):
    # the one candidate is all ones; enumerating it must not recurse per part
    code, out, _ = run(capsys, "census", "--dim", "1500", "--vmax", "1499",
                       "--threads", "1")
    doc = json.loads(out)
    assert code == 0 and doc["histogram"] == {"1": 1}
    assert doc["hits"] == [{"V": 1499, "weights": [1] * 1500, "n_min": 1}]


def _census_reference(query: CensusQuery) -> str:
    """The census JSON built the plain way: one dict per hit, `json.dumps`."""
    result = run_census(query)
    payload = {
        "dim": query.d,
        "v_min": query.v_min,
        "v_max": query.v_max,
        "epsilon": str(query.eps),
        "verdict": query.verdict,
        "min_weight": query.min_weight,
        "histogram": {str(k): c for k, c in result.histogram.items()},
        "total": result.histogram.total,
        "hits": [
            {"V": h.V, "weights": list(h.n), "n_min": h.n_min}
            for h in result.hits
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _census_matches_reference(d, v_max, v_min=1, eps="1", verdict="terminal",
                              min_weight=None) -> dict:
    argv = ["census", "--threads", "1", "--dim", str(d), "--vmax", str(v_max),
            "--vmin", str(v_min), "--epsilon", eps, "--verdict", verdict]
    if min_weight is not None:
        argv += ["--min-weight", str(min_weight)]
    # not capsys: hypothesis runs many examples in one test call
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main(argv)
    out = buf.getvalue()
    query = CensusQuery(d=d, v_max=v_max, v_min=v_min, eps=Fraction(eps),
                        verdict=verdict, min_weight=min_weight)
    assert code == 0 and out == _census_reference(query)
    return json.loads(out)


@pytest.mark.parametrize("kwargs", [
    dict(d=2, v_max=40),
    dict(d=3, v_max=40),
    dict(d=4, v_max=30),
    dict(d=4, v_max=30, verdict="canonical"),
    dict(d=3, v_max=30, eps="1/2", verdict="eps-lc"),
    dict(d=3, v_max=30, eps="2/3", verdict="eps-lt"),
    dict(d=4, v_max=20, eps="1/2", verdict="eps-lt"),
    dict(d=4, v_max=20, eps="2/3", verdict="eps-lc"),
    dict(d=4, v_max=40, v_min=25, verdict="canonical", min_weight=3),
    dict(d=1500, v_max=1499),  # one hit of 1500 weights
], ids=repr)
def test_census_json_matches_json_dumps(kwargs):
    doc = _census_matches_reference(**kwargs)
    assert doc["hits"]


def test_census_json_matches_json_dumps_edge_cases():
    # histogram keys >= 10, which sort as strings before "2"
    doc = _census_matches_reference(d=4, v_min=45, v_max=55, min_weight=9)
    assert list(doc["histogram"])[:3] == ["1", "10", "11"]
    assert {h["n_min"] for h in doc["hits"]} == {9, 10, 11}
    # a threshold that empties the hit list but not the histogram
    doc = _census_matches_reference(d=4, v_max=30, min_weight=100)
    assert doc["hits"] == [] and doc["total"] > 0 and doc["min_weight"] == 100


@given(
    st.integers(2, 4),
    st.integers(1, 40),
    st.integers(0, 15),
    st.none() | st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_census_json_matches_json_dumps_sampled(d, v_min, span, min_weight):
    _census_matches_reference(d, v_min + span, v_min=v_min,
                              min_weight=min_weight)


def test_census_budget_exit(capsys):
    code, _, err = run(capsys, "census", "--dim", "4", "--vmax", "90",
                       "--budget", "10", "--threads", "1")
    assert code == 3 and "budget" in err
    # a negative budget is bad input, not an overrun
    code, out, err = run(capsys, "census", "--dim", "4", "--vmax", "10",
                         "--budget", "-1", "--threads", "1")
    assert code == 2 and out == "" and "budget must be >= 0" in err


@pytest.mark.parametrize("argv,err", [
    (("--vmax", "50", "--budget", "100"),
     "error: projected 13114 candidates, 2622800 residue steps, exceed budget 100\n"),
    # above a million additions for the exact count, its lower bound refuses first
    (("--vmin", "100000000", "--vmax", "100000000"),
     "error: at least 6944444236111112500000 candidates,"
     " 2777777694444445000000000000000 residue steps, exceed budget 100000000000\n"),
], ids=["projected", "at-least"])
def test_census_budget_refusals_verbatim(capsys, argv, err):
    assert run(capsys, "census", "--dim", "4", *argv) == (3, "", err)


def test_census_rejects_threads_below_one(capsys):
    # `run_census` refuses the worker count before any work
    for threads in ("0", "-3"):
        code, out, err = run(capsys, "census", "--dim", "3", "--vmax", "5",
                             "--threads", threads)
        assert code == 2 and out == ""
        assert err == f"error: workers must be at least 1, got {threads}\n"


def test_integer_options_take_ascii_digits_only(capsys):
    # int() would read a fullwidth digit or an underscore; argparse refuses
    # them before any command runs, as it does any other malformed integer
    valid = {
        "census": ("--dim", "3", "--vmax", "5", "--threads", "1"),
        "family": ("--id", "Q29", "--apex", "2", "--volume", "37"),
        "family-scan": ("--vmax", "5"),
        "width": ("--points", "[[0],[1]]"),
    }
    options = {
        "census": ("--dim", "--vmax", "--vmin", "--min-weight", "--threads", "--budget"),
        "family": ("--apex", "--volume"),
        "family-scan": ("--vmax",),
        "width": ("--origin-index",),
    }
    for command, opts in options.items():
        assert main([command, *valid[command]]) == 0
        capsys.readouterr()
        for opt in opts:
            for bad in ("\uff120", "1_0", "3_7", "\uff12"):
                with pytest.raises(SystemExit) as exc:
                    main([command, *valid[command], opt, bad])
                out, err = capsys.readouterr()
                assert exc.value.code == 2 and out == ""
                assert err.endswith(f"error: argument {opt}: invalid ascii_int value: {bad!r}\n")
    # a sign and surrounding whitespace are integer text
    code, out, _ = run(capsys, "family", "--id", "Q29", "--apex", " +2 ", "--volume", "37")
    assert code == 0 and json.loads(out)["weights"] == [7, 6, 10, 15]


def test_census_out_file(tmp_path, capsys):
    target = tmp_path / "census.json"
    code, out, _ = run(capsys, "census", "--dim", "2", "--vmax", "10",
                       "--threads", "1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["dim"] == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("extra", [(), ("--min-weight", "100")], ids=["hits", "no-hits"])
def test_census_out_file_equals_stdout(tmp_path, capsys, fmt, extra):
    # the chunks go to either sink unchanged, the empty hit list included
    argv = ("census", "--dim", "4", "--vmax", "30", "--threads", "1", "--format", fmt, *extra)
    target = tmp_path / f"census.{fmt}"
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("argv,code", [
    (("--vmax", "90", "--budget", "10"), 3),
    (("--vmax", "10", "--budget", "-1"), 2),
    (("--vmax", "10", "--epsilon", "3/2", "--verdict", "eps-lc"), 2),
    (("--vmax", "5", "--threads", "0"), 2),
])
def test_refused_census_leaves_no_out_file(tmp_path, capsys, argv, code):
    # the file is opened only once the census has run
    target = tmp_path / "census.json"
    got, out, err = run(capsys, "census", "--dim", "4", *argv, "--out", str(target))
    assert (got, out) == (code, "") and err.startswith("error: ")
    assert not target.exists()


def test_census_out_peak_memory_below_half_the_output(tmp_path):
    # the hits are compact arrays and the text is written index by index,
    # so the traced peak stays well below the size of the output
    target = tmp_path / "census.json"
    tracemalloc.start()
    try:
        code = main(["census", "--dim", "4", "--vmax", "80", "--threads", "1",
                     "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert code == 0 and size > 1.5 * 10**6
    assert peak < size / 2, (peak, size)


def test_unwritable_out_exit(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "o.json"
    code, out, err = run(capsys, "classify", "--weights", "6,10,15,7",
                         "--out", str(target))
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv, read", [
    # the reader takes one chunk and closes the pipe, as `| head -c 50` does;
    # the output (784 KB) outgrows the pipe buffer, so the writer meets EPIPE
    (["census", "--dim", "4", "--vmax", "60", "--threads", "1"], 50),
    # the reader is gone before the start, and the short output waits in the
    # stdout buffer until `main` flushes it
    (["classify", "--weights", "6,10,15,7"], 0),
], ids=["census-after-a-read", "classify-reader-gone"])
def test_output_into_a_closed_pipe_exits_141_quietly(argv, read):
    # a closed pipe is no invalid input: exit 141 as under SIGPIPE, and stderr
    # stays empty, also for the flush at exit and the warnings of `-X dev`;
    # stdout is buffered, as in a shell
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    r, w = os.pipe()
    if not read:
        os.close(r)
    with subprocess.Popen([sys.executable, "-X", "dev", "-m", "blowups.cli", *argv],
                          stdout=w, stderr=subprocess.PIPE, env=env) as child:
        os.close(w)
        if read:
            with open(r, "rb") as reader:
                assert len(reader.read(read)) == read
        _, err = child.communicate(timeout=120)
    assert (child.returncode, err) == (141, b"")


# ------------------------------------------------------------------- family


def test_family_instance(capsys):
    code, out, _ = run(capsys, "family", "--id", "Q29", "--apex", "2",
                       "--volume", "37")
    doc = json.loads(out)
    assert code == 0 and doc["weights"] == [7, 6, 10, 15]
    assert doc["eps_log_terminal"] is True and doc["n_min"] == 6


def test_family_absent(capsys):
    code, out, _ = run(capsys, "family", "--id", "Q29", "--apex", "1",
                       "--volume", "37")
    assert code == 0 and json.loads(out)["weights"] is None


def test_family_bound_mode(capsys):
    code, out, _ = run(capsys, "family", "--id", "Q2", "--apex", "3")
    assert code == 0 and json.loads(out)["bound"] == "9"


def test_family_unknown_id(capsys, monkeypatch):
    code, _, err = run(capsys, "family", "--id", "Q99", "--apex", "1")
    assert code == 2
    assert err == "error: unknown quintuple label 'Q99'\n"

    # only documented errors map to exit codes: a KeyError is a bug, not bad input
    def failing(label, apex):
        raise KeyError(label)

    monkeypatch.setattr(families, "bound_dim1", failing)
    with pytest.raises(KeyError):
        main(["family", "--id", "Q2", "--apex", "3"])


def test_family_table(capsys):
    code, out, _ = run(capsys, "family-table")
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 47
    assert lines[1].startswith("Q1,9,1,-2,-3,-5,")


def test_family_scan_small(capsys):
    code, out, _ = run(capsys, "family-scan", "--vmax", "60")
    doc = json.loads(out)
    assert code == 0 and doc["violations"] == []
    assert doc["terminal"] > 0 and doc["max_terminal_n_min"] <= 6


def test_family_scan_violation_exit(capsys, monkeypatch):
    # no blowup of the 46 rows has a smallest weight above 6, terminal or not,
    # so the scan runs over one constant row whose apex-5 blowup at V = 245 is
    # the terminal sporadic maximiser (32, 41, 71, 102)
    row = families.Quintuple("S245", (32, 41, 71, 102, -246), (0,) * 5, 1)
    monkeypatch.setattr(families, "_TABLE", (row,))
    monkeypatch.setitem(families._BY_LABEL, row.label, row)
    doc = families.scan_families(245)
    assert doc["violations"][-1] == {"id": "S245", "apex": 5, "V": 245, "sign": "+",
                                     "weights": [32, 41, 71, 102], "n_min": 32}
    for v in doc["violations"]:
        w = families.blowup_from_quintuple(v["id"], v["apex"], v["V"])
        assert list(w.n) == v["weights"] and is_terminal_fast(w) and w.n_min == v["n_min"] > 6
    code, out, _ = run(capsys, "family-scan", "--vmax", "245")
    assert code == 1 and json.loads(out) == doc


def test_family_scan_refuses_empty_range(capsys):
    for vmax in ("-3", "0"):
        code, out, err = run(capsys, "family-scan", "--vmax", vmax)
        assert code == 2 and out == "" and "v_max must be >= 1" in err


def test_family_scan_full_range(capsys):
    # all 46 rows, both sign resolutions, every apex, V <= 300
    code, out, _ = run(capsys, "family-scan", "--vmax", "300")
    doc = json.loads(out)
    assert code == 0 and doc["violations"] == []
    assert doc["max_terminal_n_min"] == 6


# -------------------------------------------------------------------- width


def test_width_triangle(capsys):
    code, out, _ = run(capsys, "width", "--points",
                       "[[0,0],[2,0],[0,2],[0,0],[2,0]]", "--origin-index", "0")
    doc = json.loads(out)
    assert code == 0
    assert sorted(f["width"] for f in doc["facets"]) == [2, 2, 2]
    assert doc["max_facet_width"] == 2 and doc["ell_L"] == "1"


def test_width_without_finite_ell(capsys):
    # the facet x + y = 2 holds both non-origin points: the widths stay
    code, out, _ = run(capsys, "width", "--points", "[[0,0],[2,0],[0,2]]")
    doc = json.loads(out)
    assert code == 0 and doc["ell_L"] is None
    assert [f["width"] for f in doc["facets"]] == [2, 2, 2]


def test_width_bad_input(capsys):
    assert run(capsys, "width", "--points", "[[0,0],[0,0]]")[0] == 2
    assert run(capsys, "width", "--points", "not json")[0] == 2
    code, _, err = run(capsys, "width", "--points", "[[0,0],[true,0],[0,true]]")
    assert code == 2
    assert "must be a JSON array of integer arrays" in err


# ----------------------------------------------------------------- sporadic


def test_sporadic_fixtures(capsys):
    code, out, _ = run(capsys, "sporadic", "--fixtures")
    doc = json.loads(out)
    assert code == 0 and doc["records"] == 3
    assert doc["max_n_min"]["weights"] == [32, 41, 71, 102]
    assert doc["source"] == "embedded-fixtures"


def test_sporadic_fixtures_refuse_input_and_strict(tmp_path, capsys, monkeypatch):
    data = tmp_path / "records.txt"
    data.write_text("37 6 10 15 7 36\n")
    for argv in (("--input", str(data)), ("--strict",), ("--input", str(data), "--strict")):
        code, out, err = run(capsys, "sporadic", "--fixtures", *argv)
        assert code == 2 and out == "" and err.startswith("error: --fixtures")
    # the environment variable is only a default, which --fixtures overrides
    monkeypatch.setenv("BLOWUPS_SPORADIC_DATA", str(data))
    code, out, _ = run(capsys, "sporadic", "--fixtures")
    assert code == 0 and json.loads(out)["source"] == "embedded-fixtures"


def test_sporadic_strict_needs_a_file(tmp_path, capsys, monkeypatch):
    # without a file there is nothing to parse strictly
    monkeypatch.delenv("BLOWUPS_SPORADIC_DATA", raising=False)
    code, out, err = run(capsys, "sporadic", "--strict")
    assert code == 2 and out == "" and err.startswith("error: --strict")
    # the file the variable names is parsed strictly: liberal input is refused
    data = tmp_path / "records.txt"
    data.write_text("37,6,10,15,7,36\n")
    monkeypatch.setenv("BLOWUPS_SPORADIC_DATA", str(data))
    assert run(capsys, "sporadic")[0] == 0
    code, out, err = run(capsys, "sporadic", "--strict")
    assert code == 4 and out == "" and "line 1" in err
    data.write_text("37 6 10 15 7 36\n")
    code, out, _ = run(capsys, "sporadic", "--strict")
    assert code == 0 and json.loads(out)["source"] == str(data)


def test_sporadic_file_and_csv(tmp_path, capsys):
    data = tmp_path / "records.txt"
    data.write_text("245 32 41 71 102 244\n37 6 10 15 7 36\n")
    code, out, _ = run(capsys, "sporadic", "--input", str(data))
    assert code == 0 and json.loads(out)["records"] == 2
    code, out, _ = run(capsys, "sporadic", "--input", str(data),
                       "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "n_min,count"


def test_sporadic_env_default(tmp_path, capsys, monkeypatch):
    data = tmp_path / "records.txt"
    data.write_text("37 6 10 15 7 36\n")
    monkeypatch.setenv("BLOWUPS_SPORADIC_DATA", str(data))
    code, out, _ = run(capsys, "sporadic")
    assert code == 0 and json.loads(out)["records"] == 1


def test_sporadic_missing_input_exit(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "missing.txt")
    monkeypatch.setenv("BLOWUPS_SPORADIC_DATA", missing)
    # a missing file, a directory, and a missing file named by the variable
    for argv in (("--input", missing), ("--input", str(tmp_path)), ()):
        code, out, err = run(capsys, "sporadic", *argv)
        assert code == 2 and out == "" and err.startswith("error: ")


def test_sporadic_bad_data_exit(tmp_path, capsys):
    data = tmp_path / "bad.txt"
    data.write_text("245 32 41 71 102 243\n")
    code, _, err = run(capsys, "sporadic", "--input", str(data))
    assert code == 4 and "line 1" in err


def test_sporadic_non_utf8_byte_exit(tmp_path, capsys):
    # a byte that is not UTF-8 is a malformed field: exit 4, naming its line
    data = tmp_path / "bad.txt"
    data.write_bytes(b"245 32 41 71 102 244\n419 20 57 133 210 \xff18\n")
    target = tmp_path / "report.json"
    for strict in ((), ("--strict",)):
        code, out, err = run(capsys, "sporadic", "--input", str(data), *strict,
                             "--out", str(target))
        assert (code, out) == (4, "") and err.startswith("error: line 2: ")
        assert not target.exists()
