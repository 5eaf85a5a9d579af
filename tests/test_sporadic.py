from __future__ import annotations

from math import gcd

import pytest

from blowups.classifier import classify, is_terminal_fast
from blowups.exactgeom import WeightVector
from blowups.search import enumerate_blowups
from blowups.sporadic import (
    EMBEDDED_RECORDS,
    DatasetFormatError,
    DatasetIntegrityError,
    SporadicRecord,
    blowups_from_record,
    parse_dataset,
    record_from_weights,
    sporadic_report,
)


# ------------------------------------------------------------------- records


def test_record_refuses_non_integers():
    # int() would truncate 6.7 to 6 and accept the record
    with pytest.raises(TypeError):
        SporadicRecord(37, (6.7, 10, 15, 7, 36))
    with pytest.raises(TypeError):
        SporadicRecord(37.0, (6, 10, 15, 7, 36))


def test_record_invariants():
    r = SporadicRecord(245, (32, 41, 71, 102, 244))
    assert sum(r.b) % r.V == 0
    with pytest.raises(DatasetIntegrityError):
        SporadicRecord(245, (32, 41, 71, 102, 243))
    with pytest.raises(ValueError):
        SporadicRecord(5, (1, 2, 3, 4, 5))  # residue not reduced
    with pytest.raises(ValueError):
        SporadicRecord(0, (0, 0, 0, 0, 0))


def test_record_from_weights_examples():
    assert record_from_weights(WeightVector((32, 41, 71, 102))) == SporadicRecord(
        245, (32, 41, 71, 102, 244))
    assert record_from_weights(WeightVector((6, 10, 15, 7))) == SporadicRecord(
        37, (6, 10, 15, 7, 36))
    assert record_from_weights(WeightVector((1, 1, 1, 1))) == SporadicRecord(
        3, (1, 1, 1, 1, 2))
    with pytest.raises(ValueError):
        record_from_weights(WeightVector((1, 2, 3)))


# ------------------------------------------------------------------- recipe


def test_blowups_from_known_records():
    by_apex = dict(blowups_from_record(EMBEDDED_RECORDS[0]))
    assert by_apex[5].n == (32, 41, 71, 102)

    v419 = blowups_from_record(EMBEDDED_RECORDS[1])
    weights = {tuple(sorted(w.n)) for _, w in v419}
    assert weights == {(20, 57, 133, 210), (21, 60, 140, 199)}
    assert len(v419) == 2

    by_apex = dict(blowups_from_record(EMBEDDED_RECORDS[2]))
    assert by_apex[5].n == (6, 10, 15, 7)


def test_embedded_records_classify_terminal():
    for r in EMBEDDED_RECORDS:
        blowups = blowups_from_record(r)
        assert blowups
        for _, w in blowups:
            assert classify(w, 1).eps_log_terminal


def test_record_with_no_unit_entry():
    r = SporadicRecord(4, (2, 2, 2, 2, 0))
    assert blowups_from_record(r) == []


def test_record_with_zero_residue_is_an_integrity_error():
    # apex 5 scales to (0, 1, 2, 3), which sums to V+1 but has a zero weight
    with pytest.raises(DatasetIntegrityError):
        blowups_from_record(SporadicRecord(5, (0, 1, 2, 3, 4)))


def test_round_trip_through_census():
    for V in range(2, 41):
        for w in enumerate_blowups(4, V):
            if not is_terminal_fast(w):
                continue
            back = dict(blowups_from_record(record_from_weights(w)))
            assert back[5] == w


def test_unit_invariance():
    for r in EMBEDDED_RECORDS:
        base = sorted(tuple(sorted(w.n)) for _, w in blowups_from_record(r))
        for unit in range(2, r.V, 17):
            if gcd(unit, r.V) != 1:
                continue
            scaled = SporadicRecord(r.V, tuple((unit * x) % r.V for x in r.b))
            got = sorted(tuple(sorted(w.n)) for _, w in blowups_from_record(scaled))
            assert got == base


# ------------------------------------------------------------------ parsing


def test_parse_liberal(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text(
        "# sporadic records\n"
        "245 32 41 71 102 244\n"
        "\n"
        "419, 20, 57, 133, 210, 418\n"
        "37 6 10 15 7 -1\n"  # unreduced residue, liberal mode reduces mod V
    )
    records = parse_dataset(p)
    assert records == list(EMBEDDED_RECORDS)


def test_parse_strict(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("245 32 41 71 102 244\n419 20 57 133 210 418\n")
    assert parse_dataset(p, strict=True) == list(EMBEDDED_RECORDS[:2])
    bad = tmp_path / "bad.txt"
    bad.write_text("# comment\n245 32 41 71 102 244\n")
    with pytest.raises(DatasetFormatError):
        parse_dataset(bad, strict=True)
    unreduced = tmp_path / "unreduced.txt"
    unreduced.write_text("37 6 10 15 7 -1\n")
    with pytest.raises(DatasetFormatError):
        parse_dataset(unreduced, strict=True)


def test_parse_malformed_reports_line(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("245 32 41 71 102 244\n245 32 41\n")
    with pytest.raises(DatasetFormatError) as err:
        parse_dataset(p)
    assert "line 2" in str(err.value)
    q = tmp_path / "data2.txt"
    q.write_text("245 32 x 71 102 244\n")
    with pytest.raises(DatasetFormatError):
        parse_dataset(q)
    # int() would read a fullwidth digit or an underscore, in either mode
    for line in ("\uff1245 32 41 71 102 244", "245 32 41 71 1_02 244",
                 "245 32 41 71 102 \u0662\u0664\u0664"):
        q.write_text(f"37 6 10 15 7 36\n{line}\n")
        for strict in (False, True):
            with pytest.raises(DatasetFormatError, match="^line 2: .*in ASCII digits"):
                parse_dataset(q, strict=strict)


def test_parse_non_utf8_byte_is_a_malformed_field(tmp_path):
    # a byte that is not UTF-8 decodes as a surrogate escape, whatever the
    # locale, so it is refused with its line number like any other field
    p = tmp_path / "data.txt"
    p.write_bytes(b"245 32 41 71 102 244\n419 20 57 133 210 \xff18\n")
    for strict in (False, True):
        with pytest.raises(DatasetFormatError, match=r"^line 2: .*in ASCII digits: '\\udcff18'"):
            parse_dataset(p, strict=strict)
    # in a comment line it is skipped in liberal mode, and refused in strict
    p.write_bytes(b"# caf\xe9\n245 32 41 71 102 244\n")
    assert parse_dataset(p) == [EMBEDDED_RECORDS[0]]
    with pytest.raises(DatasetFormatError, match="^line 1: "):
        parse_dataset(p, strict=True)


def test_parse_integrity_violation_is_fatal(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("245 32 41 71 102 243\n")
    with pytest.raises(DatasetIntegrityError) as err:
        parse_dataset(p)
    assert "line 1" in str(err.value)


# ---------------------------------------------------------------- histogram


def test_histogram_empty():
    rep = sporadic_report([])
    assert rep["blowups_total"] == 0 and rep["histogram"] == {}


def test_histogram_counts_record_apex_pairs():
    rep = sporadic_report(EMBEDDED_RECORDS)
    assert rep["histogram"]["32"] == 1
    assert rep["histogram"]["20"] == 1 and rep["histogram"]["21"] == 1
    assert rep["blowups_total"] == sum(
        len(blowups_from_record(r)) for r in EMBEDDED_RECORDS)


def test_report_fields():
    rep = sporadic_report(EMBEDDED_RECORDS)
    assert rep["records"] == 3
    assert rep["blowups_total"] >= rep["blowups_distinct"]
    assert rep["max_n_min"]["n_min"] == 32
    assert rep["max_n_min"]["weights"] == [32, 41, 71, 102]
    assert rep["histogram"]["32"] == 1
