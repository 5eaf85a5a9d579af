"""Blowup extraction from the classified sporadic empty 4-simplices.

Each record is a pair (V, b) with V the normalised volume and b five residues
mod V summing to 0: b/V are barycentric coordinates of a generator of the
simplex's lattice over Z^4.  A record yields up to five blowups, one per
entry of b that is a unit mod V, by scaling that entry to -1 and keeping the
remaining residues when they add up to V + 1 (`families.apex_residues`).

The published classification has 2641 records and yields 4620 blowups when
counted per (record, apex) pair; that counting convention is used for the
histogram, with a deduplicated count (by index and sorted weights) reported
alongside.  Three records are embedded as fixtures so everything here is
testable without the external file.
"""

from __future__ import annotations

import operator
from collections import Counter
from pathlib import Path

from ._record import Record
from .exactgeom import WeightVector, ascii_int
from .families import APICES, apex_residues


class DatasetFormatError(ValueError):
    """A dataset line could not be parsed; carries the line number."""


class DatasetIntegrityError(ValueError):
    """A parsed record violates the residue-sum invariant."""


class SporadicRecord(Record):
    """A volume V >= 1 and five residues in [0, V) whose sum is a multiple of V."""

    __slots__ = ("V", "b")

    def __init__(self, V: int, b: tuple[int, int, int, int, int]) -> None:
        b = tuple(map(operator.index, b))
        V = operator.index(V)
        _set_V(self, V)
        _set_b(self, b)
        if V < 1:
            raise ValueError("volume must be positive")
        if len(b) != 5:
            raise ValueError(f"need exactly five residues, got {len(b)}")
        if any(not 0 <= x < V for x in b):
            raise ValueError(f"residues {b} not reduced mod {V}")
        if sum(b) % V != 0:
            raise DatasetIntegrityError(
                f"record (V={V}, b={b}): residue sum {sum(b)} is not divisible by {V}"
            )


_set_V, _set_b = SporadicRecord.V.__set__, SporadicRecord.b.__set__


# Known records: the smallest-weight maximiser (V=245), the largest-volume
# simplex (V=419, two blowups) and the V=37 member of the infinite family.
EMBEDDED_RECORDS: tuple[SporadicRecord, ...] = (
    SporadicRecord(245, (32, 41, 71, 102, 244)),
    SporadicRecord(419, (20, 57, 133, 210, 418)),
    SporadicRecord(37, (6, 10, 15, 7, 36)),
)


def parse_dataset(path: str | Path, strict: bool = False) -> list[SporadicRecord]:
    """Read records, one per line: V and five residues, in ASCII digits (`ascii_int`).

    Liberal mode accepts comma or whitespace separators, '#' comment lines and
    unreduced residues (they are reduced mod V).  Strict mode pins one
    normalisation: exactly six whitespace-separated fields, residues already
    in [0, V), no comments or blank lines.  `SporadicRecord` checks each
    record; its errors come back with the line number, as
    `DatasetIntegrityError` for a residue sum and `DatasetFormatError` else.
    A byte that is not UTF-8 reads as a surrogate escape, which `ascii_int` refuses.
    """
    records: list[SporadicRecord] = []
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not strict and (not line or line.startswith("#")):
            continue
        fields = line.split() if strict else line.replace(",", " ").split()
        # every field of an ASCII line with no "_" is one `int` reads as `ascii_int` does
        to_int = int if line.isascii() and "_" not in line else ascii_int
        try:
            V, *b = map(to_int, fields)
            if not strict and V:  # V = 0 is left for SporadicRecord to refuse
                b = [x % V for x in b]
            records.append(SporadicRecord(V, tuple(b)))
        except DatasetIntegrityError as exc:
            raise DatasetIntegrityError(f"line {lineno}: {exc}") from None
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: {raw!r}: {exc}") from None
    return records


def blowups_from_record(r: SporadicRecord) -> list[tuple[int, WeightVector]]:
    """Blowups of a record, one per apex entry that is a unit mod V.

    Returns (apex, weights) pairs with apex 1-based.  Duplicates arising from
    record symmetries are retained; deduplicate at histogram level if needed.
    Residues that sum to V + 1 but are not positive primitive weights mean the
    record itself is wrong, so they raise instead of being skipped.
    """
    out: list[tuple[int, WeightVector]] = []
    for apex in APICES:
        w = apex_residues(r.b, apex, r.V)
        if w is None:
            continue
        try:
            out.append((apex, WeightVector(w)))
        except ValueError:
            raise DatasetIntegrityError(
                f"record (V={r.V}, b={r.b}) apex {apex}: residues {w} sum to "
                "V+1 but are not positive primitive weights"
            ) from None
    return out


def record_from_weights(n: WeightVector) -> SporadicRecord:
    """Record whose apex-5 extraction returns exactly the given 4 weights."""
    if n.d != 4:
        raise ValueError("records encode 4-simplices; need 4 weights")
    return SporadicRecord(n.V, (*n.n, n.V - 1))


def sporadic_report(records) -> dict:
    """Histogram plus totals, the deduplicated count and the argmax record."""
    records = list(records)
    hist: Counter[int] = Counter()
    seen: set[tuple[int, tuple[int, ...]]] = set()
    best: tuple[int, SporadicRecord, WeightVector] | None = None
    for r in records:
        for _, w in blowups_from_record(r):
            n_min = w.n_min
            hist[n_min] += 1
            seen.add((r.V, tuple(sorted(w.n))))
            if best is None or n_min > best[0]:
                best = (n_min, r, w)
    report = {
        "records": len(records),
        "blowups_total": hist.total(),
        "blowups_distinct": len(seen),
        "histogram": {str(k): v for k, v in sorted(hist.items())},
    }
    if best is not None:
        report["max_n_min"] = {
            "n_min": best[0],
            "record": {"V": best[1].V, "b": list(best[1].b)},
            "weights": list(best[2].n),
        }
    return report
