"""Deterministic CSV emission for records, detection reports, bills and tables.

All files are UTF-8 with a header row and '\n' line endings; floats are
written in shortest round-trip form; records keep the period order they
come in, and per-consumer rows are sorted by consumer id (within each
window or duration), so a fixed (config, seed) pair re-creates each file
byte for byte.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

from .billing import BillStatement
from .detection import DetectionReport
from .errors import GridwatchError
from .harness import ProbabilityEstimate

RECORDS_HEADER = ["period", "actual_total", "reported_total", "leakage", "sampled_id", "sampled_report"]
DETECTION_HEADER = ["consumer_id", "sample_count", "corr", "label"]
BILLS_HEADER = ["consumer_id", "window_start", "window_end", "amount"]
TABLE_HEADER = ["case", "months", "probability", "stderr", "reps"]
CONCENTRATION_HEADER = ["months", "consumer_id", "sample_count", "corr", "label"]
OUTCOMES_HEADER = ["trial", "outcome"]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
    except OSError as exc:
        raise GridwatchError(f"cannot write {path}: {exc}") from exc
    return path


def export_records(rows: Iterable[Sequence], path: str | Path) -> Path:
    """Write per-period rows, in the order given, under `RECORDS_HEADER`."""
    return _write_rows(path, RECORDS_HEADER, rows)


def export_detection(report: DetectionReport, path: str | Path) -> Path:
    rows = sorted(report, key=lambda v: v.consumer_id)
    return _write_rows(
        path,
        DETECTION_HEADER,
        ((v.consumer_id, v.sample_count, v.corr, v.label.value) for v in rows),
    )


def export_bills(bills: Iterable[BillStatement], path: str | Path) -> Path:
    rows = sorted(bills, key=lambda b: (b.window_start, b.consumer_id))
    return _write_rows(
        path,
        BILLS_HEADER,
        ((b.consumer_id, b.window_start, b.window_end, b.amount) for b in rows),
    )


def export_probability_table(
    rows: Iterable[tuple[str, int, ProbabilityEstimate]], path: str | Path
) -> Path:
    return _write_rows(
        path,
        TABLE_HEADER,
        (
            (case, months, est.probability, est.stderr, est.repetitions)
            for case, months, est in rows
        ),
    )


def export_concentration(
    reports_by_months: dict[int, DetectionReport], path: str | Path
) -> Path:
    def rows():
        for months in sorted(reports_by_months):
            for v in sorted(reports_by_months[months], key=lambda v: v.consumer_id):
                yield months, v.consumer_id, v.sample_count, v.corr, v.label.value

    return _write_rows(path, CONCENTRATION_HEADER, rows())


def export_outcomes(outcome_classes: Sequence[str], path: str | Path) -> Path:
    return _write_rows(
        path,
        OUTCOMES_HEADER,
        ((i, cls) for i, cls in enumerate(outcome_classes)),
    )
