"""Deterministic CSV emission for records, detection reports, bills and tables.

All files are UTF-8 with a header row and '\n' line endings; floats are
written in shortest round-trip form; records keep the period order they
come in, and per-consumer rows are sorted by consumer id (within each
window or duration), so a fixed (config, seed) pair re-creates each file
byte for byte.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .billing import BillStatement
from .detection import DetectionReport
from .errors import GridwatchError
from .harness import ProbabilityEstimate

RECORDS_HEADER = ["period", "actual_total", "reported_total", "leakage", "sampled_id", "sampled_report"]
DETECTION_HEADER = ["consumer_id", "sample_count", "corr", "label"]
BILLS_HEADER = ["consumer_id", "window_start", "window_end", "amount"]
TABLE_HEADER = ["case", "months", "probability", "stderr", "reps"]
CONCENTRATION_HEADER = ["months", "consumer_id", "sample_count", "corr", "label"]

# Rows formatted at a time (a month of 15-minute periods): a whole window's
# cell texts at once would raise the peak memory of writing records.csv.
_CHUNK_ROWS = 2880


def _cells(column: np.ndarray) -> Iterable[str]:
    """Cell texts: floats in shortest round-trip form (`repr`), None empty, else `str`."""
    values = column.tolist()
    if column.dtype.kind == "f":
        return map(repr, values)
    if column.dtype.kind != "O":
        return map(str, values)
    return ("" if v is None else str(v) for v in values)  # str(float) is its repr


def write_columns(path: str | Path, header: Sequence[str], columns: Sequence) -> Path:
    """Write equal-length columns (arrays, or sequences of one type each) under ``header``.

    Optional values make an object column.  No cell is quoted: no header or
    value written here holds a comma, a quote or a line break.
    """
    path = Path(path)
    columns = [np.asarray(c) for c in columns]
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(columns[0]) if columns else 0, _CHUNK_ROWS):
                chunk = [_cells(c[start:start + _CHUNK_ROWS]) for c in columns]
                fh.write("".join(",".join(row) + "\n" for row in zip(*chunk, strict=True)))
    except OSError as exc:
        raise GridwatchError(f"cannot write {path}: {exc}") from exc
    return path


def export_records(columns: Sequence[np.ndarray], path: str | Path) -> Path:
    """Write `WindowData.to_records` columns, in period order, under `RECORDS_HEADER`."""
    return write_columns(path, RECORDS_HEADER, columns)


def _report_columns(report: DetectionReport) -> tuple[np.ndarray, ...]:
    corrs = np.where(np.isnan(report.corrs), None, report.corrs)  # no evidence: empty
    return report.ids, report.counts, corrs, report.labels


def export_detection(report: DetectionReport, path: str | Path) -> Path:
    return write_columns(path, DETECTION_HEADER, _report_columns(report))


def export_bills(bills: Iterable[BillStatement], path: str | Path) -> Path:
    rows = sorted(bills, key=lambda b: (b.window_start, b.consumer_id))
    columns = zip(*((b.consumer_id, b.window_start, b.window_end, b.amount) for b in rows))
    return write_columns(path, BILLS_HEADER, list(columns))


def export_probability_table(
    rows: Iterable[tuple[str, int, ProbabilityEstimate]], path: str | Path
) -> Path:
    columns = zip(*((case, m, e.probability, e.stderr, e.repetitions) for case, m, e in rows))
    return write_columns(path, TABLE_HEADER, list(columns))


def export_concentration(
    reports_by_months: dict[int, DetectionReport], path: str | Path
) -> Path:
    months = sorted(reports_by_months)
    parts = [_report_columns(reports_by_months[m]) for m in months]
    months_column = np.repeat(months, [len(ids) for ids, *_ in parts])
    return write_columns(path, CONCENTRATION_HEADER, [months_column, *map(np.concatenate, zip(*parts))])
