"""Every output file: deterministic CSVs of records, detection reports, bills and
tables, and the run manifest beside them.

Each file is written to a temporary file beside it and moved over it whole
(`replacing`), so a failed write leaves the earlier file as it was and one
`GridwatchError`.  CSVs are UTF-8 with a header row and '\n' line endings;
floats are written in shortest round-trip form; records keep the period order
they come in, and per-consumer rows are sorted by consumer id (within each
window or duration), so a fixed (config, seed) pair re-creates each file byte
for byte.

One writer, `write_columns`, renders `_CHUNK_ROWS` rows at a time as one byte
matrix.  A float cell is ``repr`` of the float: `_floattext.float_cells` finds
the digits of ±0.0 and of every finite ``|x|`` in ``[1e-4, 2**50)`` in
vectorised integer arithmetic, and calls ``repr`` itself, per value, only for
the rest (exponent form, subnormals, ``>= 2**50``, inf); a NaN, an undefined
value, is an empty cell.  Integer cells are vectorised digits too (`int_cells`);
text cells (labels, case names) go through ``str``.  A `RunManifest` is JSON
(`write_manifest`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import platform
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from ._floattext import float_cells, int_cells, padded
from .detection import DetectionReport
from .errors import GridwatchError
from .harness import ProbabilityEstimate, usable_cpus

RECORDS_HEADER = ["period", "actual_total", "reported_total", "leakage", "sampled_id", "sampled_report"]
DETECTION_HEADER = ["consumer_id", "sample_count", "corr", "label"]
BILLS_HEADER = ["consumer_id", "window_start", "window_end", "amount"]
TABLE_HEADER = ["case", "months", "probability", "stderr", "reps"]
CONCENTRATION_HEADER = ["months", "consumer_id", "sample_count", "corr", "label"]

# Rows rendered at a time: the text of a whole window's rows at once would raise
# the peak memory of writing records.csv.
_CHUNK_ROWS = 1024
_RENDER = {"f": float_cells, "i": int_cells, "u": int_cells}


@contextlib.contextmanager
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file that replaces ``path`` (``os.replace``) once the block has written it all.

    The file is a temporary one beside ``path``.  If the block or the write fails, it is
    removed and ``path`` is left as it was; an `OSError` becomes one `GridwatchError`."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(temporary, "wb") as fh:
                yield fh
            os.replace(temporary, path)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise GridwatchError(f"cannot write {path}: {exc}") from exc


def _lines(columns: list[np.ndarray]) -> bytes:
    """The CSV lines of equal-length ``columns``.

    Each column's cells are the rows of a NUL-padded byte matrix, made by one
    `float_cells` or `int_cells` call for all columns of a dtype (a NaN's row
    all NUL), or through ``str``.  The lines are those matrices side by side, a
    comma or a line break after each cell, with the NULs dropped."""
    rows = len(columns[0])
    cells: dict[int, np.ndarray] = {}
    by_dtype: dict[np.dtype, list[int]] = {}
    for i, column in enumerate(columns):
        if column.dtype.kind in _RENDER:
            by_dtype.setdefault(column.dtype, []).append(i)
        else:
            cells[i] = padded([str(v) for v in column.tolist()])
    for dtype, picked in by_dtype.items():
        values = np.concatenate([columns[i] for i in picked])
        text = _RENDER[dtype.kind](values)
        text[np.isnan(values)] = 0  # a NaN, an undefined value, is an empty cell
        cells.update((i, text[j * rows : (j + 1) * rows]) for j, i in enumerate(picked))
    comma, newline = (np.full((rows, 1), ord(end), np.uint8) for end in ",\n")
    parts = [part for i in range(len(columns)) for part in (cells[i], comma)]
    parts[-1] = newline
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0")


def write_columns(path: str | Path, header: Sequence[str], columns: Sequence) -> Path:
    """Write equal-length columns (arrays, or sequences of one type each) under ``header``.

    The file is written whole or not at all (`replacing`).  No cell is quoted: no
    header or value written here holds a comma, a quote or a line break.
    """
    path = Path(path)
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns of unequal lengths {[len(c) for c in columns]}")
    with replacing(path) as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, len(columns[0]) if columns else 0, _CHUNK_ROWS):
            fh.write(_lines([c[start : start + _CHUNK_ROWS] for c in columns]))
    return path


def export_records(columns: Sequence[np.ndarray], path: str | Path) -> Path:
    """Write `WindowData.to_records` columns, in period order, under `RECORDS_HEADER`."""
    return write_columns(path, RECORDS_HEADER, columns)


def _report_columns(report: DetectionReport) -> tuple[np.ndarray, ...]:
    return np.arange(len(report.counts)), report.counts, report.corrs, report.labels


def export_detection(report: DetectionReport, path: str | Path) -> Path:
    return write_columns(path, DETECTION_HEADER, _report_columns(report))


def export_bills(columns: Sequence[np.ndarray], path: str | Path) -> Path:
    """Write `issue_bills` columns under `BILLS_HEADER`."""
    return write_columns(path, BILLS_HEADER, columns)


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


@dataclasses.dataclass
class RunManifest:
    """Everything needed to re-run an experiment bit-identically, and where it ran."""

    command: str
    master_seed: int
    config_text: str
    outputs: list[str]
    wall_clock_seconds: float
    version: str = __version__
    python: str = platform.python_version()
    numpy: str = np.__version__
    cpu_count: int = dataclasses.field(default_factory=usable_cpus)
    blas_threads: str | None = os.environ.get("OPENBLAS_NUM_THREADS")
    heap: str = "default"

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2) + "\n"


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    with replacing(path) as fh:
        fh.write(manifest.to_json().encode("utf-8"))
