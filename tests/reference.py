"""Scalar references for the columnar detection report and the CSV writer.

The package labels every consumer with one `np.select` and writes every
CSV through one column writer, `csvio.write_columns`.  These do the same
one consumer and one row at a time: `classify` is the threshold rule for
one correlation, and `write_rows` writes rows through `csv.writer` with
the cell rules the column writer keeps.  Tests compare the columnar paths
against them.
"""

import csv
import math

import numpy as np

from gridwatch.detection import DEFAULT_THRESHOLD, Label
from gridwatch.errors import ConfigurationError


def classify(corr: float, th: float = DEFAULT_THRESHOLD) -> Label:
    """Threshold rule: corr >= th under-reporting, corr <= -th over-reporting.

    Strictly inside (-th, th) is benign; an undefined correlation (NaN) carries
    no evidence and maps to INSUFFICIENT_DATA.
    """
    if not 0.0 < th <= 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1], got {th}")
    if math.isnan(corr):
        return Label.INSUFFICIENT_DATA
    if corr >= th:
        return Label.MALICIOUS_UNDER
    if corr <= -th:
        return Label.MALICIOUS_OVER
    return Label.BENIGN


def cell(value) -> str:
    """A float's ``repr``, NaN (undefined) as an empty cell; ``str`` of anything else."""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def write_rows(path, header, rows):
    """Write ``rows`` under ``header`` one row at a time, each cell through `cell`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(v) for v in row])
    return path


def same_report(a, b) -> bool:
    """Whether two `DetectionReport`s hold equal columns, a NaN correlation matching NaN."""
    return (np.array_equal(a.counts, b.counts) and np.array_equal(a.corrs, b.corrs, equal_nan=True)
            and np.array_equal(a.labels, b.labels))


def benign_corr_std(report, attacker_ids) -> float:
    """Sample standard deviation of the benign consumers' defined correlations."""
    benign = ~np.isin(np.arange(len(report.counts)), list(attacker_ids)) & ~np.isnan(report.corrs)
    return float(np.std(report.corrs[benign], ddof=1))
