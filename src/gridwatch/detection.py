"""Correlation-based detection of misreporting consumers.

The detector computes, per consumer, the Pearson correlation between its
sampled reports and the regional leakage values observed on the same
periods.  An honest consumer's reports are independent of the leakage, so
its correlation concentrates around zero; a consumer scaling its reports
down (up) drives the correlation toward +1 (-1).  Classification is a
symmetric threshold on the correlation; the random-offset attack is
instead found by taking the most negative correlation in the region.

`correlate` computes every consumer's correlation at once from the
whole-window arrays; `pearson` is the scalar form, used by the
low-report filter path and kept as the reference the kernel is tested
against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aggregation import SampleSeries
from .errors import ConfigurationError, InputError

DEFAULT_THRESHOLD = 0.5
DEFAULT_MIN_SAMPLES = 5
DEFAULT_LOW_REPORT_QUANTILE = 0.25


class Label(str, enum.Enum):
    BENIGN = "benign"
    MALICIOUS_UNDER = "malicious_under"
    MALICIOUS_OVER = "malicious_over"
    INSUFFICIENT_DATA = "insufficient_data"


def pearson(x, y) -> float | None:
    """Pearson correlation of two equal-length vectors, or None when undefined.

    Undefined means fewer than 2 points, zero variance on either side, or
    a non-finite centred sum of squares (the inputs overflowed or hold
    NaN); with both sums finite, the cross sum is finite too.  The result
    is clamped into [-1, 1]; rounding overshoot never exceeds 1e-9 before
    clamping.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError(
            f"pearson needs two equal-length vectors, got shapes {x.shape} and {y.shape}"
        )
    if x.shape[0] < 2:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean()
        yc = y - y.mean()
        den = math.sqrt(float(xc @ xc)) * math.sqrt(float(yc @ yc))
        if not 0.0 < den < math.inf:
            return None
        r = float(xc @ yc) / den
    return max(-1.0, min(1.0, r))


def correlate(
    positions: np.ndarray, x: np.ndarray, y: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation of ``x`` against ``y`` within every group at once.

    ``positions[t]`` in ``0..n-1`` assigns pair ``t`` to a group.  Returns
    ``(counts, corr)``, both of length ``n``: the pairs per group and their
    correlation, NaN where `pearson` would return None.  Each group's means
    come from one `np.bincount` pass and the centred sums from a second
    (the two-pass form), so results agree with `pearson` on the same pairs
    up to summation order.
    """
    counts = np.bincount(positions, minlength=n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dx = x - (np.bincount(positions, x, n) / counts)[positions]
        dy = y - (np.bincount(positions, y, n) / counts)[positions]
        den = np.sqrt(np.bincount(positions, dx * dx, n)) * np.sqrt(
            np.bincount(positions, dy * dy, n)
        )
        corr = np.bincount(positions, dx * dy, n) / den
    # An empty, single-sample or constant group has den == 0, so its
    # quotient is already NaN or infinite.
    defined = np.isfinite(den) & np.isfinite(corr)
    return counts, np.where(defined, np.clip(corr, -1.0, 1.0), np.nan)


def classify(corr: float | None, th: float = DEFAULT_THRESHOLD) -> Label:
    """Threshold rule: corr >= th under-reporting, corr <= -th over-reporting.

    Strictly inside (-th, th) is benign; an undefined correlation carries
    no evidence and maps to INSUFFICIENT_DATA.
    """
    if not 0.0 < th <= 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1], got {th}")
    if corr is None:
        return Label.INSUFFICIENT_DATA
    if corr >= th:
        return Label.MALICIOUS_UNDER
    if corr <= -th:
        return Label.MALICIOUS_OVER
    return Label.BENIGN


def low_report_filter(
    reports, leakages, q: float = DEFAULT_LOW_REPORT_QUANTILE
) -> tuple[np.ndarray, np.ndarray]:
    """Keep the pairs whose report is at or below the q-quantile of reports.

    Used for the fixed-offset attack, where only the periods with small
    (clipped) reports carry information about the attacker.
    """
    if not 0.0 < q < 1.0:
        raise ConfigurationError(f"quantile must be in (0, 1), got {q}")
    reports = np.asarray(reports, dtype=float)
    leakages = np.asarray(leakages, dtype=float)
    if reports.size == 0:
        raise InputError("low_report_filter needs a nonempty series")
    cutoff = np.quantile(reports, q)
    keep = reports <= cutoff
    return reports[keep], leakages[keep]


@dataclass(frozen=True)
class ConsumerVerdict:
    consumer_id: int
    sample_count: int
    corr: float | None
    label: Label


@dataclass(frozen=True)
class DetectionReport:
    verdicts: tuple[ConsumerVerdict, ...]

    def __iter__(self):
        return iter(self.verdicts)

    def verdict(self, consumer_id: int) -> ConsumerVerdict:
        for v in self.verdicts:
            if v.consumer_id == consumer_id:
                return v
        raise KeyError(consumer_id)

    def corr(self, consumer_id: int) -> float | None:
        return self.verdict(consumer_id).corr

    @property
    def malicious_ids(self) -> set[int]:
        return {
            v.consumer_id
            for v in self.verdicts
            if v.label in (Label.MALICIOUS_UNDER, Label.MALICIOUS_OVER)
        }

    def correlations(self) -> dict[int, float]:
        """Defined correlations only, keyed by consumer id."""
        return {v.consumer_id: v.corr for v in self.verdicts if v.corr is not None}


def low_report_correlations(
    series: SampleSeries, counts: np.ndarray, q: float, min_samples: int
) -> np.ndarray:
    """Each consumer's correlation over its low-report pairs only (NaN: undefined).

    ``series`` is keyed by group position, as `correlate` counts them;
    groups with fewer than ``min_samples`` pairs are left undefined.
    """
    corr = np.full(len(counts), np.nan)
    for pos in np.flatnonzero(counts >= min_samples):
        r = pearson(*low_report_filter(*series.pairs(int(pos)), q))
        if r is not None:
            corr[pos] = r
    return corr


def detect_region(
    consumer_ids: Sequence[int],
    counts: np.ndarray,
    corr: np.ndarray,
    th: float = DEFAULT_THRESHOLD,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> DetectionReport:
    """Classify every consumer from its sample count and correlation.

    ``consumer_ids``, ``counts`` and ``corr`` are indexed by position, as
    `correlate` returns them; NaN marks an undefined correlation.
    Consumers with fewer than ``min_samples`` observations are reported as
    INSUFFICIENT_DATA.  Verdicts are ordered by consumer id.
    """
    if min_samples < 2:
        raise ConfigurationError(f"min_samples must be >= 2, got {min_samples}")
    verdicts = []
    for pos in sorted(range(len(consumer_ids)), key=consumer_ids.__getitem__):
        count = int(counts[pos])
        value = float(corr[pos])
        r = None if count < min_samples or math.isnan(value) else value
        verdicts.append(ConsumerVerdict(consumer_ids[pos], count, r, classify(r, th)))
    return DetectionReport(tuple(verdicts))


def most_negative(
    consumer_ids: Sequence[int],
    counts: np.ndarray,
    corr: np.ndarray,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> int:
    """Id of the consumer with the lowest defined correlation (ties: lowest id).

    Arguments are indexed by position, as for `detect_region`.
    """
    eligible = (counts >= min_samples) & ~np.isnan(corr)
    if not eligible.any():
        raise InputError(
            f"no consumer has a defined correlation with >= {min_samples} samples"
        )
    best = corr[eligible].min()
    return int(np.asarray(consumer_ids)[eligible & (corr == best)].min())
