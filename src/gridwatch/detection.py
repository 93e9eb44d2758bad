"""Correlation-based detection of misreporting consumers.

The detector computes, per consumer, the Pearson correlation between its
sampled reports and the regional leakage values observed on the same
periods.  An honest consumer's reports are independent of the leakage, so
its correlation concentrates around zero; a consumer scaling its reports
down (up) drives the correlation toward +1 (-1).  Classification is one
symmetric threshold rule on the correlation (`flagged`); the random-offset
attack is instead found by taking the most negative correlation in the region.

`correlate` computes every consumer's correlation at once from the
whole-window arrays; `pearson` is the scalar form, used by the
low-report filter path and kept as the reference the kernel is tested
against.  Both treat a series whose spread is rounding noise as constant.
The low-report cutoff is ``np.quantile``'s, from one partition and numpy's rule in
Python floats (`_quantile`): ``np.quantile`` would import `numpy.ma`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError

DEFAULT_THRESHOLD = 0.5
DEFAULT_MIN_SAMPLES = 5
_EPS = np.finfo(float).eps


class Label(str, enum.Enum):
    __str__ = str.__str__  # the value, so that numpy string arrays hold and match it

    BENIGN = "benign"
    MALICIOUS_UNDER = "malicious_under"
    MALICIOUS_OVER = "malicious_over"
    INSUFFICIENT_DATA = "insufficient_data"


def _has_spread(ss, m, mean):
    """Whether ``m`` values with mean ``mean`` and centred sum of squares ``ss`` vary.

    Rounding leaves a constant series (0.1, 0.1, 0.1) a spread of at most
    ``(m·ε)²`` times its sum of squares ``ss + m·mean²``; that, or a
    non-finite ``ss`` (overflow, NaN input), is no spread.  Elementwise.
    """
    return ((m * _EPS) ** 2 * (ss + m * mean * mean) < ss) & (ss < np.inf)


def _vector_pair(name: str, x, y, x_type=float) -> tuple[np.ndarray, np.ndarray]:
    """``x`` (as ``x_type``) and ``y`` (as floats) as arrays; `InputError` unless both
    are 1-D and of one length, so that numpy never broadcasts one onto the other."""
    x, y = np.asarray(x, dtype=x_type), np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError(f"{name} needs two equal-length vectors, got shapes {x.shape} and {y.shape}")
    return x, y


def pearson(x, y) -> float | None:
    """Pearson correlation of two equal-length vectors, or None when undefined.

    Undefined means fewer than 2 points or no spread on either side (see
    `_has_spread`); with both centred sums of squares finite, the cross
    sum is finite too.  The result is clamped into [-1, 1]; rounding
    overshoot never exceeds 1e-9 before clamping.
    """
    x, y = _vector_pair("pearson", x, y)
    m = x.shape[0]
    if m < 2:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        mx, my = x.mean(), y.mean()
        xc, yc = x - mx, y - my
        sxx, syy = float(xc @ xc), float(yc @ yc)
        den = math.sqrt(sxx) * math.sqrt(syy)  # 0 if the product underflows
        if not (den > 0 and _has_spread(sxx, m, mx) and _has_spread(syy, m, my)):
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
        mx = np.bincount(positions, x, n) / counts
        my = np.bincount(positions, y, n) / counts
        dx = x - mx[positions]
        dy = y - my[positions]
        sxx = np.bincount(positions, dx * dx, n)
        syy = np.bincount(positions, dy * dy, n)
        corr = np.bincount(positions, dx * dy, n) / (np.sqrt(sxx) * np.sqrt(syy))
        # An empty group has a NaN mean, so it has no spread either.
        defined = (
            _has_spread(sxx, counts, mx) & _has_spread(syy, counts, my) & np.isfinite(corr)
        )
    return counts, np.where(defined, np.clip(corr, -1.0, 1.0), np.nan)


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` bit for bit: the same partition of a copy, then
    numpy's rule on the two neighbours of ``(n - 1) * q``.  Past the last index both are
    the last value, at index -1; a NaN, which partitions last, is the result."""
    n = len(values)
    v = (n - 1) * q
    i, j = (math.floor(v), math.floor(v) + 1) if v < n - 1 else (-1, -1)
    s = np.partition(values, sorted({0, i % n, j % n, n - 1}))
    if math.isnan(s[-1]):
        return s[-1]
    a, b = float(s[i]), float(s[j])
    g, d = v - i, b - a
    return b - d * (1 - g) if g >= 0.5 else a + d * g


def low_report_filter(reports, leakages, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Keep the pairs whose report is at or below the q-quantile of reports.

    Used for the fixed-offset attack, where only the periods with small
    (clipped) reports carry information about the attacker.
    """
    if not 0.0 < q < 1.0:
        raise ConfigurationError(f"quantile must be in (0, 1), got {q}")
    reports, leakages = _vector_pair("low_report_filter", reports, leakages)
    if reports.size == 0:
        raise InputError("low_report_filter needs a nonempty series")
    cutoff = _quantile(reports, q)
    keep = reports <= cutoff
    return reports[keep], leakages[keep]


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """Every consumer's evidence and label, as columns by position (a consumer's id is its position).

    ``corrs`` is NaN where the consumer has no evidence (see `has_evidence`);
    ``labels`` holds `Label` values.  Equal columns, NaN matching NaN, are equal reports.
    """

    counts: np.ndarray
    corrs: np.ndarray
    labels: np.ndarray

    def __eq__(self, other):
        return isinstance(other, DetectionReport) and all(
            np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
            for a, b in zip(vars(self).values(), vars(other).values())
        )

    def corr(self, consumer_id: int) -> float | None:
        """The consumer's correlation, or None when it has no evidence."""
        if consumer_id not in range(len(self.corrs)):
            raise KeyError(consumer_id)
        value = float(self.corrs[int(consumer_id)])
        return None if math.isnan(value) else value


def series_from_arrays(
    positions: np.ndarray, reports: np.ndarray, leakages: np.ndarray, n: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each of the ``n`` groups' ``(reports, leakages)`` pairs, in period order.

    ``positions`` assigns pairs to groups as for `correlate`; their stable sort, as the
    narrowest unsigned type holding ``n - 1``, is numpy's radix sort for ``n <= 65,536``.
    """
    order = np.argsort(positions.astype(np.min_scalar_type(n - 1)), kind="stable")
    ends = np.cumsum(np.bincount(positions, minlength=n))
    return [(reports[g], leakages[g]) for g in np.split(order, ends[:-1])]


def low_report_correlations(series, q: float, min_samples: int) -> np.ndarray:
    """Each group's correlation over its low-report pairs only (NaN: undefined).

    ``series`` holds each group's ``(reports, leakages)``, as `series_from_arrays`
    returns them; a group of fewer than ``min_samples`` pairs is left undefined.
    """
    corr = np.full(len(series), np.nan)
    for pos, (reports, leakages) in enumerate(series):
        r = pearson(*low_report_filter(reports, leakages, q)) if len(reports) >= min_samples else None
        if r is not None:
            corr[pos] = r
    return corr


def has_evidence(counts: np.ndarray, corr: np.ndarray, min_samples: int) -> np.ndarray:
    """Where a correlation is evidence: defined (not NaN) over >= ``min_samples`` pairs."""
    return (counts >= min_samples) & ~np.isnan(corr)


def flagged(evidence: np.ndarray, corr: np.ndarray, th) -> np.ndarray:
    """The threshold rule: where a consumer has evidence (the `has_evidence` mask) and
    ``|corr| >= th``.  Elementwise, in ``th`` too when it is an array."""
    return evidence & (np.abs(corr) >= th)


def detect_region(
    counts: np.ndarray,
    corr: np.ndarray,
    th: float = DEFAULT_THRESHOLD,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> DetectionReport:
    """Label every consumer from its sample count and correlation.

    ``counts`` and ``corr`` are equal-length vectors indexed by position, as
    `correlate` returns them; NaN marks an undefined correlation.  A consumer
    without evidence (`has_evidence`) is INSUFFICIENT_DATA with a NaN
    correlation; a `flagged` one is under-reporting when its correlation is
    positive, else over-reporting.
    """
    if min_samples < 2:
        raise ConfigurationError(f"min_samples must be >= 2, got {min_samples}")
    if not 0.0 < th <= 1.0:
        raise ConfigurationError(f"threshold must be in (0, 1], got {th}")
    counts, corr = _vector_pair("detect_region", counts, corr, None)
    evidence = has_evidence(counts, corr, min_samples)
    flags = flagged(evidence, corr, th)
    corr = np.where(evidence, corr, np.nan)
    labels = np.select(
        [~evidence, flags & (corr > 0), flags],
        [Label.INSUFFICIENT_DATA, Label.MALICIOUS_UNDER, Label.MALICIOUS_OVER],
        Label.BENIGN,
    )
    return DetectionReport(counts, corr, labels)


def most_negative(
    counts: np.ndarray, corr: np.ndarray, min_samples: int = DEFAULT_MIN_SAMPLES
) -> int | None:
    """Position of the consumer with the lowest correlation among those with
    evidence (ties: lowest position), or None when no consumer has evidence.

    Arguments are indexed by position, as for `detect_region`.
    """
    counts, corr = _vector_pair("most_negative", counts, corr, None)
    eligible = has_evidence(counts, corr, min_samples)
    return int(np.argmin(np.where(eligible, corr, np.inf))) if eligible.any() else None
