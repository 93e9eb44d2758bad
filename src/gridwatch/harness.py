"""Scenario orchestration: seeded end-to-end trials and Monte-Carlo estimates.

A trial computes only the usage entries it reads, correlates every
consumer's sampled reports with the leakage in one pass, runs the
configured detector, and scores the result against the known attacker
set; billing and records read the usage a month at a time.  Trials
are deterministic given their seed; Monte-Carlo repetitions use seeds
derived injectively from ``(master_seed, trial_index)`` so they can run
in any order or in parallel without changing the result.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._pcg64 import skip_uniforms
from .billing import TariffSchedule, accrue, issue_bills
from .detection import (
    DEFAULT_MIN_SAMPLES,
    DEFAULT_THRESHOLD,
    DetectionReport,
    correlate,
    detect_region,
    has_evidence,
    low_report_correlations,
    most_negative,
    series_from_arrays,
)
from .errors import ConfigurationError, InputError
from .model import (
    BehaviorModel,
    FixedOffset,
    Multiplicative,
    RandomOffset,
    RegionConfig,
    apply_behavior,
    is_benign,
)

DAYS_PER_MONTH = 30
# Size limits (`check_window_size`): one month's float64 usage block up to 1 GiB
MAX_MONTH_ENTRIES = 2**27
MAX_PERIODS = 2**22

THRESHOLD_MODE = "threshold"
MOST_NEGATIVE_MODE = "most_negative"


@dataclass(frozen=True)
class ScenarioConfig:
    region: RegionConfig
    months: int = 1
    th: float = DEFAULT_THRESHOLD
    min_samples: int = DEFAULT_MIN_SAMPLES
    mode: str = THRESHOLD_MODE
    low_report_quantile: float | None = None
    tariff: TariffSchedule = field(default_factory=lambda: TariffSchedule.flat(1.0))
    elasticity_factor: float | None = None
    elasticity_level: float | None = None
    master_seed: int = 0
    repetitions: int = 1000

    def __post_init__(self):
        region = self.region
        check_window_size(region.consumers, region.periods_per_day, self.total_periods)
        if self.months < 1:
            raise ConfigurationError(f"months must be >= 1, got {self.months}")
        if self.mode not in (THRESHOLD_MODE, MOST_NEGATIVE_MODE):
            raise ConfigurationError(f"unknown detection mode {self.mode!r}")
        if self.min_samples < 2:
            raise ConfigurationError(f"min_samples must be >= 2, got {self.min_samples}")
        if not 0.0 < self.th <= 1.0:
            raise ConfigurationError(f"threshold must be in (0, 1], got {self.th}")
        if self.repetitions < 1:
            raise ConfigurationError(
                f"repetitions must be >= 1, got {self.repetitions}"
            )
        if self.master_seed < 0:
            raise ConfigurationError(
                f"master_seed must be >= 0, got {self.master_seed}"
            )
        q = self.low_report_quantile
        if q is not None and not 0.0 < q < 1.0:
            raise ConfigurationError(f"low_report_quantile must be finite and in (0, 1), got {q}")
        if (self.elasticity_factor is None) != (self.elasticity_level is None):
            raise ConfigurationError(
                "elasticity_factor and elasticity_level must be set together"
            )
        if self.elasticity_factor is not None and not (
            0 < self.elasticity_factor < math.inf and math.isfinite(self.elasticity_level)
        ):
            raise ConfigurationError("elasticity factor and level must be finite, the factor > 0")
        rates = self.tariff.rates
        if rates is not None and len(rates) != self.total_periods:
            raise ConfigurationError(
                f"the tariff vector has {len(rates)} rates for a {self.total_periods}-period window"
            )
        _check_sums_finite(self)

    @property
    def total_periods(self) -> int:
        return DAYS_PER_MONTH * self.region.periods_per_day * self.months


def check_window_size(consumers: int, periods_per_day: int, periods: int) -> None:
    """Reject a window whose month block or per-period arrays exceed the size limits."""
    month = DAYS_PER_MONTH * periods_per_day * consumers
    limits = ((month, "values a month", MAX_MONTH_ENTRIES), (periods, "periods", MAX_PERIODS))
    for size, what, limit in limits:
        if size > limit:
            raise ConfigurationError(f"the window has {size} {what}, above the limit of {limit}")


def _check_sums_finite(config: ScenarioConfig) -> None:
    """Reject values whose regional totals, monthly bills or correlation sums overflow.

    A total adds up to n values; a bill up to a month of values times the
    top rate; a correlation sums up to ``periods`` squares of values as large
    as a total (the leakage is one).  Past ``float``'s range each would end
    as a silent inf or NaN in the output.
    """
    region, tariff = config.region, config.tariff
    usage = region.usage_max * max(1.0, config.elasticity_factor or 1.0)
    value = usage  # the largest usage or report of any consumer in any period
    for _, b in region.attackers:
        if isinstance(b, Multiplicative):
            value = max(value, b.alpha * usage)
        elif isinstance(b, (FixedOffset, RandomOffset)) and b.direction == "add":
            value = max(value, usage + (b.eta if isinstance(b, FixedOffset) else b.theta_max))
    rate = tariff.flat_rate if tariff.rates is None else max(tariff.rates, default=0.0)
    total = value * region.consumers
    sums = {
        "regional totals": total,
        "monthly bills": value * rate * DAYS_PER_MONTH * region.periods_per_day,
        "correlation sums": total * total * config.total_periods,
    }
    for what, bound in sums.items():
        if not math.isfinite(bound):
            raise ConfigurationError(
                f"usage and reports up to {value!r} overflow the {what}; "
                "lower usage_max, the attack sizes, the elasticity factor or the tariff"
            )


def derive_trial_seed(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """Injective (master_seed, trial_index) -> independent random stream."""
    return np.random.SeedSequence([master_seed, trial_index])


@dataclass(frozen=True)
class WindowData:
    """Whole-window simulation arrays (one entry per period).

    Usage is ``u[t, c] * spans[span_row[t]] + region.usage_min`` (`_scale`),
    with one span when ``span_row`` is None, where ``u`` is the
    ``(periods, n)`` block of uniforms that the generator in ``state`` draws
    next.  ``dishonest`` maps each misreporting consumer's id to its
    reports, and ``sampled_pos`` holds the sampled consumer's id (ids are
    positions).  `months` draws the usage and reports again from ``state``,
    one month at a time; the regional totals are computed on first access.
    A Monte-Carlo trial reads none of them.
    """

    region: RegionConfig
    state: dict
    spans: np.ndarray
    span_row: np.ndarray | None
    dishonest: dict[int, np.ndarray]
    leakage: np.ndarray
    sampled_pos: np.ndarray
    sampled_reports: np.ndarray

    def months(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each month's ``(usage, reports)`` block, ``(periods, n)``, in period order.

        The draws come from a copy of the saved generator state."""
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = self.state
        region = self.region
        month_len = DAYS_PER_MONTH * region.periods_per_day
        for start in range(0, len(self.leakage), month_len):
            rows = slice(start, start + month_len)
            usage = rng.random((month_len, region.consumers))
            _scale(usage.T, region.usage_min, self.spans, self.span_row, rows)
            reports = usage.copy()
            for pos, reported in self.dishonest.items():
                reports[:, pos] = reported[rows]
            yield usage, reports

    @cached_property
    def actual_total(self) -> np.ndarray:
        return np.concatenate([usage.sum(axis=1) for usage, _ in self.months()])

    @cached_property
    def reported_total(self) -> np.ndarray:
        return self.actual_total - self.leakage

    def to_records(self) -> tuple[np.ndarray, ...]:
        """The columns ``(period, actual_total, reported_total, leakage,
        sampled_id, sampled_report)``, one entry per period in period order."""
        return (
            np.arange(self.leakage.shape[0]),
            self.actual_total,
            self.reported_total,
            self.leakage,
            self.sampled_pos,
            self.sampled_reports,
        )


def _scale(uniforms: np.ndarray, low: float, spans, span_row, rows) -> np.ndarray:
    """The usage of periods ``rows``, the last axis, from their uniforms, in place.
    Sparse reads and month blocks both take it, so they agree bit for bit."""
    uniforms *= spans[0] if span_row is None else spans[span_row[rows]]
    uniforms += low
    return uniforms


def simulate_window(config: ScenarioConfig, rng: np.random.Generator) -> WindowData:
    """Generate usage and reports for every period and aggregate them.

    Draw order is fixed: the usage matrix first (period-major), then each
    misreporting consumer's random offsets in consumer order, then the
    per-period sampled indices.  The usage matrix is not drawn: ``rng``
    (a ``PCG64`` generator, else `TypeError`) jumps past it, and only the
    misreporting consumers' columns and the sampled entries are computed
    from its saved state, bit for bit the values the draw would give.
    """
    region = config.region
    n, periods, low = region.consumers, config.total_periods, region.usage_min

    # Scaled, the uniforms are bit for bit what rng.uniform(low, high,
    # size=(periods, n)) draws, without a (periods, n) bounds matrix:
    # elasticity scales usage_max (never below usage_min) in the periods
    # whose rate is above the level, so there are two spans.
    state = rng.bit_generator.state
    uniforms = skip_uniforms(rng.bit_generator, periods, n)
    span_row = None
    if config.elasticity_factor is None:
        spans = np.array([region.usage_max - low])
    else:
        factors = (1.0, config.elasticity_factor)
        spans = np.array([max(region.usage_max * factor, low + 1e-12) - low for factor in factors])
        span_row = (config.tariff.per_period(periods) > config.elasticity_level).astype(np.intp)

    leakage = np.zeros(periods)
    dishonest: dict[int, np.ndarray] = {}
    for cid, behavior in region.attackers:
        if is_benign(behavior):
            continue
        actual = _scale(uniforms(cid), low, spans, span_row, slice(None))
        reported = apply_behavior(behavior, actual, rng)
        dishonest[cid] = reported
        leakage = leakage + (actual - reported)

    sampled_pos = rng.integers(0, n, size=periods)
    sampled_reports = _scale(uniforms(sampled_pos), low, spans, span_row, slice(None))
    for pos, reported in dishonest.items():
        hit = sampled_pos == pos
        sampled_reports[hit] = reported[hit]

    return WindowData(
        region=region,
        state=state,
        spans=spans,
        span_row=span_row,
        dishonest=dishonest,
        leakage=leakage,
        sampled_pos=sampled_pos,
        sampled_reports=sampled_reports,
    )


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's verdict against the known attacker set.

    ``counts`` and ``corr`` (by consumer id) are the evidence the threshold
    labels are taken on; `report` builds the labels on first access, from
    ``samples`` (sampled ids, reports, leakage) when ``corr`` is None.  They
    stay out of ``==``, so equal outcomes are equal verdicts.
    """

    true_malicious: frozenset[int]
    detected: frozenset[int]
    selected: int | None
    config: ScenarioConfig = field(compare=False, repr=False)
    counts: np.ndarray = field(compare=False, repr=False)
    corr: np.ndarray | None = field(compare=False, repr=False)
    samples: tuple[np.ndarray, np.ndarray, np.ndarray] = field(compare=False, repr=False)

    @cached_property
    def report(self) -> DetectionReport:
        c = self.config
        corr = _low_report_corr(c, self.counts, self.samples) if self.corr is None else self.corr
        return detect_region(
            np.arange(c.region.consumers), self.counts, corr, th=c.th, min_samples=c.min_samples
        )

    @property
    def exact_match(self) -> bool:
        return self.detected == self.true_malicious

    @property
    def false_positive_count(self) -> int:
        return len(self.detected - self.true_malicious)

    @property
    def all_attackers_found(self) -> bool:
        return self.true_malicious <= self.detected

    @property
    def outcome_class(self) -> str:
        """'exact', 'extra_benign', or 'missed_attacker' (trumps extra labels)."""
        if not self.all_attackers_found:
            return "missed_attacker"
        if self.false_positive_count > 0:
            return "extra_benign"
        return "exact"


def _low_report_corr(config: ScenarioConfig, counts: np.ndarray, samples) -> np.ndarray:
    series = series_from_arrays(*samples, len(counts))
    return low_report_correlations(series, counts, config.low_report_quantile, config.min_samples)


def run_trial(
    config: ScenarioConfig,
    trial_seed: int | np.random.SeedSequence,
) -> TrialOutcome:
    """One fully deterministic end-to-end trial.

    Every consumer's correlation comes from one `correlate` pass over the window.  With
    ``low_report_quantile`` set, the threshold verdicts use each consumer's low-report
    pairs instead; most-negative selection always uses the unfiltered correlations and
    leaves the low-report ones to `TrialOutcome.report`.  Threshold mode flags every
    consumer with evidence (`has_evidence`) and ``|corr| >= th``, as `detect_region`
    labels them; a most-negative trial without defined correlations selects no one.
    """
    rng = np.random.default_rng(trial_seed)  # an int n seeds as SeedSequence([n]) would
    window = simulate_window(config, rng)
    n = config.region.consumers
    samples = (window.sampled_pos, window.sampled_reports, window.leakage)
    counts, corr = correlate(*samples, n)
    filtered = config.low_report_quantile is not None
    selected = None
    if config.mode == MOST_NEGATIVE_MODE:
        try:
            selected = most_negative(np.arange(n), counts, corr, config.min_samples)
        except InputError:  # no evidence: a miss, not an abort
            detected = frozenset()
        else:
            detected = frozenset({selected})
        corr = None if filtered else corr
    else:
        corr = _low_report_corr(config, counts, samples) if filtered else corr
        flagged = has_evidence(counts, corr, config.min_samples) & (np.abs(corr) >= config.th)
        detected = frozenset(np.flatnonzero(flagged).tolist())
    return TrialOutcome(
        true_malicious=frozenset(window.dishonest),
        detected=detected,
        selected=selected,
        config=config,
        counts=counts,
        corr=corr,
        samples=samples,
    )


def trial_success(outcome: TrialOutcome) -> bool:
    """Correct-detection criterion for probability estimates.

    Single-attacker scenarios count a trial correct when the attacker is
    identified (threshold mode: labeled malicious; most-negative mode:
    selected).  Multi-attacker scenarios require the exact set.
    """
    if len(outcome.true_malicious) == 1:
        return outcome.all_attackers_found
    return outcome.exact_match


@dataclass(frozen=True)
class ProbabilityEstimate:
    successes: int
    repetitions: int

    @property
    def probability(self) -> float:
        return self.successes / self.repetitions

    @property
    def stderr(self) -> float:
        p = self.probability
        return math.sqrt(p * (1.0 - p) / self.repetitions)


def _count_successes(job: tuple[ScenarioConfig, int, int]) -> int:
    config, start, stop = job
    seeds = (derive_trial_seed(config.master_seed, i) for i in range(start, stop))
    return sum(trial_success(run_trial(config, seed)) for seed in seeds)


def _estimate(configs: Sequence[ScenarioConfig], threads: int) -> list[ProbabilityEstimate]:
    """One estimate per config; all their trials share one pool when 2+ workers run.

    Jobs are trial-index ranges, up to ``4 * threads`` per config, run longest
    (months x trials) first so that long ranges do not form the tail.  More
    workers than CPUs would only queue, so ``threads`` is capped at the CPU count."""
    threads = min(threads, os.cpu_count() or 1)
    ranges = []
    for pos, c in enumerate(configs):
        parts = min(c.repetitions, 4 * max(threads, 1))
        bounds = [c.repetitions * k // parts for k in range(parts + 1)]
        ranges += [(c.months * (b - a), pos, (c, a, b)) for a, b in zip(bounds, bounds[1:])]
    ranges.sort(key=lambda r: r[0], reverse=True)
    jobs = [job for _, _, job in ranges]
    if min(threads, len(jobs)) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            counts = list(pool.map(_count_successes, jobs))
    else:
        counts = list(map(_count_successes, jobs))
    successes = np.bincount([pos for _, pos, _ in ranges], counts, len(configs))
    return [ProbabilityEstimate(int(n), c.repetitions) for n, c in zip(successes, configs)]


def estimate_detection_probability(
    config: ScenarioConfig, threads: int = 1
) -> ProbabilityEstimate:
    """Fraction of seeded repetitions with correct detection, plus binomial stderr.

    The result is independent of ``threads``: every trial's stream depends only
    on (master_seed, trial_index), and success counts add up exactly in any order.
    """
    return _estimate([config], threads)[0]


def run_billing(
    config: ScenarioConfig,
    trial_seed: int | np.random.SeedSequence,
) -> tuple[WindowData, tuple[np.ndarray, ...]]:
    """Simulate one window and bill it month by month from reports only.

    Returns the window and the `issue_bills` columns."""
    window = simulate_window(config, np.random.default_rng(trial_seed))
    month_len = DAYS_PER_MONTH * config.region.periods_per_day
    rates = config.tariff.per_period(config.total_periods).reshape(-1, month_len)
    costs = np.array([accrue(reports, r) for r, (_, reports) in zip(rates, window.months())])
    return window, issue_bills(costs, np.arange(config.region.consumers), month_len)


def concentration_experiment(
    config: ScenarioConfig, durations: Iterable[int]
) -> dict[int, DetectionReport]:
    """Per-consumer correlations from one seeded trial at each duration (months)."""
    out: dict[int, DetectionReport] = {}
    for months in durations:
        outcome = run_trial(replace(config, months=months), derive_trial_seed(config.master_seed, months))
        out[months] = outcome.report
    return out


def duration_sweep(
    config: ScenarioConfig,
    durations: Sequence[int],
    threads: int = 1,
) -> dict[int, ProbabilityEstimate]:
    """Detection probability at each measurement duration (months)."""
    return dict(zip(durations, _estimate([replace(config, months=m) for m in durations], threads)))


# Documented defaults for the offset attacks: both offsets are sized at the
# midpoint of the region's usage range, so the fixed offset clips the
# report to zero on roughly half the periods and the random offset's
# variance is large enough to dominate the benign correlation spread.
def case_behavior(case: str, region: RegionConfig) -> BehaviorModel:
    """Standard attacker behavior for the three benchmark cases."""
    midpoint = 0.5 * (region.usage_min + region.usage_max)
    if case == "I":
        return Multiplicative(alpha=0.1)
    if case == "II":
        return FixedOffset(eta=midpoint, direction="subtract")
    if case == "III":
        return RandomOffset(theta_max=midpoint, direction="subtract")
    raise ConfigurationError(f"unknown case {case!r}")


def case_config(base: ScenarioConfig, case: str, attacker_id: int) -> ScenarioConfig:
    """Single-attacker benchmark scenario for one case, all others benign.

    Case III uses the most-negative selection rule; Cases I and II use the
    correlation threshold.
    """
    region = replace(base.region, attackers={attacker_id: case_behavior(case, base.region)})
    mode = MOST_NEGATIVE_MODE if case == "III" else THRESHOLD_MODE
    return replace(base, region=region, mode=mode)


def probability_table(
    base: ScenarioConfig,
    attacker_id: int,
    cases: Sequence[str] = ("I", "II", "III"),
    durations: Sequence[int] = (1, 3, 6, 12),
    threads: int = 1,
) -> list[tuple[str, int, ProbabilityEstimate]]:
    """Correct-detection probability for each case and duration."""
    cells = [(case, months) for case in cases for months in durations]
    scenarios = [replace(case_config(base, case, attacker_id), months=m) for case, m in cells]
    return [(*cell, est) for cell, est in zip(cells, _estimate(scenarios, threads))]
