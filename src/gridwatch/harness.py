"""Scenario orchestration: seeded end-to-end trials and Monte-Carlo estimates.

A trial computes only the usage entries it reads, correlates every
consumer's sampled reports with the leakage in one pass, runs the
configured detector, and scores the result against the known attacker
set; billing and records read the usage a month at a time.  Trials
are deterministic given their seed; Monte-Carlo repetitions use seeds
derived injectively from ``(master_seed, trial_index)`` so they can run
in any order or in parallel without changing the result.  The cells
(attack case and duration) of one estimate share the master seed and the
consumer count, and trial ``i`` of every cell reads one shared usage
block, whose entries are computed once for them all.  A Monte-Carlo cell
reads only what its verdict depends on: a threshold cell with one
misreporting consumer correlates that consumer alone and reads no sampled
entry (`_success`).  Every stream is the one a lone trial draws.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._pcg64 import UniformBlock
from .billing import accrue, issue_bills
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
from .errors import ConfigurationError
from .model import (
    BehaviorModel,
    FixedOffset,
    Multiplicative,
    RandomOffset,
    RegionConfig,
    apply_behavior,
    as_integer,
    as_real,
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
    tariff: float = 1.0
    elasticity_factor: float | None = None
    elasticity_level: float | None = None
    master_seed: int = 0
    repetitions: int = 1000

    def __post_init__(self):
        for name in ("months", "min_samples", "master_seed", "repetitions"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        optional = ("low_report_quantile", "elasticity_factor", "elasticity_level")
        for name in ("th", "tariff", *optional):
            if getattr(self, name) is not None or name not in optional:
                object.__setattr__(self, name, as_real(name, getattr(self, name)))
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
        if not 0.0 <= self.tariff < math.inf:
            raise ConfigurationError(f"tariff must be finite and >= 0, got {self.tariff}")
        _check_sums_finite(self)

    @property
    def total_periods(self) -> int:
        return DAYS_PER_MONTH * self.region.periods_per_day * self.months

    @property
    def usage_span(self) -> float:
        """The width of every period's usage range.  With elasticity set, a tariff above the
        level scales ``usage_max`` by the factor, and the top stays at least 1e-12 above ``usage_min``."""
        low, high = self.region.usage_min, self.region.usage_max
        if self.elasticity_factor is None:
            return high - low
        factor = self.elasticity_factor if self.tariff > self.elasticity_level else 1.0
        return max(high * factor, low + 1e-12) - low


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
    rate; a correlation sums up to ``periods`` squares of values as large
    as a total (the leakage is one).  Past ``float``'s range each would end
    as a silent inf or NaN in the output.
    """
    region = config.region
    usage = region.usage_min + config.usage_span
    value = usage  # the largest usage or report of any consumer in any period
    for _, b in region.attackers:
        if isinstance(b, Multiplicative):
            value = max(value, b.alpha * usage)
        elif isinstance(b, (FixedOffset, RandomOffset)) and b.direction == "add":
            value = max(value, usage + (b.eta if isinstance(b, FixedOffset) else b.theta_max))
    total = value * region.consumers
    sums = {
        "regional totals": total,
        "monthly bills": value * config.tariff * DAYS_PER_MONTH * region.periods_per_day,
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

    Usage is ``u[t, c] * span + region.usage_min`` (`_scale`), where ``u``
    is the ``(periods, n)`` block of uniforms that the generator in
    ``state`` draws next (``draws``) and ``span`` is the config's `usage_span`.
    ``dishonest`` maps each misreporting consumer's id to its reports, and
    ``sampled_pos`` holds the sampled consumer's id (ids are positions).
    `usage_months` and `report_months` draw the usage again from ``state``,
    one month at a time; the sampled reports and the regional totals are
    computed on first access.  A Monte-Carlo trial reads no totals.
    """

    region: RegionConfig
    state: dict
    span: float
    dishonest: dict[int, np.ndarray]
    leakage: np.ndarray
    sampled_pos: np.ndarray
    draws: UniformBlock

    @cached_property
    def sampled_reports(self) -> np.ndarray:
        """Each period's sampled report: the sampled entry of ``draws``, scaled,
        or the misreporting consumer's report."""
        reports = _scale(self.draws.read(self.sampled_pos), self.region.usage_min, self.span)
        for pos, reported in self.dishonest.items():
            hit = self.sampled_pos == pos
            reports[hit] = reported[hit]
        return reports

    def usage_months(self) -> Iterator[np.ndarray]:
        """Each month's ``(periods, n)`` usage block, new each time, in period order.

        The draws come from a copy of the saved generator state."""
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = self.state
        region = self.region
        month_len = DAYS_PER_MONTH * region.periods_per_day
        for _ in range(len(self.leakage) // month_len):
            yield _scale(rng.random((month_len, region.consumers)), region.usage_min, self.span)

    def report_months(self) -> Iterator[np.ndarray]:
        """Each month's ``(periods, n)`` reports block, in period order: its
        fresh usage block with the misreporting columns written over in place."""
        month_len = DAYS_PER_MONTH * self.region.periods_per_day
        for start, reports in zip(range(0, len(self.leakage), month_len), self.usage_months()):
            for pos, reported in self.dishonest.items():
                reports[:, pos] = reported[start : start + month_len]
            yield reports

    @cached_property
    def actual_total(self) -> np.ndarray:
        return np.concatenate([usage.sum(axis=1) for usage in self.usage_months()])

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


def _scale(uniforms: np.ndarray, low: float, span: float) -> np.ndarray:
    """Usage from its uniforms, in place.  Sparse reads and month blocks
    both take it, so they agree bit for bit."""
    uniforms *= span
    uniforms += low
    return uniforms


def simulate_window(
    config: ScenarioConfig, rng: np.random.Generator, draws: UniformBlock | None = None
) -> WindowData:
    """Generate usage and reports for every period and aggregate them.

    Draw order is fixed: the usage matrix first (period-major), then each
    misreporting consumer's random offsets in consumer order, then the
    per-period sampled indices.  The usage matrix is not drawn: ``rng``
    (a ``PCG64`` generator, else `TypeError`) jumps past it, and only the
    misreporting consumers' columns, and the sampled entries once
    `WindowData.sampled_reports` is read, are computed from its saved
    state, bit for bit the values the draw would give.  ``draws`` is the
    usage block of ``rng``'s state when windows of the same seed and
    consumer count share it (`UniformBlock`); by default this window
    computes its own.
    """
    region = config.region
    n, periods, low = region.consumers, config.total_periods, region.usage_min

    # Scaled, the uniforms are bit for bit what rng.uniform(low, high,
    # size=(periods, n)) draws, where high - low is the one span of every
    # period (`ScenarioConfig.usage_span`).
    state = rng.bit_generator.state
    if draws is None:
        draws = UniformBlock(state, periods, n)
    elif (draws.state, draws.n) != (state, n):
        raise ValueError("the shared usage draws come from another generator state or region size")
    draws.skip(rng.bit_generator, periods)
    span = config.usage_span

    leakage = np.zeros(periods)
    dishonest: dict[int, np.ndarray] = {}
    for cid, behavior in region.attackers:
        if is_benign(behavior):
            continue
        actual = _scale(draws.column(cid)[:periods].copy(), low, span)
        reported = apply_behavior(behavior, actual, rng)
        dishonest[cid] = reported
        leakage = leakage + (actual - reported)

    return WindowData(
        region=region,
        state=state,
        span=span,
        dishonest=dishonest,
        leakage=leakage,
        sampled_pos=rng.integers(0, n, size=periods),
        draws=draws,
    )


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's verdict against the known attacker set.

    ``counts`` and ``corr`` (by position) are the evidence the threshold
    labels are taken on; `report` builds the labels on first access, from
    ``samples`` (sampled positions, reports, leakage) when ``corr`` is None.  They
    stay out of ``==``, so equal outcomes are equal verdicts.
    """

    true_malicious: frozenset[int]
    detected: frozenset[int]
    config: ScenarioConfig = field(compare=False, repr=False)
    counts: np.ndarray = field(compare=False, repr=False)
    corr: np.ndarray | None = field(compare=False, repr=False)
    samples: tuple[np.ndarray, np.ndarray, np.ndarray] = field(compare=False, repr=False)

    @cached_property
    def report(self) -> DetectionReport:
        c = self.config
        corr = _low_report_corr(c, self.counts, self.samples) if self.corr is None else self.corr
        return detect_region(self.counts, corr, th=c.th, min_samples=c.min_samples)

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
    draws: UniformBlock | None = None,
) -> TrialOutcome:
    """One fully deterministic end-to-end trial.

    Every consumer's correlation comes from one `correlate` pass over the window.  With
    ``low_report_quantile`` set, the threshold verdicts use each consumer's low-report
    pairs instead; most-negative selection always uses the unfiltered correlations and
    leaves the low-report ones to `TrialOutcome.report`.  Threshold mode flags every
    consumer with evidence (`has_evidence`) and ``|corr| >= th``, as `detect_region`
    labels them; a most-negative trial without evidence selects None, a miss.
    ``draws`` is ``trial_seed``'s usage block when trials share it (`simulate_window`).
    """
    rng = np.random.default_rng(trial_seed)  # an int n seeds as SeedSequence([n]) would
    window = simulate_window(config, rng, draws)
    samples = (window.sampled_pos, window.sampled_reports, window.leakage)
    counts, corr = correlate(*samples, config.region.consumers)
    filtered = config.low_report_quantile is not None
    if config.mode == MOST_NEGATIVE_MODE:
        selected = most_negative(counts, corr, config.min_samples)
        detected = frozenset() if selected is None else frozenset({selected})
        corr = None if filtered else corr
    else:
        corr = _low_report_corr(config, counts, samples) if filtered else corr
        flagged = has_evidence(counts, corr, config.min_samples) & (np.abs(corr) >= config.th)
        detected = frozenset(np.flatnonzero(flagged).tolist())
    return TrialOutcome(
        true_malicious=frozenset(window.dishonest),
        detected=detected,
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


def _success(config: ScenarioConfig, seed: np.random.SeedSequence, draws: UniformBlock) -> bool:
    """``trial_success(run_trial(config, seed, draws))`` from only what it reads.

    A threshold trial with one misreporting consumer succeeds when that consumer
    is flagged, so only its sampled periods are correlated, with `correlate`'s
    arithmetic (its low-report pairs with `pearson` when the filter is set), and
    no sampled entry is read.  Any other trial runs in full."""
    attackers = config.region.malicious_ids
    if config.mode != THRESHOLD_MODE or len(attackers) != 1:
        return trial_success(run_trial(config, seed, draws))
    (attacker,) = attackers
    window = simulate_window(config, np.random.default_rng(seed), draws)
    hit = window.sampled_pos == attacker
    reports, leakage = window.dishonest[attacker][hit], window.leakage[hit]
    counts, corr = correlate(np.zeros(len(reports), np.intp), reports, leakage, 1)
    if config.low_report_quantile is not None:
        q = config.low_report_quantile
        corr = low_report_correlations([(reports, leakage)], counts, q, config.min_samples)
    return bool(has_evidence(counts, corr, config.min_samples)[0] and abs(corr[0]) >= config.th)


def _index_successes(cells: Sequence[ScenarioConfig], index: int) -> list[bool]:
    """Trial ``index`` of every cell (`_success`), in the order given.  The cells share
    the master seed and the consumer count, so one usage block serves them all for this
    call: its row starts and each attacker's column are computed once.  Only cells that
    run in full (most-negative, or not one misreporting consumer) read sampled entries."""
    seed = derive_trial_seed(cells[0].master_seed, index)
    periods = max(c.total_periods for c in cells)
    draws = UniformBlock(np.random.PCG64(seed).state, periods, cells[0].region.consumers)
    return [_success(c, seed, draws) for c in cells]


def _count_successes(job: tuple[tuple[ScenarioConfig, ...], int, int]) -> list[int]:
    """Each cell's successes over trial indices ``start..stop-1``."""
    cells, start, stop = job
    return [sum(oks) for oks in zip(*(_index_successes(cells, i) for i in range(start, stop)))]


def _estimate(configs: Sequence[ScenarioConfig], threads: int) -> list[ProbabilityEstimate]:
    """One estimate per config; all their trials share one pool when 2+ workers run.

    The configs form one group: they share the master seed, the consumer count
    and the repetitions (else `ValueError`), and trial ``i`` of every config
    reads one shared usage block (`_index_successes`).  Jobs are trial-index
    ranges, up to ``4 * threads``, over every config, and return one success
    count per config; they run longest first.  More workers than usable CPUs
    would only queue, so ``threads`` is capped at the CPUs this process may
    run on (its affinity where the platform has one, else the CPU count)."""
    if len({(c.master_seed, c.region.consumers, c.repetitions) for c in configs}) > 1:
        raise ValueError("estimated configs must share the master seed, consumer count and repetitions")
    if not configs:
        return []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(threads, cpus or 1)
    reps = configs[0].repetitions
    parts = min(reps, 4 * max(threads, 1))
    bounds = [reps * k // parts for k in range(parts + 1)]
    ranges = sorted(zip(bounds, bounds[1:]), key=lambda r: r[1] - r[0], reverse=True)
    jobs = [(tuple(configs), a, b) for a, b in ranges]
    if min(threads, len(jobs)) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            counts = list(pool.map(_count_successes, jobs))
    else:
        counts = list(map(_count_successes, jobs))
    return [ProbabilityEstimate(sum(per_job), c.repetitions) for per_job, c in zip(zip(*counts), configs)]


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
    costs = np.array([accrue(reports, config.tariff) for reports in window.report_months()])
    return window, issue_bills(costs, month_len)


def _at_durations(config: ScenarioConfig, durations: Iterable[int]) -> list[ScenarioConfig]:
    """``config`` at each duration (months), every one built and checked before any trial."""
    return [replace(config, months=m) for m in durations]


def concentration_experiment(
    config: ScenarioConfig, durations: Iterable[int]
) -> dict[int, DetectionReport]:
    """Per-consumer correlations from one seeded trial at each duration (months)."""
    return {
        c.months: run_trial(c, derive_trial_seed(config.master_seed, c.months)).report
        for c in _at_durations(config, durations)
    }


def duration_sweep(
    config: ScenarioConfig,
    durations: Sequence[int],
    threads: int = 1,
) -> dict[int, ProbabilityEstimate]:
    """Detection probability at each measurement duration (months)."""
    return dict(zip(durations, _estimate(_at_durations(config, durations), threads)))


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
    scenarios = [
        c for case in cases for c in _at_durations(case_config(base, case, attacker_id), durations)
    ]
    return [(*cell, est) for cell, est in zip(cells, _estimate(scenarios, threads))]
