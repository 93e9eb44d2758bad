"""Scenario orchestration: seeded end-to-end trials and Monte-Carlo estimates.

A trial computes only the usage entries it reads, correlates every consumer's
sampled reports with the leakage in one pass, runs the configured detector,
and scores the result against the known attacker set; billing and records read
the usage a month at a time.  A window is a function of its config and its
seed alone: its stream is the seed's usage block and the
`UniformBlock.generator` after it.  Monte-Carlo repetitions use seeds derived
injectively from ``(master_seed, trial_index)`` so they can run in any order
or in parallel without changing the result.  The cells (attack case and
duration) of one estimate share the master seed and the consumer count, and
trial ``i`` of every cell reads one shared usage block, whose entries are
computed once for them all.  A Monte-Carlo cell reads only what its verdict
depends on: the threshold cells with one misreporting consumer correlate that
consumer alone, all in one batch, and read no sampled entry
(`_batch_successes`); those whose attacks draw nothing and whose windows are
as long share one draw of sampled positions, the draw each would make alone.
Every stream is the one a lone trial draws.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence, get_type_hints

import numpy as np

from ._pcg64 import UniformBlock, _scale
from .billing import accrue, issue_bills
from .detection import (
    DEFAULT_MIN_SAMPLES,
    DEFAULT_THRESHOLD,
    DetectionReport,
    correlate,
    detect_region,
    flagged,
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
    apply_behavior,
    as_integer,
    as_real,
)

DAYS_PER_MONTH = 30
# Size limits (`check_window_size`): one month's float64 usage block up to 1 GiB
MAX_MONTH_ENTRIES = 2**27
MAX_PERIODS = 2**22

THRESHOLD_MODE = "threshold"
MOST_NEGATIVE_MODE = "most_negative"


@dataclass(frozen=True)
class ScenarioConfig:
    """One aggregator's region and the experiment run on it; each field is the config key
    of its name, in file order.  Consumer ids are positions ``0..consumers-1``, all draw
    usage on one range, and ``attackers``, given as a mapping or as ``(id, behavior)``
    pairs, is kept as pairs sorted by id, without the entries that report truthfully,
    ``Multiplicative(1.0)``: every attacker left misreports."""

    region_id: int = 0
    consumers: int = 100
    periods_per_day: int = 96
    usage_min: float = 0.5
    usage_max: float = 1.5
    attackers: tuple[tuple[int, BehaviorModel], ...] = ()
    threshold: float = DEFAULT_THRESHOLD
    min_samples: int = DEFAULT_MIN_SAMPLES
    mode: str = THRESHOLD_MODE
    low_report_quantile: float | None = None
    tariff: float = 1.0
    elasticity_factor: float | None = None
    elasticity_level: float | None = None
    months: int = 1
    repetitions: int = 1000
    master_seed: int = 0

    def __post_init__(self):
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is int:
                object.__setattr__(self, name, as_integer(name, value))
            elif kind is float or (kind == float | None and value is not None):
                object.__setattr__(self, name, as_real(name, value))
        pairs = self.attackers.items() if isinstance(self.attackers, Mapping) else self.attackers
        try:
            pairs = [(as_integer("attacker id", cid), behavior) for cid, behavior in pairs]
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"attackers must be a mapping or (id, behavior) pairs, got {self.attackers!r}"
            ) from None
        n, ids = self.consumers, [cid for cid, _ in pairs]
        if n < 2:
            raise ConfigurationError(f"a region needs at least 2 consumers, got {n}")
        if len(set(ids)) != len(ids):
            raise ConfigurationError("attacker ids must be unique within a region")
        for cid, behavior in pairs:
            if not 0 <= cid < n:
                raise ConfigurationError(f"[attackers] id {cid} is outside the region's 0..{n - 1} consumers")
            if not isinstance(behavior, BehaviorModel):
                raise ConfigurationError(f"[attackers] id {cid} is not a behavior model: {behavior!r}")
        if not (math.isfinite(self.usage_min) and math.isfinite(self.usage_max)):
            raise ConfigurationError(
                f"usage bounds must be finite, got [{self.usage_min}, {self.usage_max}]"
            )
        if self.usage_min < 0:
            raise ConfigurationError(
                f"usage_min must be >= 0, got {self.usage_min}"
            )
        if not self.usage_min < self.usage_max:
            raise ConfigurationError(
                f"usage_min ({self.usage_min}) must be < usage_max ({self.usage_max})"
            )
        if self.periods_per_day <= 0:
            raise ConfigurationError(
                f"periods_per_day must be > 0, got {self.periods_per_day}"
            )
        attackers = (pair for pair in pairs if pair[1] != Multiplicative(1.0))
        object.__setattr__(self, "attackers", tuple(sorted(attackers, key=lambda pair: pair[0])))
        check_window_size(self.consumers, self.periods_per_day, self.total_periods)
        if self.months < 1:
            raise ConfigurationError(f"months must be >= 1, got {self.months}")
        if self.mode not in (THRESHOLD_MODE, MOST_NEGATIVE_MODE):
            raise ConfigurationError(f"unknown detection mode {self.mode!r}")
        if self.min_samples < 2:
            raise ConfigurationError(f"min_samples must be >= 2, got {self.min_samples}")
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigurationError(f"threshold must be in (0, 1], got {self.threshold}")
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
    def malicious_ids(self) -> set[int]:
        return {cid for cid, _ in self.attackers}

    @property
    def total_periods(self) -> int:
        return DAYS_PER_MONTH * self.periods_per_day * self.months

    @property
    def usage_span(self) -> float:
        """The width of every period's usage range.  With elasticity set, a tariff above the
        level scales ``usage_max`` by the factor, and the top stays at least 1e-12 above ``usage_min``."""
        low, high = self.usage_min, self.usage_max
        if self.elasticity_factor is None:
            return high - low
        factor = self.elasticity_factor if self.tariff > self.elasticity_level else 1.0
        return max(high * factor, low + 1e-12) - low


# Each field's type: `__post_init__` coerces by it and `config` reads and writes by it.
FIELD_TYPES = get_type_hints(ScenarioConfig)


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
    usage = config.usage_min + config.usage_span
    value = usage  # the largest usage or report of any consumer in any period
    for _, b in config.attackers:
        if isinstance(b, Multiplicative):
            value = max(value, b.alpha * usage)
        elif isinstance(b, (FixedOffset, RandomOffset)) and b.direction == "add":
            value = max(value, usage + (b.eta if isinstance(b, FixedOffset) else b.theta_max))
    total = value * config.consumers
    sums = {
        "regional totals": total,
        "monthly bills": value * config.tariff * DAYS_PER_MONTH * config.periods_per_day,
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

    Usage is ``u[t, c] * config.usage_span + config.usage_min`` (`_scale`),
    where ``u`` is ``draws``, the ``(periods, n)`` block of uniforms that the
    generator in ``draws.state`` draws next.
    ``dishonest`` maps each misreporting consumer's id to its reports, and
    ``sampled_pos`` holds the sampled consumer's id (ids are positions).
    `usage_months` and `report_months` draw the usage again from that state,
    one month at a time; the sampled reports and the regional totals are
    computed on first access.  A Monte-Carlo trial reads no totals.
    """

    config: ScenarioConfig
    dishonest: dict[int, np.ndarray]
    leakage: np.ndarray
    sampled_pos: np.ndarray
    draws: UniformBlock

    @cached_property
    def sampled_reports(self) -> np.ndarray:
        """Each period's sampled report: the sampled entry of ``draws``, scaled,
        or the misreporting consumer's report."""
        reports = self.draws.read(self.sampled_pos, self.config.usage_min, self.config.usage_span)
        for pos, reported in self.dishonest.items():
            hit = self.sampled_pos == pos
            reports[hit] = reported[hit]
        return reports

    def usage_months(self) -> Iterator[np.ndarray]:
        """Each month's ``(periods, n)`` usage block, new each time, in period order,
        drawn from the block's state."""
        rng = self.draws.generator(0)
        c = self.config
        month_len = DAYS_PER_MONTH * c.periods_per_day
        for _ in range(len(self.leakage) // month_len):
            yield _scale(rng.random((month_len, c.consumers)), c.usage_min, c.usage_span)

    def report_months(self) -> Iterator[np.ndarray]:
        """Each month's ``(periods, n)`` reports block, in period order: its
        fresh usage block with the misreporting columns written over in place."""
        month_len = DAYS_PER_MONTH * self.config.periods_per_day
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


def simulate_window(
    config: ScenarioConfig,
    trial_seed: int | np.random.SeedSequence,
    draws: UniformBlock | None = None,
) -> WindowData:
    """Generate usage and reports for every period and aggregate them.

    The window's stream is the ``PCG64`` generator of ``trial_seed`` (an int ``n`` seeds it
    as ``SeedSequence([n])`` would).  Draw order is fixed: the usage matrix first
    (period-major), then each misreporting consumer's random offsets in consumer order, then
    the per-period sampled indices.  The usage matrix is not drawn: the offsets and
    positions come from `UniformBlock.generator` after it, and only the misreporting
    consumers' columns, and the sampled entries once `WindowData.sampled_reports` is read,
    are computed from the seed's state, bit for bit the values the draw would give.
    ``draws`` is that state's usage block when windows of the same seed and consumer count
    share it; by default this window computes its own.
    """
    n, periods, low = config.consumers, config.total_periods, config.usage_min

    state = np.random.PCG64(trial_seed).state
    if draws is None:
        draws = UniformBlock(state, periods, n)
    elif (draws.state, draws.n) != (state, n):
        raise ValueError("the shared usage draws come from another generator state or region size")
    rng = draws.generator(periods)
    span = config.usage_span  # every period's: `_scale` gives the uniform draws on it bit for bit

    leakage = np.zeros(periods)
    dishonest: dict[int, np.ndarray] = {}
    for cid, behavior in config.attackers:
        actual = _scale(draws.column(cid)[:periods].copy(), low, span)
        reported = apply_behavior(behavior, actual, rng)
        dishonest[cid] = reported
        leakage = leakage + (actual - reported)

    return WindowData(
        config=config,
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
        return detect_region(self.counts, corr, th=c.threshold, min_samples=c.min_samples)

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
    leaves the low-report ones to `TrialOutcome.report`.  Threshold mode detects the
    `flagged` consumers, those `detect_region` labels malicious; a most-negative trial
    without evidence selects None, a miss.
    ``draws`` is ``trial_seed``'s usage block when trials share it (`simulate_window`).
    """
    window = simulate_window(config, trial_seed, draws)
    samples = (window.sampled_pos, window.sampled_reports, window.leakage)
    counts, corr = correlate(*samples, config.consumers)
    filtered = config.low_report_quantile is not None
    if config.mode == MOST_NEGATIVE_MODE:
        selected = most_negative(counts, corr, config.min_samples)
        detected = frozenset() if selected is None else frozenset({selected})
        corr = None if filtered else corr
    else:
        corr = _low_report_corr(config, counts, samples) if filtered else corr
        flags = flagged(has_evidence(counts, corr, config.min_samples), corr, config.threshold)
        detected = frozenset(np.flatnonzero(flags).tolist())
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


def _attacker_pairs(
    cells: Sequence[ScenarioConfig], seed: np.random.SeedSequence, draws: UniformBlock
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each one-attacker cell's attacker reports and leakage on the periods the attacker
    is sampled, in period order, bit for bit those of `simulate_window`.  After an attack
    that draws nothing the positions come from `UniformBlock.generator` past the usage
    rows, so such cells of one window length share one draw of them, and each
    misreports only the attacker's sampled rows.  A random offset cell draws its offsets
    before the positions, so it simulates its own window."""
    positions: dict[int, np.ndarray] = {}
    rows: dict[tuple[int, int], np.ndarray] = {}
    pairs = []
    for c in cells:
        ((cid, behavior),) = c.attackers
        periods = c.total_periods
        if isinstance(behavior, RandomOffset):
            window = simulate_window(c, seed, draws)
            hit = window.sampled_pos == cid
            pairs.append((window.dishonest[cid][hit], window.leakage[hit]))
            continue
        if periods not in positions:
            positions[periods] = draws.generator(periods).integers(0, draws.n, size=periods)
        if (periods, cid) not in rows:
            rows[periods, cid] = np.flatnonzero(positions[periods] == cid)
        actual = _scale(draws.column(cid)[rows[periods, cid]], c.usage_min, c.usage_span)
        reported = apply_behavior(behavior, actual, None)  # draws nothing
        pairs.append((reported, actual - reported))
    return pairs


def _batch_successes(
    cells: Sequence[ScenarioConfig], seed: np.random.SeedSequence, draws: UniformBlock
) -> list[bool]:
    """``trial_success(run_trial(c, seed, draws))`` for threshold cells with one
    misreporting consumer: its attacker flagged.  Only the attacker's sampled periods are
    correlated (`_attacker_pairs`), one group per cell in one `correlate` call, which sums
    each group in period order and so gives a cell the bits a lone call gives it; a cell
    with the low-report filter takes its low-report pairs with `pearson`."""
    pairs = _attacker_pairs(cells, seed, draws)
    groups = np.repeat(np.arange(len(cells)), [len(reports) for reports, _ in pairs])
    reports, leakage = (np.concatenate(column) for column in zip(*pairs))
    counts, corr = correlate(groups, reports, leakage, len(cells))
    for k, c in enumerate(cells):
        if c.low_report_quantile is not None:
            corr[k] = low_report_correlations(pairs[k : k + 1], counts[k : k + 1], c.low_report_quantile,
                                              c.min_samples)[0]
    min_samples, threshold = np.array([c.min_samples for c in cells]), np.array([c.threshold for c in cells])
    return flagged(has_evidence(counts, corr, min_samples), corr, threshold).tolist()


def _index_successes(cells: Sequence[ScenarioConfig], index: int) -> list[bool]:
    """Trial ``index`` of every cell, in the order given.  The cells share the master seed
    and the consumer count, so one usage block serves them all: its row starts and each
    attacker's column are computed once.  Threshold cells with one misreporting consumer
    are scored together (`_batch_successes`); only the others run in full."""
    seed = derive_trial_seed(cells[0].master_seed, index)
    periods = max(c.total_periods for c in cells)
    draws = UniformBlock(np.random.PCG64(seed).state, periods, cells[0].consumers)
    batched = [c.mode == THRESHOLD_MODE and len(c.attackers) == 1 for c in cells]
    batch = [c for c, b in zip(cells, batched) if b]
    oks = iter(_batch_successes(batch, seed, draws) if batch else [])
    return [next(oks) if b else trial_success(run_trial(c, seed, draws)) for c, b in zip(cells, batched)]


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
    if len({(c.master_seed, c.consumers, c.repetitions) for c in configs}) > 1:
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
    window = simulate_window(config, trial_seed)
    month_len = DAYS_PER_MONTH * config.periods_per_day
    costs = np.array([accrue(reports, config.tariff) for reports in window.report_months()])
    return window, issue_bills(costs, month_len)


def concentration_experiment(
    config: ScenarioConfig, durations: Iterable[int]
) -> dict[int, DetectionReport]:
    """Per-consumer correlations from one seeded trial at each duration (months); every
    duration's config is built and checked before the first trial."""
    return {
        c.months: run_trial(c, derive_trial_seed(config.master_seed, c.months)).report
        for c in [replace(config, months=m) for m in durations]
    }


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
def case_behavior(case: str, config: ScenarioConfig) -> BehaviorModel:
    """Standard attacker behavior for the three benchmark cases."""
    midpoint = 0.5 * (config.usage_min + config.usage_max)
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
    mode = MOST_NEGATIVE_MODE if case == "III" else THRESHOLD_MODE
    return replace(base, attackers={attacker_id: case_behavior(case, base)}, mode=mode)


def probability_table(
    base: ScenarioConfig,
    attacker_id: int,
    cases: Sequence[str] = ("I", "II", "III"),
    durations: Sequence[int] = (1, 3, 6, 12),
    threads: int = 1,
) -> list[tuple[str, int, ProbabilityEstimate]]:
    """Correct-detection probability for each case and duration."""
    cells = [(case, months) for case in cases for months in durations]
    scenarios = [replace(case_config(base, case, attacker_id), months=m) for case in cases for m in durations]
    return [(*cell, est) for cell, est in zip(cells, _estimate(scenarios, threads))]
