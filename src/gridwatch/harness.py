"""Scenario orchestration: seeded windows, trials, Monte-Carlo estimates and
the paper's experiments, all run on a `config.ScenarioConfig`.

A trial computes only the usage entries it reads and the one correlation pass its
detector reads (every sampled pair, or the low-report ones), and scores the result
against the known attacker set; billing and records read the usage a bounded row
chunk at a time.  A window is a function of its config and its seed alone: its
stream is the seed's usage block and the `UniformBlock.generator` after it, and it
takes the seed or that block.  The block holds unit draws; `_usage` puts them on
the region's usage range.

Monte-Carlo repetitions use seeds derived injectively from
``(master_seed, trial_index)`` so they can run in any order or in parallel
without changing the result; a pool runs at most `usable_cpus` workers, the
CPUs this process may run on.  The cells (attack case and duration) of one
estimate share the master seed and the consumer count, so trial ``i`` of every
cell reads one shared usage block: its row starts and each column it is asked
for are computed once, and every cell reads prefixes.  A cell reads only what
its verdict depends on (`_index_successes`): a threshold cell whose one
attacker draws nothing correlates that attacker alone, all such cells in one
batch, and reads no sampled entry (`_batch_successes`).  Those cells of one
window length are in one state after the usage rows, so they share one draw of
sampled positions.  Every other cell runs the full trial, with its own offsets,
positions and sampled entries.  Every stream is the one a lone trial draws.
"""

from __future__ import annotations

import ctypes
import math
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._pcg64 import UniformBlock
from .billing import accrue, issue_bills
from .config import MOST_NEGATIVE_MODE, THRESHOLD_MODE, ScenarioConfig
from .detection import (
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
from .model import FixedOffset, Multiplicative, RandomOffset, apply_behavior


def derive_trial_seed(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """Injective (master_seed, trial_index) -> independent random stream."""
    return np.random.SeedSequence([master_seed, trial_index])


def _usage(config: ScenarioConfig, uniforms: np.ndarray) -> np.ndarray:
    """Usage from its uniforms, in place, in ``Generator.uniform``'s two steps: bit for
    bit what ``uniform(usage_min, usage_min + usage_span)`` draws from the same state."""
    uniforms *= config.usage_span
    uniforms += config.usage_min
    return uniforms


# The most entries (384 KiB of floats) of a usage or reports block that `WindowData.chunks` yields.
_CHUNK_ENTRIES = 49_152


@dataclass(frozen=True)
class WindowData:
    """Whole-window simulation arrays (one entry per period).

    Usage is `_usage` of ``draws``, the ``(periods, n)`` block of uniforms that
    the generator in ``draws.state`` draws next.
    ``dishonest`` maps each misreporting consumer's id to its reports, and
    ``sampled_pos`` holds the sampled consumer's id (ids are positions).
    `chunks` draws the usage again from that state, a bounded row chunk at a time;
    the sampled reports, the regional totals, `correlations` and `evidence` are
    computed on first access.  A Monte-Carlo trial reads no totals.
    """

    config: ScenarioConfig
    dishonest: dict[int, np.ndarray]
    leakage: np.ndarray
    sampled_pos: np.ndarray
    draws: UniformBlock

    @cached_property
    def sampled_reports(self) -> np.ndarray:
        """Each period's sampled report: the sampled entry's usage, or the
        misreporting consumer's report."""
        reports = _usage(self.config, self.draws.read(self.sampled_pos))
        for pos, reported in self.dishonest.items():
            hit = self.sampled_pos == pos
            reports[hit] = reported[hit]
        return reports

    @cached_property
    def correlations(self) -> tuple[np.ndarray, np.ndarray]:
        """Every consumer's ``(counts, corr)``, from one `correlate` over the sampled pairs."""
        return correlate(self.sampled_pos, self.sampled_reports, self.leakage, self.config.consumers)

    @cached_property
    def evidence(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(counts, corr)`` that threshold labels are taken on: `correlations`, or with
        ``low_report_quantile`` set each consumer's correlation over its low-report pairs."""
        c = self.config
        if c.low_report_quantile is None:
            return self.correlations
        series = series_from_arrays(self.sampled_pos, self.sampled_reports, self.leakage, c.consumers)
        counts = np.bincount(self.sampled_pos, minlength=c.consumers)
        return counts, low_report_correlations(series, c.low_report_quantile, c.min_samples)

    def chunks(self, reports: bool = False) -> Iterator[tuple[int, np.ndarray]]:
        """``(start, block)`` pairs in period order: the usage of periods ``start`` on, or
        with ``reports`` their reports (the misreporting columns written over in place),
        drawn again from the block's state.  Each block is new, of at most `_CHUNK_ENTRIES`
        entries but one row at least, and within one month."""
        rng = self.draws.generator(0)
        c = self.config
        rows = max(1, _CHUNK_ENTRIES // c.consumers)
        for month in range(0, c.total_periods, c.month_periods):
            for start in range(month, month + c.month_periods, rows):
                k = min(rows, month + c.month_periods - start)
                block = _usage(c, rng.random((k, c.consumers)))
                for pos, reported in self.dishonest.items() if reports else ():
                    block[:, pos] = reported[start : start + k]
                yield start, block

    @cached_property
    def actual_total(self) -> np.ndarray:
        total = np.empty(self.config.total_periods)
        for start, usage in self.chunks():
            total[start : start + len(usage)] = usage.sum(axis=1)
        return total

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
    trial_seed: int | np.random.SeedSequence | UniformBlock,
) -> WindowData:
    """Generate usage and reports for every period and aggregate them.

    The window's stream is the ``PCG64`` generator of ``trial_seed`` (an int ``n`` seeds it
    as ``SeedSequence([n])`` would).  Draw order is fixed: the usage matrix first
    (period-major), then each misreporting consumer's random offsets in consumer order, then
    the per-period sampled indices.  The usage matrix is not drawn: the offsets and
    positions come from `UniformBlock.generator` after it, and only the misreporting
    consumers' columns, and the sampled entries once `WindowData.sampled_reports` is read,
    are computed from the seed's state, bit for bit the values the draw would give.
    ``trial_seed`` may be the seed's usage block itself (`UniformBlock.of_seed`), which
    windows of the same seed and consumer count share; a seed gets a block of its own.
    """
    n, periods = config.consumers, config.total_periods

    draws = (trial_seed if isinstance(trial_seed, UniformBlock)
             else UniformBlock.of_seed(trial_seed, periods, n))
    if draws.n != n:
        raise ValueError(f"a usage block of {draws.n} consumers cannot serve a region of {n}")
    rng = draws.generator(periods)

    leakage = np.zeros(periods)
    dishonest: dict[int, np.ndarray] = {}
    for cid, behavior in config.attackers:
        actual = _usage(config, draws.column(cid)[:periods].copy())
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
    """One trial's verdict against the known attacker set, and the window it was taken on.

    `report` labels every consumer on first access, from `WindowData.evidence`.  Only
    the two sets take part in ``==``, so equal outcomes are equal verdicts.
    """

    true_malicious: frozenset[int]
    detected: frozenset[int]
    window: WindowData = field(compare=False, repr=False)

    @cached_property
    def report(self) -> DetectionReport:
        c = self.window.config
        return detect_region(*self.window.evidence, th=c.threshold, min_samples=c.min_samples)

    @property
    def outcome_class(self) -> str:
        """'exact', 'extra_benign', or 'missed_attacker' (trumps extra labels)."""
        if not self.true_malicious <= self.detected:
            return "missed_attacker"
        return "extra_benign" if self.detected - self.true_malicious else "exact"


def run_trial(
    config: ScenarioConfig,
    trial_seed: int | np.random.SeedSequence | UniformBlock,
) -> TrialOutcome:
    """One fully deterministic end-to-end trial, kept with its window.

    Most-negative mode selects from the window's `WindowData.correlations`, threshold
    mode detects the `flagged` consumers of its `WindowData.evidence` (those
    `detect_region` labels malicious); a most-negative trial leaves any low-report work
    to `TrialOutcome.report`, and one without evidence selects None, a miss.
    ``trial_seed`` is a seed or its shared usage block (`simulate_window`).
    """
    window = simulate_window(config, trial_seed)
    if config.mode == MOST_NEGATIVE_MODE:
        selected = most_negative(*window.correlations, config.min_samples)
        detected = frozenset() if selected is None else frozenset({selected})
    else:
        counts, corr = window.evidence
        flags = flagged(has_evidence(counts, corr, config.min_samples), corr, config.threshold)
        detected = frozenset(np.flatnonzero(flags).tolist())
    return TrialOutcome(frozenset(window.dishonest), detected, window)


def trial_success(outcome: TrialOutcome) -> bool:
    """Correct-detection criterion for probability estimates.

    Single-attacker scenarios count a trial correct when the attacker is among the
    detected (threshold mode: labeled malicious; most-negative mode: selected).
    Multi-attacker scenarios require the detected set to be the attacker set.
    """
    if len(outcome.true_malicious) == 1:
        return outcome.true_malicious <= outcome.detected
    return outcome.detected == outcome.true_malicious


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
    cells: Sequence[ScenarioConfig], draws: UniformBlock
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each cell's attacker reports and leakage on the periods the attacker is sampled,
    in period order, bit for bit those of `simulate_window`.  Each cell's one attack
    draws nothing, so its positions are the first draw of `UniformBlock.generator` past
    the usage rows: cells of one window length share one draw of them, and each
    misreports only the attacker's sampled rows."""
    positions: dict[int, np.ndarray] = {}
    rows: dict[tuple[int, int], np.ndarray] = {}
    pairs = []
    for c in cells:
        ((cid, behavior),) = c.attackers
        periods = c.total_periods
        if periods not in positions:
            positions[periods] = draws.generator(periods).integers(0, draws.n, size=periods)
        if (periods, cid) not in rows:
            rows[periods, cid] = np.flatnonzero(positions[periods] == cid)
        actual = _usage(c, draws.column(cid)[rows[periods, cid]])
        reported = apply_behavior(behavior, actual, None)  # draws nothing
        pairs.append((reported, actual - reported))
    return pairs


def _batch_successes(cells: Sequence[ScenarioConfig], draws: UniformBlock) -> list[bool]:
    """``trial_success(run_trial(c, draws))`` for threshold cells whose one attacker
    draws nothing: that attacker flagged.  Only the attacker's sampled periods are
    correlated (`_attacker_pairs`), one group per cell in one `correlate` call, which sums
    each group in period order and so gives a cell the bits a lone call gives it; a cell
    with the low-report filter takes its low-report pairs with `pearson`."""
    pairs = _attacker_pairs(cells, draws)
    groups = np.repeat(np.arange(len(cells)), [len(reports) for reports, _ in pairs])
    reports, leakage = (np.concatenate(column) for column in zip(*pairs))
    counts, corr = correlate(groups, reports, leakage, len(cells))
    for k, c in enumerate(cells):
        if c.low_report_quantile is not None:
            corr[k] = low_report_correlations(pairs[k : k + 1], c.low_report_quantile, c.min_samples)[0]
    min_samples, threshold = np.array([c.min_samples for c in cells]), np.array([c.threshold for c in cells])
    return flagged(has_evidence(counts, corr, min_samples), corr, threshold).tolist()


def _index_successes(cells: Sequence[ScenarioConfig], index: int) -> list[bool]:
    """Trial ``index`` of every cell, in the order given.  The cells share the master seed
    and the consumer count, so one usage block serves them all: its row starts and each
    attacker's column are computed once.  A cell is batched (`_batch_successes`) exactly
    when it is in threshold mode and has one attacker, which draws nothing (it is not a
    `RandomOffset`); every other cell runs the full trial."""
    seed = derive_trial_seed(cells[0].master_seed, index)
    periods = max(c.total_periods for c in cells)
    draws = UniformBlock.of_seed(seed, periods, cells[0].consumers)
    batched = [c.mode == THRESHOLD_MODE and len(c.attackers) == 1
               and not isinstance(c.attackers[0][1], RandomOffset) for c in cells]
    batch = [c for c, b in zip(cells, batched) if b]
    oks = iter(_batch_successes(batch, draws) if batch else [])
    return [next(oks) if b else trial_success(run_trial(c, draws)) for c, b in zip(cells, batched)]


def _count_successes(job: tuple[tuple[ScenarioConfig, ...], int, int]) -> list[int]:
    """Each cell's successes over trial indices ``start..stop-1``."""
    cells, start, stop = job
    return [sum(oks) for oks in zip(*(_index_successes(cells, i) for i in range(start, stop)))]


def _keep_freed_heap() -> bool:
    """Where glibc's ``mallopt`` exists, set ``M_MMAP_THRESHOLD`` (-3) to 4 MB and
    ``M_TRIM_THRESHOLD`` (-1) to 64 MB, so that freed whole-window arrays (276 KB at 34,560
    rows) stay in this process's heap, not go back to the OS and fault in again; return
    whether it did.  Either alone would freeze the dynamic mmap threshold at 128 KiB."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    return mallopt is not None and mallopt(-3, 4_000_000) == 1 and mallopt(-1, 64_000_000) == 1


def _start_worker() -> None:
    """Pool initializer: keep the freed heap, and leave SIGINT to the parent, which
    stops the workers itself (`_estimate`)."""
    _keep_freed_heap()
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _stop_workers(pool: ProcessPoolExecutor) -> None:
    """Cancel ``pool``'s queued jobs and end its workers without waiting for the jobs they
    hold, as Python 3.14's ``terminate_workers`` does, then wait for its manager thread.
    The workers end once that thread has dropped the cancelled jobs: before 3.12 it
    raises on a cancelled job when it finds a worker gone."""
    workers, manager = list(pool._processes.values()), pool._executor_manager_thread
    pool.shutdown(wait=False, cancel_futures=True)
    while pool._cancel_pending_futures and manager is not None and manager.is_alive():
        time.sleep(0.001)
    for worker in workers:
        worker.terminate()
    if manager is not None:
        manager.join()


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform has one, else the CPU count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _estimate(configs: Sequence[ScenarioConfig], threads: int) -> list[ProbabilityEstimate]:
    """One estimate per config; all their trials share one pool when 2+ workers run.

    The configs form one group: they share the master seed, the consumer count
    and the repetitions (else `ValueError`), and trial ``i`` of every config
    reads one shared usage block (`_index_successes`).  Jobs are trial-index
    ranges, up to ``4 * threads``, over every config, and return one success
    count per config; they run longest first.  More workers than usable CPUs
    would only queue, so ``threads`` is capped at `usable_cpus`.  Each worker
    keeps its freed heap (`_keep_freed_heap`), however it is started, and ignores
    SIGINT: on any exception out of the pool, an interrupt among them, the parent
    stops the workers at once (`_stop_workers`) and re-raises."""
    if len({(c.master_seed, c.consumers, c.repetitions) for c in configs}) > 1:
        raise ValueError("estimated configs must share the master seed, consumer count and repetitions")
    if not configs:
        return []
    threads = min(threads, usable_cpus())
    reps = configs[0].repetitions
    parts = min(reps, 4 * max(threads, 1))
    bounds = [reps * k // parts for k in range(parts + 1)]
    ranges = sorted(zip(bounds, bounds[1:]), key=lambda r: r[1] - r[0], reverse=True)
    jobs = [(tuple(configs), a, b) for a, b in ranges]
    if min(threads, len(jobs)) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs)), initializer=_start_worker) as pool:
            try:
                counts = list(pool.map(_count_successes, jobs))
            except BaseException:
                _stop_workers(pool)
                raise
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

    Returns the window and the `issue_bills` columns.  Each month's costs are accrued
    chunk by chunk (`WindowData.chunks`), each chunk continuing the month's sum."""
    window = simulate_window(config, trial_seed)
    costs = np.empty((config.months, config.consumers))
    for start, reports in window.chunks(reports=True):
        month, offset = divmod(start, config.month_periods)
        costs[month] = accrue(reports, config.tariff, costs[month] if offset else 0.0)
    return window, issue_bills(costs, config.month_periods)


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


def case_config(base: ScenarioConfig, case: str, attacker_id: int) -> ScenarioConfig:
    """Single-attacker benchmark scenario for one case, all others benign.

    Case I under-reports by ×0.1 and Case II subtracts a fixed offset, both
    under the correlation threshold; Case III subtracts a random offset under
    the most-negative selection rule.
    """
    # Both offsets are sized at the midpoint of the region's usage range, so
    # the fixed offset clips the report to zero on roughly half the periods
    # and the random offset's variance is large enough to dominate the benign
    # correlation spread.
    midpoint = 0.5 * (base.usage_min + base.usage_max)
    cases = {
        "I": (Multiplicative(alpha=0.1), THRESHOLD_MODE),
        "II": (FixedOffset(eta=midpoint, direction="subtract"), THRESHOLD_MODE),
        "III": (RandomOffset(theta_max=midpoint, direction="subtract"), MOST_NEGATIVE_MODE),
    }
    if case not in cases:
        raise ConfigurationError(f"unknown case {case!r}")
    behavior, mode = cases[case]
    return replace(base, attackers={attacker_id: behavior}, mode=mode)


# Table 1's measurement durations (months).
STANDARD_DURATIONS = (1, 3, 6, 12)


def probability_table(
    base: ScenarioConfig,
    attacker_id: int,
    cases: Sequence[str] = ("I", "II", "III"),
    durations: Sequence[int] = STANDARD_DURATIONS,
    threads: int = 1,
) -> list[tuple[str, int, ProbabilityEstimate]]:
    """Correct-detection probability for each case and duration."""
    cells = [(case, months) for case in cases for months in durations]
    scenarios = [replace(case_config(base, case, attacker_id), months=m) for case in cases for m in durations]
    return [(*cell, est) for cell, est in zip(cells, _estimate(scenarios, threads))]
