"""Unsupervised recovery of the number of switching linear mechanisms.

For each candidate count k (ascending), the pipeline runs a budgeted number
of EM restarts seeded from random point pairs, keeps the restart with the
best mixture log-likelihood, assigns points to mechanisms where one
mechanism's responsibility clearly dominates, and Anderson-Darling-tests
each mechanism's residuals against the Laplace distribution.  The first k
whose mechanisms all pass is returned; if none passes, no decision is made
(k_hat = 0).  The restart budget per k comes from either the worst-case
bound or an empirically measured convergence rate.

A candidate k's restarts are independent trials, each with its own spawned
random stream, so a stage with at least four restarts per worker fans them
out over a process pool of up to the usable cores (the process's CPU
affinity, so ``taskset`` limits them).  The parent reduces the results in
restart order by the serial rule, so the winner is the same bit for bit
whatever the core count.  A smaller stage, and any stage run inside a
worker process, stays in-process, so pools never nest.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping

import numpy as np

from . import reference_values
from .bounds import empirical_resamples, lower_bound_success_prob, required_resamples
from .datagen import Dataset
from .em import (
    EMConfig,
    MixtureState,
    draw_seed_state,
    init_from_pairs,
    responsibilities,
    run_em,
)
from .stats import ADTestResult, anderson_darling_laplace

__all__ = [
    "DiscoveryConfig",
    "KDiagnostics",
    "DiscoveryResult",
    "resamples_for",
    "lo_ransac_best",
    "dominance_filter",
    "validate_k",
    "recover_mechanism_count",
]

# A stage fans out only with at least this many restarts per worker process:
# on a 2-core Xeon, starting a pool of two workers costs 8-10 ms, a k = 1
# restart on 100 points about 0.5 ms, and a k = 4 restart on 2000 points
# 45-50 ms.
_MIN_RESTARTS_PER_WORKER = 4

# Tasks per worker of a fanned-out stage.  Restart costs vary, so several
# tasks per worker even out the load; each task carries the dataset once.
_TASKS_PER_WORKER = 4


@dataclass(frozen=True)
class DiscoveryConfig:
    """Knobs of the mechanism-count recovery pipeline.

    ``resample_mode`` selects the restart budget: "theoretical" uses the
    worst-case bound at ``max_class_dev``; "empirical" uses measured
    single-restart convergence rates (``empirical_rates`` mapping k to a
    rate, defaulting to the published reference rates at the nearest
    tabulated deviation).  ``dominance_rule`` picks the point filter:
    "relative" keeps points whose runner-up responsibility is below
    (1 - margin) times the top one; "remainder" requires the runner-up to
    stay below margin times (1 - top).
    """

    k_max: int = 4
    confidence: float = 0.95
    max_class_dev: float = 0.0
    resample_mode: str = "empirical"
    empirical_rates: Mapping[int, float] | None = None
    dominance_margin: float = 0.4
    min_class_points: int = 20
    master_seed: int = 0
    dominance_rule: str = "relative"

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if not 0.0 < self.dominance_margin < 1.0:
            raise ValueError(
                f"dominance margin must lie in (0, 1), got {self.dominance_margin}"
            )
        if self.resample_mode not in ("theoretical", "empirical"):
            raise ValueError(f"unknown resample mode {self.resample_mode!r}")
        top = max(reference_values.MECHANISM_COUNTS)
        if self.resample_mode == "empirical" and self.empirical_rates is None and self.k_max > top:
            raise ValueError(
                f"reference rates stop at k = {top}, got k_max = {self.k_max}; "
                "give empirical rates or use the theoretical mode"
            )
        if self.dominance_rule not in ("relative", "remainder"):
            raise ValueError(f"unknown dominance rule {self.dominance_rule!r}")


@dataclass(frozen=True)
class KDiagnostics:
    """Everything recorded about one candidate mechanism count.

    ``resamples`` is the restart budget, not the number of restarts run: a
    k = 1 stage may stop early (see :func:`lo_ransac_best`).
    """

    state: MixtureState
    resamples: int
    ad_results: tuple[ADTestResult | None, ...]
    passed: bool


@dataclass(frozen=True)
class DiscoveryResult:
    """Recovered mechanism count (0 = no decision) plus per-k diagnostics."""

    k_hat: int
    per_k: dict[int, KDiagnostics] = field(default_factory=dict)

    @property
    def decided(self) -> bool:
        return self.k_hat > 0


def resamples_for(k: int, config: DiscoveryConfig) -> int:
    """Restart budget for candidate count ``k`` under the configured mode."""
    if config.resample_mode == "theoretical":
        p = lower_bound_success_prob(k, config.max_class_dev)
        if p <= 0:
            raise ValueError("class deviation leaves no valid restart probability")
        return required_resamples(p, config.confidence)
    if config.empirical_rates is not None:
        rate = config.empirical_rates[k]
    else:
        d = reference_values.nearest_deviation(config.max_class_dev)
        rate = reference_values.EM_CONVERGENCE_RATES[d][k - 1]
    return empirical_resamples(rate, config.confidence)


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one (so ``taskset`` limits it), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_tasks(fn, tasks: list, workers: int, chunksize: int = 1) -> list:
    """``[fn(t) for t in tasks]``, over a pool of at most ``workers`` processes.

    Runs in-process when one worker would do, and always inside a worker
    process, so pools never nest.  The pool never outnumbers the tasks: with
    the fork start method every worker is started at the first submit,
    whatever the task count.
    """
    workers = min(workers, len(tasks))
    if workers <= 1 or multiprocessing.parent_process() is not None:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


def _run_restarts(task) -> list[tuple[tuple, float] | None]:
    """EM restarts of ``(data, k, children)``, one per child generator in
    order: None when every seed draw was degenerate, else the fitted
    mechanisms and their log-likelihood.

    At k = 1, on a dataset whose y values hold at least two distinct values,
    the loop stops after the first restart that draws a usable seed, because
    every later one would return the same outcome (or raise, where its seed
    line's residuals overflow a float).  A usable seed pair has two distinct
    x values, so x varies too.  The projected seed gives every point a
    responsibility of exactly 1, so EM step 1 fits unit weights whatever the
    seed: the weight sum m >= 2 freezes nothing, and neither direction's
    ``l1_fit`` is degenerate when x and y both vary.  The run then stops
    after that step (see :func:`run_em`), so its mechanisms and
    log-likelihood do not depend on the seed.  When all y are equal, every
    restart runs.
    """
    data, k, children = task
    config = EMConfig.for_components(k)
    seed_free = k == 1 and not np.all(data.y == data.y[0])
    outcomes = []
    for child in children:
        state = draw_seed_state(data, k, child, init_from_pairs)
        if state is None:
            outcomes.append(None)
            continue
        fitted = run_em(data, state, config)
        outcomes.append((fitted.mechanisms, fitted.log_likelihood))
        if seed_free:
            break
    return outcomes


def lo_ransac_best(
    data: Dataset, k: int, n_resamples: int, rng: np.random.Generator
) -> MixtureState:
    """Best-of-``n_resamples`` locally optimized restarts.

    Each restart seeds k mechanisms from 2k distinct random points, runs the
    fixed-step EM, and the restart with the highest mixture log-likelihood
    wins (ties keep the earliest restart).  Restart streams are spawned from
    ``rng`` so results do not depend on evaluation order.

    With at least four restarts per worker and two usable cores (see
    :func:`usable_cores`), the restarts run as contiguous slices over a
    process pool; otherwise, and inside a worker process, they run here.
    Either way the outcomes are reduced in restart order by the same rule,
    and the winner's responsibilities are recomputed from its mechanisms,
    which gives the bits the EM run ended with.  So the result does not
    depend on the core count.

    At k = 1 a slice may stop after its first usable restart (see
    :func:`_run_restarts`): every later usable restart would return the same
    mechanisms and log-likelihood, so under the strict ``>`` it could not
    replace the first, also when that log-likelihood is NaN.  The winner is
    the one the full budget gives.
    """
    if n_resamples < 1:
        raise ValueError(f"need at least one restart, got {n_resamples}")
    if data.m < 2 * k:
        raise ValueError(f"need at least {2 * k} points for k={k}, got {data.m}")
    children = rng.spawn(n_resamples)
    workers = min(usable_cores(), n_resamples // _MIN_RESTARTS_PER_WORKER)
    n_tasks = workers * _TASKS_PER_WORKER if workers >= 2 else 1
    cuts = [i * n_resamples // n_tasks for i in range(n_tasks + 1)]
    tasks = [(data, k, children[a:b]) for a, b in zip(cuts, cuts[1:])]
    best = None
    for outcome in chain.from_iterable(map_tasks(_run_restarts, tasks, workers)):
        if outcome is not None and (best is None or outcome[1] > best[1]):
            best = outcome
    if best is None:
        raise ValueError("every restart drew degenerate seed pairs")
    mechanisms, log_likelihood = best
    return MixtureState(mechanisms, responsibilities(data, mechanisms), log_likelihood)


def dominance_filter(
    data: Dataset,
    responsibilities: np.ndarray,
    class_index: int,
    margin: float = 0.4,
    rule: str = "relative",
) -> np.ndarray:
    """Indices of points clearly owned by ``class_index``.

    A point belongs to the class when it is the argmax of the point's
    responsibilities and the runner-up responsibility is small enough:
    below (1 - margin) * top for the "relative" rule, below
    margin * (1 - top) for the "remainder" variant.  With a single class
    every point is kept (the runner-up is defined as 0).
    """
    resp = np.asarray(responsibilities, dtype=float)
    owner = resp.argmax(axis=1)
    top = resp.max(axis=1)
    if resp.shape[1] == 1:
        runner = np.zeros(len(resp))
    else:
        part = np.partition(resp, -2, axis=1)
        runner = part[:, -2]
    if rule == "relative":
        clear = runner < (1.0 - margin) * top
    elif rule == "remainder":
        clear = runner < margin * (1.0 - top)
    else:
        raise ValueError(f"unknown dominance rule {rule!r}")
    return np.flatnonzero((owner == class_index) & clear)


def validate_k(
    data: Dataset, state: MixtureState, config: DiscoveryConfig
) -> tuple[bool, tuple[ADTestResult | None, ...]]:
    """Residual validation of a fitted mixture.

    Every mechanism must keep at least ``min_class_points`` dominance-
    filtered points and their residuals (in the mechanism's own direction)
    must pass the Laplace Anderson-Darling test.  Mechanisms skipped for
    lack of points report ``None`` in the per-mechanism results.
    """
    results: list[ADTestResult | None] = []
    passed = True
    for j, mech in enumerate(state.mechanisms):
        idx = dominance_filter(
            data, state.responsibilities, j, config.dominance_margin, config.dominance_rule
        )
        if len(idx) < config.min_class_points:
            results.append(None)
            passed = False
            continue
        residuals = mech.residuals(data.x[idx], data.y[idx])
        outcome = anderson_darling_laplace(residuals)
        results.append(outcome)
        passed = passed and outcome.passed
    return passed, tuple(results)


def recover_mechanism_count(data: Dataset, config: DiscoveryConfig) -> DiscoveryResult:
    """Ascending-k search for the smallest mechanism count that validates.

    Runs the restart-budgeted RANSAC/EM for k = 1..k_max in order and
    returns the first k whose mechanisms all pass residual validation;
    k_hat = 0 (no decision) when none does.  Fully deterministic given the
    dataset and ``config.master_seed``.
    """
    if data.m == 0:
        raise ValueError("dataset is empty")
    per_k: dict[int, KDiagnostics] = {}
    for k in range(1, config.k_max + 1):
        if data.m < 2 * k:
            break
        n_resamples = resamples_for(k, config)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.master_seed, spawn_key=(k,))
        )
        best = lo_ransac_best(data, k, n_resamples, rng)
        passed, ad_results = validate_k(data, best, config)
        per_k[k] = KDiagnostics(best, n_resamples, ad_results, passed)
        if passed:
            return DiscoveryResult(k, per_k)
    return DiscoveryResult(0, per_k)
