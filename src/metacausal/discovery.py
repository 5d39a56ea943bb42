"""Unsupervised recovery of the number of switching linear mechanisms.

For each candidate count k (ascending), the pipeline runs a budgeted number
of EM restarts seeded from random point pairs, keeps the restart with the
best mixture log-likelihood, assigns points to mechanisms where one
mechanism's responsibility clearly dominates, and Anderson-Darling-tests
each mechanism's residuals against the Laplace distribution.  The first k
whose mechanisms all pass is returned; if none passes, no decision is made
(k_hat = 0).  The restart budget per k comes from either the worst-case
bound or an empirically measured convergence rate.

Three settings of the published pipeline are fixed, not configured:

- the restart budget is the RANSAC trial count (Fischler & Bolles 1981) at
  95% confidence, the level of the published budget tables, and the
  empirical mode reads the published single-restart convergence rates
  (``reference_values.EM_CONVERGENCE_RATES``);
- a point is owned by a mechanism when it is the point's top responsibility
  and the runner-up stays below (1 - ``DOMINANCE_MARGIN``) = 0.6 times the
  top (see :func:`dominance_filter`): at k = 2 that keeps points whose top
  responsibility exceeds 0.625, so points near a crossing of two lines,
  whose residuals belong to neither, stay out of the test;
- a mechanism needs ``stats.AD_MIN_POINTS`` dominant points, the smallest
  sample the Anderson-Darling test accepts.

A candidate k's restarts are independent trials, each with its own spawned
random stream, so a stage of k >= 2 with at least four restarts per worker
fans them out over a process pool of the usable cores (the process's CPU
affinity, so ``taskset`` limits them).  One search opens at most one pool,
at its first stage that fans out, and closes it when the search ends; each
worker holds the dataset and its own slope-order cache for every stage it
serves, and the stages run here share one cache too.  The parent reduces
the results in restart order by the serial rule, so the winner is the same
bit for bit whatever the core count.  A k = 1 stage, which stops after its
first usable restart, a smaller stage, and any stage run inside a worker
process stay in-process, so pools never nest.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import reference_values
from .bounds import lower_bound_success_prob, required_resamples
from .datagen import Dataset
from .em import (
    DegeneratePairError,
    MixtureState,
    draw_seed_state,
    init_from_pairs,
    responsibilities,
    run_em,
)
from .stats import AD_MIN_POINTS, ADTestResult, anderson_darling_laplace

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
# on a 2-core Xeon, opening a pool of two workers and closing it costs
# 11-17 ms, a k = 1 restart on 100 points 0.7-0.8 ms, and a k = 4 restart on
# 2000 points 35-55 ms on one core (with the search's slope-order cache warm,
# or filling).
_MIN_RESTARTS_PER_WORKER = 4

# Runner-up margin of the dominance filter (see :func:`dominance_filter`).
DOMINANCE_MARGIN = 0.4

# Slices per worker of a fanned-out stage.  Restart costs vary, so many
# small slices even out the load; a worker keeps its slope orders from one
# slice to the next, so a fine split sorts nothing twice.  On 2 cores a k = 4
# stage of 173-177 restarts runs as 32 slices of 5-6 restarts, 0.2-0.3 s
# each, so the last slice ends soon after the others.
_SLICES_PER_WORKER = 16


@dataclass(frozen=True)
class DiscoveryConfig:
    """Settings of the mechanism-count recovery pipeline that callers set.

    ``resample_mode`` selects the restart budget: "theoretical" uses the
    worst-case bound at ``max_class_dev``; "empirical" uses the published
    single-restart convergence rates at the nearest tabulated deviation,
    which stop at k = 4.  The budget's 95% confidence, the dominance rule
    and the per-mechanism minimum sample are fixed; the module docstring
    gives each one's reason.
    """

    k_max: int = 4
    max_class_dev: float = 0.0
    resample_mode: str = "empirical"
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if not 0.0 <= self.max_class_dev < 1.0:  # also rejects NaN
            raise ValueError(f"max_class_dev must lie in [0, 1), got {self.max_class_dev}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.resample_mode not in ("theoretical", "empirical"):
            raise ValueError(f"unknown resample mode {self.resample_mode!r}")
        top = max(reference_values.MECHANISM_COUNTS)
        if self.resample_mode == "empirical" and self.k_max > top:
            raise ValueError(
                f"reference rates stop at k = {top}, got k_max = {self.k_max}; "
                "use the theoretical mode"
            )


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
        return required_resamples(lower_bound_success_prob(k, config.max_class_dev))
    d = reference_values.nearest_deviation(config.max_class_dev)
    return required_resamples(reference_values.EM_CONVERGENCE_RATES[d][k - 1])


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one (so ``taskset`` limits it), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _TaskPool:
    """Runs ``fn(*held, task)`` for each task of each :meth:`map` call.

    A call runs here when it asks not to fan out, when fewer than two
    ``workers`` are given, or inside a worker process, so pools never nest.
    Otherwise it runs over one process pool of ``workers`` processes, opened
    at the first call that fans out and kept for every later one.  The
    pool's initializer gives each worker ``fn`` and its own copy of ``held``
    as it stands then, so a task carries only itself.  Use it in a ``with``
    block: the pool is shut down, its pending tasks cancelled and its
    workers joined when the block ends, whether it returns or raises.
    """

    def __init__(self, fn, workers: int, held: tuple = ()) -> None:
        self._fn = fn
        self._workers = workers
        self._held = held
        self._pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> _TaskPool:
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def map(self, tasks: list, chunksize: int = 1, fan_out: bool = True) -> list:
        """``[fn(*held, t) for t in tasks]``, in task order."""
        if not fan_out or self._workers < 2 or multiprocessing.parent_process() is not None:
            return [self._fn(*self._held, t) for t in tasks]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers, initializer=_start_worker, initargs=(self._fn, self._held)
            )
        return list(self._pool.map(_run_in_worker, tasks, chunksize=chunksize))


# The function and held arguments of the pool a worker process serves; set by
# the pool's initializer in the worker process only.
_worker: tuple | None = None


def _start_worker(fn, held: tuple) -> None:
    global _worker
    _worker = fn, held


def _run_in_worker(task):
    fn, held = _worker
    return fn(*held, task)


def map_tasks(fn, tasks: list, workers: int, chunksize: int = 1) -> list:
    """``[fn(t) for t in tasks]``, over a pool of at most ``workers`` processes.

    Runs in-process when one worker would do, and always inside a worker
    process, so pools never nest.  The pool never outnumbers the tasks: with
    the fork start method every worker is started at the first submit,
    whatever the task count.  The pool lives for this one call.
    """
    with _TaskPool(fn, min(workers, len(tasks))) as pool:
        return pool.map(tasks, chunksize)


def _run_restarts(
    data: Dataset, orders: tuple[dict, dict], task
) -> list[tuple[tuple, float] | None]:
    """EM restarts of ``task = (k, children)`` on ``data``, one per child
    generator in order: None when every seed draw was degenerate, else the
    fitted mechanisms and their log-likelihood.

    ``orders`` is the slope-order cache of ``data`` (see :func:`em.run_em`).
    It belongs to the search, not to the task, so an anchor sorted by one
    restart is not sorted again by a later restart of any stage run in the
    same process.

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
    k, children = task
    seed_free = k == 1 and not np.all(data.y == data.y[0])
    outcomes = []
    for child in children:
        init = draw_seed_state(data, k, child, init_from_pairs)
        if init is None:
            outcomes.append(None)
            continue
        fitted = run_em(data, init, orders)
        outcomes.append((fitted.mechanisms, fitted.log_likelihood))
        if seed_free:
            break
    return outcomes


def _search_pool(data: Dataset) -> _TaskPool:
    """One search on ``data``: each process holds the dataset and its own
    slope-order pair for every ``(k, children)`` task it runs."""
    return _TaskPool(_run_restarts, usable_cores(), (data, ({}, {})))


def lo_ransac_best(
    data: Dataset,
    k: int,
    n_resamples: int,
    rng: np.random.Generator,
    *,
    _search: _TaskPool | None = None,
) -> MixtureState:
    """Best-of-``n_resamples`` locally optimized restarts.

    Each restart seeds k mechanisms from 2k distinct random points, runs the
    fixed-step EM, and the restart with the highest mixture log-likelihood
    wins (ties keep the earliest restart).  Restart streams are spawned from
    ``rng`` so results do not depend on evaluation order.

    At k >= 2, with at least four restarts per worker and two usable cores
    (see :func:`usable_cores`), the restarts run as contiguous slices over a
    process pool; otherwise, and inside a worker process, they run here.
    Either way the outcomes are reduced in restart order by the same rule,
    and the winner's responsibilities are recomputed from its mechanisms,
    which gives the bits the EM run ended with.  So the result does not
    depend on the core count.  A call runs as a search of one stage: its
    pool and slope-order caches end with it.  (:func:`recover_mechanism_count`
    passes the private ``_search`` so that its stages share them.)

    A k = 1 stage always runs here, as one slice that may stop after its
    first usable restart (see :func:`_run_restarts`): every later usable
    restart would return the same mechanisms and log-likelihood, so under
    the strict ``>`` it could not replace the first, also when that
    log-likelihood is NaN.  The winner is the one the full budget gives, and
    slices over a pool would each run their own first usable restart.

    Raises
    ------
    DegeneratePairError
        If every restart drew only degenerate seed pairs.
    """
    if n_resamples < 1:
        raise ValueError(f"need at least one restart, got {n_resamples}")
    if data.m < 2 * k:
        raise ValueError(f"need at least {2 * k} points for k={k}, got {data.m}")
    children = rng.spawn(n_resamples)
    workers = min(usable_cores(), n_resamples // _MIN_RESTARTS_PER_WORKER) if k > 1 else 1
    n_slices = min(n_resamples, workers * _SLICES_PER_WORKER) if workers >= 2 else 1
    cuts = [i * n_resamples // n_slices for i in range(n_slices + 1)]
    tasks = [(k, children[a:b]) for a, b in zip(cuts, cuts[1:])]
    with _search_pool(data) if _search is None else nullcontext(_search) as search:
        outcomes = search.map(tasks, fan_out=workers >= 2)
    best = None
    for outcome in chain.from_iterable(outcomes):
        if outcome is not None and (best is None or outcome[1] > best[1]):
            best = outcome
    if best is None:
        raise DegeneratePairError("every restart drew degenerate seed pairs")
    mechanisms, log_likelihood = best
    return MixtureState(mechanisms, responsibilities(data, mechanisms), log_likelihood)


def dominance_filter(responsibilities: np.ndarray, class_index: int) -> np.ndarray:
    """Indices of points clearly owned by ``class_index``.

    A point belongs to the class when the class is the argmax of the point's
    responsibilities and the runner-up responsibility is below
    (1 - ``DOMINANCE_MARGIN``) times the top one.  With a single class every
    point is kept (the runner-up is defined as 0).
    """
    resp = np.asarray(responsibilities, dtype=float)
    owner = resp.argmax(axis=1)
    top = resp.max(axis=1)
    runner = np.partition(resp, -2, axis=1)[:, -2] if resp.shape[1] > 1 else np.zeros(len(resp))
    clear = runner < (1.0 - DOMINANCE_MARGIN) * top
    return np.flatnonzero((owner == class_index) & clear)


def validate_k(data: Dataset, state: MixtureState) -> tuple[bool, tuple[ADTestResult | None, ...]]:
    """Residual validation of a fitted mixture.

    Every mechanism must keep at least ``AD_MIN_POINTS`` dominance-filtered
    points, and their residuals (in the mechanism's own direction) must pass
    the Laplace Anderson-Darling test.  Mechanisms skipped for lack of points
    report ``None`` in the per-mechanism results.

    The shipped cutoff assumes a whole i.i.d. Laplace sample, but the filter
    drops the points another line competes for, the tails that A^2 weighs
    most: on ``random_dataset(2, 0.0, seed)``, seeds 3000-3199, the true lines
    fail 103 of 400 times on their filtered points and 22 on their labelled ones.
    """
    results: list[ADTestResult | None] = []
    passed = True
    for j, mech in enumerate(state.mechanisms):
        idx = dominance_filter(state.responsibilities, j)
        if len(idx) < AD_MIN_POINTS:
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
    k_hat = 0 (no decision) when none does, and with empty diagnostics when
    all x values are equal, since no seed pair could then span a line.  A
    stage whose every restart drew only degenerate seed pairs also ends the
    search with k_hat = 0; its k has no diagnostics.  Fully deterministic
    given the dataset and ``config.master_seed``.
    """
    if data.m == 0:
        raise ValueError("dataset is empty")
    per_k: dict[int, KDiagnostics] = {}
    if np.all(data.x == data.x[0]):
        return DiscoveryResult(0, per_k)
    with _search_pool(data) as search:
        for k in range(1, config.k_max + 1):
            if data.m < 2 * k:
                break
            n_resamples = resamples_for(k, config)
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=config.master_seed, spawn_key=(k,))
            )
            try:
                best = lo_ransac_best(data, k, n_resamples, rng, _search=search)
            except DegeneratePairError:
                break
            passed, ad_results = validate_k(data, best)
            per_k[k] = KDiagnostics(best, n_resamples, ad_results, passed)
            if passed:
                return DiscoveryResult(k, per_k)
    return DiscoveryResult(0, per_k)
