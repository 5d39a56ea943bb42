"""Reproduction experiments behind the `reproduce` CLI command.

Four reference tables are re-measured at a configurable scale:

1. confusion matrices of the recovered mechanism count (datasets per cell
   scale from 100),
2. theoretical resample counts (exact, no scaling),
3. single-restart EM convergence rates (runs per cell scale from 5000,
   organized as 500 setups x 10 restarts),
4. mean absolute parameter errors of converged fits (same runs as 3).

Every task (dataset or setup) owns a seed derived from the master seed and
its index, so results are independent of scheduling and worker count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import reference_values as ref
from .bounds import empirical_resamples, table2_theoretical
from .datagen import random_dataset
from .discovery import DiscoveryConfig, map_tasks, recover_mechanism_count
from .em import (
    EMConfig,
    check_convergence,
    draw_seed_state,
    init_from_pairs,
    matched_errors,
    run_em,
)

__all__ = [
    "ConvergenceCell",
    "measure_convergence_cell",
    "confusion_row",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
]

_SETUPS_FULL_SCALE = 500
_RESTARTS_PER_SETUP = 10
_DATASETS_FULL_SCALE = 100


@dataclass(frozen=True)
class ConvergenceCell:
    """Single-restart convergence statistics for one (k, deviation) cell."""

    k: int
    d: float
    runs: int
    converged: int
    mae_slope: float
    mae_intercept: float

    @property
    def rate(self) -> float:
        return self.converged / self.runs if self.runs else 0.0


def _task_seeds(master_seed: int, k: int, d: float, n: int) -> list[int]:
    """Seeds of the first ``n`` tasks of the (k, d) cell, one per task index."""
    return [
        int(np.random.SeedSequence(entropy=master_seed, spawn_key=(k, round(d * 10), i)).generate_state(1)[0])
        for i in range(n)
    ]


def _single_restart(args) -> tuple[bool, float, float]:
    """One dataset + one random 2k-point restart; returns (converged, errors)."""
    k, d, seed = args
    dataset = random_dataset(k, d, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    state = draw_seed_state(dataset, k, rng, init_from_pairs)
    if state is None:
        return False, 0.0, 0.0
    fitted = run_em(dataset, state, EMConfig.for_components(k))
    truth = dataset.generator.mechanisms
    if not check_convergence(fitted.mechanisms, truth):
        return False, 0.0, 0.0
    slope, intercept = matched_errors(fitted.mechanisms, truth)
    return True, slope, intercept


def _checked_scale(scale: float) -> float:
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return scale


def _cells(only_k: int | None, only_d: float | None):
    """The (d, k) reference-table cells in table order, restricted to
    ``only_k`` and ``only_d`` when they are set."""
    for d in ref.DEVIATIONS:
        for k in ref.MECHANISM_COUNTS:
            if only_d in (None, d) and only_k in (None, k):
                yield d, k


def measure_convergence_cell(
    k: int,
    d: float,
    master_seed: int = 0,
    scale: float = 1.0,
    workers: int = 1,
) -> ConvergenceCell:
    """Convergence rate of single random restarts for one table cell.

    Full scale runs 500 independently generated setups with 10 restarts
    each (a restart re-seeds the EM from a fresh random point sample on a
    fresh dataset here; each run carries its own derived seed).
    """
    runs = max(1, round(_SETUPS_FULL_SCALE * _RESTARTS_PER_SETUP * _checked_scale(scale)))
    seeds = _task_seeds(master_seed, k, d, runs)
    outcomes = map_tasks(_single_restart, [(k, d, s) for s in seeds], workers, chunksize=8)
    converged = sum(ok for ok, _, _ in outcomes)
    slopes = [s for ok, s, _ in outcomes if ok]
    intercepts = [b for ok, _, b in outcomes if ok]
    return ConvergenceCell(
        k=k,
        d=d,
        runs=runs,
        converged=int(converged),
        mae_slope=float(np.mean(slopes)) if slopes else float("nan"),
        mae_intercept=float(np.mean(intercepts)) if intercepts else float("nan"),
    )


def _discover_dataset(args) -> int:
    k, d, seed, config_kwargs = args
    dataset = random_dataset(k, d, seed=seed)
    config = DiscoveryConfig(max_class_dev=d, master_seed=seed, **config_kwargs)
    return recover_mechanism_count(dataset, config).k_hat


def confusion_row(
    k: int,
    d: float,
    master_seed: int = 0,
    scale: float = 1.0,
    workers: int = 1,
    **config_kwargs,
) -> Counter:
    """Recovered-count tally over ``round(100 * scale)`` datasets."""
    n_datasets = max(1, round(_DATASETS_FULL_SCALE * _checked_scale(scale)))
    seeds = _task_seeds(master_seed, k, d, n_datasets)
    tasks = [(k, d, s, config_kwargs) for s in seeds]
    return Counter(map_tasks(_discover_dataset, tasks, workers, chunksize=1))


def table1_rows(
    scale: float = 1.0,
    master_seed: int = 0,
    workers: int = 1,
    only_k: int | None = None,
    only_d: float | None = None,
    **config_kwargs,
) -> list[dict]:
    """Confusion-matrix rows with the published reference counts alongside."""
    rows = []
    for d, k in _cells(only_k, only_d):
        tally = confusion_row(
            k, d, master_seed=master_seed, scale=scale, workers=workers, **config_kwargs
        )
        total = sum(tally.values())
        row = {"d": d, "true_k": k, "datasets": total}
        for col, label in ((0, "none"), (1, "k1"), (2, "k2"), (3, "k3"), (4, "k4")):
            row[f"predicted_{label}"] = tally.get(col, 0)
            row[f"reference_{label}"] = ref.CONFUSION[d][k][0 if col == 0 else col]
        rows.append(row)
    return rows


def table2_rows(confidence: float = 0.95) -> list[dict]:
    """Theoretical resample counts plus both published reference columns."""
    theo = table2_theoretical(ref.DEVIATIONS, n_max=4, confidence=confidence)
    rows = []
    for i, d in enumerate(ref.DEVIATIONS):
        for j, k in enumerate(ref.MECHANISM_COUNTS):
            rows.append(
                {
                    "d": d,
                    "k": k,
                    "theoretical": int(theo[i, j]),
                    "reference_theoretical": ref.RESAMPLES_THEORETICAL[d][j],
                    "reference_empirical": ref.RESAMPLES_EMPIRICAL[d][j],
                }
            )
    return rows


def _convergence_cells(
    scale: float,
    master_seed: int,
    workers: int,
    only_k: int | None,
    only_d: float | None,
) -> list[ConvergenceCell]:
    return [
        measure_convergence_cell(k, d, master_seed=master_seed, scale=scale, workers=workers)
        for d, k in _cells(only_k, only_d)
    ]


def table3_rows(
    scale: float = 0.1,
    master_seed: int = 0,
    workers: int = 1,
    only_k: int | None = None,
    only_d: float | None = None,
) -> list[dict]:
    """Measured convergence rates, the implied restart budgets, and references.

    Runs its own convergence cells, the same ones :func:`table4_rows` runs:
    each ``reproduce`` call builds one table, so no call runs a cell twice.
    """
    rows = []
    for cell in _convergence_cells(scale, master_seed, workers, only_k, only_d):
        reference = ref.EM_CONVERGENCE_RATES[cell.d][cell.k - 1]
        rows.append(
            {
                "d": cell.d,
                "k": cell.k,
                "runs": cell.runs,
                "converged": cell.converged,
                "rate": cell.rate,
                "reference_rate": reference,
                "implied_resamples": empirical_resamples(cell.rate) if cell.rate > 0 else None,
                "reference_resamples": ref.RESAMPLES_EMPIRICAL[cell.d][cell.k - 1],
            }
        )
    return rows


def table4_rows(
    scale: float = 0.1,
    master_seed: int = 0,
    workers: int = 1,
    only_k: int | None = None,
    only_d: float | None = None,
) -> list[dict]:
    """Mean absolute errors of converged fits against the published ones.

    Runs its own convergence cells, the same ones :func:`table3_rows` runs:
    each ``reproduce`` call builds one table, so no call runs a cell twice.
    """
    rows = []
    for cell in _convergence_cells(scale, master_seed, workers, only_k, only_d):
        rows.append(
            {
                "d": cell.d,
                "k": cell.k,
                "converged": cell.converged,
                "mae_slope": cell.mae_slope,
                "reference_mae_slope": ref.MAE_SLOPE[cell.d][cell.k - 1],
                "mae_intercept": cell.mae_intercept,
                "reference_mae_intercept": ref.MAE_INTERCEPT[cell.d][cell.k - 1],
            }
        )
    return rows
