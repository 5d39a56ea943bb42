"""Reproduction experiments behind the `reproduce` CLI command.

Four reference tables are re-measured at a configurable scale:

1. confusion matrices of the recovered mechanism count (datasets per cell
   scale from 100),
2. theoretical resample counts (exact, no scaling),
3. single-restart EM convergence rates (runs per cell scale from 5000;
   each run draws a fresh dataset and makes one restart on it),
4. mean absolute parameter errors of converged fits (same runs as 3).

Tables 1, 3 and 4 run the tasks (datasets or runs) of all their cells as
one list, in table order, over one process pool of up to the usable cores
(the CPU affinity, so ``taskset`` limits them).  Every task owns a seed
derived from the master seed, its cell and its index, and results come back
in task order, so the tables are the same bit for bit on any core count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import reference_values as ref
from .bounds import lower_bound_success_prob, required_resamples
from .datagen import random_dataset
from .discovery import DiscoveryConfig, map_tasks, recover_mechanism_count, usable_cores
from .em import (
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

_RUNS_FULL_SCALE = 5000
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
    init = draw_seed_state(dataset, k, rng, init_from_pairs)
    if init is None:
        return False, 0.0, 0.0
    fitted = run_em(dataset, init)
    truth = dataset.generator.mechanisms
    if not check_convergence(fitted.mechanisms, truth):
        return False, 0.0, 0.0
    slope, intercept = matched_errors(fitted.mechanisms, truth)
    return True, slope, intercept


def _checked_scale(scale: float) -> float:
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    return scale


def _cells(only_k: int | None, only_d: float | None) -> list[tuple[float, int]]:
    """The (d, k) reference-table cells in table order, restricted to
    ``only_k`` and ``only_d`` when they are set."""
    return [
        (d, k)
        for d in ref.DEVIATIONS
        for k in ref.MECHANISM_COUNTS
        if only_d in (None, d) and only_k in (None, k)
    ]


def _cell_outcomes(fn, cells, n: int, master_seed: int, workers: int, chunksize: int) -> list[list]:
    """``fn`` over the ``n`` tasks ``(k, d, seed)`` of each (d, k) cell in
    ``cells``: one ``map_tasks`` call over every task in cell order, sliced
    back into one list of outcomes per cell, in task order."""
    tasks = [(k, d, s) for d, k in cells for s in _task_seeds(master_seed, k, d, n)]
    outcomes = map_tasks(fn, tasks, workers, chunksize=chunksize)
    return [outcomes[i : i + n] for i in range(0, len(outcomes), n)]


def _convergence_cells(cells, master_seed: int, scale: float, workers: int) -> list[ConvergenceCell]:
    """Single-restart statistics of each (d, k) cell in ``cells``."""
    runs = max(1, round(_RUNS_FULL_SCALE * _checked_scale(scale)))
    per_cell = _cell_outcomes(_single_restart, cells, runs, master_seed, workers, chunksize=8)
    result = []
    for (d, k), outcomes in zip(cells, per_cell):
        slopes = [s for ok, s, _ in outcomes if ok]
        intercepts = [b for ok, _, b in outcomes if ok]
        mae_slope, mae_intercept = (float(np.mean(v)) if v else math.nan for v in (slopes, intercepts))
        result.append(ConvergenceCell(k, d, runs, len(slopes), mae_slope, mae_intercept))
    return result


def measure_convergence_cell(
    k: int,
    d: float,
    master_seed: int = 0,
    scale: float = 1.0,
    workers: int = 1,
) -> ConvergenceCell:
    """Convergence rate of single random restarts for one table cell.

    Full scale makes 5000 runs.  Each run draws a fresh dataset and seeds
    one EM restart from a random point sample on it, with its own derived
    seed.  The runs fan out over at most ``workers`` processes; the cell is
    the same bit for bit on any count.
    """
    return _convergence_cells([(d, k)], master_seed, scale, workers)[0]


def _discover_dataset(args) -> int:
    k, d, seed = args
    dataset = random_dataset(k, d, seed=seed)
    config = DiscoveryConfig(max_class_dev=d, master_seed=seed)
    return recover_mechanism_count(dataset, config).k_hat


def _confusion_tallies(cells, master_seed: int, scale: float) -> list[Counter]:
    """Recovered-count tally of each (d, k) cell in ``cells``."""
    n_datasets = max(1, round(_DATASETS_FULL_SCALE * _checked_scale(scale)))
    per_cell = _cell_outcomes(_discover_dataset, cells, n_datasets, master_seed, usable_cores(), chunksize=1)
    return [Counter(k_hats) for k_hats in per_cell]


def confusion_row(k: int, d: float, master_seed: int = 0, scale: float = 1.0) -> Counter:
    """Recovered-count tally over ``round(100 * scale)`` datasets."""
    return _confusion_tallies([(d, k)], master_seed, scale)[0]


def table1_rows(
    scale: float = 1.0,
    master_seed: int = 0,
    only_k: int | None = None,
    only_d: float | None = None,
) -> list[dict]:
    """Confusion-matrix rows with the published reference counts alongside."""
    cells = _cells(only_k, only_d)
    rows = []
    for (d, k), tally in zip(cells, _confusion_tallies(cells, master_seed, scale)):
        row = {"d": d, "true_k": k, "datasets": sum(tally.values())}
        for col, label in ((0, "none"), (1, "k1"), (2, "k2"), (3, "k3"), (4, "k4")):
            row[f"predicted_{label}"] = tally.get(col, 0)
            row[f"reference_{label}"] = ref.CONFUSION[d][k][col]
        rows.append(row)
    return rows


def table2_rows(only_k: int | None = None, only_d: float | None = None) -> list[dict]:
    """Theoretical resample counts plus both published reference columns."""
    return [
        {
            "d": d,
            "k": k,
            "theoretical": required_resamples(lower_bound_success_prob(k, d)),
            "reference_theoretical": ref.RESAMPLES_THEORETICAL[d][k - 1],
            "reference_empirical": ref.RESAMPLES_EMPIRICAL[d][k - 1],
        }
        for d, k in _cells(only_k, only_d)
    ]


def table3_rows(
    scale: float = 0.1,
    master_seed: int = 0,
    only_k: int | None = None,
    only_d: float | None = None,
) -> list[dict]:
    """Measured convergence rates, the implied restart budgets, and references.

    Runs its own convergence cells, the same ones :func:`table4_rows` runs:
    each ``reproduce`` call builds one table, so no call runs a cell twice.
    """
    return [
        {
            "d": cell.d,
            "k": cell.k,
            "runs": cell.runs,
            "converged": cell.converged,
            "rate": cell.rate,
            "reference_rate": ref.EM_CONVERGENCE_RATES[cell.d][cell.k - 1],
            "implied_resamples": required_resamples(cell.rate) if cell.rate > 0 else None,
            "reference_resamples": ref.RESAMPLES_EMPIRICAL[cell.d][cell.k - 1],
        }
        for cell in _convergence_cells(_cells(only_k, only_d), master_seed, scale, usable_cores())
    ]


def table4_rows(
    scale: float = 0.1,
    master_seed: int = 0,
    only_k: int | None = None,
    only_d: float | None = None,
) -> list[dict]:
    """Mean absolute errors of converged fits against the published ones.

    Runs its own convergence cells, the same ones :func:`table3_rows` runs:
    each ``reproduce`` call builds one table, so no call runs a cell twice.
    """
    return [
        {
            "d": cell.d,
            "k": cell.k,
            "converged": cell.converged,
            "mae_slope": cell.mae_slope,
            "reference_mae_slope": ref.MAE_SLOPE[cell.d][cell.k - 1],
            "mae_intercept": cell.mae_intercept,
            "reference_mae_intercept": ref.MAE_INTERCEPT[cell.d][cell.k - 1],
        }
        for cell in _convergence_cells(_cells(only_k, only_d), master_seed, scale, usable_cores())
    ]
