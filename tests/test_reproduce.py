import math

import pytest

from metacausal import discovery, reproduce
from metacausal.reproduce import confusion_row, measure_convergence_cell

# Small tables: k = 1 discovery takes milliseconds a dataset, and single
# restarts at k <= 2 take tens of them.
TABLE1 = dict(scale=0.02, master_seed=3, only_k=1)  # 3 cells x 2 datasets
CONVERGENCE = dict(scale=0.001, master_seed=3, only_d=0.1)  # 4 cells x 5 runs


@pytest.mark.parametrize("fn", [measure_convergence_cell, confusion_row])
@pytest.mark.parametrize("scale", [-1.0, 0.0, math.nan, math.inf])
def test_scale_must_be_positive_and_finite(fn, scale):
    with pytest.raises(ValueError, match="scale"):
        fn(1, 0.0, scale=scale)


@pytest.fixture
def map_calls(monkeypatch):
    """The task lists passed to ``reproduce.map_tasks``, one per call; the
    tasks run in-process."""
    calls = []

    def counting_map(fn, tasks, workers, chunksize=1):
        calls.append(tasks)
        return [fn(t) for t in tasks]

    monkeypatch.setattr(reproduce, "map_tasks", counting_map)
    return calls


@pytest.mark.parametrize(
    "table, kwargs, tasks",
    [
        (reproduce.table1_rows, TABLE1, 3 * 2),
        (reproduce.table3_rows, CONVERGENCE, 4 * 5),
        (reproduce.table4_rows, CONVERGENCE, 4 * 5),
    ],
)
def test_table_makes_one_map_tasks_call(map_calls, table, kwargs, tasks):
    rows = table(**kwargs)
    assert len(rows) >= 2
    assert [len(call) for call in map_calls] == [tasks]


def test_table_run_opens_at_most_one_pool(monkeypatch):
    opened = []

    class CountingPool(discovery.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(discovery, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(reproduce, "usable_cores", lambda: 2)
    assert len(reproduce.table3_rows(**CONVERGENCE)) == 4
    assert opened == [2]


def test_table1_rows_equal_per_cell_confusion_rows(map_calls):
    rows = reproduce.table1_rows(**TABLE1)
    assert [(row["d"], row["true_k"]) for row in rows] == [(0.0, 1), (0.1, 1), (0.2, 1)]
    for row in rows:
        tally = confusion_row(row["true_k"], row["d"], master_seed=3, scale=0.02)
        assert row["datasets"] == sum(tally.values()) == 2
        for col, label in enumerate(("none", "k1", "k2", "k3", "k4")):
            assert row[f"predicted_{label}"] == tally.get(col, 0)


def test_tables_3_and_4_equal_per_cell_measurements(map_calls):
    rows3 = reproduce.table3_rows(**CONVERGENCE)
    rows4 = reproduce.table4_rows(**CONVERGENCE)
    assert [(row["d"], row["k"]) for row in rows3] == [(0.1, k) for k in (1, 2, 3, 4)]
    for row3, row4 in zip(rows3, rows4):
        cell = measure_convergence_cell(row3["k"], row3["d"], master_seed=3, scale=0.001)
        assert (row3["runs"], row3["converged"], row3["rate"]) == (cell.runs, cell.converged, cell.rate)
        assert row4["converged"] == cell.converged
        assert repr((row4["mae_slope"], row4["mae_intercept"])) == repr((cell.mae_slope, cell.mae_intercept))


def test_convergence_cell_same_on_one_and_two_workers():
    # The benchmark's workers_agree check relies on this.
    cells = [measure_convergence_cell(2, 0.1, master_seed=5, scale=0.004, workers=w) for w in (1, 2)]
    assert cells[0].runs == 20
    assert repr(cells[0]) == repr(cells[1])
