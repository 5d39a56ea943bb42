"""The committed record of seeded outputs, ``tests/data/outputs.json``.

A characterization record (Feathers 2004, *Working Effectively with Legacy
Code*, ch. 13): ``test_outputs.py`` recomputes it in-process and compares.
Run from the repository root to rewrite it (pytest does not collect this
file):

    python tests/outputs.py --record

It prints every entry that moved against the file it replaces.  A change
that moves outputs on purpose runs it and lists those entries in
CHANGES.md.

The record holds 24 seeded searches, ``random_dataset(k, 0.0, seed=s,
n_per_class_avg=100)`` with ``DiscoveryConfig(k_max=3, master_seed=s)`` for
k = 1-3 and s = 0-7: each search's ``k_hat`` and, for each stage, its
mechanisms, log-likelihood and A^2 values.  It also holds one 20-run
``measure_convergence_cell(2, 0.1, master_seed=1)``: its counts and both
mean absolute errors.  Floats are written with ``float.hex``, so equal
entries are equal bits.  numpy's float64 ``exp``, ``log`` and ``log1p``
give other last bits under another SIMD dispatch, so the record names the
dispatch it was taken under.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # when run as a script

from metacausal.cli import _numpy_dispatch
from metacausal.datagen import random_dataset
from metacausal.discovery import DiscoveryConfig, recover_mechanism_count
from metacausal.reproduce import measure_convergence_cell

RECORD = Path(__file__).resolve().parent / "data" / "outputs.json"


def _hex(value: float | None) -> str | None:
    return None if value is None else float(value).hex()


def _search(k: int, seed: int) -> dict:
    data = random_dataset(k, 0.0, seed=seed, n_per_class_avg=100)
    res = recover_mechanism_count(data, DiscoveryConfig(k_max=3, master_seed=seed))
    stages = {
        str(kk): {
            "mechanisms": [
                [m.direction.value, _hex(m.alpha), _hex(m.beta), _hex(m.b)] for m in diag.state.mechanisms
            ],
            "log_likelihood": _hex(diag.state.log_likelihood),
            "a2": [None if ad is None else _hex(ad.statistic) for ad in diag.ad_results],
        }
        for kk, diag in res.per_k.items()
    }
    return {"k_hat": res.k_hat, "stages": stages}


def compute() -> dict:
    """The record's entries, computed by the code in this process."""
    cell = measure_convergence_cell(2, 0.1, master_seed=1, scale=20 / 5000)
    return {
        "numpy_dispatch": _numpy_dispatch(),
        "searches": {f"k={k} seed={s}": _search(k, s) for k in (1, 2, 3) for s in range(8)},
        "convergence_cell": {
            "runs": cell.runs,
            "converged": cell.converged,
            "mae_slope": _hex(cell.mae_slope),
            "mae_intercept": _hex(cell.mae_intercept),
        },
    }


def counts(record: dict) -> dict:
    """The entries that hold under every SIMD dispatch: each search's
    ``k_hat`` and mechanism count per stage, and the cell's counts."""
    cell = record["convergence_cell"]
    return {
        "searches": {
            name: (s["k_hat"], {k: len(stage["mechanisms"]) for k, stage in s["stages"].items()})
            for name, s in record["searches"].items()
        },
        "convergence_cell": (cell["runs"], cell["converged"]),
    }


def _flatten(value, path: str = "") -> dict:
    if isinstance(value, dict):
        return {p: v for key, item in value.items() for p, v in _flatten(item, f"{path}/{key}").items()}
    if isinstance(value, list):
        return {p: v for i, item in enumerate(value) for p, v in _flatten(item, f"{path}[{i}]").items()}
    return {path: value}


def moved(old: dict, new: dict) -> list[str]:
    """One line for each entry whose value differs between two records, or
    that only one of them holds."""
    a, b = _flatten(old), _flatten(new)
    return [f"{p}: {a.get(p)} -> {b.get(p)}" for p in sorted(a.keys() | b.keys()) if a.get(p) != b.get(p)]


def main(argv: list[str]) -> int:
    if argv != ["--record"]:
        print("usage: python tests/outputs.py --record", file=sys.stderr)
        return 2
    new = compute()
    old = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    lines = moved(old, new)
    print("\n".join(lines) if lines else "no entry moved")
    print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
