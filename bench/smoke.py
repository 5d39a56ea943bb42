"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py

Exits 0 when every check passes.  It checks that the workload names agree
across run.py, workloads.py and BENCHMARK.json, that every metric named in
BENCHMARK.json is produced and printed with its unit, that every span lies
inside its parent and its children's time fits in it, that the wrappers are
restored after the traced pass so an untraced pass afterwards gives the same
output digests, that same-seed digests are compared only between runs of the
same code, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "discover": workloads.Discover(true_k=2, k_max=2, n_per_class=30, corpus_size=3, trace_rounds=2),
    "cells": workloads.Cells(ks=(2, 3), d=0.1, runs=3, corpus_size=3, trace_rounds=2),
}


def check(condition: bool, message: str, failures: list[str]) -> None:
    if not condition:
        failures.append(message)


def check_workload(name: str, workload, failures: list[str]) -> None:
    corpus = workloads.build_corpus(workload, seed=3)
    untraced, traced, tracer = workloads.measure_traced(workload, corpus, workload.trace_rounds)
    check(not untraced.problems, f"{name}: invariants {untraced.problems}", failures)
    metrics, problems = workloads.per_layer(workload, untraced, traced, tracer)
    check(not problems, f"{name}: traced pass {problems}", failures)
    check(len(tracer) > 0, f"{name}: no spans recorded", failures)
    check(not tracing.span_problems(tracer), f"{name}: spans outside their parents", failures)
    check(not tracing.patched_names(), f"{name}: wrappers left installed", failures)
    again = workloads.measure(workload, corpus[: workload.trace_rounds], float("inf"))
    check(
        workloads.round_digests(again) == workloads.round_digests(untraced),
        f"{name}: untraced pass after tracing gave another digest",
        failures,
    )

    metrics["peak_rss_mb"] = 1.0
    e2e = {**workloads.end_to_end(untraced), "setup_s": 0.1}
    for section, values in (("per_layer", metrics), ("end_to_end", e2e)):
        found: list[str] = []
        lines = run.report(section, values, found, untraced.calls)
        result = json.loads(lines[-1])
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())[section]
        for m in spec:
            got = result["metrics"].get(m["name"])
            check(got is not None and got["unit"] == m["unit"],
                  f"{name}: {section} metric {m['name']} missing or without unit {m['unit']}", failures)
            check(any(line.startswith(f"  {m['name']} = ") and line.endswith(f" {m['unit']}")
                      for line in lines[:-1]),
                  f"{name}: {m['name']} not printed with its unit", failures)
        check(not found, f"{name}: {section} report problems {found}", failures)
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"{name}: result keys {sorted(result)}", failures)


def check_refuses_without_sources(failures: list[str]) -> None:
    """In a directory with only BENCHMARK.json and bench/, the run must fail."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", ".session"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "convergence_cell",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    check(done.returncode != 0, "run without sources exited 0", failures)
    check('"correct"' not in done.stdout, "run without sources printed a result", failures)


def check_session_digests(failures: list[str]) -> None:
    """Same-seed digests are compared only between runs of the same code."""
    saved = run.SESSION
    with tempfile.TemporaryDirectory() as tmp:
        run.SESSION = Path(tmp)
        try:
            first = run._compare_digests("w", 1, "code-a", {"0": "x"}, record=False)
            again = run._compare_digests("w", 1, "code-a", {"0": "y"}, record=False)
            other = run._compare_digests("w", 1, "code-b", {"0": "y"}, record=False)
        finally:
            run.SESSION = saved
    check(not first["same_seed_mismatch_rounds"], "first run of a seed reported a mismatch", failures)
    check(again["same_seed_mismatch_rounds"] == ["0"], "same code, other digest not reported", failures)
    check(not other["same_seed_mismatch_rounds"], "other code compared with earlier code", failures)


def main() -> int:
    failures: list[str] = []
    listed = [w["name"] for w in json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    check(list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS) == listed,
          f"workload names differ: {run.WORKLOAD_NAMES} {list(workloads.WORKLOADS)} {listed}", failures)
    for name, workload in TINY.items():
        check_workload(name, workload, failures)
    check(workloads.workers_agree(TINY["cells"], seed=3),
          "measure_convergence_cell differs between workers=1 and workers=2", failures)
    check_session_digests(failures)
    check_refuses_without_sources(failures)
    for f in failures:
        print("FAIL", f)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
