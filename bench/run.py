"""Benchmark of the mechanism-count discovery pipeline.

Run from the root of a checkout; ``metacausal`` is imported from ``src/``::

    python3 bench/run.py --workload discover_paper --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it record the environment and the output checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One core per run: BLAS threads would only add spin time and make timings
# depend on what else the machine runs.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SESSION = BENCH / ".session"  # digests of earlier runs of the same code in this checkout
RECORDED = BENCH / "digests.json"  # digests recorded when the benchmark was defined
# The keys of workloads.WORKLOADS, known here before the timed import.
WORKLOAD_NAMES = ("discover_paper", "discover_small", "convergence_cell")
SETUP_REPEATS = 7  # this process plus fresh ones; setup_s is their median
PROBE_TIMEOUT_S = 120


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digests in bench/digests.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup(name: str, seed: int):
    """Import the library, build the corpus and make one warm-up call, timed."""
    start = perf_counter()
    # Imported here so that the import is part of the timed set-up.
    import workloads

    workload = workloads.WORKLOADS[name]
    corpus = workloads.build_corpus(workload, seed)
    workloads.warm_up(workload, seed)
    return perf_counter() - start, workloads, corpus


def _setup_in_fresh_process(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed), "--seconds", "1"],
        capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def _environment(seed: int) -> dict:
    import numpy
    import metacausal

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "metacausal": metacausal.__version__,
        "git_sha": _git_sha(),
        "corpus_seed": seed,
    }


def _git_sha() -> str:
    """HEAD of the checkout when it is a git repository, else "unavailable"."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _code_hash() -> str:
    """Digest of the code under test: the files of the package and of the benchmark."""
    files = [f for f in (SRC / "metacausal").rglob("*") if f.is_file() and "__pycache__" not in f.parts]
    files += BENCH.glob("*.py")
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)


def _compare_digests(name: str, seed: int, code: str, digests: dict[str, str], record: bool) -> dict:
    """Check digests against earlier runs of this seed and code here, and the recorded ones.

    Runs of other code never meet in one session file, so a change that alters
    the outputs shows only as ``outputs_changed``.
    """
    session_file = SESSION / f"{name}-{seed}-{code}.json"
    earlier = _load_json(session_file)
    differing = sorted((r for r in digests if r in earlier and earlier[r] != digests[r]), key=int)
    _write_json(session_file, {**earlier, **digests})
    recorded_all = _load_json(RECORDED)
    recorded = recorded_all.get(name, {}).get(str(seed), {})
    common = [r for r in digests if r in recorded]
    changed = any(recorded[r] != digests[r] for r in common) if common else None
    if record:
        recorded_all.setdefault(name, {})[str(seed)] = {**recorded, **digests}
        _write_json(RECORDED, recorded_all)
    return {"same_seed_mismatch_rounds": differing, "outputs_changed": changed}


def _run_all(args) -> int:
    """Every workload in its own process, with the same arguments."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "metacausal" / "__init__.py").is_file():
        print(f"run.py: no metacausal package under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)

    setup_s, workloads, corpus = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(setup_s)
        return 0
    setups = [setup_s]
    if not args.trace:
        setups += [_setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        untraced, traced, tracer = workloads.measure_traced(workload, corpus, workload.trace_rounds)
        metrics, problems = workloads.per_layer(workload, untraced, traced, tracer)
        problems = untraced.problems + problems
        # Spans are few next to the datasets, so this is the workload's peak.
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        untraced = workloads.measure(workload, corpus, args.seconds)
        problems = list(untraced.problems)
        metrics = {**workloads.end_to_end(untraced), "setup_s": statistics.median(setups)}
    if not workloads.workers_agree(workload, args.seed):
        problems.append("measure_convergence_cell differs between workers=1 and workers=2")
    digests = workloads.round_digests(untraced)
    code = _code_hash()
    digest_check = _compare_digests(args.workload, args.seed, code, digests, args.record)
    if digest_check["same_seed_mismatch_rounds"]:
        problems.append("an earlier run of this seed gave other outputs")

    print("env " + json.dumps({**_environment(args.seed), "code_hash": code}))
    lines = report("per_layer" if args.trace else "end_to_end", metrics, problems, untraced.calls)
    print("checks " + json.dumps({
        "problems": problems,
        "rounds": len(untraced.round_seconds),
        "setup_samples_s": setups,
        "output_digests": digests,
        **digest_check,
    }))
    print("\n".join(lines))
    return 0


def report(section: str, metrics: dict, problems: list[str], calls: list[dict]) -> list[str]:
    """One line per metric of ``section`` in BENCHMARK.json, then the result JSON.

    A metric named there but not produced is added to ``problems``.
    """
    units = {m["name"]: m["unit"] for m in _load_json(ROOT / "BENCHMARK.json")[section]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not produced: {missing}")
    lines = [f"  {n} = {metrics[n]} {u}" for n, u in units.items() if n in metrics]
    lines.append(json.dumps({
        "correct": not problems,
        "attempted": len(calls),
        "failed": sum(c["error"] is not None for c in calls),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }))
    return lines


if __name__ == "__main__":
    sys.exit(main())
