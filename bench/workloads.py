"""Workloads of the discovery benchmark: inputs, the timed loop, output checks.

Every input is derived from the workload seed; the library only receives the
generated datasets and configs.  README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import astuple, dataclass, field
from time import perf_counter

import numpy as np

from metacausal import datagen, discovery, reproduce

import tracing

DEVIATIONS = (0.0, 0.1, 0.2)
RUNS_AT_FULL_SCALE = 5000  # runs of one reproduce cell at scale 1
MECHANISM_DECIMALS = 9  # fitted parameters enter the digest rounded to 1e-9
ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Discover:
    """``recover_mechanism_count`` on random datasets with ``true_k`` mechanisms.

    Empirical restart budgets, ``max_class_dev`` equal to the dataset's
    class deviation, which cycles through ``DEVIATIONS``.
    """

    true_k: int
    k_max: int
    n_per_class: int
    corpus_size: int  # datasets generated at set-up; a run stops early at the end
    trace_rounds: int  # fixed work of a traced run, so its counts repeat exactly


@dataclass(frozen=True)
class Cells:
    """Rounds of ``measure_convergence_cell``: one cell per k in ``ks`` per round."""

    ks: tuple[int, ...]
    d: float
    runs: int
    corpus_size: int
    trace_rounds: int


WORKLOADS = {
    "discover_paper": Discover(true_k=4, k_max=4, n_per_class=500, corpus_size=2, trace_rounds=1),
    "discover_small": Discover(true_k=1, k_max=1, n_per_class=100, corpus_size=2048, trace_rounds=160),
    "convergence_cell": Cells(ks=(2, 3), d=0.1, runs=10, corpus_size=1024, trace_rounds=10),
}


def item_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th corpus item of the workload seed ``seed``."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)[0])


def build_corpus(workload, seed: int) -> list[list[tuple]]:
    """Rounds of calls; each call is the argument tuple of one timed call."""
    rounds = []
    for i in range(workload.corpus_size):
        s = item_seed(seed, i)
        if isinstance(workload, Discover):
            d = DEVIATIONS[(seed + i) % len(DEVIATIONS)]
            data = datagen.random_dataset(workload.true_k, d, seed=s, n_per_class_avg=workload.n_per_class)
            config = discovery.DiscoveryConfig(k_max=workload.k_max, max_class_dev=d, master_seed=s)
            rounds.append([(data, config)])
        else:
            scale = workload.runs / RUNS_AT_FULL_SCALE
            rounds.append([(k, workload.d, s, scale) for k in workload.ks])
    return rounds


def warm_up(workload, seed: int) -> None:
    """One small call of the workload's entry point; loads the cached AD table."""
    if isinstance(workload, Discover):
        data = datagen.random_dataset(1, 0.0, seed=seed, n_per_class_avg=50)
        discovery.recover_mechanism_count(data, discovery.DiscoveryConfig(k_max=1))
    else:
        reproduce.measure_convergence_cell(2, workload.d, master_seed=seed, scale=1 / RUNS_AT_FULL_SCALE)


def _call(workload, args):
    # Looked up on the module at call time, so a traced pass sees the wrapper.
    if isinstance(workload, Discover):
        return discovery.recover_mechanism_count(*args)
    k, d, master_seed, scale = args
    return reproduce.measure_convergence_cell(k, d, master_seed=master_seed, scale=scale, workers=1)


def _summarize(workload, args, result) -> tuple[dict, list[str]]:
    """Counts, the digested output and the invariant violations of one call."""
    problems = []
    if isinstance(workload, Cells):
        if not 0 <= result.converged <= result.runs:
            problems.append(f"cell k={result.k}: converged {result.converged} of {result.runs} runs")
        output = [result.k, result.d, result.runs, result.converged,
                  round(result.mae_slope, MECHANISM_DECIMALS),
                  round(result.mae_intercept, MECHANISM_DECIMALS)]
        return {"datasets": result.runs, "restarts": result.runs, "converged": result.converged,
                "output": output}, problems
    data = args[0]
    if not 0 <= result.k_hat <= workload.k_max:
        problems.append(f"k_hat {result.k_hat} outside 0..{workload.k_max}")
    mechanisms = {}
    for k, diag in result.per_k.items():
        state = diag.state
        params = np.array([(m.alpha, m.beta, m.b) for m in state.mechanisms], dtype=float)
        if not np.all(np.isfinite(params)):
            problems.append(f"k={k}: non-finite mechanism parameters")
        resp = state.responsibilities
        if resp.shape != (data.m, k) or np.max(np.abs(resp.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
            problems.append(f"k={k}: responsibility rows do not sum to 1")
        mechanisms[str(k)] = [
            [round(m.alpha, MECHANISM_DECIMALS), round(m.beta, MECHANISM_DECIMALS),
             round(m.b, MECHANISM_DECIMALS), m.direction.value]
            for m in state.mechanisms
        ]
    summary = {
        "datasets": 1,
        "restarts": sum(diag.resamples for diag in result.per_k.values()),
        "k_hat": result.k_hat,
        "output": {"k_hat": result.k_hat, "mechanisms": mechanisms},
    }
    return summary, problems


@dataclass
class Pass:
    """What one pass over the corpus did: per-call records and per-round times."""

    calls: list[dict] = field(default_factory=list)
    round_seconds: list[float] = field(default_factory=list)
    round_datasets: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.round_seconds)


def _run_round(workload, r: int, calls, out: Pass) -> None:
    """Time each call of round ``r``; a ValueError counts as a failed call."""
    spent, datasets = 0.0, 0
    for args in calls:
        start = perf_counter()
        try:
            result, error = _call(workload, args), None
        except ValueError as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        spent += perf_counter() - start
        record = {"round": r, "error": error, "restarts": 0,
                  "datasets": 1 if isinstance(workload, Discover) else workload.runs}
        if result is not None:
            summary, problems = _summarize(workload, args, result)
            record.update(summary)
            out.problems.extend(f"round {r}: {p}" for p in problems)
        out.calls.append(record)
        datasets += record["datasets"]
    out.round_seconds.append(spent)
    out.round_datasets.append(datasets)


def measure(workload, corpus, seconds: float) -> Pass:
    """Run whole rounds until the next one would likely end past ``seconds``.

    Only the library calls are timed; the checks run between them.
    """
    out = Pass()
    for r, calls in enumerate(corpus):
        _run_round(workload, r, calls, out)
        if out.wall * (1 + 1 / len(out.round_seconds)) > seconds:
            break
    return out


def measure_traced(workload, corpus, rounds: int) -> tuple[Pass, Pass, tracing.Tracer]:
    """Run each of the first ``rounds`` rounds untraced, then again traced.

    Pairing the passes round by round limits the effect of drift in machine
    speed on the tracing overhead.
    """
    untraced, traced, tracer = Pass(), Pass(), tracing.Tracer()
    for r, calls in enumerate(corpus[:rounds]):
        _run_round(workload, r, calls, untraced)
        with tracer.installed():
            _run_round(workload, r, calls, traced)
    return untraced, traced, tracer


def end_to_end(p: Pass) -> dict[str, float]:
    """Throughput and the median time per generated dataset of one pass."""
    return {
        "datasets_per_s": sum(p.round_datasets) / p.wall,
        "dataset_p50_s": statistics.median(
            [t / n for t, n in zip(p.round_seconds, p.round_datasets)]
        ),
        "restarts_per_s": sum(c["restarts"] for c in p.calls) / p.wall,
    }


def outcome_metrics(workload, p: Pass) -> dict[str, float]:
    """Accuracy of the outputs and the share of calls that raised."""
    done = [c for c in p.calls if c["error"] is None]
    accuracy = rate = 0.0
    if isinstance(workload, Discover):
        accuracy = sum(c["k_hat"] == workload.true_k for c in done) / len(p.calls)
    else:
        runs = sum(c["datasets"] for c in done)
        rate = sum(c["converged"] for c in done) / runs if runs else 0.0
    return {
        "k_hat_accuracy": accuracy,
        "convergence_rate": rate,
        "failed_ratio": (len(p.calls) - len(done)) / len(p.calls),
    }


def per_layer(workload, untraced: Pass, traced: Pass, tracer: tracing.Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the problems it shows.

    Problems are misplaced spans, wrappers left behind, and outputs that
    differ between the two passes.
    """
    problems = traced.problems + tracing.span_problems(tracer)
    problems += [f"{n} still wrapped after the traced pass" for n in tracing.patched_names()]
    if round_digests(traced) != round_digests(untraced):
        problems.append("traced pass gave other outputs than the untraced pass")
    metrics = tracing.layer_metrics(tracer)
    metrics.update(outcome_metrics(workload, traced))
    metrics["trace_overhead"] = traced.wall / untraced.wall - 1.0
    return metrics, problems


def round_digests(p: Pass) -> dict[str, str]:
    """One digest per round over its outputs (or error messages)."""
    by_round: dict[int, list] = {}
    for c in p.calls:
        by_round.setdefault(c["round"], []).append(c.get("output", {"error": c["error"]}))
    return {
        str(r): hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()[:16]
        for r, outputs in by_round.items()
    }


def workers_agree(workload, seed: int) -> bool:
    """Untimed check that one and two worker processes give the same cell."""
    if not isinstance(workload, Cells):
        return True
    s = item_seed(seed, workload.corpus_size)  # outside the timed corpus
    cells = [
        reproduce.measure_convergence_cell(
            workload.ks[0], workload.d, master_seed=s, scale=16 / RUNS_AT_FULL_SCALE, workers=w
        )
        for w in (1, 2)
    ]
    return repr(astuple(cells[0])) == repr(astuple(cells[1]))
