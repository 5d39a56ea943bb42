"""In-memory span tracing of the discovery pipeline's public functions.

The package binds names with ``from .stats import l1_fit`` and the like, so
each function is patched in the module whose code calls it (``em.l1_fit``,
``discovery.run_em``, ``reproduce.check_convergence``, ...).  A span records
its name, start, end and parent; spans stay in memory until the traced pass
ends and the originals are put back.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from metacausal import discovery, em, reproduce
from metacausal.em import DegeneratePairError

# l1_fit enumerates every two-point line up to this many positive weights.
ENUMERATION_LIMIT = 200

# (module whose code makes the call, attribute, span name)
PATCHES = (
    (discovery, "recover_mechanism_count", "discovery.recover_mechanism_count"),
    (discovery, "lo_ransac_best", "discovery.lo_ransac_best"),
    (discovery, "validate_k", "discovery.validate_k"),
    (discovery, "init_from_pairs", "em.init_from_pairs"),
    (discovery, "run_em", "em.run_em"),
    (discovery, "anderson_darling_laplace", "stats.anderson_darling_laplace"),
    (reproduce, "measure_convergence_cell", "reproduce.measure_convergence_cell"),
    (reproduce, "random_dataset", "datagen.random_dataset"),
    (reproduce, "init_from_pairs", "em.init_from_pairs"),
    (reproduce, "run_em", "em.run_em"),
    (reproduce, "check_convergence", "em.check_convergence"),
    (em, "em_step", "em.em_step"),
    (em, "responsibilities", "em.responsibilities"),
    (em, "mixture_log_likelihood", "em.mixture_log_likelihood"),
    (em, "l1_fit", "stats.l1_fit"),
    (em, "estimate_scale", "stats.estimate_scale"),
    (em, "weighted_ad_statistic_laplace", "stats.weighted_ad_statistic_laplace"),
)

def _l1_enumerates(args, kwargs) -> int:
    """1 when this l1_fit call takes the two-point enumeration path, else 0."""
    weights = args[2] if len(args) > 2 else kwargs.get("weights")
    if weights is None:
        return int(len(args[0]) <= ENUMERATION_LIMIT)
    return int(np.count_nonzero(np.asarray(weights) > 0) <= ENUMERATION_LIMIT)


def _ransac_k(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["k"]


_ATTRS = {"stats.l1_fit": _l1_enumerates, "discovery.lo_ransac_best": _ransac_k}


class Tracer:
    """Spans and EM restart results of a traced pass.

    Span i has the name ``names[name_id[i]]``, the times ``start[i]`` and
    ``end[i]``, the parent span ``parent[i]`` (-1 at the root) and a small
    integer ``attr[i]``: 1 when an l1_fit call enumerated, the k of a
    lo_ransac_best call, else -1.  Flat arrays keep the spans' memory small
    next to the workload's own.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.attr = array("b")
        self.failed: dict[int, str] = {}  # span -> exception type it raised
        # (fitted mechanisms, true mechanisms) of each discovery.run_em call
        self.restart_results: list[tuple] = []
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def name(self, i: int) -> str:
        return self.names[self.name_id[i]]

    def wrap(self, name, fn, record_results=False):
        """``fn`` recording a span per call; with ``record_results``, also its EM result."""
        if name not in self.names:
            self.names.append(name)
        nid, attr_of = self.names.index(name), _ATTRS.get(name)
        name_id, start, end, parent, attr = self.name_id, self.start, self.end, self.parent, self.attr
        failed, stack = self.failed, self._stack
        results = self.restart_results if record_results else None

        def traced_call(*args, **kwargs):
            value = attr_of(args, kwargs) if attr_of else -1
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            attr.append(value)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                failed[i] = type(exc).__name__
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if results is not None:
                data = args[0] if args else kwargs["data"]
                truth = data.generator.mechanisms if data.generator is not None else None
                results.append((out.mechanisms, truth))
            return out

        return traced_call

    @contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        try:
            for mod, attr, name in PATCHES:
                # Only the discovery restarts count towards restart_useful_ratio.
                record = mod is discovery and attr == "run_em"
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), record))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        total = [0.0] * len(self)
        for i, p in enumerate(self.parent):
            if p >= 0:
                total[p] += self.end[i] - self.start[i]
        return total


def patched_names() -> list[str]:
    """Module attributes that still hold a tracing wrapper (empty when restored)."""
    return [
        f"{mod.__name__}.{attr}"
        for mod, attr, _ in PATCHES
        if getattr(getattr(mod, attr), "__name__", "") == "traced_call"
    ]


def span_problems(tracer: Tracer) -> list[str]:
    """Spans that leave their parent, or whose children outlast them."""
    problems = []
    start, end = tracer.start, tracer.end
    for i, p in enumerate(tracer.parent):
        if end[i] < start[i]:
            problems.append(f"span {i} {tracer.name(i)} ends before it starts")
        if p >= 0 and not start[p] <= start[i] <= end[i] <= end[p]:
            problems.append(f"span {i} {tracer.name(i)} is not inside its parent {tracer.name(p)}")
    for i, children in enumerate(tracer.child_time()):
        if children > end[i] - start[i] + 1e-9:
            problems.append(f"children of span {i} {tracer.name(i)} outlast it")
    return problems


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, inclusive and self times, and useful-work ratios."""
    child_time = tracer.child_time()
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    ransac_s: dict[int, float] = defaultdict(float)
    restarts: dict[int, int] = defaultdict(int)
    enumerated = 0
    for i, p in enumerate(tracer.parent):
        name, dur, attr = tracer.name(i), tracer.end[i] - tracer.start[i], tracer.attr[i]
        calls[name] += 1
        total[name] += dur
        own[name] += dur - child_time[i]
        if name == "stats.l1_fit":
            enumerated += attr
        elif name == "discovery.lo_ransac_best":
            ransac_s[attr] += dur
        elif name == "em.run_em" and p >= 0 and tracer.name(p) == "discovery.lo_ransac_best":
            restarts[tracer.attr[p]] += 1
    degenerate = sum(
        1 for i, exc in tracer.failed.items()
        if exc == DegeneratePairError.__name__ and tracer.name(i) == "em.init_from_pairs"
    )

    def share(num, den):
        return num / den if den else 0.0

    useful = sum(
        1 for fitted, truth in tracer.restart_results
        if truth is not None and em.check_convergence(fitted, truth)
    )
    out = {
        "stats.l1_fit.calls": calls["stats.l1_fit"],
        "stats.l1_fit.self_s": own["stats.l1_fit"],
        "stats.l1_fit.enum_share": share(enumerated, calls["stats.l1_fit"]),
        "stats.weighted_ad_statistic_laplace.calls": calls["stats.weighted_ad_statistic_laplace"],
        "stats.weighted_ad_statistic_laplace.self_s": own["stats.weighted_ad_statistic_laplace"],
        "stats.estimate_scale.self_s": own["stats.estimate_scale"],
        "em.responsibilities.calls": calls["em.responsibilities"],
        "em.responsibilities.self_s": own["em.responsibilities"],
        "em.mixture_log_likelihood.calls": calls["em.mixture_log_likelihood"],
        "em.mixture_log_likelihood.self_s": own["em.mixture_log_likelihood"],
        "em.em_step.calls": calls["em.em_step"],
        "em.em_step.self_s": own["em.em_step"],
        "em.run_em.calls": calls["em.run_em"],
        "em.run_em.s": total["em.run_em"],
        "em.init_from_pairs.calls": calls["em.init_from_pairs"],
        "em.init_from_pairs.degenerate_ratio": share(degenerate, calls["em.init_from_pairs"]),
    }
    for k in range(1, 5):
        out[f"discovery.lo_ransac_best.k{k}.s"] = ransac_s[k]
    for k in range(1, 5):
        out[f"discovery.restarts.k{k}"] = restarts[k]
    out.update({
        "discovery.restart_useful_ratio": share(useful, len(tracer.restart_results)),
        "discovery.validate_k.self_s": own["discovery.validate_k"],
        "stats.anderson_darling_laplace.calls": calls["stats.anderson_darling_laplace"],
        "stats.anderson_darling_laplace.self_s": own["stats.anderson_darling_laplace"],
        "datagen.random_dataset.calls": calls["datagen.random_dataset"],
        "datagen.random_dataset.self_s": own["datagen.random_dataset"],
        "em.check_convergence.calls": calls["em.check_convergence"],
        "em.check_convergence.self_s": own["em.check_convergence"],
        "reproduce.measure_convergence_cell.s": total["reproduce.measure_convergence_cell"],
    })
    return out
