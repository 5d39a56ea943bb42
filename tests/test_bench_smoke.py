"""The benchmark's tiny-size self-test, run against the package in this checkout."""

import subprocess
import sys
from pathlib import Path

from metacausal import discovery, em, reproduce

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "bench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout.splitlines()


def _traced_names(workload) -> set[str]:
    import workloads

    corpus = workloads.build_corpus(workload, seed=3)
    _, _, tracer = workloads.measure_traced(workload, corpus[:1], 1)
    return {tracer.name(i) for i in range(len(tracer))}


def test_every_patched_binding_records_spans(monkeypatch):
    """A tiny traced discover pass and cell pass each record a span under
    every name the tracer patches in the modules they run through.  A call
    routed around a patched binding would leave its per-layer metric at 0."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import smoke
    import tracing

    # One core keeps every stage in this process, where the spans are kept.
    monkeypatch.setattr(discovery, "usable_cores", lambda: 1)
    expected = {
        kind: {name for mod, _, name in tracing.PATCHES if mod in modules}
        for kind, modules in (("discover", (discovery, em)), ("cells", (reproduce, em)))
    }
    for kind, names in expected.items():
        missing = names - _traced_names(smoke.TINY[kind])
        assert not missing, f"{kind}: no span under {sorted(missing)}"
