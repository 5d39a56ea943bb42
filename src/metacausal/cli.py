"""Batch command-line front end.

Subcommands: ``gen`` (synthetic datasets), ``discover`` (mechanism-count
recovery on a CSV), ``bounds`` (resample-count tables), ``reproduce``
(reference tables 1-4 at a chosen scale), ``simulate`` (system traces).

``discover`` and ``reproduce`` take their process count from the usable
cores (the CPU affinity, so ``taskset`` limits them) and write the same
bytes on any core count; no flag sets it.

Every command but ``bounds``, which draws no random number and takes no
seed, is reproducible from its flags plus the master seed (flag ``--seed``,
falling back to the METACAUSAL_SEED environment variable, then 0; a seed
that is not a non-negative integer is a usage error, the variable only when
``--seed`` is absent).  Commands that write files also write a
manifest JSON recording the command, the configuration snapshot, the seeds,
the artifact paths, the elapsed wall time, the software versions, numpy's
SIMD dispatch of float64 ``exp``, ``log`` and ``log1p`` (null before numpy
2.0), the usable cores and the git commit of the package's checkout (null
outside one); JSON results name their manifest, CSV artifacts are named by
it.  In ``discover`` results, each k's ``resamples`` is the restart budget,
not the number of restarts run.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 internal error.  An
``--out`` whose directory is missing exits 3 before the run starts, after
the checks of the flags.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from . import reference_values as ref
from . import reproduce
from .bounds import (
    expected_success_prob,
    lower_bound_success_prob,
    required_resamples,
)
from .datagen import (
    CsvFormatError,
    SidecarFormatError,
    random_dataset,
    read_dataset_csv,
    write_dataset_csv,
)
from .discovery import DiscoveryConfig, recover_mechanism_count, usable_cores
from .systems import follower, locks, stress, tag

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _env_seed(parser: argparse.ArgumentParser) -> int:
    """The METACAUSAL_SEED environment variable, else 0; a value that is not
    a non-negative integer is a usage error."""
    text = os.environ.get("METACAUSAL_SEED", "0")
    try:
        return _seed(text)
    except argparse.ArgumentTypeError:
        parser.error(f"METACAUSAL_SEED must be a non-negative integer, got {text!r}")


def _manifest_path(out: Path) -> Path:
    return out.with_suffix(out.suffix + ".manifest.json")


def _check_out_dir(out: Path) -> None:
    """Raise before the run the error that writing ``out`` would raise after
    it, when the directory to hold ``out`` is missing or is a file."""
    if not out.parent.is_dir():
        code = errno.ENOTDIR if out.parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(out))


def _git_sha() -> str | None:
    """HEAD of the git checkout holding this package, or None without git or
    outside a checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else None


def _numpy_dispatch() -> dict | None:
    """The SIMD target numpy dispatches float64 ``exp``, ``log`` and ``log1p``
    to, whose last bits differ between targets; None before numpy 2.0."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    info = opt_func_info(func_name="exp|log|log1p", signature="float64")
    return {f: info[f]["dd"]["current"] for f in ("exp", "log", "log1p")}


def _write_manifest(out: Path, command: str, config: dict, artifacts: list[str], args) -> Path:
    path = _manifest_path(out)
    payload = {
        "command": command,
        "config": config,
        "master_seed": args.seed,
        "task_seeds": [args.seed],
        "artifacts": artifacts,
        "wall_clock_budget_seconds": args.budget,
        "elapsed_seconds": perf_counter() - args.started,
        "versions": {
            "metacausal": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "numpy_dispatch": _numpy_dispatch(),
        "usable_cores": usable_cores(),
        "git_sha": _git_sha(),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _write_csv(rows: list[dict], stream) -> None:
    """Write ``rows`` to ``stream`` as CSV with a header; no rows write nothing."""
    if rows:
        writer = csv.DictWriter(stream, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _write_rows(rows: list[dict], args, command: str, config: dict) -> None:
    """Write ``rows`` as CSV to ``--out``, with its manifest, else to stdout."""
    if not args.out:
        _write_csv(rows, sys.stdout)
        return
    out = Path(args.out)
    with out.open("w", newline="", encoding="utf-8") as f:
        _write_csv(rows, f)
    _write_manifest(out, command, config, [out.name], args)
    print(f"wrote {out} ({len(rows)} rows)")


def cmd_gen(args) -> int:
    dataset = random_dataset(args.k, args.dev, args.seed, n_per_class_avg=args.n)
    out = Path(args.out)
    write_dataset_csv(dataset, out)
    manifest = _write_manifest(
        out,
        "gen",
        {"k": args.k, "dev": args.dev, "n_per_class": args.n},
        [out.name, out.name + ".meta.json"],
        args,
    )
    print(f"wrote {out} ({dataset.m} points), manifest {manifest.name}")
    return EXIT_OK


def _discovery_config(args) -> DiscoveryConfig:
    try:
        return DiscoveryConfig(
            k_max=args.kmax,
            max_class_dev=args.dev,
            resample_mode=args.mode,
            master_seed=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(_usage(str(exc))) from exc


def cmd_discover(args) -> int:
    dataset = read_dataset_csv(Path(args.data))
    result = recover_mechanism_count(dataset, args.config)
    out = Path(args.out)
    payload = {
        "k_hat": result.k_hat,
        "decided": result.decided,
        "master_seed": args.seed,
        "manifest": _manifest_path(out).name,
        "per_k": {
            str(k): {
                "resamples": diag.resamples,
                "passed": diag.passed,
                "log_likelihood": diag.state.log_likelihood,
                "mechanisms": [m.to_json_dict() for m in diag.state.mechanisms],
                "ad_tests": [None if r is None else dataclasses.asdict(r) for r in diag.ad_results],
            }
            for k, diag in result.per_k.items()
        },
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(
        out,
        "discover",
        {
            "data": str(args.data),
            "kmax": args.kmax,
            "dev": args.dev,
            "mode": args.mode,
        },
        [out.name],
        args,
    )
    print(f"k_hat = {result.k_hat} ({'decided' if result.decided else 'no decision'}), wrote {out}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    rows = []
    for d in args.devs:
        for n in range(1, args.n_max + 1):
            p_exp = expected_success_prob(n)
            p_low = lower_bound_success_prob(n, d)
            try:
                budgets = [required_resamples(p, args.confidence) for p in (p_exp, p_low)]
            except ValueError as exc:
                message = f"--n-max must be at most {n - 1} here: at n = {n}, d = {d}, {exc}"
                raise SystemExit(_usage(message)) from exc
            rows.append(
                {
                    "d": d,
                    "n": n,
                    "expected_prob": p_exp,
                    "lower_bound_prob": p_low,
                    "resamples_expected": budgets[0],
                    "resamples_lower_bound": budgets[1],
                }
            )
    _write_csv(rows, sys.stdout)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    cells = dict(only_k=args.k, only_d=args.dev)
    measured = dict(cells, scale=args.scale, master_seed=args.seed)
    rows = {
        1: lambda: reproduce.table1_rows(**measured),
        2: lambda: reproduce.table2_rows(**cells),
        3: lambda: reproduce.table3_rows(**measured),
        4: lambda: reproduce.table4_rows(**measured),
    }[args.table]()
    config = {"scale": args.scale, "k": args.k, "dev": args.dev}
    _write_rows(rows, args, f"reproduce {args.table}", config)
    return EXIT_OK


def _simulate_stress(args, rng) -> list[dict]:
    schedule: list[float] = []
    if args.ext_schedule:
        with open(args.ext_schedule, newline="", encoding="utf-8") as f:
            for rownum, row in enumerate(csv.reader(f), start=1):
                if not row or row[0].strip().lower() == "ext":
                    continue
                try:
                    ext = float(row[0])
                except ValueError as exc:
                    raise CsvFormatError(str(exc), rownum) from exc
                if not 0.0 <= ext <= 1.0:  # also rejects nan
                    raise CsvFormatError(f"ext must be a number in [0, 1], got {row[0]!r}", rownum)
                schedule.append(ext)
    state = stress.StressState(s=args.s0)
    rows = []
    for t in range(args.steps):
        ext = schedule[t] if t < len(schedule) else 0.0
        state = stress.StressState(s=state.s, ext=ext, d_internal=state.d_internal)
        nxt = stress.stress_step(state)
        rows.append(
            {
                "step": t,
                "s": state.s,
                "ext": ext,
                "decayed": nxt.d_internal,
                "next_s": nxt.s,
                "self_type": stress.stress_identify(state.s).label,
                # cobweb columns: the closed-loop response vs the identity
                "loop_response": stress.loop_response(state.s),
                "identity": state.s,
            }
        )
        state = nxt
    return rows


def _simulate_tag(args, rng) -> list[dict]:
    states = tag.run_episode(args.steps, rng)
    rows = []
    for t, (prev, curr) in enumerate(zip(states, states[1:])):
        matrix = tag.tag_identify(prev, curr)
        rows.append(
            {
                "step": t,
                "a_x": curr.a_pos[0],
                "a_y": curr.a_pos[1],
                "b_x": curr.b_pos[0],
                "b_y": curr.b_pos[1],
                "edge_b_to_a": matrix.label(1, 0).label,
                "edge_a_to_b": matrix.label(0, 1).label,
                "chaser_truth": prev.chaser,
                "tag_event": int(prev.chaser != curr.chaser),
            }
        )
    return rows


def _simulate_follower(args, rng) -> list[dict]:
    rows = []
    for policy in (follower.Policy.FOLLOWING, follower.Policy.STANDING_STILL):
        trace = follower.simulate_follower_trace(policy, args.steps, rng)
        ident = follower.follower_identify(policy, trace)
        for t, (a, b) in enumerate(trace):
            rows.append(
                {
                    "policy": policy.value,
                    "step": t,
                    "a_pos": a,
                    "b_pos": b,
                    "edge_b_to_a": "following" if ident.edge_present else "none",
                    "meta_root_cause": ident.meta_root_cause,
                }
            )
    return rows


def _simulate_locks(args, rng) -> list[dict]:
    state = locks.LocksState()
    rows = []
    for t, lock_index in enumerate((1, 2)):
        attribution = locks.locks_attribution(state, lock_index)
        rows.append(
            {
                "step": t,
                "action": f"open_lock{lock_index}",
                "classical_delta": attribution.classical_delta,
                "meta_changed": attribution.meta_changed,
                "state_before": str(attribution.before),
                "state_after": str(attribution.after),
            }
        )
        state = locks.LocksState(
            lock1=locks.Lock.OPEN,
            lock2=locks.Lock.OPEN if lock_index == 2 else state.lock2,
        )
    return rows


# Trace builders by system name, each called as ``fn(args, rng)``.
_SIMULATORS = {
    "tag": _simulate_tag,
    "stress": _simulate_stress,
    "follower": _simulate_follower,
    "locks": _simulate_locks,
}


def cmd_simulate(args) -> int:
    rows = _SIMULATORS[args.system](args, np.random.default_rng(args.seed))
    config = {"steps": args.steps}
    if args.system == "stress":
        config.update(s0=args.s0, ext_schedule=args.ext_schedule)
    _write_rows(rows, args, f"simulate {args.system}", config)
    return EXIT_OK


def _usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _checked(convert, ok, requirement: str):
    """argparse ``type``: ``convert(text)``, a usage error unless ``ok`` holds."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value

    return parse


_deviation = _checked(float, lambda d: 0.0 <= d < 1.0, "class deviation must lie in [0, 1)")
_confidence = _checked(float, lambda c: 0.0 < c < 1.0, "confidence must lie in (0, 1)")
_positive_int = _checked(int, lambda n: n >= 1, "expected an integer >= 1")
_unit_level = _checked(float, lambda s: 0.0 <= s <= 1.0, "level must lie in [0, 1]")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "expected a positive finite number")
_seed = _checked(int, lambda s: s >= 0, "expected a non-negative integer")


def _deviations(text: str) -> list[float]:
    return [_deviation(d) for d in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metacausal",
        description="Switching causal mechanisms: datasets, discovery, bounds, "
        "reference-table reproduction, and system simulations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=_seed,
        default=None,
        help="master seed (default: METACAUSAL_SEED env var, then 0)",
    )
    common.add_argument(
        "--budget",
        type=_positive_float,
        default=None,
        help="advisory wall-clock budget in seconds, recorded in manifests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen", parents=[common], help="generate a synthetic switching-mechanism dataset"
    )
    p.add_argument("--k", type=int, required=True, choices=range(1, 5), metavar="K")
    p.add_argument("--dev", type=_deviation, default=0.0, help="max class deviation in [0,1)")
    p.add_argument("--n", type=_positive_int, default=500, help="average points per class")
    p.add_argument("--out", default="dataset.csv")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser(
        "discover",
        parents=[common],
        help="recover the mechanism count from a dataset CSV",
        description="Recover the mechanism count from a dataset CSV. A candidate k >= 2 with "
        "at least 4 restarts per worker runs its restarts over a process pool of up to the "
        "usable cores (the CPU affinity, so taskset limits them); the results are reduced "
        "in restart order, so the winner is the same bit for bit on any core count. A k = 1 "
        "stage runs in-process and stops after its first usable restart.",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="discovery.json")
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--dev", type=_deviation, default=0.0)
    p.add_argument("--mode", choices=("empirical", "theoretical"), default="empirical")
    p.set_defaults(fn=cmd_discover)

    p = sub.add_parser("bounds", help="print restart-probability and resample tables")
    p.add_argument("--n-max", type=_positive_int, default=4)
    p.add_argument("--devs", type=_deviations, default="0.0,0.1,0.2", help="comma-separated deviations")
    p.add_argument("--confidence", type=_confidence, default=0.95)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser(
        "reproduce",
        parents=[common],
        help="re-measure a reference table at a given scale",
        description="Re-measure a reference table at a given scale. Tables 1, 3 and 4 run the "
        "datasets or restarts of all their cells, in table order, over one process pool of up to "
        "the usable cores (the CPU affinity, so taskset limits them). Every task owns a seed "
        "derived from its cell and index and the results are gathered in task order, so the "
        "table is the same bytes on any core count.",
    )
    p.add_argument("table", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--scale", type=_positive_float, default=0.3)
    p.add_argument(
        "--k", type=int, default=None, choices=ref.MECHANISM_COUNTS, help="restrict to one mechanism count"
    )
    p.add_argument(
        "--dev", type=float, default=None, choices=ref.DEVIATIONS, help="restrict to one deviation"
    )
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("simulate", parents=[common], help="run a system and emit its labeled trace")
    p.add_argument("--system", required=True, choices=tuple(_SIMULATORS))
    p.add_argument("--steps", type=_positive_int, default=500)
    p.add_argument("--s0", type=_unit_level, default=0.8, help="stress: initial level in [0,1]")
    p.add_argument(
        "--ext-schedule",
        default=None,
        help="stress: CSV with one external-stressor value per step",
    )
    p.add_argument("--out", default=None, help="write trace CSV here instead of stdout")
    p.set_defaults(fn=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed") and args.seed is None:
        args.seed = _env_seed(parser)
    if args.command == "discover":  # a usage error comes before any I/O error
        args.config = _discovery_config(args)
    args.started = perf_counter()
    try:
        if getattr(args, "out", None):
            _check_out_dir(Path(args.out))
        return args.fn(args)
    except SystemExit:
        raise
    except CsvFormatError as exc:
        print(f"error: malformed CSV: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, SidecarFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # a bug, not a bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
