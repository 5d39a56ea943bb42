import contextlib
import errno
import io
import json
import linecache
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metacausal import cli, discovery, reproduce
from metacausal.cli import build_parser, main
from metacausal.discovery import usable_cores
from metacausal.systems import stress

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, cwd):
    # An absolute path: a relative PYTHONPATH would resolve against ``cwd``.
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "metacausal.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestGen:
    def test_writes_labeled_csv_of_expected_size(self, tmp_path):
        code = main(["gen", "--k", "2", "--dev", "0.0", "--n", "500", "--seed", "7",
                     "--out", str(tmp_path / "d.csv")])
        assert code == 0
        lines = (tmp_path / "d.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 1001
        assert (tmp_path / "d.csv.meta.json").exists()
        assert (tmp_path / "d.csv.manifest.json").exists()

    def test_k5_is_usage_error(self, tmp_path):
        result = run_cli(["gen", "--k", "5", "--out", "x.csv"], tmp_path)
        assert result.returncode == 2

    def test_reruns_bit_identical(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            main(["gen", "--k", "4", "--dev", "0.2", "--seed", "7",
                  "--out", str(tmp_path / name)])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("METACAUSAL_SEED", "7")
        result = run_cli(["gen", "--k", "1", "--out", "env.csv"], tmp_path)
        assert result.returncode == 0
        manifest = json.loads((tmp_path / "env.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 7

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        for text in ("abc", "-5"):
            monkeypatch.setenv("METACAUSAL_SEED", text)
            result = run_cli(["gen", "--k", "1", "--out", "env.csv"], tmp_path)
            assert result.returncode == 2
            assert f"METACAUSAL_SEED must be a non-negative integer, got {text!r}" in result.stderr
            assert not (tmp_path / "env.csv").exists()

    def test_bad_env_seed_ignored_under_seed_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("METACAUSAL_SEED", "abc")
        result = run_cli(["gen", "--k", "1", "--seed", "5", "--out", "env.csv"], tmp_path)
        assert result.returncode == 0
        manifest = json.loads((tmp_path / "env.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 5


class TestDiscover:
    def test_end_to_end(self, tmp_path):
        main(["gen", "--k", "1", "--n", "500", "--seed", "11",
              "--out", str(tmp_path / "d.csv")])
        code = main(["discover", "--data", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "r.json"), "--seed", "2"])
        assert code == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["k_hat"] == 1
        assert payload["decided"] is True
        assert payload["manifest"] == "r.json.manifest.json"
        diag = payload["per_k"]["1"]
        assert len(diag["mechanisms"]) == 1
        assert diag["ad_tests"][0]["passed"] is True

    def test_missing_file_is_io_error(self, tmp_path):
        code = main(["discover", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 3

    @pytest.mark.parametrize("kmax, seed", [(2, 2), (4, 1), (4, 2)])
    def test_seed_lines_that_overflow_on_finite_data_are_redrawn(self, tmp_path, kmax, seed):
        # A seed pair at x = 0 and 1e-300 spans a line whose residuals at
        # x >= 1e8 overflow; such a draw is redrawn, so the run ends normally
        # (RuntimeWarnings are errors under pytest).
        rng = np.random.default_rng(0)
        x = np.concatenate([[0.0, 1e-300], rng.uniform(1e8, 2e9, 60)])
        y = rng.uniform(-1, 1, 62) + 0.5
        data = tmp_path / "d.csv"
        data.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
        code = main(["discover", "--data", str(data), "--out", str(tmp_path / "r.json"),
                     "--kmax", str(kmax), "--seed", str(seed)])
        assert code == 0
        assert json.loads((tmp_path / "r.json").read_text())["k_hat"] in range(kmax + 1)

    def test_axes_1e590_apart_end_normally(self, tmp_path, monkeypatch):
        # x near 1e290 and y near 1e-300.  The start line and the fitted lines
        # stay in range; the slope quotients of the descent still overflow, and
        # the residuals of the lines they give are NaN.  The set of warnings is
        # pinned, so that a fix of those shows here.
        monkeypatch.setattr(discovery, "usable_cores", lambda: 1)  # no worker hides a warning
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(40) * 1e290, rng.standard_normal(40) * 1e-300
        data = tmp_path / "d.csv"
        data.write_text("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
        with pytest.warns(RuntimeWarning) as caught:
            code = main(["discover", "--data", str(data), "--out", str(tmp_path / "r.json"),
                         "--kmax", "2", "--seed", "0"])
        assert code == 0
        assert {(str(w.message), linecache.getline(w.filename, w.lineno).strip()) for w in caught} == {
            ("overflow encountered in divide",
             "slopes = np.divide(y - y[anchor], dx, out=np.full_like(dx, np.inf), where=dx != 0.0)"),
            ("overflow encountered in scalar divide",
             "alpha = float((y[partner] - y[anchor]) / run) if run != 0.0 else math.inf"),
            ("invalid value encountered in subtract", "r = y - alpha * x - beta"),
            ("invalid value encountered in subtract", "r -= beta"),
        }

    def test_malformed_csv_reports_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1.0,2.0\noops,3.0\n")
        code = main(["discover", "--data", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, row",
        [("x,y\n1.0,2.0\nnan,3.0\n", 3), ("x,y\n1.0,inf\n", 2), ("x,y\n", 2)],
    )
    def test_non_finite_or_empty_csv_is_io_error(self, tmp_path, capsys, text, row):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = main(["discover", "--data", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert f"row {row}" in capsys.readouterr().err

    @staticmethod
    def _discover_with_sidecar(tmp_path, capsys, sidecar):
        main(["gen", "--k", "1", "--n", "60", "--seed", "3", "--out", str(tmp_path / "d.csv")])
        (tmp_path / "d.csv.meta.json").write_text(sidecar)
        code = main(["discover", "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "r.json")])
        assert not (tmp_path / "r.json").exists()
        return code, capsys.readouterr().err

    def test_malformed_sidecar_is_io_error(self, tmp_path, capsys):
        code, err = self._discover_with_sidecar(tmp_path, capsys, '{"mechanisms": [{"alpha": 1.0}]}')
        assert code == 3
        assert "d.csv.meta.json" in err and "'beta'" in err

    def test_sidecar_with_a_non_finite_slope_is_io_error(self, tmp_path, capsys):
        mechanism = '{"alpha": NaN, "beta": 0.0, "b": 1.0, "direction": "xy"}'
        sidecar = f'{{"mechanisms": [{mechanism}], "class_probs": [1.0]}}'
        code, err = self._discover_with_sidecar(tmp_path, capsys, sidecar)
        assert code == 3
        assert "d.csv.meta.json" in err and "alpha must be finite, got nan" in err

    def test_manifest_records_what_ran(self, tmp_path):
        main(["gen", "--k", "1", "--n", "60", "--seed", "3", "--out", str(tmp_path / "d.csv")])
        assert main(["discover", "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "r.json")]) == 0

        def strict(token):
            raise ValueError(f"not strict JSON: {token}")

        text = (tmp_path / "r.json.manifest.json").read_text()
        manifest = json.loads(text, parse_constant=strict)
        assert math.isfinite(manifest["elapsed_seconds"]) and manifest["elapsed_seconds"] >= 0
        assert set(manifest["versions"]) == {"metacausal", "numpy", "python"}
        assert manifest["versions"]["numpy"] == np.__version__
        assert all(isinstance(v, str) and v for v in manifest["versions"].values())
        assert manifest["usable_cores"] == usable_cores()
        assert set(manifest["config"]) == {"data", "kmax", "dev", "mode"}

    def test_dominance_rule_flag_is_usage_error(self, capsys):
        # One dominance rule, fixed: no flag selects another.
        with pytest.raises(SystemExit) as exit_info:
            main(["discover", "--data", "d.csv", "--dominance-rule", "relative"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --dominance-rule relative" in capsys.readouterr().err

    def test_empirical_kmax_above_reference_is_usage_error(self, tmp_path):
        main(["gen", "--k", "1", "--n", "100", "--seed", "3", "--out", str(tmp_path / "d.csv")])
        with pytest.raises(SystemExit) as exit_info:
            main(["discover", "--data", str(tmp_path / "d.csv"), "--kmax", "5",
                  "--out", str(tmp_path / "r.json")])
        assert exit_info.value.code == 2
        assert not (tmp_path / "r.json").exists()

    def test_constant_x_gets_no_decision(self, tmp_path):
        # Every seed pair would be vertical, so no restart could run.
        data = tmp_path / "d.csv"
        data.write_text("x,y\n" + "".join(f"1.5,{0.37 * i % 5}\n" for i in range(60)))
        assert main(["discover", "--data", str(data), "--out", str(tmp_path / "r.json")]) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert (payload["k_hat"], payload["per_k"]) == (0, {})

    def test_stage_without_usable_seed_pairs_gets_no_decision(self, tmp_path):
        # 300 points at x = 0 and one at x = 1: no k = 2 draw holds two
        # non-vertical pairs, so the search ends there instead of failing.
        xs = [0.0] * 300 + [1.0]
        ys = np.random.default_rng(0).standard_cauchy(301).tolist()
        data = tmp_path / "d.csv"
        data.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
        code = main(["discover", "--data", str(data), "--out", str(tmp_path / "r.json"), "--seed", "1"])
        assert code == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["k_hat"] == 0 and payload["decided"] is False
        assert set(payload["per_k"]) == {"1"} and not payload["per_k"]["1"]["passed"]


class TestManifestGitSha:
    SHA = "0123456789abcdef0123456789abcdef01234567"

    def _manifest(self, tmp_path):
        assert main(["gen", "--k", "1", "--n", "60", "--out", str(tmp_path / "d.csv")]) == 0
        return json.loads((tmp_path / "d.csv.manifest.json").read_text())

    def test_records_head_of_the_package_checkout(self, tmp_path, monkeypatch):
        calls = []

        def fake_run(cmd, **kwargs):
            calls.append((cmd, kwargs))
            return subprocess.CompletedProcess(cmd, 0, stdout=self.SHA + "\n", stderr="")

        monkeypatch.setattr(cli.subprocess, "run", fake_run)
        assert self._manifest(tmp_path)["git_sha"] == self.SHA
        [(cmd, kwargs)] = calls
        assert cmd == ["git", "rev-parse", "HEAD"]
        assert Path(kwargs["cwd"]) == Path(cli.__file__).resolve().parent
        assert kwargs["timeout"] <= 10

    @pytest.mark.parametrize(
        "outcome",
        [FileNotFoundError("git"), subprocess.TimeoutExpired("git", 5),
         subprocess.CompletedProcess([], 128, stdout="", stderr="not a git repository")],
    )
    def test_null_without_git_or_checkout(self, tmp_path, monkeypatch, outcome):
        def fake_run(cmd, **kwargs):
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        monkeypatch.setattr(cli.subprocess, "run", fake_run)
        assert self._manifest(tmp_path)["git_sha"] is None


_DISPATCH_PROBE = (
    "from numpy.lib.introspect import opt_func_info; "
    "info = opt_func_info(func_name='exp|log|log1p', signature='float64'); "
    "print(','.join(info[f]['dd']['current'] for f in ('exp', 'log', 'log1p')))"
)


def _native_exp_target():
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    return opt_func_info(func_name="exp", signature="float64")["exp"]["dd"]["current"]


class TestManifestNumpyDispatch:
    # float64 exp, log and log1p return different last bits under different
    # SIMD targets, so a manifest names the targets its run used.

    def _manifest(self, tmp_path):
        assert main(["gen", "--k", "1", "--n", "60", "--out", str(tmp_path / "d.csv")]) == 0
        return json.loads((tmp_path / "d.csv.manifest.json").read_text())

    def test_records_the_float64_targets(self, tmp_path):
        dispatch = self._manifest(tmp_path)["numpy_dispatch"]
        if _native_exp_target() is None:
            assert dispatch is None
            return
        assert set(dispatch) == {"exp", "log", "log1p"}
        assert all(isinstance(v, str) and v for v in dispatch.values())
        assert dispatch["exp"] == _native_exp_target()

    def test_null_before_numpy_2(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)
        assert self._manifest(tmp_path)["numpy_dispatch"] is None

    @pytest.mark.skipif(_native_exp_target() != "X86_V4", reason="needs AVX-512 (X86_V4) dispatch")
    def test_follows_disabled_cpu_features(self, tmp_path):
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "PYTHONPATH": path,
               "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
        gen = [sys.executable, "-m", "metacausal.cli", "gen", "--k", "1", "--n", "60", "--out", "d.csv"]
        assert subprocess.run(gen, capture_output=True, cwd=tmp_path, env=env).returncode == 0
        probe = subprocess.run([sys.executable, "-c", _DISPATCH_PROBE], capture_output=True,
                               text=True, env=env, check=True)
        dispatch = json.loads((tmp_path / "d.csv.manifest.json").read_text())["numpy_dispatch"]
        assert dispatch["exp"] != "X86_V4"
        assert ",".join(dispatch[f] for f in ("exp", "log", "log1p")) == probe.stdout.strip()


class TestBounds:
    def test_reference_grid(self, capsys):
        assert main(["bounds", "--n-max", "4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("d,n,")
        rows = [line.split(",") for line in out[1:]]
        # d=0 row: resample counts 1, 23, 363, 8179
        d0 = [r for r in rows if r[0] == "0.0"]
        assert [int(r[5]) for r in d0] == [1, 23, 363, 8179]

    def test_tiny_probabilities(self, capsys):
        # At n = 12 the probabilities no longer change 1 - p.
        assert main(["bounds", "--n-max", "40"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 3 * 40
        # From n = 123 at d = 0 the restart count overflows a float; from n = 125
        # at d = 0.2 the probability underflows to 0.
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds", "--n-max", "200"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--n-max" in captured.err and not captured.out

    def test_deviation_one_rejected(self):
        with pytest.raises(SystemExit):
            main(["bounds", "--devs", "0.0,1.0"])

    def test_ignores_the_seed_variable(self, tmp_path, monkeypatch):
        # bounds draws no random number, so a bad METACAUSAL_SEED is not read.
        plain = run_cli(["bounds", "--n-max", "4"], tmp_path)
        monkeypatch.setenv("METACAUSAL_SEED", "abc")
        with_var = run_cli(["bounds", "--n-max", "4"], tmp_path)
        assert plain.returncode == with_var.returncode == 0
        assert with_var.stdout == plain.stdout and plain.stdout

    @pytest.mark.parametrize("flag, value", [("--seed", "1"), ("--budget", "3")])
    def test_takes_no_seed_or_budget(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main(["bounds", flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bounds", "--devs", "abc"], "--devs"),
            (["bounds", "--confidence", "1.5"], "--confidence"),
            (["bounds", "--n-max", "0"], "--n-max"),
            (["discover", "--data", "d.csv", "--mode", "theoretical", "--dev", "1.5"], "--dev"),
            (["gen", "--k", "1", "--dev", "1.0"], "--dev"),
            (["gen", "--k", "1", "--n", "-1"], "--n"),
            (["reproduce", "3", "--dev", "0.15"], "--dev"),
            (["reproduce", "3", "--k", "7"], "--k"),
            (["gen", "--k", "0"], "--k"),
            (["reproduce", "3", "--dev", "nan"], "--dev"),
            (["simulate", "--system", "tag", "--steps", "-1"], "--steps"),
            (["simulate", "--system", "stress", "--s0", "2"], "--s0"),
            *((["reproduce", "3", "--scale", v, "--k", "1", "--dev", "0.0"], "--scale")
              for v in ("-1", "0", "nan", "inf")),
            *((["gen", "--k", "1", "--n", "30", "--budget", v], "--budget") for v in ("nan", "-3", "0")),
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err


def _rejected_by(convert):
    def rejected(text: str) -> bool:
        try:
            convert(text)
        except (ValueError, OverflowError):
            return True
        return False

    return rejected


_NOT_FLOAT = st.text(max_size=8).filter(_rejected_by(float))
_NOT_INT = st.text(max_size=8).filter(_rejected_by(int))
_NAN_INF = st.sampled_from(["nan", "inf", "-inf"])


def _floats_outside(low, high, low_ok, high_ok):
    """Text of floats outside the interval from ``low`` to ``high``, NaN and
    non-numbers; ``low_ok``/``high_ok`` say whether the end itself is valid."""
    below = st.floats(max_value=low, exclude_max=low_ok, allow_nan=False)
    above = st.floats(min_value=high, exclude_min=high_ok, allow_nan=False)
    return st.one_of(below.map(repr), above.map(repr), st.just("nan"), _NOT_FLOAT)


_BAD_DEVIATION = _floats_outside(0.0, 1.0, True, False)
_BAD_POSITIVE_INT = st.one_of(st.integers(max_value=0).map(str), _NOT_INT)
_BAD_POSITIVE_FLOAT = st.one_of(
    st.floats(max_value=0.0, allow_nan=False).map(repr), _NAN_INF, _NOT_FLOAT
)


@st.composite
def _bad_deviation_list(draw):
    """Comma-separated valid deviations with one bad entry among them."""
    good = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True).map(repr), max_size=3))
    bad = draw(_BAD_DEVIATION.filter(lambda t: "," not in t))
    good.insert(draw(st.integers(0, len(good))), bad)
    return ",".join(good)


# (a command line, a flag it checks, drawn bad values of that flag)
_CHECKED_FLAGS = [
    (["gen", "--k", "1"], "--dev", _BAD_DEVIATION),
    (["discover", "--data", "d.csv"], "--dev", _BAD_DEVIATION),
    (["gen", "--k", "1"], "--n", _BAD_POSITIVE_INT),
    (["bounds"], "--confidence", _floats_outside(0.0, 1.0, False, False)),
    (["bounds"], "--devs", _bad_deviation_list()),
    (["bounds"], "--n-max", _BAD_POSITIVE_INT),
    (["simulate", "--system", "stress"], "--steps", _BAD_POSITIVE_INT),
    (["simulate", "--system", "stress"], "--s0", _floats_outside(0.0, 1.0, True, True)),
    (["reproduce", "3"], "--scale", _BAD_POSITIVE_FLOAT),
    (["gen", "--k", "1"], "--budget", _BAD_POSITIVE_FLOAT),
]


class TestDrawnBadValues:
    """Every checked flag turns a drawn out-of-range or non-numeric value into
    exit 2, with a message naming the flag.  Only the parser runs, so a value
    that slipped through would start no command."""

    @pytest.mark.parametrize(
        "prefix, flag, values", _CHECKED_FLAGS, ids=[f"{p[0]} {f}" for p, f, _ in _CHECKED_FLAGS]
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bad_value_exits_2_naming_the_flag(self, prefix, flag, values, data):
        value = data.draw(values, label=flag)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*prefix, f"{flag}={value}"])
        assert exit_info.value.code == 2
        assert f"argument {flag}:" in err.getvalue()


# A short run of each command that takes --seed and --out.
_SEEDED = {
    "gen": ["gen", "--k", "1"],
    "discover": ["discover", "--data", "d.csv"],
    "reproduce": ["reproduce", "3", "--scale", "0.002", "--k", "1", "--dev", "0.0"],
    "simulate": ["simulate", "--system", "tag", "--steps", "5"],
}


def _never(*args, **kwargs):
    raise AssertionError("the run started")


# Per command, a patch that makes its work raise.
_NO_WORK = {
    "gen": lambda mp: mp.setattr(cli, "random_dataset", _never),
    "discover": lambda mp: mp.setattr(cli, "recover_mechanism_count", _never),
    "reproduce": lambda mp: mp.setattr(reproduce, "table3_rows", _never),
    "simulate": lambda mp: mp.setitem(cli._SIMULATORS, "tag", _never),
}


@pytest.mark.parametrize("command", _SEEDED)
def test_negative_seed_is_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([*_SEEDED[command], "--seed", "-1"])
    assert exit_info.value.code == 2
    assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("parent, code", [("missing", errno.ENOENT), ("file", errno.ENOTDIR)])
@pytest.mark.parametrize("command", _SEEDED)
def test_missing_out_dir_fails_before_the_run(tmp_path, monkeypatch, capsys, command, parent, code):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--k", "1", "--n", "30", "--out", "d.csv"]) == 0
    (tmp_path / "file").write_text("")
    _NO_WORK[command](monkeypatch)
    out = tmp_path / parent / "out.csv"
    capsys.readouterr()
    assert main([*_SEEDED[command], "--out", str(out)]) == 3
    # The message the write would have raised after the run.
    assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: '{out}'\n"


@pytest.mark.parametrize("command", _SEEDED)
def test_a_bug_in_the_run_exits_4(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--k", "1", "--n", "30", "--out", "d.csv"]) == 0
    _NO_WORK[command](monkeypatch)
    capsys.readouterr()
    assert main(_SEEDED[command]) == 4
    assert capsys.readouterr().err == "internal error: the run started\n"


@pytest.mark.parametrize(
    "flags, message",
    [(["--kmax", "0"], "k_max must be >= 1, got 0"), (["--kmax", "5"], "reference rates stop at k = 4")],
)
def test_discover_usage_error_comes_before_missing_out_dir(tmp_path, monkeypatch, capsys, flags, message):
    _NO_WORK["discover"](monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        main(["discover", "--data", "d.csv", *flags, "--out", str(tmp_path / "missing" / "r.json")])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


class TestReproduce:
    def test_table2_matches_reference_within_one(self, capsys):
        assert main(["reproduce", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            got, ref = int(row[2]), int(row[3])
            assert abs(got - ref) <= 1

    def test_table3_single_cell_writes_csv(self, tmp_path):
        code = main(["reproduce", "3", "--scale", "0.004", "--k", "1", "--dev", "0.0",
                     "--seed", "1", "--out", str(tmp_path / "t3.csv")])
        assert code == 0
        lines = (tmp_path / "t3.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert "rate" in header and "reference_rate" in header

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "9"])

    def test_table2_restricted_to_one_cell(self, tmp_path):
        out = tmp_path / "t2.csv"
        assert main(["reproduce", "2", "--k", "2", "--dev", "0.1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert (row["d"], row["k"], row["reference_theoretical"]) == ("0.1", "2", "26")

    @pytest.mark.parametrize("table, scale", [("1", "0.02"), ("3", "0.002"), ("4", "0.01")])
    def test_same_bytes_on_one_and_two_cores(self, monkeypatch, capsys, table, scale):
        printed = []
        for cores in (1, 2):
            for module in (reproduce, discovery):
                monkeypatch.setattr(module, "usable_cores", lambda cores=cores: cores)
            argv = ["reproduce", table, "--scale", scale, "--k", "2", "--dev", "0.1", "--seed", "3"]
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert len(printed[0].splitlines()) == 2

    def test_workers_flag_is_usage_error(self, capsys):
        # The process count comes from the usable cores; no flag sets it.
        with pytest.raises(SystemExit) as exit_info:
            main(["reproduce", "3", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestSimulate:
    def test_stress_trace_columns(self, capsys):
        assert main(["simulate", "--system", "stress", "--steps", "4", "--s0", "0.8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        for col in ("s", "ext", "decayed", "self_type", "loop_response", "identity"):
            assert col in header
        first = dict(zip(header, lines[1].split(",")))
        assert first["self_type"] == "+1"

    def test_stress_loop_response_column(self, capsys):
        # The cobweb column is the closed loop of the stress system itself.
        assert main(["simulate", "--system", "stress", "--steps", "50", "--s0", "0.3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 51
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["loop_response"] == repr(stress.loop_response(float(row["s"])))

    def test_stress_ext_schedule(self, tmp_path):
        sched = tmp_path / "ext.csv"
        sched.write_text("ext\n0.9\n0.9\n0.9\n0.9\n0.9\n0.9\n")
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--system", "stress", "--steps", "6", "--s0", "0.1",
                     "--ext-schedule", str(sched), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        last = dict(zip(lines[0].split(","), lines[-1].split(",")))
        assert last["self_type"] == "+1"  # external stressors flipped the mode

    def test_stress_ext_schedule_non_numeric_cell_is_io_error(self, tmp_path, capsys):
        sched = tmp_path / "ext.csv"
        sched.write_text("ext\n0.9\n\nhigh\n")
        code = main(["simulate", "--system", "stress", "--steps", "3",
                     "--ext-schedule", str(sched), "--out", str(tmp_path / "st.csv")])
        assert code == 3
        assert "row 4: could not convert string to float: 'high'" in capsys.readouterr().err

    def test_stress_manifest_records_the_schedule(self, tmp_path):
        sched = tmp_path / "ext.csv"
        sched.write_text("ext\n0.9\n")
        out = tmp_path / "st.csv"
        assert main(["simulate", "--system", "stress", "--steps", "3",
                     "--ext-schedule", str(sched), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "st.csv.manifest.json").read_text())
        assert manifest["config"] == {"steps": 3, "s0": 0.8, "ext_schedule": str(sched)}
        assert main(["simulate", "--system", "stress", "--steps", "3", "--s0", "0.5", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "st.csv.manifest.json").read_text())
        assert manifest["config"] == {"steps": 3, "s0": 0.5, "ext_schedule": None}

    def test_tag_manifest_records_only_what_tag_reads(self, tmp_path):
        out = tmp_path / "tag.csv"
        assert main(["simulate", "--system", "tag", "--steps", "5", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "tag.csv.manifest.json").read_text())
        assert manifest["config"] == {"steps": 5}

    @pytest.mark.parametrize("value", ["2.0", "-0.5", "nan", "inf"])
    def test_out_of_range_ext_schedule_names_row(self, tmp_path, capsys, value):
        sched = tmp_path / "ext.csv"
        sched.write_text(f"ext\n0.5\n{value}\n")
        code = main(["simulate", "--system", "stress", "--steps", "4", "--ext-schedule", str(sched)])
        assert code == 3
        assert "row 3" in capsys.readouterr().err

    def test_tag_trace_flips_match_tag_events(self, tmp_path):
        out = tmp_path / "tag.csv"
        assert main(["simulate", "--system", "tag", "--steps", "400", "--seed", "5",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        for prev, curr in zip(rows, rows[1:]):
            flipped = prev["edge_b_to_a"] != curr["edge_b_to_a"]
            assert flipped == (prev["tag_event"] == "1")

    def test_follower_and_locks_run(self, capsys):
        assert main(["simulate", "--system", "follower", "--steps", "50", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["simulate", "--system", "locks"]) == 0
        out = capsys.readouterr().out
        assert "open_lock1,0,True" in out
        assert "open_lock2,1,True" in out

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--system", "weather"])
