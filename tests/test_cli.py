import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metacausal.cli import main

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

    def test_malformed_sidecar_is_io_error(self, tmp_path, capsys):
        main(["gen", "--k", "1", "--n", "60", "--seed", "3", "--out", str(tmp_path / "d.csv")])
        (tmp_path / "d.csv.meta.json").write_text('{"mechanisms": [{"alpha": 1.0}]}')
        code = main(["discover", "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "r.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "d.csv.meta.json" in err and "'beta'" in err
        assert not (tmp_path / "r.json").exists()

    def test_empirical_kmax_above_reference_is_usage_error(self, tmp_path):
        main(["gen", "--k", "1", "--n", "100", "--seed", "3", "--out", str(tmp_path / "d.csv")])
        with pytest.raises(SystemExit) as exit_info:
            main(["discover", "--data", str(tmp_path / "d.csv"), "--kmax", "5",
                  "--out", str(tmp_path / "r.json")])
        assert exit_info.value.code == 2
        assert not (tmp_path / "r.json").exists()


class TestBounds:
    def test_reference_grid(self, capsys):
        assert main(["bounds", "--n-max", "4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("d,n,")
        rows = [line.split(",") for line in out[1:]]
        # d=0 row: resample counts 1, 23, 363, 8179
        d0 = [r for r in rows if r[0] == "0.0"]
        assert [int(r[5]) for r in d0] == [1, 23, 363, 8179]

    def test_deviation_one_rejected(self):
        with pytest.raises(SystemExit):
            main(["bounds", "--devs", "0.0,1.0"])

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
            (["reproduce", "3", "--workers", "0"], "--workers"),
            # one more than the CPU count: argparse rejects it before any pool starts
            (["reproduce", "3", "--workers", str((os.cpu_count() or 1) + 1)], "--workers"),
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


class TestSimulate:
    def test_stress_trace_columns(self, capsys):
        assert main(["simulate", "--system", "stress", "--steps", "4", "--s0", "0.8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        for col in ("s", "ext", "decayed", "self_type", "loop_response", "identity"):
            assert col in header
        first = dict(zip(header, lines[1].split(",")))
        assert first["self_type"] == "+1"

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
