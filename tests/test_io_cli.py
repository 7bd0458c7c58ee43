"""CSV/JSON round-trips and the command-line interface."""

import argparse
import json
import os

import numpy as np
import pytest

from rhdepth import generate_inliers, generate_scenario, ScenarioSpec
from rhdepth.cli import _build_parser, _resolve_threads, parse_scenario_config, run
from rhdepth.io import (
    atomic_write_text,
    read_labels,
    read_sample,
    sample_to_csv,
    write_labels,
    write_sample,
)


@pytest.fixture()
def sample_csv(tmp_path):
    sample = generate_inliers(30, seed=1)
    path = tmp_path / "sample.csv"
    write_sample(str(path), sample)
    return str(path)


class TestIo:
    def test_sample_round_trip_is_exact(self, tmp_path):
        sample = generate_inliers(10, seed=0)
        path = tmp_path / "s.csv"
        write_sample(str(path), sample)
        back = read_sample(str(path))
        assert np.array_equal(back.values, sample.values)
        assert np.array_equal(back.grid.points, sample.grid.points)
        assert np.array_equal(back.grid.weights, sample.grid.weights)

    def test_write_is_stable(self, tmp_path):
        sample = generate_inliers(5, seed=2)
        assert sample_to_csv(sample) == sample_to_csv(sample)

    def test_labels_round_trip(self, tmp_path):
        labels = ["inlier", "magnitude", "inlier", "jump"]
        path = tmp_path / "labels.csv"
        write_labels(str(path), labels)
        assert read_labels(str(path)) == labels
        for body in ("0,inlier\n5,jump\n", "0,inlier\n0,jump\n"):
            path.write_text("index,label\n" + body)
            with pytest.raises(ValueError, match="indices"):
                read_labels(str(path))

    def test_written_file_follows_umask(self, tmp_path):
        path = tmp_path / "out.txt"
        old = os.umask(0o022)
        try:
            atomic_write_text(str(path), "x\n")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o644

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_sample(str(tmp_path / "absent.csv"))


class TestScenarioConfig:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text(
            "# mixed contamination\n"
            "n_inliers = 200\n"
            "outliers = magnitude:1, jump:1, wiggle:1, linear:1\n"
            "p = 50\n"
        )
        spec = parse_scenario_config(str(cfg))
        assert spec.n_inliers == 200
        assert spec.outlier_counts == {
            "magnitude": 1,
            "jump": 1,
            "wiggle": 1,
            "linear": 1,
        }
        assert spec.p == 50

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_inliers = 10\nbogus = 3\n")
        with pytest.raises(ValueError):
            parse_scenario_config(str(cfg))

    def test_missing_required_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("p = 50\n")
        with pytest.raises(ValueError):
            parse_scenario_config(str(cfg))


class TestCli:
    def test_depth_writes_csv_and_manifest(self, sample_csv, tmp_path):
        out = tmp_path / "depths.csv"
        code = run(
            [
                "depth",
                "--input",
                sample_csv,
                "--J",
                "4",
                "--M",
                "200",
                "--u",
                "0.95",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eval_id,depth,normalized_rank,lambda_used,n_min_directions"
        assert len(lines) == 31
        manifest = json.loads((tmp_path / "depths.csv.manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 7
        assert "wall_time_seconds" in manifest

    def test_missing_regularization_exits_1(self, sample_csv, tmp_path):
        code = run(
            [
                "depth",
                "--input",
                sample_csv,
                "--seed",
                "7",
                "--out",
                str(tmp_path / "d.csv"),
            ]
        )
        assert code == 1

    def test_both_u_and_lambda_exits_1(self, sample_csv, tmp_path):
        code = run(
            [
                "depth",
                "--input",
                sample_csv,
                "--u",
                "0.5",
                "--lambda",
                "2.0",
                "--seed",
                "7",
                "--out",
                str(tmp_path / "d.csv"),
            ]
        )
        assert code == 1

    def test_rank_error_exits_2(self, tmp_path):
        # eight curves spanning a one-dimensional space cannot support J=4
        import numpy as np
        from rhdepth import FunctionalSample, make_uniform_grid

        grid = make_uniform_grid(30)
        low_rank = FunctionalSample(
            grid, np.outer(np.arange(1.0, 9.0), np.sin(grid.points))
        )
        path = tmp_path / "lowrank.csv"
        write_sample(str(path), low_rank)
        code = run(
            [
                "depth",
                "--input",
                str(path),
                "--J",
                "4",
                "--u",
                "0.95",
                "--seed",
                "7",
                "--out",
                str(tmp_path / "d.csv"),
            ]
        )
        assert code == 2

    def test_missing_input_exits_1(self, tmp_path):
        code = run(
            [
                "depth",
                "--input",
                str(tmp_path / "absent.csv"),
                "--u",
                "0.95",
                "--seed",
                "7",
                "--out",
                str(tmp_path / "d.csv"),
            ]
        )
        assert code == 1

    def test_one_point_grid_exits_1(self, tmp_path, capsys):
        path = tmp_path / "p1.csv"
        path.write_text("0.5\n1.0\n2.0\n")
        argv = ["depth", "--input", str(path), "--u", "0.5", "--seed", "7"]
        code = run(argv + ["--out", str(tmp_path / "d.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at least 2 points" in err

    def test_threads_below_one_exits_1(self, sample_csv, tmp_path, capsys):
        argv = ["depth", "--input", sample_csv, "--u", "0.5", "--seed", "7"]
        argv += ["--out", str(tmp_path / "d.csv")]
        for threads in ("0", "-3"):
            assert run(["--threads", threads] + argv) == 1
            assert "--threads must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_resolve_threads(self, monkeypatch):
        parser = _build_parser()
        cpus = os.cpu_count() or 1
        monkeypatch.delenv("RHDEPTH_THREADS", raising=False)
        assert _resolve_threads(argparse.Namespace(threads=1), parser) == 1
        assert _resolve_threads(argparse.Namespace(threads=10**9), parser) == cpus
        assert _resolve_threads(argparse.Namespace(threads=None), parser) == cpus
        monkeypatch.setenv("RHDEPTH_THREADS", str(10**9))
        assert _resolve_threads(argparse.Namespace(threads=None), parser) == cpus
        assert _resolve_threads(argparse.Namespace(threads=1), parser) == 1
        for bad in ("0", "-2", "many"):
            monkeypatch.setenv("RHDEPTH_THREADS", bad)
            with pytest.raises(SystemExit) as exc:
                _resolve_threads(argparse.Namespace(threads=None), parser)
            assert exc.value.code == 1

    def test_unknown_subcommand_exits_1(self):
        assert run(["frobnicate"]) == 1

    def test_seed_env_fallback(self, sample_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("RHDEPTH_SEED", "11")
        out = tmp_path / "d.csv"
        code = run(
            ["depth", "--input", sample_csv, "--u", "0.9", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 11

    def test_seed_required_without_env(self, sample_csv, tmp_path, monkeypatch):
        monkeypatch.delenv("RHDEPTH_SEED", raising=False)
        code = run(
            [
                "depth",
                "--input",
                sample_csv,
                "--u",
                "0.9",
                "--out",
                str(tmp_path / "d.csv"),
            ]
        )
        assert code == 1

    def test_fpca_json(self, sample_csv, tmp_path):
        out = tmp_path / "eig.json"
        code = run(["fpca", "--input", sample_csv, "--J", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["eigenvalues"]) == 3

    def test_simulate_then_outliers_reproduces_flags(self, tmp_path):
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text("n_inliers = 120\noutliers = magnitude:1, jump:1\n")
        sample_out = tmp_path / "scenario.csv"
        labels_out = tmp_path / "labels.csv"
        code = run(
            [
                "simulate",
                "--scenario",
                str(cfg),
                "--seed",
                "1",
                "--out-sample",
                str(sample_out),
                "--out-labels",
                str(labels_out),
            ]
        )
        assert code == 0

        def detect(out_name):
            out = tmp_path / out_name
            assert (
                run(
                    [
                        "outliers",
                        "--input",
                        str(sample_out),
                        "--J",
                        "4",
                        "--M",
                        "300",
                        "--u",
                        "0.95",
                        "--factor",
                        "3.0",
                        "--seed",
                        "5",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            return out.read_bytes()

        assert detect("flags_a.json") == detect("flags_b.json")

    def test_simulate_matches_library(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("n_inliers = 40\noutliers = peak:1\n")
        sample_out = tmp_path / "s.csv"
        labels_out = tmp_path / "l.csv"
        run(
            [
                "simulate",
                "--scenario",
                str(cfg),
                "--seed",
                "9",
                "--out-sample",
                str(sample_out),
                "--out-labels",
                str(labels_out),
            ]
        )
        expected, labels = generate_scenario(
            ScenarioSpec(n_inliers=40, outlier_counts={"peak": 1}, seed=9)
        )
        back = read_sample(str(sample_out))
        assert np.array_equal(back.values, expected.values)
        assert read_labels(str(labels_out)) == labels
