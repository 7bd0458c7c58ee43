"""CSV/JSON round-trips and the command-line interface."""

import argparse
import contextlib
import csv
import io
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rhdepth import generate_inliers, generate_scenario, ScenarioSpec
from rhdepth.cli import _build_parser, _resolve_threads, parse_scenario_config, run
from rhdepth.io import (
    _sample_from_table,
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

    def test_seed_key_refused(self, tmp_path):
        # no output depends on a config seed; simulate and bench take --seed
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text("n_inliers = 10\nseed = 5\n")
        with pytest.raises(ValueError, match="unknown key 'seed'.*--seed"):
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

    def test_non_finite_grid_exits_1(self, tmp_path, capsys):
        path = tmp_path / "inf_grid.csv"
        path.write_text("0.0,inf\n1.0,2.0\n3.0,4.0\n")
        argv = ["depth", "--input", str(path), "--u", "0.5", "--seed", "7"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy warning would be a second stderr line
            code = run(argv + ["--out", str(tmp_path / "d.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "inf_grid.csv" in err and "finite" in err

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


@pytest.fixture()
def cli_files(sample_csv, tmp_path):
    """Paths for CLI runs: sample (s), evaluation curves (e), scenario config (c), output (o)."""
    eval_path = tmp_path / "eval.csv"
    write_sample(str(eval_path), generate_inliers(10, seed=2))
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("n_inliers = 20\noutliers = magnitude:1, jump:1\n")
    return {"s": sample_csv, "e": str(eval_path), "c": str(cfg), "o": str(tmp_path / "out")}


# The manifest "parameters" keys of each command, as the CLI has always written them.
_POOL = {"command", "input", "J", "M", "u", "lambda", "seed"}
MANIFEST_KEYS = {
    "fpca": {"command", "input", "J"},
    "depth": _POOL | {"eval", "lambda_used"},
    "outliers": _POOL | {"lambda_used", "factor", "calibrated", "B"},
    "calibrate": _POOL | {"B"},
    "simulate": {"command", "scenario", "seed"},
    "bench": {"command", "scenario", "J", "M", "u_grid", "factor_grid", "replicates", "seed"},
}

REPLAY_CASES = {
    "fpca": ("fpca", "fpca --input {s} --J 3 --out {o}"),
    "depth": ("depth", "depth --input {s} --J 3 --M 200 --u 0.9 --seed 3 --out {o}"),
    "depth-lambda-inf": ("depth", "depth --input {s} --J 3 --M 200 --lambda inf --seed 3 --out {o}"),
    "depth-eval": ("depth", "depth --input {s} --eval {e} --J 3 --M 200 --u 0.5 --seed 3 --out {o}"),
    "rank": ("depth", "rank --input {s} --J 3 --M 200 --u 0.9 --seed 3 --out {o}"),
    "outliers-factor": (
        "outliers",
        "outliers --input {s} --J 3 --M 200 --u 0.95 --factor 3.0 --seed 5 --out {o}",
    ),
    "outliers-calibrate": (
        "outliers",
        "--threads 2 outliers --input {s} --J 3 --M 200 --u 0.95 --calibrate --B 2 --seed 5 --out {o}",
    ),
    "calibrate": ("calibrate", "calibrate --input {s} --J 3 --M 200 --u 0.9 --B 2 --seed 6 --out {o}"),
    "simulate": ("simulate", "simulate --scenario {c} --seed 9 --out-sample {o} --out-labels {o}.lab"),
    "bench": (
        "bench",
        "bench --scenario {c} --J 3 --M 100 --u-grid 0.5,0.9 --replicates 1 --seed 11 --out {o}",
    ),
}


@pytest.mark.parametrize("case", REPLAY_CASES)
def test_manifest_argv_replays_byte_identical(case, cli_files):
    command, template = REPLAY_CASES[case]
    assert run([token.format(**cli_files) for token in template.split()]) == 0
    out = cli_files["o"]
    outputs = [out, out + ".lab"] if command == "simulate" else [out]
    first = [Path(path).read_bytes() for path in outputs]
    with open(out + ".manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["parameters"]["command"] == command
    assert set(manifest["parameters"]) == MANIFEST_KEYS[command]
    for path in outputs:
        os.unlink(path)
    assert run(manifest["argv"]) == 0
    assert [Path(path).read_bytes() for path in outputs] == first


@pytest.mark.parametrize("reg", [["--u", "0.5"], ["--lambda", "inf"], ["--lambda", "2.5"]])
def test_depth_eval_of_the_input_is_the_self_depth(reg, cli_files):
    # The sample read again projects to the fitted scores bit for bit, so
    # the count kernel takes its self-depth pass and every sample curve
    # keeps depth at least 1/n.
    s, out = cli_files["s"], cli_files["o"]
    argv = ["depth", "--input", s, "--J", "3", "--M", "200", *reg, "--seed", "3", "--out", out]
    assert run(argv) == 0
    self_depth = Path(out).read_bytes()
    assert run(argv[:3] + ["--eval", s] + argv[3:]) == 0
    assert Path(out).read_bytes() == self_depth


def test_eval_on_another_grid_names_the_file(cli_files, tmp_path, capsys):
    other = tmp_path / "grid40.csv"
    write_sample(str(other), generate_inliers(10, seed=2, p=40))
    argv = ["depth", "--input", cli_files["s"], "--eval", str(other), "--J", "3", "--M", "200"]
    assert run(argv + ["--u", "0.5", "--seed", "1", "--out", cli_files["o"]]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"--eval {other}: " in err and "grid" in err


def test_failed_allocation_exits_1(cli_files, capsys):
    # 10**15 proposals of J=6 doubles ask for 42.6 PiB, past the address
    # space, so the allocation fails at once instead of filling memory.
    argv = ["depth", "--input", cli_files["s"], "--M", "1000000000000000", "--u", "0.5"]
    assert run(argv + ["--seed", "1", "--out", cli_files["o"]]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("rhdepth: error: Unable to allocate")
    assert not os.path.exists(cli_files["o"])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["outliers", "--input", "{s}", "--u", "0.9", "--factor", "nan"], "--factor"),
        (["outliers", "--input", "{s}", "--u", "0.9", "--factor", "inf"], "--factor"),
        (["depth", "--input", "{s}", "--lambda", "nan"], "--lambda"),
        (["bench", "--scenario", "{c}", "--factor-grid", "1.5,nan"], "--factor-grid"),
    ],
)
def test_non_finite_flag_exits_1(argv, flag, cli_files, capsys):
    out = cli_files["o"]
    argv = [token.format(**cli_files) for token in argv] + ["--seed", "1", "--out", out]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("entry", ["1.5", "0", "-0.5", "nan", "0.5,1"])
def test_bad_u_grid_entry_refused_at_parse_time(entry, cli_files, capsys):
    out = cli_files["o"]
    argv = ["bench", "--scenario", cli_files["c"], "--u-grid", entry, "--seed", "1", "--out", out]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "argument --u-grid: must lie in (0, 1)" in err
    assert not os.path.exists(out)


def test_oversized_csv_field_exits_1(tmp_path, capsys):
    # One field past the csv module's 131072-character limit: the label
    # reader refuses it, the sample reader reads a number that overflows.
    path = tmp_path / "wide.csv"
    path.write_text("0.0,1.0\n" + "1" * 200_000 + ",2.0\n")
    argv = ["depth", "--input", str(path), "--u", "0.5", "--seed", "7"]
    assert run(argv + ["--out", str(tmp_path / "d.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "wide.csv" in err
    with pytest.raises(ValueError, match="wide.csv"):
        read_labels(str(path))


def test_bad_seed_message_names_its_source(sample_csv, tmp_path, capsys, monkeypatch):
    argv = ["depth", "--input", sample_csv, "--u", "0.5", "--out", str(tmp_path / "d.csv")]
    for env in ("abc", "-2"):
        monkeypatch.setenv("RHDEPTH_SEED", env)
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "RHDEPTH_SEED" in err
    assert run(argv + ["--seed", "-1"]) == 1  # the flag wins over the environment
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--seed" in err
    assert not (tmp_path / "d.csv").exists()


# Each file holds one defect that a reader refuses; the message must name the file.
_BAD_FILES = {
    "sample-not-utf8": ("bad.csv", b"\xff0.0,1.0\n1.0,2.0\n3.0,4.0\n"),
    "sample-not-numeric": ("bad.csv", b"0.0,1.0\nx,2.0\n3.0,4.0\n"),
    "scenario-not-utf8": ("bad.cfg", b"n_inliers = 6\n\xff\n"),
    "scenario-not-integer": ("bad.cfg", b"n_inliers = abc\n"),
}


@pytest.mark.parametrize("case", _BAD_FILES)
def test_reader_error_names_the_file(case, tmp_path, capsys):
    name, data = _BAD_FILES[case]
    path = tmp_path / name
    path.write_bytes(data)
    out = str(tmp_path / "out.csv")
    if name.endswith(".csv"):
        argv = ["depth", "--input", str(path), "--u", "0.5", "--seed", "1", "--out", out]
    else:
        argv = ["simulate", "--scenario", str(path), "--seed", "1"]
        argv += ["--out-sample", out, "--out-labels", out + ".lab"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err


def _reference_read(path):
    """The sample the csv module and float() made of a file: how read_sample
    parsed before NumPy's C parser took over."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    return _sample_from_table(np.array([[float(v) for v in row] for row in rows]))


def _same_sample(a, b) -> bool:
    pairs = [(a.grid.points, b.grid.points), (a.grid.weights, b.grid.weights), (a.values, b.values)]
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in pairs)


# Spellings both parsers read; each file's sample must come out bit for bit the same.
_READABLE_FILES = {
    "crlf": "0,0.5,1\r\n1.25,-2,3e-3\r\n4,5,6\r\n",
    "cr-only": "0,0.5,1\r1.25,-2,3e-3\r4,5,6\r",
    "blank-lines": "\n0,0.5,1\n\n1.25,-2,3e-3\n\n\n4,5,6\n\n",
    "quoted-fields": '"0","0.5",1\n"1.25",-2,"3e-3"\n4,5,6\n',
    "spaces": " 0 ,0.5 , 1\n1.25,  -2,3e-3 \n\t4,5,6\n",
    "number-forms": "0,0.5,1\n+1.5,1.,.5\n1E5,-.25,0.1e+2\n",
    "non-uniform-grid": "0.1,0.3,0.35,2\n1,2,3,4\n5,6,7,8\n",
}


@pytest.mark.parametrize("case", _READABLE_FILES)
def test_reader_matches_float_parse(case, tmp_path):
    path = tmp_path / "sample.csv"
    path.write_bytes(_READABLE_FILES[case].encode("utf-8"))
    assert _same_sample(read_sample(str(path)), _reference_read(str(path)))


def test_reader_matches_float_parse_on_written_curves(tmp_path):
    path = tmp_path / "sample.csv"
    spec = ScenarioSpec(n_inliers=30, outlier_counts={"magnitude": 2, "jump": 2}, seed=4)
    for sample in (generate_inliers(40, p=30, seed=3), generate_scenario(spec)[0]):
        write_sample(str(path), sample)
        back = read_sample(str(path))
        assert _same_sample(back, _reference_read(str(path)))
        assert back.values.tobytes() == sample.values.tobytes()


# Files read_sample refuses, each with a ValueError naming the file.
_REFUSED_FILES = {
    "underscores": "0,0.5,1\n1_0,2,3\n",
    "arabic-indic-digit": "0,0.5,1\n١,2,3\n",
    "comment-line": "0,0.5,1\n# a comment\n1,2,3\n",
    "semicolons": "0;0.5;1\n1;2;3\n",
    "ragged-rows": "0,0.5,1\n1,2,3\n4,5\n",
    "empty": "",
    "newlines-only": "\n\r\n\n",
    "grid-only": "0,0.5,1\n",
}


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize("case", _REFUSED_FILES)
def test_reader_refuses_file(case, tmp_path):
    path = tmp_path / "refused.csv"
    path.write_bytes(_REFUSED_FILES[case].encode("utf-8"))
    with pytest.raises(ValueError, match="refused.csv"):
        read_sample(str(path))


def test_unreadable_long_field_gives_a_short_message(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text("0.0,1.0\n" + "x" * 200_000 + ",2.0\n")
    argv = ["depth", "--input", str(path), "--u", "0.5", "--seed", "7"]
    assert run(argv + ["--out", str(tmp_path / "d.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "wide.csv" in err and "column 1" in err
    assert len(err) < 300 + len(str(path))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, message",
    [
        ("0,1e308\n1,2\n3,5\n4,4\n", "overflow"),  # huge quadrature weights
        ("0,0.5,1\n1e200,1,2\n1,2,3\n1,1,1\n", "overflow"),  # a huge curve value
        ("-1e308,0,1e308\n1,2,3\n1,3,4\n", "span"),  # finite points, infinite span
    ],
    ids=["huge-weights", "huge-value", "infinite-span"],
)
def test_overflowing_sample_refused(text, message, tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as err:
        read_sample(str(path))
    assert "huge.csv" in str(err.value)
    argv = ["depth", "--input", str(path), "--J", "1", "--u", "0.5", "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path / "d.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "huge.csv" in err


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_subnormal_eigenvalue_is_no_rank(tmp_path, capsys):
    # The one nonzero eigenvalue is about 1e-321: below the eigenvalue floor,
    # where the direction pool's divisions by it would overflow.
    path = tmp_path / "tiny.csv"
    path.write_text("0.0,0.5,1.0\n1e-160,0,0\n0,0,0\n")
    argv = ["depth", "--input", str(path), "--J", "1", "--M", "50", "--u", "0.5", "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "usable rank 0" in err


def test_constant_sample_has_no_usable_variation(tmp_path, capsys):
    # J must be at least 1, so at rank 0 there is no J to advise
    path = tmp_path / "constant.csv"
    path.write_text("0.0,0.5,1.0\n1,2,3\n1,2,3\n1,2,3\n")
    argv = ["depth", "--input", str(path), "--J", "1", "--u", "0.5", "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no usable variation" in err and "at most 0" not in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["depth", "--u", "-1e-3"], "--u must lie in (0, 1)"),
        (["depth", "--lambda", "-inf"], "--lambda must be positive"),
        (["outliers", "--u", "0.5", "--factor", "-2.5e1"], "argument --factor: must be positive"),
    ],
    ids=["u", "lambda", "factor"],
)
def test_negative_values_reach_the_range_check(flags, message, cli_files, capsys):
    # argparse's own pattern reads only plain decimals such as -0.5 as values
    argv = [*flags, "--input", cli_files["s"], "--seed", "1", "--out", cli_files["o"]]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def _run_quietly(argv):
    """run(argv) with stderr captured: (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


_ODD_NUMBERS = ["nan", "inf", "-inf", "0", "-1", "-0.5", "abc", "", "1e400", "0x10"]
_ODD = st.one_of(
    st.sampled_from(_ODD_NUMBERS),
    st.floats().map(repr),
    st.integers(-(2**70), 2**70).map(str),
)


def _flag(name, *typical):
    """[name, value] or nothing: a typical value half the time, else odd or left out."""
    value = st.one_of(st.sampled_from(typical), st.sampled_from(typical), _ODD, st.none())
    return value.map(lambda v: [] if v is None else [name, v])


# --M and --B stay fixed and small: they size the work, and a huge --M
# allocates M x J floats, a huge --B runs B null datasets.
_FIXED = ["--M", "200", "--B", "2"]

_FUZZ_ARGV = st.tuples(
    st.sampled_from(["depth", "outliers"]),
    st.one_of(  # mostly one of --u and --lambda, sometimes both
        _flag("--u", "0.5", "0.9"),
        _flag("--lambda", "inf", "2.5", "1e300"),
        st.tuples(_flag("--u", "0.5"), _flag("--lambda", "inf")).map(lambda p: p[0] + p[1]),
    ),
    _flag("--factor", "1.5", "3.0", "1.7e308"),
    _flag("--J", "2", "6", "16", "40"),
    _flag("--seed", "0", "7", str(2**70)),
    _flag("--threads", "1", "2", str(10**9)),
    st.booleans(),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(drawn=_FUZZ_ARGV)
def test_fuzzed_argv_exits_cleanly(drawn, sample_csv, tmp_path, monkeypatch):
    command, reg, factor, J, seed, threads, calibrate = drawn
    monkeypatch.delenv("RHDEPTH_SEED", raising=False)
    monkeypatch.delenv("RHDEPTH_THREADS", raising=False)
    out = tmp_path / "fuzz.out"
    out.unlink(missing_ok=True)
    argv = threads + [command, "--input", sample_csv] + reg + J + seed
    if command == "outliers":
        argv += _FIXED + factor + (["--calibrate"] if calibrate else [])
    else:
        argv += _FIXED[:2]
    code, err = _run_quietly(argv + ["--out", str(out)])
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    for path in (out, tmp_path / "fuzz.out.manifest.json"):
        if path.exists():
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text


def test_lambda_inf_json_is_strict(cli_files):
    out = cli_files["o"]
    argv = ["outliers", "--input", cli_files["s"], "--J", "3", "--M", "200"]
    assert run(argv + ["--lambda", "inf", "--factor", "3.0", "--seed", "5", "--out", out]) == 0

    def refuse(token):
        raise ValueError(f"bare {token} in JSON")

    for path in (out, out + ".manifest.json"):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle, parse_constant=refuse)
        params = payload.get("parameters", payload)
        assert params["lambda_used"] == "inf"
    assert params["lambda"] == "inf"


# Reader fuzz: generated file text either parses or is refused with a
# ValueError, and through the CLI a refused file exits 1 with one line.
_TOKENS = ["", "abc", "nan", "inf", "-inf", "1e400", " 1", "0x10", '"1"', "1_0", "\x00", "é"]
_FIELD = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["0.0", "0.5", "1.0"]),
    st.sampled_from(_TOKENS),
)
_CSV_ROWS = st.lists(st.lists(_FIELD, max_size=4).map(",".join), max_size=6)
_SAMPLE_TEXT = st.one_of(
    _CSV_ROWS.map("\n".join),
    # a valid grid row, so that the curve rows decide
    _CSV_ROWS.map(lambda rows: "\n".join(["0.0,0.5,1.0", *rows])),
)
_LABELS_TEXT = st.one_of(
    _CSV_ROWS.map("\n".join),
    st.lists(st.tuples(st.integers(-1, 4), st.sampled_from(["inlier", "jump", ""])), max_size=5).map(
        lambda rows: "\n".join(["index,label", *(f"{i},{lab}" for i, lab in rows)])
    ),
)
_CONFIG_LINE = st.one_of(
    st.tuples(
        st.sampled_from(["n_inliers", "outliers", "p", "J0", "seed", "bogus", ""]),
        st.sampled_from(["=", " = ", ":", ""]),
        st.one_of(
            st.integers(-2, 12).map(str),
            st.sampled_from(_TOKENS),
            st.sampled_from(["jump:1, wiggle", "phase:2", "magnitude:x", "jump:-1", "bogus:1", ",,"]),
        ),
    ).map("".join),
    st.sampled_from(["# comment", "", "   "]),
    st.text(max_size=12),
)
_CONFIG_LINES = st.lists(_CONFIG_LINE, max_size=6)
_CONFIG_TEXT = st.one_of(
    _CONFIG_LINES.map("\n".join),
    # a valid first line, so that the other lines decide
    _CONFIG_LINES.map(lambda lines: "\n".join(["n_inliers = 6", *lines])),
)


def _file_bytes(text):
    """The text as UTF-8, or arbitrary bytes now and then."""
    return st.one_of(text.map(lambda t: t.encode("utf-8", "surrogatepass")), st.binary(max_size=40))


def _parses(read, path) -> bool:
    try:
        read(path)
    except ValueError:
        return False
    return True


_FUZZ_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@_FUZZ_SETTINGS
@given(data=_file_bytes(_SAMPLE_TEXT))
def test_fuzzed_sample_file(data, tmp_path):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    parsed = _parses(read_sample, str(path))
    out = tmp_path / "depth.csv"
    out.unlink(missing_ok=True)
    argv = ["depth", "--input", str(path), "--J", "1", "--M", "20", "--u", "0.5", "--seed", "1"]
    code, err = _run_quietly(argv + ["--out", str(out)])
    if parsed:
        assert code in (0, 1, 2) and err.count("\n") <= 1
    else:
        assert code == 1 and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@_FUZZ_SETTINGS
@given(data=_file_bytes(_LABELS_TEXT))
def test_fuzzed_labels_file(data, tmp_path):
    path = tmp_path / "fuzz_labels.csv"
    path.write_bytes(data)
    if _parses(read_labels, str(path)):
        assert all(isinstance(label, str) for label in read_labels(str(path)))


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@_FUZZ_SETTINGS
@given(data=_file_bytes(_CONFIG_TEXT))
def test_fuzzed_scenario_file(data, tmp_path):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    parsed = _parses(parse_scenario_config, str(path))
    out = tmp_path / "sim.csv"
    out.unlink(missing_ok=True)
    argv = ["simulate", "--scenario", str(path), "--seed", "1"]
    code, err = _run_quietly(argv + ["--out-sample", str(out), "--out-labels", f"{out}.lab"])
    if parsed:
        assert code in (0, 1) and err.count("\n") <= 1
    else:
        assert code == 1 and err.count("\n") == 1
        assert not out.exists()
