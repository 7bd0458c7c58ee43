"""CSV/JSON round-trips and the command-line interface."""

import argparse
import codecs
import collections
import contextlib
import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rhdepth import generate_inliers, generate_scenario, ScenarioSpec
from rhdepth import cli
from rhdepth.cli import _build_parser, _resolve_threads, parse_scenario_config, run
from rhdepth.evalkit import normalized_ranks
from rhdepth.funspace import FunctionalSample, fit_fpca, fit_fpca_coordinates, make_uniform_grid
from rhdepth.io import (
    _dumps_text,
    _sample_from_table,
    atomic_write_text,
    csv_text,
    json_text,
    read_labels,
    read_sample,
    sample_to_csv,
    write_labels,
    write_json,
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

    def test_sample_reader_skips_a_byte_order_mark(self, sample_csv, tmp_path):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(codecs.BOM_UTF8 + Path(sample_csv).read_bytes())
        assert _same_sample(read_sample(str(marked)), read_sample(sample_csv))

    def test_labels_reader_skips_a_byte_order_mark(self, tmp_path):
        plain, marked = tmp_path / "labels.csv", tmp_path / "bom.csv"
        write_labels(str(plain), ["inlier", "jump"])
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert read_labels(str(marked)) == read_labels(str(plain)) == ["inlier", "jump"]

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

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,inlier\n1,jump,extra\n", "each row must be index,label"),
            ("0,inlier\none,jump\n", "label indices must be integers"),
        ],
        ids=["three-fields", "non-integer-index"],
    )
    def test_labels_reader_refuses_a_malformed_row(self, body, message, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("index,label\n" + body)
        with pytest.raises(ValueError) as raised:
            read_labels(str(path))
        assert str(raised.value) == f"{path}: {message}"

    def test_written_file_follows_umask(self, tmp_path):
        path = tmp_path / "out.txt"
        old = os.umask(0o022)
        try:
            atomic_write_text(str(path), "x\n")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o644

    def test_writes_never_touch_the_umask(self, tmp_path, monkeypatch):
        def refuse(mask):
            raise AssertionError("the process umask was changed")

        old = os.umask(0o027)
        try:
            monkeypatch.setattr(os, "umask", refuse)
            atomic_write_text(str(tmp_path / "out.txt"), "x\n")
            write_json(str(tmp_path / "out.json"), {"a": [1.5]})
        finally:
            monkeypatch.undo()
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert modes == {"out.txt": 0o640, "out.json": 0o640}

    def test_grid_point_near_uniform_is_kept(self, tmp_path):
        # 0.300002 lies within allclose's tolerance of the uniform grid's
        # 0.30000000000000004, yet it is where the file puts the point.
        points = np.linspace(0.0, 1.0, 11)
        points[3] = 0.300002
        path = tmp_path / "moved.csv"
        path.write_text(csv_text([points.tolist(), np.arange(11.0).tolist()]))
        back = read_sample(str(path))
        assert np.array_equal(back.grid.points, points)
        assert not np.array_equal(back.grid.weights, make_uniform_grid(11).weights)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_sample(str(tmp_path / "absent.csv"))

    @pytest.mark.parametrize("target", ["nodir/o.json", "adir"])
    def test_write_error_names_the_target(self, target, tmp_path):
        (tmp_path / "adir").mkdir()
        path = str(tmp_path / target)
        with pytest.raises(OSError) as raised:
            atomic_write_text(path, "x\n")
        assert raised.value.filename == path and ".tmp" not in str(raised.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]


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

    def test_absent_sizes_take_the_spec_defaults(self, tmp_path):
        bare, sized = tmp_path / "bare.cfg", tmp_path / "sized.cfg"
        bare.write_text("n_inliers = 10\noutliers = jump\n")
        sized.write_text("J0 = 15\nn_inliers = 10\noutliers = jump\np = 50\n")
        spec = ScenarioSpec(n_inliers=10, outlier_counts={"jump": 1})
        assert parse_scenario_config(str(bare)) == parse_scenario_config(str(sized)) == spec

    def test_byte_order_mark_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(b"n_inliers = 10\noutliers = jump:2\n")
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert parse_scenario_config(str(marked)) == parse_scenario_config(str(plain))

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n_inliers = 50\nn_inliers = 70\n", "key 'n_inliers' given twice"),
            ("n_inliers = 5\noutliers = magnitude:1, magnitude:3\n", "kind 'magnitude' given twice"),
        ],
        ids=["key", "kind"],
    )
    def test_repeated_entry_refused(self, text, message, tmp_path, capsys):
        # Neither the last value nor the sum: the run stops and names the file.
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        out = tmp_path / "sim.csv"
        argv = ["simulate", "--scenario", str(cfg), "--seed", "1", "--out-sample", str(out)]
        assert run(argv + ["--out-labels", f"{out}.lab"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(cfg) in err and message in err
        assert not out.exists()


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
            assert "argument --threads: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()

    def test_resolve_threads(self, monkeypatch):
        cpus = os.cpu_count() or 1
        monkeypatch.delenv("RHDEPTH_THREADS", raising=False)
        assert _resolve_threads(argparse.Namespace(threads=1)) == 1
        assert _resolve_threads(argparse.Namespace(threads=10**9)) == cpus
        assert _resolve_threads(argparse.Namespace(threads=None)) == cpus
        monkeypatch.setenv("RHDEPTH_THREADS", str(10**9))
        assert _resolve_threads(argparse.Namespace(threads=None)) == cpus
        assert _resolve_threads(argparse.Namespace(threads=1)) == 1
        for bad, rule in (("0", "at least 1"), ("-2", "at least 1"), ("many", "an integer")):
            monkeypatch.setenv("RHDEPTH_THREADS", bad)
            message = f"RHDEPTH_THREADS must be {rule}, got {bad!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _resolve_threads(argparse.Namespace(threads=None))

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
    # No --seed: the seed comes from RHDEPTH_SEED.
    "depth-env-seed": ("depth", "depth --input {s} --J 3 --M 200 --u 0.5 --out {o}"),
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
def test_manifest_argv_replays_byte_identical(case, cli_files, monkeypatch):
    command, template = REPLAY_CASES[case]
    env_seeded = case.endswith("env-seed")
    if env_seeded:
        monkeypatch.setenv("RHDEPTH_SEED", "5")
    assert run([token.format(**cli_files) for token in template.split()]) == 0
    out = cli_files["o"]
    outputs = [out, out + ".lab"] if command == "simulate" else [out]
    first = [Path(path).read_bytes() for path in outputs]
    with open(out + ".manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["parameters"]["command"] == command
    assert set(manifest["parameters"]) == MANIFEST_KEYS[command]
    # An env-seeded run replays with the variable unset and under another value.
    for env in (None, "6") if env_seeded else (None,):
        if env is None:
            monkeypatch.delenv("RHDEPTH_SEED", raising=False)
        else:
            monkeypatch.setenv("RHDEPTH_SEED", env)
        for path in outputs:
            os.unlink(path)
        assert run(manifest["argv"]) == 0
        assert [Path(path).read_bytes() for path in outputs] == first


@pytest.mark.parametrize("case", REPLAY_CASES)
def test_program_payloads_take_the_exact_type_writers(case, cli_files, monkeypatch):
    # Only the calibrate payload's float-keyed rates go to json.dumps; a
    # NumPy scalar leaking into any output or manifest would show up here.
    calls = []
    fallback = lambda value, indent: calls.append(value) or _dumps_text(value, indent)
    monkeypatch.setattr("rhdepth.io._dumps_text", fallback)
    monkeypatch.setenv("RHDEPTH_SEED", "5")
    assert run([token.format(**cli_files) for token in REPLAY_CASES[case][1].split()]) == 0
    if case == "calibrate":
        assert len(calls) == 1 and {type(k) for k in calls[0]} == {float}
    else:
        assert calls == []


@pytest.mark.parametrize(
    "reg, doubled, with_eval",
    [(["--u", "0.5"], False, False), (["--lambda", "inf"], False, True), (["--u", "0.5"], True, False)],
    ids=["u", "lambda-inf-eval", "every-curve-twice"],
)
def test_depth_csv_is_the_per_row_rendering(reg, doubled, with_eval, cli_files, tmp_path, monkeypatch):
    # The depth CSV writes each distinct depth's fields once; its bytes are
    # still those of one str() per field of every row.
    source = read_sample(cli_files["s"])
    if doubled:
        source = FunctionalSample(source.grid, np.vstack([source.values, source.values]))
    write_sample(str(tmp_path / "in.csv"), source)
    results, depth = [], cli.approximate_rhd

    def recorded(eig, dirs, lam, evaluation):
        results.append((lam, depth(eig, dirs, lam, evaluation)))
        return results[-1][1]

    monkeypatch.setattr(cli, "approximate_rhd", recorded)
    evaluation = ["--eval", cli_files["e"]] if with_eval else []
    argv = ["depth", "--input", str(tmp_path / "in.csv"), *evaluation, "--J", "3", "--M", "200"]
    assert run([*argv, *reg, "--seed", "3", "--out", cli_files["o"]]) == 0
    [(lam, result)] = results
    ranks = normalized_ranks(result.depths).normalized
    ties = [len(dirs) for dirs in result.minimizing_directions]
    header = ("eval_id", "depth", "normalized_rank", "lambda_used", "n_min_directions")
    rows = zip(itertools.count(), result.depths.tolist(), ranks.tolist(), itertools.repeat(lam), ties)
    assert Path(cli_files["o"]).read_text(encoding="utf-8") == csv_text([header, *rows])
    assert len(set(result.depths.tolist())) < len(result.depths)
    if doubled:
        assert min(ties) >= 2  # a curve and its copy give one direction each


def test_outliers_calibrate_json_is_the_indented_dumps(tmp_path):
    # The paper case: 400 inliers and one outlier, p=50, J=6, M=1000.
    sample, _ = generate_scenario(ScenarioSpec(400, {"magnitude": 1}, seed=4))
    write_sample(str(tmp_path / "paper.csv"), sample)
    out = tmp_path / "o.json"
    argv = ["outliers", "--input", str(tmp_path / "paper.csv"), "--u", "0.95", "--calibrate"]
    assert run([*argv, "--B", "2", "--seed", "5", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert len(json.loads(text)["fences"]) > 1


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


@pytest.mark.parametrize("moved", ["input", "eval"])
def test_eval_on_a_moved_grid_point_names_the_file(moved, tmp_path, capsys):
    # One grid is exactly uniform, the other has one point moved by 2e-6.
    paths = {name: tmp_path / f"{name}.csv" for name in ("input", "eval")}
    for name, path in paths.items():
        sample = generate_inliers(20, seed=4, p=11)
        if name == moved:
            points = sample.grid.points.copy()
            points[3] = 0.300002
            path.write_text(csv_text([points.tolist(), *sample.values.tolist()]))
        else:
            write_sample(str(path), sample)
    argv = ["depth", "--input", str(paths["input"]), "--eval", str(paths["eval"])]
    argv += ["--J", "3", "--M", "200", "--u", "0.5", "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path / "d.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"--eval {paths['eval']}: " in err and "grid" in err


@pytest.mark.parametrize("flag", ["input", "scenario", "eval", "eval-grid"])
def test_path_with_line_breaks_gets_a_one_line_error(flag, cli_files, tmp_path, capsys):
    bad = tmp_path / "bad\nname\r.csv"
    if flag == "eval-grid":
        write_sample(str(bad), generate_inliers(10, seed=2, p=40))
    else:
        bad.write_text("1,2\nx,y\n")  # neither a curve CSV nor a scenario config
    out = cli_files["o"]
    if flag == "scenario":
        argv = ["simulate", "--scenario", str(bad), "--out-sample", out, "--out-labels", out + ".l"]
    elif flag == "input":
        argv = ["depth", "--input", str(bad)]
    else:
        argv = ["depth", "--input", cli_files["s"], "--eval", str(bad)]
    if flag != "scenario":
        argv += ["--J", "3", "--M", "200", "--u", "0.5", "--out", out]
    assert run(argv + ["--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "\r" not in err
    assert str(tmp_path / "bad\\nname\\r.csv") in err


def test_failed_allocation_exits_1(cli_files, capsys):
    # 10**15 proposals of J=6 doubles ask for 42.6 PiB, past the address
    # space, so the allocation fails at once instead of filling memory.
    argv = ["depth", "--input", cli_files["s"], "--M", "1000000000000000", "--u", "0.5"]
    assert run(argv + ["--seed", "1", "--out", cli_files["o"]]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("rhdepth: error: Unable to allocate")
    assert not os.path.exists(cli_files["o"])


@pytest.mark.parametrize("command", [["calibrate"], ["outliers", "--calibrate"]])
def test_three_curves_refused_before_calibrating(command, tmp_path, capsys):
    # Quartile fences need 4 curves: refused before any null dataset is drawn.
    path = tmp_path / "three.csv"
    write_sample(str(path), generate_inliers(3, seed=0))
    out = tmp_path / "out.json"
    argv = [*command, "--input", str(path), "--J", "2", "--M", "50", "--u", "0.5"]
    assert run(argv + ["--B", "2000", "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "need at least 4 curves for quartile fences" in err
    assert not out.exists()


def _refuse_pipeline(*args, **kwargs):
    raise AssertionError("the pipeline ran")


_SIMULATE = "simulate --scenario {c} --seed 1 --out-sample {o} --out-labels "


@pytest.mark.parametrize(
    "argv, flags",
    [
        # The first three keep the ids they had as --out-labels values.
        pytest.param(
            _SIMULATE + "{o}",
            "--out-sample and --out-labels",
            id="{o}---out-sample and --out-labels",
        ),
        pytest.param(
            _SIMULATE + "{d}/./{n}",
            "--out-sample and --out-labels",
            id="{d}/./{n}---out-sample and --out-labels",
        ),
        pytest.param(
            _SIMULATE + "{o}.manifest.json",
            "--out-labels and the manifest of --out-sample",
            id="{o}.manifest.json---out-labels and the manifest of --out-sample",
        ),
        pytest.param(_SIMULATE + "{c}", "--scenario and --out-labels", id="scenario"),
        pytest.param(
            "depth --input {s} --u 0.5 --seed 1 --out {s}", "--input and --out", id="depth-input"
        ),
        pytest.param(
            "depth --input {s} --eval {e} --u 0.5 --seed 1 --out {e}",
            "--eval and --out",
            id="depth-eval",
        ),
    ],
)
def test_colliding_outputs_refused(argv, flags, cli_files, capsys, monkeypatch):
    monkeypatch.setattr("rhdepth.cli.generate_scenario", _refuse_pipeline)
    monkeypatch.setattr("rhdepth.cli.read_sample", _refuse_pipeline)
    inputs = {key: Path(cli_files[key]).read_bytes() for key in "sec"}
    out = cli_files["o"]
    d, n = os.path.split(out)
    assert run(argv.format(d=d, n=n, **cli_files).split()) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flags in err
    assert not os.path.exists(out) and not os.path.exists(out + ".manifest.json")
    assert {key: Path(cli_files[key]).read_bytes() for key in "sec"} == inputs


@pytest.mark.parametrize(
    "target, message",
    [("nodir/o", "does not exist"), ("adir", "directory"), ("ff", "is not a regular file")],
)
def test_unwritable_output_refused_before_the_pipeline(
    target, message, cli_files, capsys, monkeypatch
):
    monkeypatch.setattr("rhdepth.cli.calibrate_factor", _refuse_pipeline)
    d = os.path.dirname(cli_files["o"])
    os.mkdir(os.path.join(d, "adir"))
    if target == "ff":
        if not hasattr(os, "mkfifo"):
            pytest.skip("os.mkfifo is missing on this platform")
        os.mkfifo(os.path.join(d, "ff"))  # the atomic rename would replace it
    out = os.path.join(d, target)
    argv = ["outliers", "--input", cli_files["s"], "--J", "3", "--M", "200", "--u", "0.5"]
    assert run(argv + ["--calibrate", "--B", "200", "--seed", "1", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"--out {out!r}" in err and message in err
    assert ".tmp" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("depth --input {s} --u 0.5 --seed 1 --out", "--out"),
        ("simulate --scenario {c} --seed 1 --out-labels {o} --out-sample", "--out-sample"),
        (_SIMULATE, "--out-labels"),
        ("depth --u 0.5 --seed 1 --out {o} --input", "--input"),
        ("depth --input {s} --u 0.5 --seed 1 --out {o} --eval", "--eval"),
        ("simulate --seed 1 --out-sample {o} --out-labels {o}.lab --scenario", "--scenario"),
    ],
    ids=["out", "out-sample", "out-labels", "input", "eval", "scenario"],
)
def test_empty_output_path_refused(argv, flag, cli_files, capsys, monkeypatch):
    """Every path flag, input or output, refuses '' when it is parsed."""
    monkeypatch.setattr("rhdepth.cli.generate_scenario", _refuse_pipeline)
    monkeypatch.setattr("rhdepth.cli.read_sample", _refuse_pipeline)
    monkeypatch.setattr("rhdepth.cli.parse_scenario_config", _refuse_pipeline)
    argv = argv.format(**cli_files).split() + [""]
    assert run(argv) == 1
    expected = f"rhdepth {argv[0]}: error: argument {flag}: must not be empty, got ''\n"
    assert capsys.readouterr().err == expected
    assert not os.path.exists(cli_files["o"]) and not os.path.exists(cli_files["o"] + ".lab")
    assert not os.path.exists(cli_files["o"] + ".manifest.json")


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


@pytest.mark.parametrize(
    "command", [["depth"], ["outliers", "--factor", "2"], ["calibrate"]], ids=lambda c: c[0]
)
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--u", "2", "must lie in (0, 1), got '2'"),
        ("--u", "abc", "must be a number, got 'abc'"),
        ("--lambda", "0", "must be positive, got '0'"),
    ],
    ids=["u-range", "u-text", "lambda"],
)
def test_regularization_refused_before_the_input_is_read(
    command, flag, value, message, tmp_path, capsys
):
    missing = tmp_path / "missing.csv"
    argv = [*command, "--input", str(missing), flag, value, "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"argument {flag}: {message}" in err
    assert "missing.csv" not in err


_NOT_ALLOWED = "argument {}: not allowed with argument {}"


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("depth", ["--u", "0.5", "--lambda", "2.0"], _NOT_ALLOWED.format("--lambda", "--u")),
        ("depth", [], "one of the arguments --u --lambda is required"),
        (
            "outliers",
            ["--u", "0.5", "--lambda", "inf", "--factor", "2"],
            _NOT_ALLOWED.format("--lambda", "--u"),
        ),
        (
            "outliers",
            ["--u", "0.5", "--factor", "1.5", "--calibrate"],
            _NOT_ALLOWED.format("--calibrate", "--factor"),
        ),
        ("outliers", ["--factor", "2"], "one of the arguments --u --lambda is required"),
        ("outliers", ["--u", "0.5"], "one of the arguments --factor --calibrate is required"),
    ],
    ids=[
        "depth-u-and-lambda",
        "depth-no-regularization",
        "u-and-lambda",
        "factor-and-calibrate",
        "no-regularization",
        "no-factor",
    ],
)
def test_either_or_flags_refused_at_parse_time(command, flags, message, tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    argv = [command, "--input", str(missing), *flags, "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert "missing.csv" not in err


def test_either_or_conflict_reported_without_input(tmp_path, capsys):
    # A conflict is found as the flags are read, before argparse lists the
    # missing required ones.
    argv = ["outliers", "--u", "0.5", "--factor", "1.5", "--calibrate", "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and _NOT_ALLOWED.format("--calibrate", "--factor") in err


@pytest.mark.parametrize("B", [1, 3])
def test_outliers_calibrate_fits_the_sample_once(B, cli_files, monkeypatch):
    """One grid fit of the input serves the pool and the calibration; each
    null dataset adds one fit in score space, on the input's eigensystem."""
    grid_fits, score_fits = [], []

    def counted(sample, J):
        grid_fits.append(sample.n)
        return fit_fpca(sample, J)

    def counted_coordinates(basis, coords):
        score_fits.append(basis)
        return fit_fpca_coordinates(basis, coords)

    monkeypatch.setattr("rhdepth.cli.fit_fpca", counted)
    monkeypatch.setattr("rhdepth.outlier.fit_fpca_coordinates", counted_coordinates)
    argv = ["outliers", "--input", cli_files["s"], "--J", "3", "--M", "200", "--u", "0.95"]
    assert run(argv + ["--calibrate", "--B", str(B), "--seed", "5", "--out", cli_files["o"]]) == 0
    assert len(grid_fits) == 1 and len(score_fits) == B
    assert all(basis.scores.shape[0] == grid_fits[0] for basis in score_fits)


@pytest.mark.parametrize(
    "env, value, message",
    [
        ("RHDEPTH_SEED", "abc", "RHDEPTH_SEED must be an integer, got 'abc'"),
        ("RHDEPTH_SEED", "-2", "RHDEPTH_SEED must be at least 0, got '-2'"),
        ("RHDEPTH_THREADS", "0", "RHDEPTH_THREADS must be at least 1, got '0'"),
    ],
    ids=["seed-text", "seed-negative", "threads"],
)
def test_environment_value_checked_as_its_flag(env, value, message, cli_files, capsys, monkeypatch):
    monkeypatch.delenv("RHDEPTH_THREADS", raising=False)
    monkeypatch.setenv(env, value)
    argv = ["depth", "--input", cli_files["s"], "--u", "0.5", "--out", cli_files["o"]]
    assert run(argv if env == "RHDEPTH_SEED" else argv + ["--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not os.path.exists(cli_files["o"])


@pytest.mark.parametrize("entry", ["1.5", "0", "-0.5", "nan", "0.5,1"])
def test_bad_u_grid_entry_refused_at_parse_time(entry, cli_files, capsys):
    out = cli_files["o"]
    argv = ["bench", "--scenario", cli_files["c"], "--u-grid", entry, "--seed", "1", "--out", out]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "argument --u-grid: must lie in (0, 1)" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["depth", "--input", "{s}", "--u", "0.5"], "--J", "0"),
        (["depth", "--input", "{s}", "--u", "0.5"], "--M", "0"),
        (["depth", "--input", "{s}", "--u", "0.5"], "--M", "-3"),
        (["calibrate", "--input", "{s}", "--u", "0.5"], "--B", "0"),
        (["outliers", "--input", "{s}", "--u", "0.5", "--calibrate"], "--B", "0"),
        (["bench", "--scenario", "{c}"], "--replicates", "0"),
    ],
)
def test_count_flag_below_one_refused_at_parse_time(argv, flag, value, cli_files, capsys):
    out = cli_files["o"]
    argv = [token.format(**cli_files) for token in argv]
    assert run(argv + [flag, value, "--seed", "1", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"argument {flag}: must be at least 1, got '{value}'" in err
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
    "sample-marked-not-utf8": ("bad.csv", codecs.BOM_UTF8 + b"0.0,1.0\n1.0,\xff2.0\n3.0,4.0\n"),
    "scenario-not-utf8": ("bad.cfg", b"n_inliers = 6\n\xff\n"),
    "scenario-marked-not-utf8": ("bad.cfg", codecs.BOM_UTF8 + b"n_inliers = 6\n\xff\n"),
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


@given(
    value=st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, np.inf]),
    )
)
def test_csv_text_writes_the_float_repr(value):
    # The outputs' bytes rest on str() of a tolist() float being the
    # shortest round-trip repr that repr(float(v)) of a NumPy float gives.
    expected = repr(float(np.float64(value))) + "\n"
    assert csv_text([[value]]) == csv_text([np.array([value]).tolist()]) == expected


_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e22, 1e-7]),
)
_JSON_STRINGS = st.one_of(
    st.text(),
    st.sampled_from(["", "é", "日本", "\x00\x1f\x7f", '\t"\\/\n', " ", "\ud800", "😀"]),
)
_JSON_KEYS = st.one_of(_JSON_STRINGS, _JSON_FLOATS, st.integers(), st.booleans(), st.none())
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(2**63, 2**80) | st.integers(-(2**80), -(2**63)),
        _JSON_FLOATS,
        _JSON_FLOATS.map(np.float64),
        _JSON_STRINGS,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(payload=_JSON_VALUES)
def test_json_text_is_the_indented_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2, allow_nan=False)


_RECORD_KEYS = st.one_of(_JSON_STRINGS, st.sampled_from(["%", "%s", "100%", "%%(a)d", '"%"', "é%", "日本"]))
_NEAR_MISSES = (None, "reordered", "missing-key", "extra-key", "non-str-key", "dict-subclass", "tuple")


@st.composite
def _record_arrays(draw):
    """1-6 dicts sharing one key tuple, or one near-miss of such an array:
    one record with its keys reordered, a key missing, an extra key or a
    non-str key, one record a dict subclass, or the records in a tuple."""
    keys = draw(st.lists(_RECORD_KEYS, min_size=1, max_size=4, unique=True))
    count = draw(st.integers(1, 6))
    records = [{k: draw(_JSON_VALUES) for k in keys} for _ in range(count)]
    miss, i = draw(st.sampled_from(_NEAR_MISSES)), draw(st.integers(0, count - 1))
    if miss == "reordered":
        records[i] = dict(reversed(records[i].items()))
    elif miss == "missing-key":
        del records[i][draw(st.sampled_from(keys))]
    elif miss == "extra-key":
        records[i][draw(_RECORD_KEYS.filter(lambda k: k not in keys))] = draw(_JSON_VALUES)
    elif miss == "non-str-key":
        records[i][draw(_JSON_KEYS.filter(lambda k: not isinstance(k, str)))] = draw(_JSON_VALUES)
    elif miss == "dict-subclass":
        records[i] = collections.OrderedDict(records[i])
    return tuple(records) if miss == "tuple" else records


@settings(max_examples=300, deadline=None)
@given(records=_record_arrays(), nested=st.booleans())
def test_json_text_writes_record_arrays_as_dumps_does(records, nested):
    payload = {"records": records} if nested else records
    assert json_text(payload) == json.dumps(payload, indent=2, allow_nan=False)


def test_write_json_writes_the_indented_dumps(tmp_path):
    payload = {"a": [1, 2.5, (True, None)], 0.5: {}, "b": [], "c": {"é": np.float64(-0.0)}}
    path = tmp_path / "out.json"
    write_json(str(path), payload)
    expected = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    assert path.read_bytes() == expected.encode("ascii")


def _nested(value):
    return {"outer": [1, {"inner": (2.0, value)}]}


def _two_records(value, other):
    # Record 0 holds value under "b", record 1 other under "a": a writer
    # going key by key would meet record 1's first.
    return [{"a": 1.0, "b": value}, {"a": other, "b": 0.0}]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, np.float64(np.nan)], ids=repr)
@pytest.mark.parametrize(
    "place",
    [
        lambda v: v,
        lambda v: [v],
        _nested,
        lambda v: {v: 1},
        lambda v: [{"k": {v: []}}],
        lambda v: _two_records(v, -np.inf if v == np.inf else np.inf),
    ],
    ids=["bare", "in-list", "nested", "key", "nested-key", "two-records"],
)
def test_json_text_refuses_non_finite_floats(bad, place):
    payload = place(bad)
    with pytest.raises(ValueError) as expected:
        json.dumps(payload, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as raised:
        json_text(payload)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize(
    "payload",
    [
        object(),
        {1, 2},
        [b"bytes"],
        _nested(np.int64(3)),
        {(1, 2): 3},
        {"k": {np.int64(1): 0}},
        _two_records(np.int64(3), b"bytes"),
    ],
    ids=["object", "set", "bytes", "np-int64", "tuple-key", "np-int64-key", "two-records"],
)
def test_json_text_refuses_what_json_cannot_write(payload):
    with pytest.raises(TypeError) as expected:
        json.dumps(payload, indent=2, allow_nan=False)
    with pytest.raises(TypeError) as raised:
        json_text(payload)
    assert str(raised.value) == str(expected.value)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    values=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(2, 9)),
        elements=st.floats(-1e150, 1e150),
    )
)
def test_written_sample_reads_back_exactly(values, tmp_path):
    sample = FunctionalSample(make_uniform_grid(values.shape[1]), values)
    path = tmp_path / "sample.csv"
    path.write_text(sample_to_csv(sample), encoding="utf-8")
    back = read_sample(str(path))
    assert np.array_equal(back.values, sample.values)
    assert np.array_equal(back.grid.points, sample.grid.points)


@pytest.mark.parametrize("span", [3.6e6, 1e9])
def test_wide_grid_span_is_read(span, tmp_path, capsys):
    # Seconds over an hour, say. The weights sum to the span only up to
    # rounding relative to it; an absolute tolerance refused about half of
    # these grids.
    values = generate_inliers(12, seed=5).values.tolist()
    path = tmp_path / "wide.csv"
    argv = ["depth", "--input", str(path), "--J", "2", "--M", "50", "--u", "0.5", "--seed", "1"]
    for seed in range(8):
        rng = np.random.default_rng(seed)
        points = np.concatenate(([0.0], np.sort(rng.uniform(0, span, 48)), [span]))
        path.write_text(csv_text([points.tolist(), *values]), encoding="utf-8")
        sample = read_sample(str(path))
        assert np.array_equal(sample.grid.points, points)
        assert run(argv + ["--out", str(tmp_path / "d.csv")]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "line, key", [("n_inliers = 0", "n_inliers"), ("n_inliers = -3", "n_inliers"), ("p = 1", "p")]
)
@pytest.mark.parametrize("command", ["simulate", "bench"])
def test_scenario_size_error_names_the_file(command, line, key, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "small.cfg"
    # The line replaces the valid one of its key: a key may appear once.
    lines = {"n_inliers": "n_inliers = 10", "outliers": "outliers = magnitude:5", key: line}
    cfg.write_text("\n".join(lines.values()) + "\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    if command == "simulate":
        argv = ["simulate", "--out-sample", str(out), "--out-labels", f"{out}.lab"]
    else:
        argv = ["bench", "--replicates", "1", "--out", str(out)]
        # refused before any replicate runs
        monkeypatch.setattr(cli, "roc_table", lambda *args, **kwargs: pytest.fail("ran"))
    assert run(argv + ["--scenario", str(cfg), "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cfg) in err and f"{key} must be at least" in err
    assert not out.exists()


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


_LONG = 100_000
OVERSIZED_INPUTS = {
    "bad-field": "0,0.5,1\n1,2," + "x" * _LONG + "\n1,2,3\n",
    "unterminated-quote": '0,0.5,1\n1,2,"3\n' + "4,5,6\n" * 20_000,
    "quoted-field": '0,0.5,1\n1,2,"' + "y" * _LONG + '"\n1,2,3\n',
    "wide-row": "0,0.5,1\n" + ",".join(["1"] * _LONG) + "\n1,2,3\n",
    "long-number": "0,0.5,1\n1,2," + "9" * _LONG + "\n1,2,3\n",
    "long-grid-field": "0,0.5," + "z" * 50_000 + "\n1,2,3\n1,2,3\n",
}


@pytest.mark.parametrize("case", OVERSIZED_INPUTS)
def test_oversized_input_gives_one_short_line(case, tmp_path, capsys):
    # NumPy's reader quotes at most the first 100 characters of a field it
    # cannot read, so no message needs shortening here.
    path = tmp_path / f"{case}.csv"
    path.write_text(OVERSIZED_INPUTS[case])
    argv = ["depth", "--input", str(path), "--J", "1", "--u", "0.5", "--seed", "7"]
    assert run(argv + ["--out", str(tmp_path / "d.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err
    assert len(err.rstrip("\n")) - len(str(path)) <= 200


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
        (["depth", "--u", "-1e-3"], "argument --u: must lie in (0, 1)"),
        (["depth", "--lambda", "-inf"], "argument --lambda: must be positive"),
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


def _manifest_without_time(path):
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    del manifest["wall_time_seconds"]
    return manifest


def test_one_parser_serves_every_run_of_a_process(cli_files, tmp_path, capsys, monkeypatch):
    """The parser is built once per process. A refused argv, then simulate,
    then outliers, run one after another in this process, write the bytes
    that a fresh process per command writes, and --help still exits 0."""
    assert _build_parser() is _build_parser()
    argvs = [
        ["depth", "--input", cli_files["s"], "--u", "1.5", "--seed", "1", "--out", "d.csv"],
        ["simulate", "--scenario", cli_files["c"], "--seed", "9"]
        + ["--out-sample", "s.csv", "--out-labels", "l.csv"],
        ["outliers", "--input", "s.csv", "--J", "3", "--M", "200", "--u", "0.95"]
        + ["--factor", "3.0", "--seed", "5", "--out", "o.json"],
    ]
    codes = [1, 0, 0]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    assert [run(argv) for argv in argvs] == codes
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv, code in zip(argvs, codes):
        command = [sys.executable, "-m", "rhdepth.cli", *argv]
        done = subprocess.run(command, cwd=fresh, env=env, capture_output=True)
        assert done.returncode == code
    for name in ("s.csv", "l.csv", "o.json"):
        assert (here / name).read_bytes() == (fresh / name).read_bytes()
    for name in ("s.csv", "o.json"):
        manifest = f"{name}.manifest.json"
        assert _manifest_without_time(here / manifest) == _manifest_without_time(fresh / manifest)
    assert not (here / "d.csv").exists() and not (fresh / "d.csv").exists()
    capsys.readouterr()
    assert run(["--help"]) == 0
    assert run(["outliers", "--help"]) == 0
    assert "--calibrate" in capsys.readouterr().out
