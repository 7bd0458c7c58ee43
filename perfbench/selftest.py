"""Self-tests of the benchmark; not part of the package's test suite.

    python3 -m pytest -q perfbench/selftest.py

Each test runs perfbench/run.py in a copy of the checkout under a temporary
directory, so work files and the quality cache start empty. Takes a few
minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Span, self_times  # noqa: E402

COUNT_METRICS = ("rhd.count_cells", "outlier.fence_records", "outlier.fence_unique_dirs", "outlier.candidates")
QUALITY_METRICS = ("p_c", "p_f", "mean_depth")
IGNORE = shutil.ignore_patterns("__pycache__", "*.pyc")


def make_checkout(base: Path, with_source: bool = True) -> Path:
    root = base / "checkout"
    shutil.copytree(HERE, root / "perfbench", ignore=IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_source:
        shutil.copytree(ROOT / "src", root / "src", ignore=IGNORE)
    return root


def bench(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=900)


def clean_result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    return result


def values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    return make_checkout(tmp_path_factory.mktemp("bench"))


def test_self_time_subtracts_the_union_of_children():
    parent = Span(0, None, "outlier.calibrate_factor", 0, 0.0, 10.0)
    # Two overlapping children on worker threads and one nested grandchild.
    spans = [
        parent,
        Span(1, 0, "rhd.depth", 0, 1.0, 4.0),
        Span(2, 0, "funspace.fit_fpca", 0, 3.0, 6.0),
        Span(3, 2, "rhd.resolve_lambda", 0, 4.0, 5.0),
    ]
    own = self_times(spans)
    assert own["outlier"] == pytest.approx(5.0)
    assert own["rhd"] == pytest.approx(3.0 + 1.0)
    assert own["funspace"] == pytest.approx(2.0)


@pytest.mark.parametrize("workload", ["calibrate_paper", "roc_mixed", "depth_mixed"])
def test_count_metrics_repeat_for_one_seed(checkout, workload):
    first, second = (values(clean_result(bench(checkout, workload, 5, trace=1))) for _ in range(2))
    assert first.keys() == second.keys()
    for name in COUNT_METRICS:
        assert first[name] == second[name], name
    assert first["rhd.count_cells"] > 0
    fences_run = workload != "depth_mixed"
    assert (first["outlier.fence_records"] > 0) == fences_run


def test_quality_metrics_repeat_for_one_seed(checkout, tmp_path):
    # Both runs compute the quality panel from scratch.
    first = values(clean_result(bench(checkout, "depth_mixed", 5, trace=0)))
    second = values(clean_result(bench(make_checkout(tmp_path), "depth_mixed", 5, trace=0)))
    for name in QUALITY_METRICS:
        assert first[name] == second[name], name
        assert 0 < first[name] < 1


def test_second_seed_runs_cleanly(checkout):
    result = clean_result(bench(checkout, "roc_mixed", 6, trace=0))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    done = bench(make_checkout(tmp_path, with_source=False), "depth_mixed", 1, trace=0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
