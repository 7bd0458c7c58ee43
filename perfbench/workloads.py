"""The benchmark's workloads: inputs made with rhdepth.simlab, CLI commands,
and the checks every command's outputs must pass.

Each workload is one closed-loop client. Command ``i`` is a pure function
of the workload seed and ``i``, so two runs with one seed issue the same
commands in the same order.
"""

from __future__ import annotations

import csv
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rhdepth import io as rio
from rhdepth import simlab
from rhdepth.outlier import FACTOR_GRID

# Depths are k/n; allow float rounding in k = depth * n.
MULTIPLE_TOL = 1e-9

# Every command gets --threads 1. At --threads 2 the two threads contend
# for the interpreter lock, and what that costs depends on how the host
# schedules them: calibrate_paper's adjusted throughput spread 0.19 over
# ten runs of the same code, against 0.04-0.08 on one thread.
THREADS = 1

PAPER_INLIERS = 400
CALIBRATE_B = 4
ROC_REPLICATES = 2
ROC_U_GRID = (0.5, 0.7, 0.9, 0.95)
ROC_INLIERS = 200
ROC_OUTLIERS = {"magnitude": 1, "jump": 1, "wiggle": 1, "linear": 1}
DEGENERATE_N = 500
DEGENERATE_EVAL = 4000
DEGENERATE_EVAL_SETS = 2
RANK_N = 2000


class CheckFailed(Exception):
    """A command's outputs break a property every correct run has."""


def derive_seed(seed: int, *tags: int) -> int:
    """Independent 63-bit seed for one input or command of a run."""
    state = np.random.SeedSequence([seed, *tags]).generate_state(2, dtype=np.uint64)
    return int(state[0] >> np.uint64(1))


@dataclass(frozen=True)
class Command:
    argv: list
    out: Path
    curves: int  # curves whose depth the command evaluates

    @property
    def manifest(self) -> Path:
        return Path(str(self.out) + ".manifest.json")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_multiples(depths: np.ndarray, n: int, low: float) -> None:
    k = depths * n
    _require(np.all(np.abs(k - np.round(k)) < MULTIPLE_TOL), f"depth not a multiple of 1/{n}")
    _require(np.all((depths >= low) & (depths <= 1.0)), f"depth outside [{low}, 1]")


def _check_manifest(cmd: Command) -> None:
    manifest = json.loads(cmd.manifest.read_text(encoding="utf-8"))
    _require(manifest["argv"] == cmd.argv, "manifest argv differs from the command")


def read_depth_csv(cmd: Command, n: int, q: int, sample_is_eval: bool) -> np.ndarray:
    """Parse and check a ``depth`` output; return the depths."""
    with open(cmd.out, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header = ["eval_id", "depth", "normalized_rank", "lambda_used", "n_min_directions"]
    _require(rows and rows[0] == header, "depth CSV header")
    body = rows[1:]
    _require(len(body) == q, f"depth CSV has {len(body)} rows, expected {q}")
    table = np.array(body, dtype=float)
    _require(np.array_equal(table[:, 0], np.arange(q)), "eval_id column")
    depths = table[:, 1]
    # A sample curve always lies in its own closed halfspaces.
    _check_multiples(depths, n, 1.0 / n if sample_is_eval else 0.0)
    ranks = 1 + np.searchsorted(np.sort(depths), depths, side="left")
    _require(np.array_equal(table[:, 2], ranks / q), "normalized ranks disagree with depths")
    _require(np.all(table[:, 4] >= 1), "a point has no minimizing direction")
    _check_manifest(cmd)
    return depths


def read_outliers_json(cmd: Command, n: int) -> dict:
    """Parse and check an ``outliers --calibrate`` output."""
    payload = json.loads(cmd.out.read_text(encoding="utf-8"))
    depths = np.array(payload["depths"], dtype=float)
    _require(depths.size == n, f"{depths.size} depths for {n} curves")
    _check_multiples(depths, n, 1.0 / n)
    candidates = set(payload["candidate_set"])
    _require(candidates == set(np.flatnonzero(depths == depths.min()).tolist()),
             "candidate set is not the minimal-depth curves")
    _require(set(payload["flagged"]) <= candidates, "flagged is not a subset of candidate_set")
    _require(payload["factor"] in FACTOR_GRID, "factor outside the calibration grid")
    _require(payload["calibration"]["B"] == CALIBRATE_B, "calibration B")
    _require(len(payload["fences"]) > 0, "no fences")
    for fence in payload["fences"]:
        _require(fence["candidate"] in candidates, "fence for a non-candidate")
        _require(fence["lower"] <= fence["q1"] <= fence["q3"] <= fence["upper"], "fence order")
    _check_manifest(cmd)
    return payload


def read_roc_csv(cmd: Command, n_outliers: int, n_inliers: int) -> dict:
    """Parse and check a ``bench`` output; return {(u, f): (p_c, p_f)}."""
    with open(cmd.out, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    _require(rows and rows[0] == ["u", "f", "p_c", "p_f", "replicates"], "ROC CSV header")
    body = rows[1:]
    expected = len(ROC_U_GRID) * len(FACTOR_GRID)
    _require(len(body) == expected, f"ROC table has {len(body)} rows, expected {expected}")
    table = {}
    for row, (u, f) in zip(body, ((u, f) for u in ROC_U_GRID for f in FACTOR_GRID)):
        _require((float(row[0]), float(row[1])) == (u, f), "ROC grid order")
        _require(int(row[4]) == ROC_REPLICATES, "ROC replicate count")
        p_c, p_f = float(row[2]), float(row[3])
        for value, base in ((p_c, n_outliers), (p_f, n_inliers)):
            _require(0.0 <= value <= 1.0, "ROC rate outside [0, 1]")
            _check_multiples(np.array([value]), base * ROC_REPLICATES, 0.0)
        table[(u, f)] = (p_c, p_f)
    _check_manifest(cmd)
    return table


class Workload:
    name = ""
    period = 1  # commands per cycle of differing command kinds

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate and write every input the commands read."""

    def command(self, i: int) -> Command:
        raise NotImplementedError

    def check(self, i: int, cmd: Command):
        """Check command ``i``'s outputs; return what the quality panel reads."""
        raise NotImplementedError

    def _argv(self, *args) -> list:
        return ["--threads", str(THREADS), *[str(a) for a in args]]

    def _seed(self, i: int) -> int:
        return derive_seed(self.seed, 1, i)


class CalibratePaper(Workload):
    """The paper's headline use: calibrate the fence factor, then flag."""

    name = "calibrate_paper"
    n = PAPER_INLIERS + 1

    def setup(self) -> None:
        self.labels = []
        for k, kind in enumerate(simlab.OUTLIER_KINDS):
            spec = simlab.ScenarioSpec(
                n_inliers=PAPER_INLIERS, outlier_counts={kind: 1}, seed=derive_seed(self.seed, 0, k)
            )
            sample, labels = simlab.generate_scenario(spec)
            rio.write_sample(str(self._input(k)), sample)
            self.labels.append(labels)

    def _input(self, k: int) -> Path:
        return self.workdir / f"paper_{k}.csv"

    def command(self, i: int) -> Command:
        k = i % len(simlab.OUTLIER_KINDS)
        out = self.workdir / "outliers.json"
        argv = self._argv(
            "outliers", "--input", self._input(k), "--calibrate", "--B", CALIBRATE_B,
            "--u", 0.95, "--J", 6, "--M", 1000, "--seed", self._seed(i), "--out", out,
        )
        return Command(argv, out, (CALIBRATE_B + 1) * self.n)

    def check(self, i: int, cmd: Command) -> dict:
        return read_outliers_json(cmd, self.n)

    def quality(self, i: int, payload: dict) -> dict:
        labels = self.labels[i % len(self.labels)]
        outliers = {j for j, lab in enumerate(labels) if lab != "inlier"}
        flagged = set(payload["flagged"])
        return {
            "planted": len(outliers),
            "detected": len(flagged & outliers),
            "inliers": len(labels) - len(outliers),
            "false": len(flagged - outliers),
        }


class RocMixed(Workload):
    """The ROC accuracy study on the criterion-6 scenario."""

    name = "roc_mixed"
    n_outliers = sum(ROC_OUTLIERS.values())

    def setup(self) -> None:
        outliers = ", ".join(f"{kind}:{count}" for kind, count in ROC_OUTLIERS.items())
        self._config().write_text(
            f"n_inliers = {ROC_INLIERS}\noutliers = {outliers}\np = 50\nJ0 = 15\n", encoding="utf-8"
        )

    def _config(self) -> Path:
        return self.workdir / "criterion6.cfg"

    def command(self, i: int) -> Command:
        out = self.workdir / "roc.csv"
        argv = self._argv(
            "bench", "--scenario", self._config(), "--J", 6, "--M", 1000,
            "--replicates", ROC_REPLICATES, "--seed", self._seed(i), "--out", out,
        )
        curves = ROC_REPLICATES * len(ROC_U_GRID) * (ROC_INLIERS + self.n_outliers)
        return Command(argv, out, curves)

    def check(self, i: int, cmd: Command) -> dict:
        return read_roc_csv(cmd, self.n_outliers, ROC_INLIERS)

    def quality(self, i: int, table: dict) -> dict:
        p_c, p_f = table[(0.95, 3.0)]
        planted = self.n_outliers * ROC_REPLICATES
        inliers = ROC_INLIERS * ROC_REPLICATES
        return {
            "planted": planted,
            "detected": round(p_c * planted),
            "inliers": inliers,
            "false": round(p_f * inliers),
        }


class DepthMixed(Workload):
    """The two depth regimes, one command of each kind per cycle.

    Fresh Gaussian curves against a Gaussian sample at J=10, M=2000, with
    ``--u 0.5`` and then ``--lambda inf`` (the count kernel dominates), and
    a large non-Gaussian sample ranked against itself (FPCA dominates).
    """

    name = "depth_mixed"
    period = 3

    def setup(self) -> None:
        sample = simlab.generate_inliers(DEGENERATE_N, derive_seed(self.seed, 0, 0), gaussian=True)
        rio.write_sample(str(self._input()), sample)
        for e in range(DEGENERATE_EVAL_SETS):
            curves = simlab.generate_inliers(
                DEGENERATE_EVAL, derive_seed(self.seed, 0, 1 + e), gaussian=True
            )
            rio.write_sample(str(self._eval(e)), curves)
        large = simlab.generate_inliers(RANK_N, derive_seed(self.seed, 0, 1 + DEGENERATE_EVAL_SETS))
        rio.write_sample(str(self._large()), large)

    def _input(self) -> Path:
        return self.workdir / "gauss_sample.csv"

    def _eval(self, e: int) -> Path:
        return self.workdir / f"gauss_eval_{e}.csv"

    def _large(self) -> Path:
        return self.workdir / "large_sample.csv"

    @staticmethod
    def unregularized(i: int) -> bool:
        return i % 3 == 1

    @staticmethod
    def ranks_large(i: int) -> bool:
        return i % 3 == 2

    def command(self, i: int) -> Command:
        if self.ranks_large(i):
            out = self.workdir / "rank.csv"
            argv = self._argv(
                "depth", "--input", self._large(), "--J", 6, "--M", 1000, "--u", 0.95,
                "--seed", self._seed(i), "--out", out,
            )
            return Command(argv, out, RANK_N)
        reg = ("--lambda", "inf") if self.unregularized(i) else ("--u", 0.5)
        out = self.workdir / "depth.csv"
        argv = self._argv(
            "depth", "--input", self._input(), "--eval", self._eval((i // 3) % DEGENERATE_EVAL_SETS),
            "--J", 10, "--M", 2000, *reg, "--seed", self._seed(i), "--out", out,
        )
        return Command(argv, out, DEGENERATE_EVAL)

    def check(self, i: int, cmd: Command) -> np.ndarray:
        if self.ranks_large(i):
            return read_depth_csv(cmd, RANK_N, RANK_N, sample_is_eval=True)
        return read_depth_csv(cmd, DEGENERATE_N, DEGENERATE_EVAL, sample_is_eval=False)


WORKLOADS = {w.name: w for w in (CalibratePaper, RocMixed, DepthMixed)}


def execute(run, workload: Workload, i: int):
    """Run command ``i`` through ``run(argv)`` and check its outputs.

    Returns (check result or None, (CPU seconds, wall seconds) of the
    command, error message or None). CPU seconds are the whole process's,
    every thread included.
    """
    cmd = workload.command(i)
    start, start_cpu = time.perf_counter(), time.process_time()

    def elapsed():
        return time.process_time() - start_cpu, time.perf_counter() - start

    try:
        code = run(cmd.argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        return None, elapsed(), "command raised\n" + traceback.format_exc()
    seconds = elapsed()
    if code != 0:
        return None, seconds, f"exit code {code}"
    try:
        return workload.check(i, cmd), seconds, None
    except (CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
        return None, seconds, f"output check failed: {exc}"
