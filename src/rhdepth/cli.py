"""Command-line entry point.

Subcommands: fpca, depth (alias rank), outliers, calibrate, simulate, bench.
Each is one entry of a command table: the flags it takes, its pipeline, and
the flag values its manifest records. One runner resolves the seed, runs the
pipeline, writes its outputs atomically, and writes a JSON manifest
(<out>.manifest.json) holding the parameters, the seed, the package
version, and wall time; replaying a manifest's argv reproduces the outputs
byte for byte (the wall-time field aside).

Exit codes: 1 for argument/validation errors (the message names the flag)
and for a failed allocation, 2 for rank or empty-pool errors, 0 otherwise.
Every flag value is checked when the arguments are parsed, before any file
is read, as in `argument --u: must lie in (0, 1), got '2'`: a number (an
integer for a count or the seed); --u or a --u-grid entry in (0, 1);
--lambda positive, NaN refused (inf means no regularization); --factor or
a --factor-grid entry positive and finite; --J, --M, --B, --replicates and
--threads at least 1; the seed at least 0; a path not empty; exactly one of
--u and --lambda, and of --factor and --calibrate. JSON outputs and
manifests are strict JSON: an infinite lambda is the string "inf".

Scenario config files are plain key=value lines; the seed comes from
--seed, not from the file. For example:

    n_inliers = 200
    outliers = magnitude:1, jump:1, wiggle:1, linear:1
    p = 50
    J0 = 15

Environment overrides: RHDEPTH_SEED and RHDEPTH_THREADS apply when the
corresponding flag is not given, and are checked as that flag is. A seed
taken from RHDEPTH_SEED is recorded in the manifest's argv as --seed. The
thread count is capped at the CPU count.

argparse prints the refusals found while parsing. Every later one, an
environment value's included, is an exception that `run` prints as one
`rhdepth: error:` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import os
import re
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from typing import Callable

import numpy as np

from .evalkit import DEFAULT_QUANTILE_GRID, normalized_ranks, roc_table
from .funspace import RankError, fit_fpca
from .io import (
    atomic_write_text,
    csv_text,
    eigensystem_payload,
    labels_to_csv,
    read_sample,
    sample_to_csv,
    write_json,
)
from .outlier import FACTOR_GRID, calibrate_factor, detect_outliers
from .rhd import EmptyPoolError, RegularizationSpec, approximate_rhd, draw_directions
from .rhd import resolve_lambda
from .simlab import ScenarioSpec, generate_scenario


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token that starts like a negative number (-1e-3, -inf, -nan) is a
        # value, so that its flag's range check names it; argparse's own
        # pattern takes only plain decimals and reads the rest as options.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    # argparse exits with status 2 on bad arguments; the contract here is 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _package_version() -> str:
    try:
        return version("rhdepth")
    except PackageNotFoundError:
        return "unknown"


def _checked(convert, test, expect: str):
    """An argparse type: the text read by convert (int, float or str), kept
    when test(value) holds; expect says what test asks, in the error."""
    kind = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}") from None
        if not test(value):
            raise argparse.ArgumentTypeError(f"must {expect}, got {text!r}")
        return value

    return parse


_count = _checked(int, lambda v: v >= 1, "be at least 1")
_seed = _checked(int, lambda v: v >= 0, "be at least 0")
_quantile = _checked(float, lambda v: 0 < v < 1, "lie in (0, 1)")  # a quantile level
_lambda = _checked(float, lambda v: v > 0, "be positive")  # refuses NaN; inf is allowed
_factor = _checked(float, lambda v: 0 < v < math.inf, "be positive and finite")  # a fence factor
_path = _checked(str, bool, "not be empty")


def _grid(parse):
    """Comma-separated values, each read by parse."""

    def grid(text: str) -> tuple:
        return tuple(parse(v) for v in text.split(","))

    return grid


# Every flag once, with its add_argument kwargs. Its attribute on the parsed
# namespace, and its manifest key, is the name with '-' read as '_'.
_FLAGS = {
    "threads": dict(type=_count, help="worker threads"),
    "input": dict(type=_path, required=True, help="sample CSV (grid row + curves)"),
    "eval": dict(type=_path, help="evaluation-point CSV; defaults to the sample"),
    "scenario": dict(type=_path, required=True, help="key=value scenario config"),
    "J": dict(type=_count, default=6, help="truncation level (default 6)"),
    "M": dict(
        type=_count,
        default=1000,
        help="random proposal directions, plus one data direction per curve (default 1000)",
    ),
    "u": dict(type=_quantile, help="quantile level for lambda"),
    "lambda": dict(type=_lambda, help="explicit lambda"),
    "factor": dict(type=_factor, help="fence factor f"),
    "calibrate": dict(action="store_true", help="calibrate f on null data"),
    "B": dict(type=_count, default=100, help="null datasets for calibration"),
    "u-grid": dict(type=_grid(_quantile), default=DEFAULT_QUANTILE_GRID, help="quantile levels"),
    "factor-grid": dict(type=_grid(_factor), default=FACTOR_GRID, help="fence factors"),
    "replicates": dict(type=_count, default=100, help="scenario replicates"),
    "seed": dict(type=_seed, help="RNG seed"),
    "out": dict(type=_path, required=True, help="output path"),
    "out-sample": dict(type=_path, required=True, help="output curve CSV"),
    "out-labels": dict(type=_path, required=True, help="output labels CSV"),
}


def _setting(args, name: str, env: str, parse):
    """The --name flag's value, else env's as read by parse, or None."""
    value = getattr(args, name)
    if value is None and env in os.environ:
        try:
            value = parse(os.environ[env])
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{env} {exc}") from None
    return value


def _resolve_threads(args) -> int:
    """Worker threads, at least 1 and at most the CPU count.

    Outputs do not depend on the thread count, so the cap changes none.
    """
    threads = _setting(args, "threads", "RHDEPTH_THREADS", _count)
    cpus = os.cpu_count() or 1
    return cpus if threads is None else min(threads, cpus)


def _reg_spec(args) -> RegularizationSpec:
    return RegularizationSpec(lam=vars(args)["lambda"], quantile_level=args.u)


def parse_scenario_config(path: str) -> ScenarioSpec:
    """Read a key=value scenario file; a malformed one raises ValueError
    naming it.

    It holds no seed: `simulate` takes --seed, and `bench` derives one per
    replicate from its --seed.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return _scenario_from_lines(handle.read().splitlines())
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from None


def _config_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {text!r}") from None


def _scenario_from_lines(lines) -> ScenarioSpec:
    """The ScenarioSpec of the keys a file gives; ScenarioSpec's defaults fill the rest."""
    fields = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key == "seed":
            raise ValueError("unknown key 'seed': the seed comes from --seed")
        if key not in ("n_inliers", "outliers", "p", "J0"):
            raise ValueError(f"unknown key {key!r}")
        if key in fields:
            raise ValueError(f"key {key!r} given twice")
        fields[key] = value.strip()
    if "n_inliers" not in fields:
        raise ValueError("n_inliers is required")
    counts = {}
    if fields.get("outliers"):
        for item in fields["outliers"].split(","):
            kind, _, count = item.strip().partition(":")
            kind = kind.strip()
            if kind in counts:
                raise ValueError(f"outlier kind {kind!r} given twice")
            counts[kind] = _config_int(f"the count of {kind!r}", count) if count else 1
    sizes = {k: _config_int(k, fields[k]) for k in ("n_inliers", "p", "J0") if k in fields}
    return ScenarioSpec(outlier_counts=counts, **sizes)


def _json_float(value):
    """A float for strict JSON: inf, an unregularized lambda, as the string
    "inf", as --lambda takes it and the depth CSV writes it."""
    return "inf" if value == math.inf else value


def _fit_pool(args):
    """Read the sample, fit FPCA, draw the direction pool and resolve lambda."""
    sample = read_sample(args.input)
    eig = fit_fpca(sample, args.J)
    dirs = draw_directions(eig, args.M, args.seed)
    return sample, eig, dirs, resolve_lambda(_reg_spec(args), dirs)


def _fpca(args):
    """fit FPCA, export eigensystem JSON"""
    eig = fit_fpca(read_sample(args.input), args.J)
    return {args.out: eigensystem_payload(eig)}, {}


def _depth(args):
    """depths and normalized ranks of evaluation curves (default: the sample)"""
    sample, eig, dirs, lam = _fit_pool(args)
    evaluation = read_sample(args.eval) if args.eval else sample
    try:
        result = approximate_rhd(eig, dirs, lam, evaluation)
    except ValueError as exc:  # the grid check; the sample shares its own grid
        raise ValueError(f"--eval {args.eval}: {exc}") from None
    del evaluation  # not held while the CSV text is built
    table = normalized_ranks(result.depths)
    # Depths are multiples of 1/n, so few are distinct; equal depths share
    # a rank, and each distinct depth's fields are written once.
    _, first, inverse = np.unique(result.depths, return_index=True, return_inverse=True)
    depths, ranks = result.depths[first].tolist(), table.normalized[first].tolist()
    fields = csv_text(zip(depths, ranks, itertools.repeat(lam))).splitlines()
    ties = map(len, result.minimizing_directions)
    rows = zip(itertools.count(), map(fields.__getitem__, inverse.tolist()), ties)
    header = ("eval_id", "depth", "normalized_rank", "lambda_used", "n_min_directions")
    return {args.out: csv_text([header, *rows])}, {"lambda_used": lam}


def _calibration(args, eig) -> dict:
    """Calibrate the fence factor on null data; the result as a JSON payload."""
    calib = calibrate_factor(eig, args.M, _reg_spec(args), args.B, args.seed, threads=args.threads)
    return dataclasses.asdict(calib)


def _outliers(args):
    """flag outliers in the sample"""
    _, eig, dirs, lam = _fit_pool(args)
    calib = _calibration(args, eig) if args.calibrate else None
    factor = calib["factor"] if calib else args.factor
    report = detect_outliers(eig, dirs, lam, factor)
    payload = {
        "candidate_set": list(report.candidate_set),
        "flagged": list(report.flagged),
        "factor": report.factor,
        "lambda_used": _json_float(report.lambda_used),
        "depths": report.depths.tolist(),
        # Each record's own field dict, in field order; asdict would deep-copy it.
        "fences": [vars(f) for f in report.fences],
    }
    if calib:
        del calib["rates"]  # only the calibrate command writes them
        payload["calibration"] = calib
    resolved = {
        "lambda_used": lam,
        "factor": factor,
        "calibrated": args.calibrate,
        "B": args.B if args.calibrate else None,
    }
    return {args.out: payload}, resolved


def _calibrate(args):
    """calibrate the fence factor"""
    return {args.out: _calibration(args, fit_fpca(read_sample(args.input), args.J))}, {}


def _simulate(args):
    """generate a contaminated scenario"""
    spec = dataclasses.replace(parse_scenario_config(args.scenario), seed=args.seed)
    sample, labels = generate_scenario(spec)
    outputs = {args.out_sample: sample_to_csv(sample), args.out_labels: labels_to_csv(labels)}
    return outputs, {}


def _bench(args):
    """ROC table over quantile levels and factors"""
    roc = roc_table(
        parse_scenario_config(args.scenario),
        args.J,
        args.M,
        args.replicates,
        args.seed,
        u_grid=args.u_grid,
        factor_grid=args.factor_grid,
        threads=args.threads,
    )
    header = ("u", "f", "p_c", "p_f", "replicates")
    return {args.out: csv_text([header, *([r[k] for k in header] for r in roc)])}, {}


@dataclasses.dataclass(frozen=True)
class _Command:
    """One subcommand; its help text is the pipeline's docstring.

    pipeline(args), called with the seed resolved, returns (outputs, resolved):
    outputs maps each output path to its text or JSON payload; resolved holds
    the values the manifest records after the flags. The first --out* flag
    the command takes also names the manifest.
    """

    pipeline: Callable
    recorded: tuple  # flags whose values the manifest copies, in order
    unrecorded: tuple = ("seed", "out")  # the other flags it takes
    aliases: tuple = ()


_POOL_FLAGS = ("input", "J", "M", "u", "lambda")

_EITHER_OR = (("u", "lambda"), ("factor", "calibrate"))  # a command taking a pair needs one

_COMMANDS = {
    "fpca": _Command(_fpca, ("input", "J"), ("out",)),
    "depth": _Command(_depth, ("input", "eval", "J", "M", "u", "lambda"), aliases=("rank",)),
    "outliers": _Command(_outliers, _POOL_FLAGS, ("factor", "calibrate", "B", "seed", "out")),
    "calibrate": _Command(_calibrate, (*_POOL_FLAGS, "B")),
    "simulate": _Command(_simulate, ("scenario",), ("seed", "out-sample", "out-labels")),
    "bench": _Command(_bench, ("scenario", "J", "M", "u-grid", "factor-grid", "replicates")),
}


# Built once per process: parse_args keeps no state between calls, and every
# default in _FLAGS is static.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="rhdepth")
    parser.add_argument("--threads", **_FLAGS["threads"])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, aliases=cmd.aliases, help=cmd.pipeline.__doc__)
        p.set_defaults(command=name)  # an alias runs, and records, its command
        flags = cmd.recorded + cmd.unrecorded
        groups = {}
        for pair in _EITHER_OR:
            if pair[0] in flags:
                groups |= dict.fromkeys(pair, p.add_mutually_exclusive_group(required=True))
        for flag in flags:
            groups.get(flag, p).add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _checked_outputs(args, cmd) -> str:
    """The manifest's path, once no two outputs (it included) resolve to one
    file, no output resolves to an input, and no output is a directory, lies
    in a missing one, or exists as anything but a regular file (a FIFO, say,
    which the atomic rename would replace)."""
    flags = [f"--{f}" for f in (*cmd.recorded, *cmd.unrecorded) if f.startswith("out")]
    named = {flag: vars(args)[flag[2:].replace("-", "_")] for flag in flags}
    manifest = named[f"the manifest of {flags[0]}"] = named[flags[0]] + ".manifest.json"
    inputs = [f for f in cmd.recorded if f in ("input", "eval", "scenario") and vars(args)[f]]
    seen = {os.path.realpath(vars(args)[f]): f"--{f}" for f in reversed(inputs)}
    for name, path in named.items():
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{seen[real]} and {name} are the same file {path!r}")
        seen[real] = name
        if os.path.isdir(real):
            raise ValueError(f"{name} {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(real)):
            raise ValueError(f"{name} {path!r}: its directory does not exist")
        if os.path.exists(path) and not os.path.isfile(path):
            raise ValueError(f"{name} {path!r} is not a regular file")
    return manifest


def _run_command(args, argv) -> int:
    """Resolve the seed, check the outputs, run the pipeline, write its outputs and manifest."""
    start = time.monotonic()
    cmd = _COMMANDS[args.command]
    seeded = "seed" in cmd.unrecorded
    if seeded and args.seed is None:
        args.seed = _setting(args, "seed", "RHDEPTH_SEED", _seed)
        if args.seed is None:
            raise ValueError("--seed is required (or set RHDEPTH_SEED)")
        argv = [*argv, "--seed", str(args.seed)]  # replays without RHDEPTH_SEED
    manifest_path = _checked_outputs(args, cmd)
    outputs, resolved = cmd.pipeline(args)
    for path, content in outputs.items():
        if isinstance(content, str):
            atomic_write_text(path, content)
        else:
            write_json(path, content)
    values = vars(args)
    params = {
        "command": args.command,
        **{key: values[key] for key in (f.replace("-", "_") for f in cmd.recorded)},
        **resolved,
    }
    if seeded:
        params["seed"] = args.seed
    params = {key: _json_float(value) for key, value in params.items()}
    manifest = {
        "argv": list(argv),
        "parameters": params,
        "version": _package_version(),
        "wall_time_seconds": time.monotonic() - start,
    }
    write_json(manifest_path, manifest)
    return 0


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.threads = _resolve_threads(args)
        return _run_command(args, argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError, MemoryError, RankError, EmptyPoolError) as exc:
        # A path named in the message may hold line breaks; escaped, the message stays one line.
        message = (str(exc) or "out of memory").replace("\n", "\\n").replace("\r", "\\r")
        print(f"rhdepth: error: {message}", file=sys.stderr)
        return 2 if isinstance(exc, (RankError, EmptyPoolError)) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
