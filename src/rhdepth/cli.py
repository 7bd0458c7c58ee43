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
Refused values: --u or a --u-grid entry outside (0, 1); --lambda not
positive, NaN included (inf means no regularization); --factor or a
--factor-grid entry that is not positive and finite, or that overflows a
fence; a negative seed; a thread count below 1. JSON outputs and
manifests are strict JSON: an infinite lambda is the string "inf".

Scenario config files are plain key=value lines; the seed comes from
--seed, not from the file. For example:

    n_inliers = 200
    outliers = magnitude:1, jump:1, wiggle:1, linear:1
    p = 50
    J0 = 15

Environment overrides: RHDEPTH_SEED and RHDEPTH_THREADS apply when the
corresponding flag is not given. The thread count must be at least 1 and
is capped at the CPU count.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import re
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from typing import Callable

from ._parallel import default_threads
from .errors import EmptyPoolError, RankError
from .evalkit import DEFAULT_QUANTILE_GRID, normalized_ranks, roc_table
from .funspace import fit_fpca
from .io import (
    atomic_write_text,
    eigensystem_to_json,
    labels_to_csv,
    read_sample,
    sample_to_csv,
    write_json,
)
from .outlier import FACTOR_GRID, calibrate_factor, detect_outliers
from .rhd import RegularizationSpec, approximate_rhd, draw_directions, resolve_lambda
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


def _float_in(low: float, high: float, expect: str):
    """A flag value strictly between low and high; expect says so in the error."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"must {expect}, got {text!r}")
        return value

    return parse


_factor = _float_in(0, math.inf, "be positive and finite")  # a fence factor
_quantile = _float_in(0, 1, "lie in (0, 1)")  # a quantile level


def _grid(parse):
    """Comma-separated values, each read by parse."""

    def grid(text: str) -> tuple:
        return tuple(parse(v) for v in text.split(","))

    return grid


# Every flag once, with its add_argument kwargs. Its attribute on the parsed
# namespace, and its manifest key, is the name with '-' read as '_'.
_FLAGS = {
    "threads": dict(type=int, help="worker threads"),
    "input": dict(required=True, help="sample CSV (grid row + curves)"),
    "eval": dict(help="evaluation-point CSV; defaults to the sample"),
    "scenario": dict(required=True, help="key=value scenario config"),
    "J": dict(type=int, default=6, help="truncation level (default 6)"),
    "M": dict(
        type=int,
        default=1000,
        help="random proposal directions, plus one data direction per curve (default 1000)",
    ),
    "u": dict(type=float, help="quantile level for lambda"),
    "lambda": dict(type=float, help="explicit lambda"),
    "factor": dict(type=_factor, help="fence factor f"),
    "calibrate": dict(action="store_true", help="calibrate f on null data"),
    "B": dict(type=int, default=100, help="null datasets for calibration"),
    "u-grid": dict(type=_grid(_quantile), default=DEFAULT_QUANTILE_GRID, help="quantile levels"),
    "factor-grid": dict(type=_grid(_factor), default=FACTOR_GRID, help="fence factors"),
    "replicates": dict(type=int, default=100, help="scenario replicates"),
    "seed": dict(type=int, help="RNG seed"),
    "out": dict(required=True, help="output path"),
    "out-sample": dict(required=True, help="output curve CSV"),
    "out-labels": dict(required=True, help="output labels CSV"),
}


def _int_setting(args, name: str, env: str, minimum: int, parser):
    """The --name flag's value, else env's as an int, or None; at least minimum."""
    value, source = getattr(args, name), f"--{name}"
    if value is None and env in os.environ:
        source = env
        try:
            value = int(os.environ[env])
        except ValueError:
            parser.exit(1, f"rhdepth: error: {env} must be an integer\n")
    if value is not None and value < minimum:
        parser.exit(1, f"rhdepth: error: {source} must be at least {minimum}\n")
    return value


def _resolve_seed(args, parser) -> int:
    seed = _int_setting(args, "seed", "RHDEPTH_SEED", 0, parser)
    if seed is None:
        parser.exit(1, "rhdepth: error: --seed is required (or set RHDEPTH_SEED)\n")
    return seed


def _resolve_threads(args, parser) -> int:
    """Worker threads, at least 1 and at most the CPU count.

    Outputs do not depend on the thread count, so the cap changes none.
    """
    threads = _int_setting(args, "threads", "RHDEPTH_THREADS", 1, parser)
    return default_threads() if threads is None else min(threads, default_threads())


def _reg_spec(args) -> RegularizationSpec:
    u, lam = args.u, vars(args)["lambda"]
    if (u is None) == (lam is None):
        raise ValueError("provide exactly one of --u and --lambda")
    if u is not None and not 0 < u < 1:
        raise ValueError("--u must lie in (0, 1)")
    if lam is not None and not lam > 0:
        raise ValueError("--lambda must be positive")
    return RegularizationSpec(lam=lam, quantile_level=u)


def parse_scenario_config(path: str) -> ScenarioSpec:
    """Read a key=value scenario file; a malformed one raises ValueError
    naming it.

    It holds no seed: `simulate` takes --seed, and `bench` derives one per
    replicate from its --seed.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return _scenario_from_lines(handle.read().splitlines())
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from None


def _config_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {text!r}") from None


def _scenario_from_lines(lines) -> ScenarioSpec:
    fields = {"n_inliers": None, "outliers": "", "p": 50, "J0": 15}
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
        if key not in fields:
            raise ValueError(f"unknown key {key!r}")
        fields[key] = value.strip()
    if fields["n_inliers"] is None:
        raise ValueError("n_inliers is required")
    counts = {}
    if fields["outliers"]:
        for item in str(fields["outliers"]).split(","):
            kind, _, count = item.strip().partition(":")
            kind = kind.strip()
            counts[kind] = _config_int(f"the count of {kind!r}", count) if count else 1
    return ScenarioSpec(
        n_inliers=_config_int("n_inliers", fields["n_inliers"]),
        outlier_counts=counts,
        p=_config_int("p", fields["p"]),
        J0=_config_int("J0", fields["J0"]),
    )


def _json_float(value):
    """A float for strict JSON: inf, an unregularized lambda, as the string
    "inf", as --lambda takes it and the depth CSV writes it."""
    return "inf" if value == math.inf else value


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _fit_pool(args):
    """Read the sample, fit FPCA, draw the direction pool and resolve lambda."""
    sample = read_sample(args.input)
    spec = _reg_spec(args)
    eig = fit_fpca(sample, args.J)
    dirs = draw_directions(eig, args.J, args.M, args.seed)
    return sample, spec, eig, dirs, resolve_lambda(spec, dirs)


def _fpca(args):
    """fit FPCA, export eigensystem JSON"""
    eig = fit_fpca(read_sample(args.input), args.J)
    return {args.out: eigensystem_to_json(eig) + "\n"}, {}


def _depth(args):
    """depths and normalized ranks of evaluation curves (default: the sample)"""
    sample, _, eig, dirs, lam = _fit_pool(args)
    evaluation = read_sample(args.eval) if args.eval else sample
    try:
        result = approximate_rhd(eig, dirs, lam, evaluation)
    except ValueError as exc:  # the grid check; the sample shares its own grid
        raise ValueError(f"--eval {args.eval}: {exc}") from None
    del evaluation  # not held while the CSV text is built
    table = normalized_ranks(result.depths)
    rows = [
        (i, repr(float(d)), repr(float(r)), repr(lam), len(result.minimizing_directions[i]))
        for i, (d, r) in enumerate(zip(result.depths, table.normalized))
    ]
    header = ["eval_id", "depth", "normalized_rank", "lambda_used", "n_min_directions"]
    return {args.out: _csv_text(header, rows)}, {"lambda_used": lam}


def _calibration(args, sample, spec) -> dict:
    """Calibrate the fence factor on null data; the result as a JSON payload."""
    calib = calibrate_factor(
        sample, args.J, args.M, spec, args.B, args.seed, threads=args.threads
    )
    return dataclasses.asdict(calib)


def _outliers(args):
    """flag outliers in the sample"""
    if args.factor is None and not args.calibrate:
        raise ValueError("provide --factor or --calibrate")
    sample, spec, eig, dirs, lam = _fit_pool(args)
    calib = _calibration(args, sample, spec) if args.calibrate else None
    factor = calib["factor"] if calib else args.factor
    report = detect_outliers(eig, dirs, lam, factor)
    payload = {
        "candidate_set": list(report.candidate_set),
        "flagged": list(report.flagged),
        "factor": report.factor,
        "lambda_used": _json_float(report.lambda_used),
        "depths": [float(d) for d in report.depths],
        # vars keeps field order; asdict would deep-copy every record.
        "fences": [dict(vars(f)) for f in report.fences],
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
    return {args.out: _calibration(args, read_sample(args.input), _reg_spec(args))}, {}


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
    rows = [(r["u"], r["f"], repr(r["p_c"]), repr(r["p_f"]), r["replicates"]) for r in roc]
    return {args.out: _csv_text(["u", "f", "p_c", "p_f", "replicates"], rows)}, {}


@dataclasses.dataclass(frozen=True)
class _Command:
    """One subcommand; its help text is the pipeline's docstring.

    pipeline(args), called with the seed resolved, returns (outputs, resolved):
    outputs maps each output path to its text or JSON payload, the first path
    also naming the manifest; resolved holds the values the manifest records
    after the flags.
    """

    pipeline: Callable
    recorded: tuple  # flags whose values the manifest copies, in order
    unrecorded: tuple = ("seed", "out")  # the other flags it takes
    aliases: tuple = ()


_POOL_FLAGS = ("input", "J", "M", "u", "lambda")

_COMMANDS = {
    "fpca": _Command(_fpca, ("input", "J"), ("out",)),
    "depth": _Command(_depth, ("input", "eval", "J", "M", "u", "lambda"), aliases=("rank",)),
    "outliers": _Command(_outliers, _POOL_FLAGS, ("factor", "calibrate", "B", "seed", "out")),
    "calibrate": _Command(_calibrate, (*_POOL_FLAGS, "B")),
    "simulate": _Command(_simulate, ("scenario",), ("seed", "out-sample", "out-labels")),
    "bench": _Command(_bench, ("scenario", "J", "M", "u-grid", "factor-grid", "replicates")),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="rhdepth")
    parser.add_argument("--threads", **_FLAGS["threads"])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, aliases=cmd.aliases, help=cmd.pipeline.__doc__)
        p.set_defaults(command=name)  # an alias runs, and records, its command
        for flag in cmd.recorded + cmd.unrecorded:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _run_command(args, argv, parser) -> int:
    """Resolve the seed, run the pipeline, write its outputs and the manifest."""
    start = time.monotonic()
    cmd = _COMMANDS[args.command]
    seeded = "seed" in cmd.unrecorded
    if seeded:
        args.seed = _resolve_seed(args, parser)
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
    write_json(next(iter(outputs)) + ".manifest.json", manifest)
    return 0


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.threads = _resolve_threads(args, parser)
        return _run_command(args, argv, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError, MemoryError, RankError, EmptyPoolError) as exc:
        print(f"rhdepth: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2 if isinstance(exc, (RankError, EmptyPoolError)) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
