"""Command-line entry point.

Subcommands: fpca, depth, outliers, calibrate, simulate, rank, bench.
Every run writes its outputs atomically plus a JSON manifest
(<out>.manifest.json) holding all parameters, the seed, the package
version, and wall time; replaying a manifest's argv reproduces the outputs
byte for byte (the wall-time field aside).

Exit codes: 1 for argument/validation errors (the message names the flag),
2 for rank or empty-pool errors, 0 otherwise.

Scenario config files are plain key=value lines, e.g.:

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
import json
import os
import sys
import time
from importlib.metadata import PackageNotFoundError, version

from ._parallel import default_threads
from .errors import EmptyPoolError, RankError
from .evalkit import DEFAULT_QUANTILE_GRID, normalized_ranks, roc_table
from .funspace import fit_fpca
from .io import (
    atomic_write_text,
    eigensystem_to_json,
    read_sample,
    write_json,
    write_labels,
    write_sample,
)
from .outlier import FACTOR_GRID, calibrate_factor, detect_outliers
from .rhd import RegularizationSpec, approximate_rhd, draw_directions, resolve_lambda
from .simlab import ScenarioSpec, generate_scenario


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the contract here is 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _package_version() -> str:
    try:
        return version("rhdepth")
    except PackageNotFoundError:
        return "unknown"


def _add_common(parser, with_eval=False):
    parser.add_argument("--input", required=True, help="sample CSV (grid row + curves)")
    if with_eval:
        parser.add_argument("--eval", help="evaluation-point CSV; defaults to the sample")
    parser.add_argument("--J", type=int, default=6, help="truncation level (default 6)")
    parser.add_argument(
        "--M",
        type=int,
        default=1000,
        help="random proposal directions, plus one data direction per curve (default 1000)",
    )
    parser.add_argument("--u", type=float, help="quantile level for lambda")
    parser.add_argument("--lambda", dest="lam", type=float, help="explicit lambda")
    parser.add_argument("--seed", type=int, help="RNG seed")
    parser.add_argument("--out", required=True, help="output path")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rhdepth")
    parser.add_argument("--threads", type=int, default=None, help="worker threads")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fpca", parents=[], help="fit FPCA, export eigensystem JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--J", type=int, default=6)
    p.add_argument("--out", required=True)

    p = sub.add_parser("depth", help="approximate depth of evaluation curves")
    _add_common(p, with_eval=True)

    p = sub.add_parser("outliers", help="flag outliers in the sample")
    _add_common(p)
    p.add_argument("--factor", type=float, help="fence factor f")
    p.add_argument("--calibrate", action="store_true", help="calibrate f on null data")
    p.add_argument("--B", type=int, default=100, help="null datasets for calibration")

    p = sub.add_parser("calibrate", help="calibrate the fence factor")
    _add_common(p)
    p.add_argument("--B", type=int, default=100)

    p = sub.add_parser("simulate", help="generate a contaminated scenario")
    p.add_argument("--scenario", required=True, help="key=value scenario config")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--out-sample", required=True)
    p.add_argument("--out-labels", required=True)

    p = sub.add_parser("rank", help="depths and normalized ranks of the sample")
    _add_common(p)

    p = sub.add_parser("bench", help="ROC table over quantile levels and factors")
    p.add_argument("--scenario", required=True)
    p.add_argument("--J", type=int, default=6)
    p.add_argument("--M", type=int, default=1000)
    p.add_argument("--u-grid", default=",".join(str(u) for u in DEFAULT_QUANTILE_GRID))
    p.add_argument("--factor-grid", default=",".join(str(f) for f in FACTOR_GRID))
    p.add_argument("--replicates", type=int, default=100)
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--out", required=True)

    return parser


def _resolve_seed(args, parser):
    seed = getattr(args, "seed", None)
    if seed is None and "RHDEPTH_SEED" in os.environ:
        seed = int(os.environ["RHDEPTH_SEED"])
    if seed is None:
        parser.exit(1, "rhdepth: error: --seed is required (or set RHDEPTH_SEED)\n")
    return seed


def _resolve_threads(args, parser) -> int:
    """Worker threads, at least 1 and at most the CPU count.

    Outputs do not depend on the thread count, so the cap changes none.
    """
    if args.threads is not None:
        threads, source = args.threads, "--threads"
    elif "RHDEPTH_THREADS" in os.environ:
        source = "RHDEPTH_THREADS"
        try:
            threads = int(os.environ[source])
        except ValueError:
            parser.exit(1, f"rhdepth: error: {source} must be an integer\n")
    else:
        return default_threads()
    if threads < 1:
        parser.exit(1, f"rhdepth: error: {source} must be at least 1\n")
    return min(threads, default_threads())


def _reg_spec(args, parser) -> RegularizationSpec:
    if (args.u is None) == (args.lam is None):
        parser.exit(1, "rhdepth: error: provide exactly one of --u and --lambda\n")
    if args.u is not None:
        if not 0 < args.u < 1:
            parser.exit(1, "rhdepth: error: --u must lie in (0, 1)\n")
        return RegularizationSpec.from_quantile(args.u)
    if args.lam <= 0:
        parser.exit(1, "rhdepth: error: --lambda must be positive\n")
    return RegularizationSpec.from_lambda(args.lam)


def parse_scenario_config(path: str) -> ScenarioSpec:
    fields = {"n_inliers": None, "outliers": "", "p": 50, "J0": 15, "seed": 0}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: malformed line {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(f"{path}: unknown key {key!r}")
            fields[key] = value.strip()
    if fields["n_inliers"] is None:
        raise ValueError(f"{path}: n_inliers is required")
    counts = {}
    if fields["outliers"]:
        for item in str(fields["outliers"]).split(","):
            kind, _, count = item.strip().partition(":")
            counts[kind.strip()] = int(count) if count else 1
    return ScenarioSpec(
        n_inliers=int(fields["n_inliers"]),
        outlier_counts=counts,
        seed=int(fields["seed"]),
        p=int(fields["p"]),
        J0=int(fields["J0"]),
    )


def _write_manifest(out_path: str, argv, params: dict, elapsed: float) -> None:
    manifest = {
        "argv": list(argv),
        "parameters": params,
        "version": _package_version(),
        "wall_time_seconds": elapsed,
    }
    atomic_write_text(out_path + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _depth_pipeline(args, parser, eval_path=None):
    sample = read_sample(args.input)
    spec = _reg_spec(args, parser)
    seed = _resolve_seed(args, parser)
    eig = fit_fpca(sample, args.J)
    dirs = draw_directions(eig, args.J, args.M, seed)
    lam = resolve_lambda(spec, dirs)
    eval_sample = read_sample(eval_path) if eval_path else sample
    result = approximate_rhd(eig, dirs, lam, eval_sample)
    return sample, eig, dirs, lam, result, seed


def _cmd_depth(args, parser, argv):
    start = time.monotonic()
    _, _, _, lam, result, seed = _depth_pipeline(args, parser, getattr(args, "eval", None))
    table = normalized_ranks(result.depths)
    rows = [
        (i, repr(float(d)), repr(float(r)), repr(lam), len(result.minimizing_directions[i]))
        for i, (d, r) in enumerate(zip(result.depths, table.normalized))
    ]
    atomic_write_text(
        args.out,
        _csv_text(["eval_id", "depth", "normalized_rank", "lambda_used", "n_min_directions"], rows),
    )
    _write_manifest(
        args.out,
        argv,
        {
            "command": "depth",
            "input": args.input,
            "eval": getattr(args, "eval", None),
            "J": args.J,
            "M": args.M,
            "u": args.u,
            "lambda": args.lam,
            "lambda_used": lam,
            "seed": seed,
        },
        time.monotonic() - start,
    )
    return 0


def _cmd_rank(args, parser, argv):
    return _cmd_depth(args, parser, argv)


def _cmd_fpca(args, parser, argv):
    start = time.monotonic()
    sample = read_sample(args.input)
    eig = fit_fpca(sample, args.J)
    atomic_write_text(args.out, eigensystem_to_json(eig) + "\n")
    _write_manifest(
        args.out,
        argv,
        {"command": "fpca", "input": args.input, "J": args.J},
        time.monotonic() - start,
    )
    return 0


def _report_payload(report) -> dict:
    return {
        "candidate_set": list(report.candidate_set),
        "flagged": list(report.flagged),
        "factor": report.factor,
        "lambda_used": report.lambda_used,
        "depths": [float(d) for d in report.depths],
        "fences": [
            {
                "candidate": f.candidate,
                "direction": f.direction,
                "q1": f.q1,
                "q3": f.q3,
                "iqr": f.iqr,
                "lower": f.lower,
                "upper": f.upper,
                "flagged": list(f.flagged),
            }
            for f in report.fences
        ],
    }


def _cmd_outliers(args, parser, argv):
    start = time.monotonic()
    if args.factor is None and not args.calibrate:
        parser.exit(1, "rhdepth: error: provide --factor or --calibrate\n")
    sample = read_sample(args.input)
    spec = _reg_spec(args, parser)
    seed = _resolve_seed(args, parser)
    if args.calibrate:
        calib = calibrate_factor(
            sample, args.J, args.M, spec, args.B, seed, threads=args.threads
        )
        factor = calib.factor
    else:
        calib = None
        factor = args.factor
    eig = fit_fpca(sample, args.J)
    dirs = draw_directions(eig, args.J, args.M, seed)
    lam = resolve_lambda(spec, dirs)
    report = detect_outliers(eig, dirs, lam, factor)
    payload = _report_payload(report)
    if calib is not None:
        payload["calibration"] = {
            "factor": calib.factor,
            "achieved_rate": calib.achieved_rate,
            "grid_tried": list(calib.grid_tried),
            "B": calib.B,
        }
    write_json(args.out, payload)
    _write_manifest(
        args.out,
        argv,
        {
            "command": "outliers",
            "input": args.input,
            "J": args.J,
            "M": args.M,
            "u": args.u,
            "lambda": args.lam,
            "lambda_used": lam,
            "factor": factor,
            "calibrated": bool(args.calibrate),
            "B": args.B if args.calibrate else None,
            "seed": seed,
        },
        time.monotonic() - start,
    )
    return 0


def _cmd_calibrate(args, parser, argv):
    start = time.monotonic()
    sample = read_sample(args.input)
    spec = _reg_spec(args, parser)
    seed = _resolve_seed(args, parser)
    calib = calibrate_factor(sample, args.J, args.M, spec, args.B, seed, threads=args.threads)
    write_json(
        args.out,
        {
            "factor": calib.factor,
            "achieved_rate": calib.achieved_rate,
            "grid_tried": list(calib.grid_tried),
            "B": calib.B,
            "rates": {str(k): v for k, v in calib.rates.items()},
        },
    )
    _write_manifest(
        args.out,
        argv,
        {
            "command": "calibrate",
            "input": args.input,
            "J": args.J,
            "M": args.M,
            "u": args.u,
            "lambda": args.lam,
            "B": args.B,
            "seed": seed,
        },
        time.monotonic() - start,
    )
    return 0


def _cmd_simulate(args, parser, argv):
    start = time.monotonic()
    seed = _resolve_seed(args, parser)
    base = parse_scenario_config(args.scenario)
    spec = ScenarioSpec(
        n_inliers=base.n_inliers,
        outlier_counts=base.outlier_counts,
        seed=seed,
        p=base.p,
        J0=base.J0,
    )
    sample, labels = generate_scenario(spec)
    write_sample(args.out_sample, sample)
    write_labels(args.out_labels, labels)
    _write_manifest(
        args.out_sample,
        argv,
        {"command": "simulate", "scenario": args.scenario, "seed": seed},
        time.monotonic() - start,
    )
    return 0


def _cmd_bench(args, parser, argv):
    start = time.monotonic()
    seed = _resolve_seed(args, parser)
    base = parse_scenario_config(args.scenario)
    u_grid = tuple(float(v) for v in args.u_grid.split(","))
    factor_grid = tuple(float(v) for v in args.factor_grid.split(","))
    rows = roc_table(
        base,
        args.J,
        args.M,
        args.replicates,
        seed,
        u_grid=u_grid,
        factor_grid=factor_grid,
        threads=args.threads,
    )
    csv_rows = [
        (r["u"], r["f"], repr(r["p_c"]), repr(r["p_f"]), r["replicates"]) for r in rows
    ]
    atomic_write_text(args.out, _csv_text(["u", "f", "p_c", "p_f", "replicates"], csv_rows))
    _write_manifest(
        args.out,
        argv,
        {
            "command": "bench",
            "scenario": args.scenario,
            "J": args.J,
            "M": args.M,
            "u_grid": list(u_grid),
            "factor_grid": list(factor_grid),
            "replicates": args.replicates,
            "seed": seed,
        },
        time.monotonic() - start,
    )
    return 0


_COMMANDS = {
    "fpca": _cmd_fpca,
    "depth": _cmd_depth,
    "outliers": _cmd_outliers,
    "calibrate": _cmd_calibrate,
    "simulate": _cmd_simulate,
    "rank": _cmd_rank,
    "bench": _cmd_bench,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.threads = _resolve_threads(args, parser)
        return _COMMANDS[args.command](args, parser, argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"rhdepth: error: {exc}", file=sys.stderr)
        return 1
    except (RankError, EmptyPoolError) as exc:
        print(f"rhdepth: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
