"""rhdepth performance benchmark: one workload, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is imported from ``src/`` next
to this directory. The run sets up (imports, simlab inputs, one warm-up
command) SETUP_REPS times, then issues the workload's commands through
``rhdepth.cli.run`` one after another for S seconds, checking every
command's outputs. Set-up and command times are CPU seconds of this
process, all threads included, adjusted for the host's speed with a
reference kernel timed around each of them (see pace.py). The last stdout
line is the result JSON; the line before
it records the environment. ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json, ``--trace 1`` the per-layer ones from a traced loop.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads; --threads is the only
# parallelism, so runs are comparable across machines with more cores.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPS = 3
# Every run issues at least this many commands and a whole period; count
# metrics of the traced run cover exactly these, so they repeat for a
# fixed seed.
MIN_COMMANDS = 2


def import_program():
    """Import rhdepth from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import rhdepth
    import rhdepth.cli

    if not Path(rhdepth.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"rhdepth imported from {rhdepth.__file__}, not from {SRC}")
    return rhdepth


def snapshot(cmd) -> tuple:
    """Output bytes and the manifest without its wall time."""
    manifest = json.loads(cmd.manifest.read_text(encoding="utf-8"))
    manifest.pop("wall_time_seconds", None)
    return cmd.out.read_bytes(), manifest


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(args, source: str) -> dict:
    import numpy as np
    from workloads import THREADS

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(),
        "source_hash": source,
    }


def throughput(done: list, period: int, clock: int = 0) -> float:
    """Median over whole periods of curves evaluated per command second.

    ``done`` holds (curves, (adjusted, CPU, wall seconds)) per command;
    ``clock`` picks adjusted (0), CPU (1) or wall (2) seconds.
    """
    rates = []
    for k in range(0, len(done) - period + 1, period):
        chunk = done[k : k + period]
        curves = sum(c for c, _ in chunk)
        seconds = sum(t[clock] for _, t in chunk)
        rates.append(curves / seconds)
    return statistics.median(rates)


def per_layer_metrics(tracer, commands: int, done: list, period: int, kernel_s: float) -> dict:
    """Per-command layer metrics from one traced loop.

    Times are per-command means over every traced command; counts and the
    ratios built from them are per-command means over the first ``first``
    commands, at least MIN_COMMANDS and a whole period, which every run
    issues.
    """
    from tracer import self_times

    first = max(MIN_COMMANDS, period)
    spans = tracer.spans
    counts = {}
    for i in range(first):
        for key, value in tracer.counts.get(i, {}).items():
            counts[key] = counts.get(key, 0) + value

    def seconds(name):
        return sum(s.duration for s in spans if s.name == name) / commands

    def per_cmd(key):
        return counts.get(key, 0) / first

    def ratio(num, den):
        return num / den if den else 0.0

    prefix = [s for s in spans if s.command < first]
    maps = [s for s in spans if s.name == "parallel.map"]
    items = [s for s in spans if s.parent in {m.id for m in maps}]
    own = self_times(spans)
    return {
        "funspace.fit_fpca_s": seconds("funspace.fit_fpca"),
        "funspace.fit_fpca_calls": sum(s.name == "funspace.fit_fpca" for s in prefix) / first,
        "rhd.draw_directions_s": seconds("rhd.draw_directions"),
        "rhd.resolve_lambda_s": seconds("rhd.resolve_lambda"),
        "rhd.depth_s": seconds("rhd.depth"),
        "rhd.depth_calls": per_cmd("rhd.depth_calls"),
        "rhd.count_cells": per_cmd("rhd.count_cells"),
        "rhd.accepted_frac": ratio(counts.get("rhd.accepted", 0), counts.get("rhd.pool", 0)),
        "rhd.min_dirs_per_point": ratio(counts.get("rhd.min_dirs", 0), counts.get("rhd.eval_rows", 0)),
        "outlier.calibrate_factor_s": seconds("outlier.calibrate_factor"),
        "outlier.detect_outliers_s": seconds("outlier.detect_outliers"),
        "outlier.self_s": own.get("outlier", 0.0) / commands,
        "outlier.candidates": per_cmd("outlier.candidates"),
        "outlier.fence_records": per_cmd("outlier.fence_records"),
        "outlier.fence_unique_dirs": per_cmd("outlier.fence_unique_dirs"),
        "outlier.fence_useful_ratio": ratio(
            counts.get("outlier.fence_unique_dirs", 0), counts.get("outlier.fence_records", 0)
        ),
        "simlab.generate_s": seconds("simlab.generate_scenario"),
        "evalkit.roc_table_s": seconds("evalkit.roc_table"),
        "evalkit.detection_metrics_s": seconds("evalkit.detection_metrics"),
        "evalkit.normalized_ranks_s": seconds("evalkit.normalized_ranks"),
        "io.read_sample_s": seconds("io.read_sample"),
        "io.write_s": seconds("io.write"),
        "io.bytes_read": per_cmd("io.bytes_read"),
        "io.bytes_written": per_cmd("io.bytes_written"),
        "cli.run_s": seconds("cli.run"),
        "cli.self_s": own.get("cli", 0.0) / commands,
        "parallel.map_s": seconds("parallel.map"),
        "parallel.items": per_cmd("parallel.items"),
        "parallel.workers": max((m.workers for m in maps if m.command < first), default=0),
        "parallel.item_s_p50": statistics.median(s.duration for s in items) if items else 0.0,
        "parallel.busy_frac": ratio(
            sum(s.duration for s in items), sum(m.duration * m.workers for m in maps)
        ),
        "trace.curves_per_adj_s": throughput(done, period),
        "trace.curves_per_cpu_s": throughput(done, period, clock=1),
        "trace.wall_curves_per_s": throughput(done, period, clock=2),
        "trace.ref_kernel_s": kernel_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    t0 = time.process_time()
    try:
        rhdepth = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import rhdepth from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.process_time() - t0

    from pace import NOMINAL_S, Pace
    from quality import panel_quality, source_hash
    from tracer import Tracer
    from workloads import WORKLOADS, execute

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    run = rhdepth.cli.run
    workload = WORKLOADS[args.workload](args.seed, WORK / args.workload)
    shutil.rmtree(workload.workdir, ignore_errors=True)
    attempted = failed = 0

    def note_failure(what, error):
        nonlocal failed
        failed += 1
        print(f"perfbench: {what}: {error}", file=sys.stderr)

    # Set-up: inputs and one warm-up command, repeated; the median counts.
    pace = Pace()
    import_s *= NOMINAL_S / pace.samples[0]
    rep_s = []
    for _ in range(SETUP_REPS):
        start = time.process_time()
        workload.workdir.mkdir(parents=True, exist_ok=True)
        workload.setup()
        _, _, error = execute(run, workload, 0)
        rep_s.append(pace.adjust(time.process_time() - start))
        attempted += 1
        if error is not None:
            note_failure("warm-up", error)
    reference = snapshot(workload.command(0)) if failed == 0 else None

    tracer = Tracer() if args.trace else None
    loop_run = run
    if tracer is not None:
        tracer.install(rhdepth)
        if tracer.missing:
            print(f"perfbench: not traced (names gone): {', '.join(tracer.missing)}", file=sys.stderr)
        loop_run = tracer.wrap(run, "cli.run")

    # Closed loop: the next command starts when the previous one returns,
    # and the loop stops only after a whole period of the command cycle.
    # The first command repeats the warm-up and must write the same bytes.
    commands = 0
    done = []  # (curves evaluated, (adjusted, CPU, wall seconds)) per command
    start = time.perf_counter()
    try:
        while (
            commands < MIN_COMMANDS
            or commands % workload.period
            or time.perf_counter() - start < args.seconds
        ):
            if tracer is not None:
                tracer.command = commands
            _, (cpu_s, wall_s), error = execute(loop_run, workload, commands)
            seconds = (pace.adjust(cpu_s), cpu_s, wall_s)
            attempted += 1
            if error is None and commands == 0 and reference is not None:
                if snapshot(workload.command(0)) != reference:
                    error = "outputs differ from the warm-up run of the same command"
            if error is not None:
                note_failure(f"command {commands}", error)
            done.append((workload.command(commands).curves if error is None else 0, seconds))
            commands += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = failed == 0
    if tracer is None:
        panel = panel_quality(run, ROOT, WORK)
        for error in panel["errors"]:
            print(f"perfbench: quality panel: {error}", file=sys.stderr)
        correct = correct and not panel["errors"]
        values = {
            "setup_s": import_s + statistics.median(rep_s),
            "curves_per_adj_s": throughput(done, workload.period),
            "peak_rss_mb": peak_rss_mb,
            "p_c": panel["p_c"],
            "p_f": panel["p_f"],
            "mean_depth": panel["mean_depth"],
        }
        names = spec["end_to_end"]
    else:
        values = per_layer_metrics(tracer, commands, done, workload.period, pace.median())
        names = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    print(json.dumps({"environment": environment(args, source_hash(ROOT))}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
