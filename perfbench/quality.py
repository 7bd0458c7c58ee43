"""Quality metrics p_c, p_f and mean_depth on a fixed panel of commands.

The panel's inputs come from PANEL_SEED, not from the run's seed, so the
three metrics are exact functions of the program: any change in them
between two commits is a change in what the program computes, never seed
noise. The panel runs once per source tree and the result is cached under
a hash of the sources of ``rhdepth`` and of this benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from workloads import WORKLOADS, CalibratePaper, DepthMixed, RocMixed, execute

PANEL_SEED = 2311_07034

# Workload and command indices: one calibrate_paper command per outlier
# kind, two roc_mixed commands (four replicates), and the two
# --lambda inf commands of depth_mixed, one per eval set.
PANEL = (
    (CalibratePaper.name, tuple(range(8))),
    (RocMixed.name, (0, 1)),
    (DepthMixed.name, (1, 4)),
)


def source_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for directory in (root / "src" / "rhdepth", root / "perfbench"):
        for path in sorted(directory.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compute_panel(run, workdir: Path) -> dict:
    totals = dict.fromkeys(
        ("planted", "detected", "inliers", "false", "depth_sum", "depths", "attempted", "failed"), 0
    )
    errors = []
    for name, indices in PANEL:
        workload = WORKLOADS[name](PANEL_SEED, workdir / name)
        workload.workdir.mkdir(parents=True, exist_ok=True)
        workload.setup()
        for i in indices:
            totals["attempted"] += 1
            result, _, error = execute(run, workload, i)
            if error is not None:
                totals["failed"] += 1
                errors.append(f"{name}[{i}]: {error}")
            elif name == DepthMixed.name:
                totals["depth_sum"] += float(result.sum())
                totals["depths"] += int(result.size)
            else:
                for key, value in workload.quality(i, result).items():
                    totals[key] += value
    return {
        "p_c": totals["detected"] / totals["planted"] if totals["planted"] else 0.0,
        "p_f": totals["false"] / totals["inliers"] if totals["inliers"] else 0.0,
        "mean_depth": totals["depth_sum"] / totals["depths"] if totals["depths"] else 0.0,
        "counts": totals,
        "errors": errors,
    }


def panel_quality(run, root: Path, cache_dir: Path) -> dict:
    """The panel's result, from the cache when the sources are unchanged."""
    cache = cache_dir / f"quality-{source_hash(root)}.json"
    if cache.exists():
        return json.loads(cache.read_text(encoding="utf-8"))
    result = compute_panel(run, cache_dir / "panel")
    tmp = cache.with_suffix(".tmp")
    tmp.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, cache)
    return result
