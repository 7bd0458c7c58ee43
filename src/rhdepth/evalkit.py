"""Ranking, detection metrics, ROC tables, and the exact 2-D depth oracle.

A ROC replicate is one scenario run through `outlier.flag_sweep`, which
calibration runs too, and scored at each (u, f) off its critical factors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .funspace import _frozen_array, fit_fpca
from .outlier import FACTOR_GRID, _require_factor, flag_sweep, parallel_map
from .rhd import RegularizationSpec
from .simlab import ScenarioSpec, generate_scenario

DEFAULT_QUANTILE_GRID = (0.5, 0.7, 0.9, 0.95)


@dataclass(frozen=True)
class RankTable:
    """Depths with min-rank ties; rank 1 is the least deep curve."""

    depths: np.ndarray
    ranks: np.ndarray
    normalized: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "depths", _frozen_array(self.depths))
        object.__setattr__(self, "ranks", _frozen_array(self.ranks, dtype=np.int64))
        object.__setattr__(self, "normalized", _frozen_array(self.normalized))


@dataclass(frozen=True)
class DetectionMetrics:
    p_c: float
    p_f: float
    n_outliers: int
    n_inliers: int


def normalized_ranks(depths) -> RankTable:
    """Min-rank of each depth value, normalized by the sample size."""
    depths = np.asarray(depths, dtype=float)
    if depths.ndim != 1:
        raise ValueError(f"depths must be a 1-D array, got shape {depths.shape}")
    if depths.size == 0:
        raise ValueError("depths must be nonempty")
    if not np.isfinite(depths).all():
        raise ValueError("depths must be finite")
    order = np.sort(depths)
    # rank = 1 + number of strictly smaller depths (ties share the minimum rank)
    ranks = 1 + np.searchsorted(order, depths, side="left")
    return RankTable(depths=depths, ranks=ranks, normalized=ranks / depths.size)


def detection_metrics(flagged, labels) -> DetectionMetrics:
    """Correct (p_c) and false (p_f) detection proportions.

    `flagged` holds integer curve indices (Python or NumPy integers, not
    bools: a mask is refused); `labels` marks each curve 'inlier' or an
    outlier kind. Empty denominators yield a proportion of 0.
    """
    labels = list(labels)
    flagged = list(flagged)
    if not {bool, np.bool_}.isdisjoint(map(type, flagged)):
        raise TypeError("flagged must hold curve indices, not bool")
    bad = [i for i in flagged if not hasattr(i, "__index__")]
    if bad:
        raise TypeError(f"flagged must hold integer curve indices, got {bad[0]!r}")
    flagged = set(map(operator.index, flagged))
    if any(i < 0 or i >= len(labels) for i in flagged):
        raise ValueError("flagged index out of range")
    n_inliers = labels.count("inlier")
    n_outliers = len(labels) - n_inliers
    caught = sum(labels[i] != "inlier" for i in flagged)
    p_c = caught / n_outliers if n_outliers else 0.0
    p_f = (len(flagged) - caught) / n_inliers if n_inliers else 0.0
    return DetectionMetrics(p_c=p_c, p_f=p_f, n_outliers=n_outliers, n_inliers=n_inliers)


def tukey_depth_2d_exact(points, x) -> float:
    """Exact halfspace depth of x in a 2-D point cloud, closed halfspaces.

    Angle sweep: the count of points in the closed halfspace with normal at
    angle phi is piecewise constant in phi, changing only where some point
    direction is orthogonal to phi; the minimum is attained on the open arcs
    between such critical angles. Every arc midpoint is counted at once, by
    binary search over the sorted point angles. O(n log n).
    """
    points, x = np.asarray(points, dtype=float), np.asarray(x, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be an (n, 2) array, got shape {points.shape}")
    if x.size != 2:
        raise ValueError(f"x must hold 2 values, got {x.size}")
    x = x.reshape(2)
    n = points.shape[0]
    if n == 0:
        raise ValueError("need at least one point")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    d = points - x
    nonzero = np.any(d != 0.0, axis=1)
    base = int(n - nonzero.sum())  # coincident points lie in every halfspace
    d = d[nonzero]
    if d.shape[0] == 0:
        return 1.0

    alpha = np.sort(np.arctan2(d[:, 1], d[:, 0]))  # in [-pi, pi]
    two_pi = 2.0 * np.pi
    crit = np.unique(np.mod(np.concatenate([alpha + np.pi / 2, alpha - np.pi / 2]), two_pi))
    mids = (crit + np.roll(crit, -1)) / 2.0
    mids[-1] = np.mod(crit[-1] + (crit[0] + two_pi - crit[-1]) / 2.0, two_pi)

    # Point at angle a is in the halfspace of normal phi iff the circular
    # distance between a and phi is at most pi/2: a lies in [phi - pi/2,
    # phi + pi/2] or in that window shifted by a full turn either way.
    phi = np.where(mids <= np.pi, mids, mids - two_pi)  # back to [-pi, pi]
    lo, hi = phi - np.pi / 2, phi + np.pi / 2
    counts = sum(
        np.maximum(
            np.searchsorted(alpha, b, side="right") - np.searchsorted(alpha, a, side="left"), 0
        )
        for a, b in ((lo, hi), (lo + two_pi, hi + two_pi), (lo - two_pi, hi - two_pi))
    )
    return (base + int(counts.min())) / n


def roc_table(
    spec: ScenarioSpec,
    J: int,
    M: int,
    replicates: int,
    seed: int,
    u_grid=DEFAULT_QUANTILE_GRID,
    factor_grid=FACTOR_GRID,
    threads: int = 1,
) -> list:
    """Averaged (u, f, p_c, p_f, replicates) rows over scenario replicates.

    Deterministic given the master seed: replicates run in parallel with
    per-replicate derived seeds, and each cell is the 1-D mean of its rates
    over the replicates in input order, whatever the thread count.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    specs = [RegularizationSpec.from_quantile(u) for u in u_grid]
    for f in factor_grid:
        _require_factor(f)

    def roc_replicate(child):
        """(p_c, p_f) per (u, f), u-major, on one scenario: its seed, then the pool."""
        rng = np.random.default_rng(child)
        sample, labels = generate_scenario(replace(spec, seed=int(rng.integers(2**63))))
        sweep = flag_sweep(fit_fpca(sample, J), M, rng, specs)
        flags = [candidates[critical > f] for candidates, critical in sweep for f in factor_grid]
        return [(m.p_c, m.p_f) for m in (detection_metrics(x, labels) for x in flags)]

    children = np.random.SeedSequence(seed).spawn(replicates)
    table = np.array(parallel_map(roc_replicate, children, threads)).reshape(replicates, -1, 2)
    # one row per (u, f) cell, each rate a 1-D mean of its column over replicates
    cells = [(u, f) for u in u_grid for f in factor_grid]
    return [
        dict(u=u, f=f, p_c=float(np.mean(pc)), p_f=float(np.mean(pf)), replicates=replicates)
        for (u, f), (pc, pf) in zip(cells, table.transpose(1, 2, 0))
    ]
