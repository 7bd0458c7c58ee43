"""Depth-based outlier detection and adjustment-factor calibration.

Candidates are the minimal-depth curves; each candidate's minimizing
directions define univariate projections, and a boxplot fence
[Q1 - f*IQR, Q3 + f*IQR] flags points strictly outside. The final outlier
set is the union of fence flags intersected with the candidate set.

There is one fence per (candidate, minimizing direction) pair, and no
step merges a direction that two candidates share: at the minimal depth
1/n a direction has one curve at its top, so no two pairs share it. The
pairs are read off the top of each accepted direction, without the count
kernel: along a direction the count #{i : p_i >= p_j} can only fall as p_j
rises, so its smallest is the tie run at the top. The candidates are the
curves on top of the directions with the shortest run, and those are
their minimizing directions. Q1 and Q3 serve every factor, and only the
candidates are tested. `detect_outliers` and `flag_sweep` share this
fence path; `detect_outliers` runs the count kernel's self pass (its
defaults) once, on the fence path's product, for the depths.

`flag_sweep` is the replicate step of both simulation studies (a
calibration null dataset, a ROC replicate in `evalkit.roc_table`): fit,
one direction pool seeded from the caller's RNG, one projection product
and sort at the largest lambda, whose columns every lambda reads, and
per lambda one fence call and one compare for all factors, which form
one array axis. `detect_outliers` tests its one factor's fences a block
of pair columns at a time, so it holds no float copy of the pairs.

The factor f is calibrated on Gaussian null data matching the input's
empirical mean and covariance, targeting a 0.7% flagged proportion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ._parallel import parallel_map
from .errors import EmptyPoolError
from .funspace import EigenSystem, FunctionalSample, _frozen_array, fit_fpca
from .rhd import DirectionSet, RegularizationSpec, _accepted_projections, _min_counts
from .rhd import _COUNT_BLOCK, _sorted_blocks, draw_directions, resolve_lambda

FACTOR_GRID = (1.5, 2.0, 2.5, 3.0, 3.5)
TARGET_RATE = 0.007


@dataclass(frozen=True)
class FenceRecord:
    """Boxplot fence along one minimizing direction of one candidate."""

    candidate: int
    direction: int
    q1: float
    q3: float
    iqr: float
    lower: float
    upper: float
    flagged: tuple


@dataclass(frozen=True)
class OutlierReport:
    candidate_set: tuple
    flagged: tuple
    fences: tuple
    factor: float
    lambda_used: float
    depths: np.ndarray


@dataclass(frozen=True)
class CalibrationResult:
    factor: float
    achieved_rate: float
    grid_tried: tuple
    B: int
    rates: dict = field(default_factory=dict)


def _require_fence_sample(n: int) -> None:
    if n < 4:
        raise ValueError("need at least 4 curves for quartile fences")


def _sorted_quartiles(rows: np.ndarray):
    """Q1 and Q3 of each sorted row, equal bit for bit to NumPy's linear
    percentile: at virtual index (n-1)q it lerps a + (b-a)t between the
    order statistics around it, or b - (b-a)(1-t) when t >= 0.5."""
    n = rows.shape[1]
    quartiles = []
    for q in (0.25, 0.75):
        g = (n - 1) * q
        lo = int(g)
        t = g - lo
        a, b = rows[:, lo], rows[:, min(lo + 1, n - 1)]
        diff = b - a
        quartiles.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return quartiles


def _column_tops(_, rows, tops):
    """Q1, Q3, the top value, the first row at the top and whether the top
    is tied, per column of one sorted block. The top value is a copy: a view
    would keep the whole block."""
    return (*_sorted_quartiles(rows), rows[:, -1].copy(), tops, rows[:, -2] == rows[:, -1])


def _candidate_fences(eig: EigenSystem, dirs: DirectionSet, lams):
    """The sample projections on the directions accepted at the largest
    lambda (n, k) and, per lambda, its (candidate, minimizing direction)
    pairs, candidates ascending and then directions ascending: candidates,
    columns (each a direction whose norm that lambda accepts), pool
    directions, and (Q1, Q3) of those columns. All come from the sorted
    blocks; only a tied column's top run is counted, on that column alone."""
    accepted, projections = _accepted_projections(dirs, max(lams, default=np.inf), eig.scores)
    per_block = itertools.starmap(_column_tops, _sorted_blocks(projections))
    q1, q3, top, tops, tied = map(np.hstack, zip(*per_block))
    runs = np.ones(top.size, dtype=np.intp)
    runs[tied] = (projections[:, tied] == top[tied]).sum(axis=0)
    per_lambda = []
    for lam in lams:
        kept = dirs.rkhs_norms[accepted] <= lam
        if not kept.any():
            raise EmptyPoolError(lam, float(dirs.rkhs_norms.min()))
        columns = np.flatnonzero(kept & (runs == runs[kept].min()))
        if runs[columns[0]] == 1:
            owners = tops[columns]
        else:
            owners, at = np.nonzero(projections[:, columns] == top[columns])
            columns = columns[at]
        order = np.argsort(owners, kind="stable")  # point-major, columns ascending
        owners, columns = owners[order], columns[order]
        per_lambda.append((owners, columns, accepted[columns], (q1[columns], q3[columns])))
    return projections, per_lambda


def _fences(q1, q3, factors):
    """IQR, lower and upper fence per pair, one row of fences per factor
    when factors has shape (F, 1); a factor so large that a fence overflows
    is refused by name."""
    iqr = q3 - q1
    with np.errstate(over="ignore", invalid="ignore"):
        lower, upper = q1 - factors * iqr, q3 + factors * iqr
    finite = np.isfinite(lower) & np.isfinite(upper)
    if not finite.all():
        factor = float(np.broadcast_to(factors, finite.shape)[~finite][0])
        raise ValueError(f"factor {factor!r} is too large: a fence overflows")
    return iqr, lower, upper


def flag_sweep(sample: FunctionalSample, J: int, M: int, rng, specs, factors) -> list:
    """One simulation replicate: per spec, the flagged curves for each factor.

    Fits FPCA to the sample and draws one direction pool, seeded from the
    next draw of the numpy Generator rng, which every spec's lambda shares.
    The factors are one array axis: per spec, one fence call gives every
    factor's fences on the same quartiles, and one compare tests the
    candidates, the only curves tested, against all of them.
    """
    eig = fit_fpca(sample, J)
    dirs = draw_directions(eig, M, seed=int(rng.integers(2**63)))
    lams = [resolve_lambda(spec, dirs) for spec in specs]
    projections, per_lambda = _candidate_fences(eig, dirs, lams)
    factors = np.asarray(factors, dtype=float)[:, None]
    sweep = []
    for owners, columns, _, quartiles in per_lambda:
        candidates = np.unique(owners)
        rows = projections[np.ix_(candidates, columns)]
        _, lower, upper = _fences(*quartiles, factors)
        # (factor, candidate, pair) compares, then any over the pairs
        hits = ((rows < lower[:, None]) | (rows > upper[:, None])).any(axis=2)
        sweep.append(tuple(tuple(candidates[hit].tolist()) for hit in hits))
    return sweep


def detect_outliers(
    eig: EigenSystem, dirs: DirectionSet, lam: float, factor: float
) -> OutlierReport:
    """Flag outliers in the fitted sample at regularization lambda."""
    if not 0 < factor < np.inf:
        raise ValueError("factor must be positive and finite")
    _require_fence_sample(eig.scores.shape[0])
    projections, [(owners, columns, directions, (q1, q3))] = _candidate_fences(eig, dirs, [lam])
    depths = _frozen_array(_min_counts(projections)[0] / projections.shape[0])
    iqr, lower, upper = _fences(q1, q3, factor)
    # Tested a block of pair columns at a time: no (n, pairs) float copy.
    outside = np.empty((projections.shape[0], columns.size), dtype=bool)
    for lo in range(0, columns.size, _COUNT_BLOCK):
        pairs = slice(lo, lo + _COUNT_BLOCK)
        block = projections[:, columns[pairs]]
        np.logical_or(block < lower[pairs], block > upper[pairs], out=outside[:, pairs])
    del block, projections  # freed before the records are built
    # One record per pair, from its column of each array in FenceRecord's field order.
    fields = (a.tolist() for a in (owners, directions, q1, q3, iqr, lower, upper))
    # The curves outside each pair's fence, from one nonzero grouped by pair.
    curves, pair = np.nonzero(outside)
    curves = curves[np.argsort(pair, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(pair, minlength=columns.size)).tolist()
    hits = (tuple(curves[a:b]) for a, b in itertools.pairwise([0, *ends]))
    fences = tuple(map(FenceRecord, *fields, hits))
    candidates = np.unique(owners)
    return OutlierReport(
        candidate_set=tuple(candidates.tolist()),
        flagged=tuple(candidates[outside[candidates].any(axis=1)].tolist()),
        fences=fences,
        factor=float(factor),
        lambda_used=float(lam),
        depths=depths,
    )


def calibrate_factor(
    eig: EigenSystem, M: int, spec: RegularizationSpec, B: int, seed: int, threads: int = 1
) -> CalibrationResult:
    """Pick the factor of FACTOR_GRID whose mean null flag rate is closest to TARGET_RATE.

    Null datasets are n Gaussian curves on the fitted sample's grid, drawn
    from its mean and its J = eig.truncation eigenpairs (truncated KL).
    Per-dataset seeds derive from a spawned SeedSequence of `seed`, so
    results are reproducible and thread-count independent. Ties in the rate
    criterion break toward the larger factor.
    """
    if B < 1:
        raise ValueError("B must be at least 1")
    n, J = eig.scores.shape[0], eig.truncation
    _require_fence_sample(n)
    scale = np.sqrt(eig.eigenvalues)

    def null_flag_rates(child):
        """Flagged proportion per factor on one null dataset: z, then the pool."""
        rng = np.random.default_rng(child)
        z = rng.standard_normal((n, J))
        null = FunctionalSample(eig.grid, eig.mean + (z * scale) @ eig.eigenfunctions)
        (flagged,) = flag_sweep(null, J, M, rng, (spec,), FACTOR_GRID)
        return [len(f) / n for f in flagged]

    per_dataset = parallel_map(null_flag_rates, np.random.SeedSequence(seed).spawn(B), threads)
    mean_rates = np.mean(per_dataset, axis=0)
    deviations = np.abs(mean_rates - TARGET_RATE)
    # argmin with ties toward the larger factor
    best = len(FACTOR_GRID) - 1 - int(np.argmin(deviations[::-1]))
    return CalibrationResult(
        factor=float(FACTOR_GRID[best]),
        achieved_rate=float(mean_rates[best]),
        grid_tried=FACTOR_GRID,
        B=B,
        rates={float(f): float(r) for f, r in zip(FACTOR_GRID, mean_rates)},
    )
