"""Depth-based outlier detection and adjustment-factor calibration.

Candidates are the minimal-depth curves; each candidate's minimizing
directions define univariate projections, and a boxplot fence
[Q1 - f*IQR, Q3 + f*IQR] flags points strictly outside. The final outlier
set is the union of fence flags intersected with the candidate set.

There is one fence per (candidate, minimizing direction) pair, and no
step merges a direction that two candidates share: at the minimal depth
1/n a direction has one curve at its top, so no two pairs share it.
`rhd._candidate_fences` reads the pairs and their Q1 and Q3, which serve
every factor, off the sorted projection product. `detect_outliers` sets
the fences and tests every curve, for the records, in one compare in
`_fences` (each pair's fence on its direction's column, -inf/+inf on
every other column), and runs the count kernel's self pass (its
defaults) once, on the same product, for the depths. The report and both
studies refuse alike fewer than 4 curves (`rhd._candidate_fences`); the
report and the ROC table a factor not positive and finite
(`_require_factor`), and the report also one whose fence overflows.

`flag_sweep` is the replicate step of both simulation studies (a
calibration null dataset, a ROC replicate in `evalkit.roc_table`): on a
fitted eigensystem, one direction pool seeded from the caller's RNG, one
projection product and sort at the largest lambda, whose columns every
lambda reads, and per lambda the candidates and their critical factors
f*, off which each study reads the flags candidates[f* > f] at its own
factors, with no fence built. Both map it with `parallel_map` in input
order, a seed per replicate, so output is the same for any thread count.

The factor f is calibrated on Gaussian null data matching the input's
empirical mean and covariance, targeting a 0.7% flagged proportion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .funspace import EigenSystem, _frozen_array, fit_fpca_coordinates
from .rhd import DirectionSet, RegularizationSpec, _candidate_fences, _kernel_order, _min_counts
from .rhd import _require_fence_sample, draw_directions, resolve_lambda

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
    rates: dict


def _require_factor(factor):
    if not 0 < factor < np.inf:
        raise ValueError(f"factor {float(factor)!r} must be positive and finite")


def _fences(rows, columns, q1, q3, factor):
    """IQR, lower and upper fence per pair at one factor, and whether each
    entry of the (q, k) rows lies outside its column's fence, if it has one."""
    _require_factor(factor)
    iqr = q3 - q1
    with np.errstate(over="ignore"):
        lower, upper = q1 - factor * iqr, q3 + factor * iqr
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError(f"factor {float(factor)!r} is too large: a fence overflows")
    lo, hi = np.full(rows.shape[1], -np.inf), np.full(rows.shape[1], np.inf)
    lo[columns], hi[columns] = lower, upper
    return iqr, lower, upper, (rows < lo) | (rows > hi)


def flag_sweep(eig: EigenSystem, M: int, rng, specs) -> list:
    """One simulation replicate: per spec, (candidates, critical).

    Draws one direction pool on the fitted eigensystem, seeded from the
    next draw of the numpy Generator rng, which every spec's lambda shares.
    Candidates ascend, and critical holds each one's f* = max over its pair
    columns of max((Q1 - p) / IQR, (p - Q3) / IQR): candidates[critical > f]
    is the fence compare at f in exact arithmetic, and in floats differs only
    where f is within an ulp of f*. At IQR = 0, p != Q1 gives +inf and p == Q1
    NaN, which fmax skips."""
    dirs = draw_directions(eig, M, seed=int(rng.integers(2**63)))
    lams = [resolve_lambda(spec, dirs) for spec in specs]
    projections, per_lambda = _candidate_fences(eig, dirs, lams)
    sweep = []
    for owners, columns, _, (q1, q3) in per_lambda:
        candidates = np.unique(owners)
        rows, iqr = projections[np.ix_(candidates, columns)], q3 - q1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            critical = np.fmax.reduce(np.fmax((q1 - rows) / iqr, (rows - q3) / iqr), axis=1)
        sweep.append((candidates, critical))
    return sweep


def parallel_map(fn, items, threads: int = 1) -> list:
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # here, so a serial map loads no pool

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def detect_outliers(
    eig: EigenSystem, dirs: DirectionSet, lam: float, factor: float
) -> OutlierReport:
    """Flag outliers in the fitted sample at regularization lambda."""
    projections, [(owners, columns, directions, (q1, q3))] = _candidate_fences(eig, dirs, [lam])
    visit = _kernel_order(dirs, dirs.accepted(lam))
    depths = _frozen_array(_min_counts(projections, visit)[0] / projections.shape[0])
    iqr, lower, upper, outside = _fences(projections, columns, q1, q3, factor)
    del projections  # freed before the records are built
    # One record per pair, from its column of each array in FenceRecord's field order.
    fields = (a.tolist() for a in (owners, directions, q1, q3, iqr, lower, upper))
    # The curves outside each pair's fence: one nonzero, pair by pair.
    pair, curves = np.nonzero(outside[:, columns].T)
    curves = curves.tolist()
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
    from its mean and its J = eig.truncation eigenpairs (truncated KL): the
    curves eig.mean + (z * sqrt(gamma)) @ eig.eigenfunctions, z ~ N(0, I).
    They lie in the span of the fitted eigenfunctions, so each is fitted in
    score space, from its n x J coordinates (funspace.fit_fpca_coordinates),
    and never built on the grid; its flags come from one flag_sweep on that
    eigensystem. Per-dataset seeds derive from a spawned SeedSequence of
    `seed`, so results are reproducible and thread-count independent. Ties
    in the rate criterion break toward the larger factor.
    """
    if B < 1:
        raise ValueError("B must be at least 1")
    n, J = eig.scores.shape[0], eig.truncation
    _require_fence_sample(n)
    scale = np.sqrt(eig.eigenvalues)

    def null_flag_rates(child):
        """Flagged proportion per factor on one null dataset: z, then the pool."""
        rng = np.random.default_rng(child)
        null = fit_fpca_coordinates(eig, rng.standard_normal((n, J)) * scale)
        [(_, critical)] = flag_sweep(null, M, rng, (spec,))
        return [np.count_nonzero(critical > f) / n for f in FACTOR_GRID]

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
