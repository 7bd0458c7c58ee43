"""Depth-based outlier detection and adjustment-factor calibration.

Candidates are the minimal-depth curves; each candidate's minimizing
directions define univariate projections, and a boxplot fence
[Q1 - f*IQR, Q3 + f*IQR] flags points strictly outside. The final outlier
set is the union of fence flags intersected with the candidate set.

There is one fence per (candidate, minimizing direction) pair, and no
step merges a direction that two candidates share: at the minimal depth
1/n a direction has one curve at its top, so no two pairs share it. Q1
and Q3 come from the count kernel's self-depth pass, which sorts the
sample projections along every accepted direction anyway: the depths,
the projections and the quartiles of one pass serve every factor, and to
pick the final set only the candidates are tested. `detect_outliers` and
`flag_candidates` share this one fence path.

`flag_sweep` is the replicate step of both simulation studies (a
calibration null dataset, a ROC replicate in `evalkit.roc_table`): fit,
one direction pool seeded from the caller's RNG, flags per lambda and factor.

The factor f is calibrated on Gaussian null data matching the input's
empirical mean and covariance, targeting a 0.7% flagged proportion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._parallel import parallel_map
from .funspace import EigenSystem, FunctionalSample, fit_fpca
from .rhd import DirectionSet, RegularizationSpec, depth_from_scores, draw_directions, resolve_lambda

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


def _candidate_fences(eig: EigenSystem, dirs: DirectionSet, lam: float):
    """The count kernel's self-depth pass, its minimal-depth candidates, and
    per (candidate, minimizing direction) pair, candidates ascending: the
    candidate, the pool direction and the pass's column for it."""
    result = depth_from_scores(dirs, lam, eig.scores, eig.scores)
    candidates = np.flatnonzero(result.depths == result.depths.min())
    per_candidate = [result.minimizing_directions[i] for i in candidates]
    owners = np.repeat(candidates, [len(m) for m in per_candidate])
    directions = np.concatenate(per_candidate)
    return result, candidates, owners, directions, np.searchsorted(result.accepted, directions)


def _fences(result, columns, factor: float):
    """Q1, Q3, IQR, lower and upper fence per pair, given the pairs'
    columns of the pass; a factor so large that a fence overflows is
    refused."""
    q1, q3 = result.q1[columns], result.q3[columns]
    iqr = q3 - q1
    with np.errstate(over="ignore", invalid="ignore"):
        lower, upper = q1 - factor * iqr, q3 + factor * iqr
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError(f"factor {factor!r} is too large: a fence overflows")
    return q1, q3, iqr, lower, upper


def flag_candidates(eig: EigenSystem, dirs: DirectionSet, lam: float, factors) -> tuple:
    """Flagged curves of the fitted sample for each fence factor.

    Depth, candidates and quartiles are computed once and every factor is
    applied to the same quartiles; only the candidates are tested.
    """
    result, candidates, _, _, columns = _candidate_fences(eig, dirs, lam)
    rows = result.projections[np.ix_(candidates, columns)]
    flagged = []
    for factor in factors:
        *_, lower, upper = _fences(result, columns, factor)
        hit = ((rows < lower) | (rows > upper)).any(axis=1)
        flagged.append(tuple(int(i) for i in candidates[hit]))
    return tuple(flagged)


def flag_sweep(sample: FunctionalSample, J: int, M: int, rng, specs, factors) -> list:
    """One simulation replicate: flag_candidates for each spec, per factor.

    Fits FPCA to the sample and draws one direction pool, seeded from the
    next draw of the numpy Generator rng, which every spec's lambda shares.
    """
    eig = fit_fpca(sample, J)
    dirs = draw_directions(eig, J, M, seed=int(rng.integers(2**63)))
    return [flag_candidates(eig, dirs, resolve_lambda(spec, dirs), factors) for spec in specs]


def detect_outliers(
    eig: EigenSystem, dirs: DirectionSet, lam: float, factor: float
) -> OutlierReport:
    """Flag outliers in the fitted sample at regularization lambda."""
    if not 0 < factor < np.inf:
        raise ValueError("factor must be positive and finite")
    if eig.scores.shape[0] < 4:
        raise ValueError("need at least 4 curves for quartile fences")
    result, candidates, owners, directions, columns = _candidate_fences(eig, dirs, lam)
    q1, q3, iqr, lower, upper = _fences(result, columns, factor)
    projections = result.projections[:, columns]
    outside = (projections < lower) | (projections > upper)
    fences = tuple(
        FenceRecord(
            candidate=int(owners[c]),
            direction=int(directions[c]),
            q1=float(q1[c]),
            q3=float(q3[c]),
            iqr=float(iqr[c]),
            lower=float(lower[c]),
            upper=float(upper[c]),
            flagged=tuple(np.flatnonzero(outside[:, c]).tolist()),
        )
        for c in range(columns.size)
    )
    return OutlierReport(
        candidate_set=tuple(int(i) for i in candidates),
        flagged=tuple(int(i) for i in candidates[outside[candidates].any(axis=1)]),
        fences=fences,
        factor=float(factor),
        lambda_used=float(lam),
        depths=result.depths,
    )


def calibrate_factor(
    sample: FunctionalSample,
    J: int,
    M: int,
    spec: RegularizationSpec,
    B: int,
    seed: int,
    grid_factors=FACTOR_GRID,
    target: float = TARGET_RATE,
    threads: int = 1,
) -> CalibrationResult:
    """Pick the fence factor whose mean null flag rate is closest to target.

    Null datasets are truncated-KL Gaussian draws from the input's fitted
    mean and top-J eigenpairs. Per-dataset seeds derive from a spawned
    SeedSequence of `seed`, so results are reproducible and thread-count
    independent. Ties in the rate criterion break toward the larger factor.
    """
    if B < 1:
        raise ValueError("B must be at least 1")
    eig = fit_fpca(sample, J)
    scale = np.sqrt(eig.eigenvalues)

    def null_flag_rates(child):
        """Flagged proportion per factor on one null dataset: z, then the pool."""
        rng = np.random.default_rng(child)
        z = rng.standard_normal((sample.n, len(scale)))
        null = FunctionalSample(sample.grid, eig.mean + (z * scale) @ eig.eigenfunctions)
        (flagged,) = flag_sweep(null, J, M, rng, (spec,), grid_factors)
        return [len(f) / sample.n for f in flagged]

    per_dataset = parallel_map(null_flag_rates, np.random.SeedSequence(seed).spawn(B), threads)
    mean_rates = np.mean(per_dataset, axis=0)
    deviations = np.abs(mean_rates - target)
    # argmin with ties toward the larger factor
    best = len(grid_factors) - 1 - int(np.argmin(deviations[::-1]))
    return CalibrationResult(
        factor=float(grid_factors[best]),
        achieved_rate=float(mean_rates[best]),
        grid_tried=tuple(grid_factors),
        B=B,
        rates={float(f): float(r) for f, r in zip(grid_factors, mean_rates)},
    )
