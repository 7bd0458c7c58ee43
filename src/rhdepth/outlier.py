"""Depth-based outlier detection and adjustment-factor calibration.

Candidates are the minimal-depth curves; each candidate's minimizing
directions define univariate projections, and a boxplot fence
[Q1 - f*IQR, Q3 + f*IQR] flags points strictly outside. The final outlier
set is the union of fence flags intersected with the candidate set.

Q1 and Q3 are computed once per distinct minimizing direction, in one
batched percentile call, and reused for every factor; to pick the final
set only the candidates are tested. `detect_outliers` and
`flag_candidates` (which the calibration null datasets and
`evalkit.roc_table` call) share this one fence path.

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


@dataclass(frozen=True)
class _CandidateQuartiles:
    """Minimal-depth candidates and the quartiles along their directions.

    `pairs` lists (candidate, direction, column) per minimizing direction of
    each candidate, candidates ascending; `projections[:, column]` is the
    sample projected on that direction, one column per distinct direction.
    """

    depths: np.ndarray
    candidates: np.ndarray
    pairs: tuple
    projections: np.ndarray
    q1: np.ndarray
    q3: np.ndarray

    def fences(self, factor: float):
        """IQR, lower and upper fence per distinct direction; a factor so
        large that a fence overflows is refused."""
        iqr = self.q3 - self.q1
        with np.errstate(over="ignore", invalid="ignore"):
            lower, upper = self.q1 - factor * iqr, self.q3 + factor * iqr
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError(f"factor {factor!r} is too large: a fence overflows")
        return iqr, lower, upper

    def outside(self, rows: np.ndarray, factor: float) -> np.ndarray:
        """Mask of the entries of `rows` of the projections strictly outside
        their column's fence."""
        _, lower, upper = self.fences(factor)
        return (rows < lower) | (rows > upper)

    def flagged(self, factor: float) -> tuple:
        """Candidates outside some fence: the union of flags ∩ candidates."""
        hit = self.outside(self.projections[self.candidates], factor).any(axis=1)
        return tuple(int(i) for i in self.candidates[hit])


def _candidate_quartiles(eig: EigenSystem, dirs: DirectionSet, lam: float):
    """Depths of the sample, its minimal-depth candidates, and Q1 and Q3 of
    the sample projected on each distinct minimizing direction."""
    result = depth_from_scores(dirs, lam, eig.scores, eig.scores)
    candidates = np.flatnonzero(result.depths == result.depths.min())
    per_candidate = [result.minimizing_directions[i] for i in candidates]
    pair_dirs = np.concatenate(per_candidate)
    directions, columns = np.unique(pair_dirs, return_inverse=True)
    pair_candidates = np.repeat(candidates, [len(m) for m in per_candidate])
    scores = eig.scores[:, : dirs.truncation]
    # One matvec per direction: a single matmul rounds some projections
    # differently, which moves the fences by an ulp.
    projections = np.column_stack([scores @ dirs.coefficients[m] for m in directions])
    q1, q3 = np.percentile(projections, [25.0, 75.0], axis=0)
    return _CandidateQuartiles(
        depths=result.depths,
        candidates=candidates,
        pairs=tuple(zip(pair_candidates.tolist(), pair_dirs.tolist(), columns.tolist())),
        projections=projections,
        q1=q1,
        q3=q3,
    )


def flag_candidates(eig: EigenSystem, dirs: DirectionSet, lam: float, factors) -> tuple:
    """Flagged curves of the fitted sample for each fence factor.

    Depth, candidates and quartiles are computed once and every factor is
    applied to the same quartiles; only the candidates are tested.
    """
    quartiles = _candidate_quartiles(eig, dirs, lam)
    return tuple(quartiles.flagged(f) for f in factors)


def detect_outliers(
    eig: EigenSystem, dirs: DirectionSet, lam: float, factor: float
) -> OutlierReport:
    """Flag outliers in the fitted sample at regularization lambda."""
    if not 0 < factor < np.inf:
        raise ValueError("factor must be positive and finite")
    if eig.scores.shape[0] < 4:
        raise ValueError("need at least 4 curves for quartile fences")
    quartiles = _candidate_quartiles(eig, dirs, lam)
    iqr, lower, upper = quartiles.fences(factor)
    outside = quartiles.outside(quartiles.projections, factor)
    flagged_by = [tuple(np.flatnonzero(col).tolist()) for col in outside.T]
    fences = tuple(
        FenceRecord(
            candidate=i0,
            direction=m,
            q1=float(quartiles.q1[c]),
            q3=float(quartiles.q3[c]),
            iqr=float(iqr[c]),
            lower=float(lower[c]),
            upper=float(upper[c]),
            flagged=flagged_by[c],
        )
        for i0, m, c in quartiles.pairs
    )
    return OutlierReport(
        candidate_set=tuple(int(i) for i in quartiles.candidates),
        flagged=quartiles.flagged(factor),
        fences=fences,
        factor=float(factor),
        lambda_used=float(lam),
        depths=quartiles.depths,
    )


def _null_flag_rates(args):
    """Flagged proportion per factor on one simulated null dataset."""
    mean, gamma, phi, grid, n, J, M, spec, child_seed, grid_factors = args
    rng = np.random.default_rng(child_seed)
    z = rng.standard_normal((n, len(gamma)))
    values = mean + (z * np.sqrt(gamma)) @ phi
    null_sample = FunctionalSample(grid, values)
    eig = fit_fpca(null_sample, J)
    dirs = draw_directions(eig, J, M, seed=int(rng.integers(2**63)))
    lam = resolve_lambda(spec, dirs)
    return [len(flagged) / n for flagged in flag_candidates(eig, dirs, lam, grid_factors)]


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
    children = np.random.SeedSequence(seed).spawn(B)
    jobs = [
        (
            eig.mean,
            eig.eigenvalues,
            eig.eigenfunctions,
            sample.grid,
            sample.n,
            J,
            M,
            spec,
            children[b],
            tuple(grid_factors),
        )
        for b in range(B)
    ]
    per_dataset = parallel_map(_null_flag_rates, jobs, threads)
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
