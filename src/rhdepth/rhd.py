"""Constrained random-projection pool and the approximate sample depth.

One direction pool is drawn per analysis and reused for every value of the
regularization parameter: the constraint is applied by filtering directions
on their RKHS norm at depth time, which makes depth exactly nonincreasing
in lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPoolError, RankError
from .funspace import EigenSystem, FunctionalSample, _frozen_array


@dataclass(frozen=True)
class DirectionSet:
    """Unit coefficient vectors in R^J and their RKHS norms.

    The first proposal_size rows are the random proposal draws that lambda
    quantiles refer to; any further rows are data directions. A pool built
    without proposal_size is all proposal.
    """

    truncation: int
    coefficients: np.ndarray
    rkhs_norms: np.ndarray
    seed: int
    proposal_size: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _frozen_array(self.coefficients))
        object.__setattr__(self, "rkhs_norms", _frozen_array(self.rkhs_norms))
        if self.proposal_size is None:
            object.__setattr__(self, "proposal_size", self.size)
        elif not 1 <= self.proposal_size <= self.size:
            raise ValueError(f"proposal_size must be in [1, {self.size}]")

    @property
    def size(self) -> int:
        return self.coefficients.shape[0]

    def accepted(self, lam: float) -> np.ndarray:
        """Indices of pool directions with RKHS norm at most lambda."""
        return np.flatnonzero(self.rkhs_norms <= lam)


@dataclass(frozen=True)
class RegularizationSpec:
    """Either an explicit lambda or a quantile level u of the pool norms."""

    lam: float | None = None
    quantile_level: float | None = None

    def __post_init__(self):
        if (self.lam is None) == (self.quantile_level is None):
            raise ValueError("specify exactly one of lambda and quantile level")
        if self.lam is not None and not self.lam > 0:  # refuses NaN; inf is allowed
            raise ValueError("lambda must be positive")
        if self.quantile_level is not None and not 0 < self.quantile_level < 1:
            raise ValueError("quantile level must lie in (0, 1)")

    @classmethod
    def from_lambda(cls, lam: float) -> "RegularizationSpec":
        return cls(lam=lam)

    @classmethod
    def from_quantile(cls, u: float) -> "RegularizationSpec":
        return cls(quantile_level=u)


@dataclass(frozen=True)
class DepthResult:
    """Approximate depth per evaluation point, in multiples of 1/n."""

    depths: np.ndarray
    minimizing_directions: tuple
    lambda_used: float
    accepted_count: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "depths", _frozen_array(self.depths))


def _unit_rows(v: np.ndarray, gamma: np.ndarray):
    """Rows of v scaled to unit length, and their RKHS norms."""
    coeff = v / np.linalg.norm(v, axis=1, keepdims=True)
    return coeff, np.sqrt(np.sum(coeff**2 / gamma, axis=1))


def draw_directions(eig: EigenSystem, J: int, M: int, seed: int) -> DirectionSet:
    """Draw M proposal directions, then add one data direction per curve.

    The proposals are z/||z|| with z ~ N(0, diag(gamma_1..gamma_J)), the
    non-isotropic proposal on the unit sphere. A random pool only bounds
    the depth from above, and these proposals almost never reach the
    high-norm directions that cut a hull vertex off from the rest of the
    sample. So each sample curve also contributes its whitened radial
    direction Gamma^-1 (s_i - mean(s)), made unit; zero or non-finite ones
    are dropped. Their RKHS norms are mostly large, so they mostly enter
    the depth at large lambda; a curve far out along one eigendirection
    has a radial direction of low norm.

    The lambda constraint is applied later by norm filtering, so the same
    pool serves every lambda. Deterministic given (eigensystem, J, M, seed).
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    if J < 1 or J > eig.truncation:
        raise ValueError(f"J must be in [1, {eig.truncation}]")
    gamma = eig.eigenvalues[:J]
    if gamma[-1] <= 0:
        raise RankError(J, int(np.sum(gamma > 0)))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((M, J)) * np.sqrt(gamma)
    coeff, rkhs_norms = _unit_rows(z, gamma)
    scores = eig.scores[:, :J]
    radial = (scores - scores.mean(axis=0)) / gamma
    with np.errstate(all="ignore"):
        r_coeff, r_norms = _unit_rows(radial, gamma)
    # A zero or non-finite radial vector leaves a NaN or zero norm here.
    keep = np.isfinite(r_norms) & (r_norms > 0)
    return DirectionSet(
        truncation=J,
        coefficients=np.vstack([coeff, r_coeff[keep]]),
        rkhs_norms=np.concatenate([rkhs_norms, r_norms[keep]]),
        seed=seed,
        proposal_size=M,
    )


def resolve_lambda(spec: RegularizationSpec, dirs: DirectionSet) -> float:
    """Resolve a regularization spec against the pool's RKHS norms.

    The quantile form returns the ceil(u*M)-th order statistic of the M
    proposal norms, so the accepted fraction of the proposals is exactly
    ceil(u*M)/M; data directions never move lambda.
    """
    if spec.lam is not None:
        return float(spec.lam)
    m = dirs.proposal_size
    k = int(np.ceil(spec.quantile_level * m))
    k = max(k, 1)
    return float(np.sort(dirs.rkhs_norms[:m])[k - 1])


# Directions per block of the count kernel. It bounds the kernel's
# temporaries to a few (block, q + n) arrays beside the (k, q) counts;
# the fence path (outlier.py) sorts its projections in blocks of this size.
_COUNT_BLOCK = 64


def _tie_run_starts(rows: np.ndarray) -> np.ndarray:
    """Per entry of each sorted row, the index of the first entry equal to it."""
    starts = np.zeros(rows.shape, dtype=np.intp)
    starts[:, 1:] = np.where(rows[:, 1:] != rows[:, :-1], np.arange(1, rows.shape[1]), 0)
    return np.maximum.accumulate(starts, axis=1)


def _merged_ranks(eval_rows: np.ndarray, sample_rows: np.ndarray) -> np.ndarray:
    """Per entry of each sorted eval row, the number of entries of the same
    sorted sample row that are below it (its lower-bound rank there)."""
    b, q = eval_rows.shape
    width = q + sample_rows.shape[1]
    # A stable sort of two sorted runs is one merge. Among equal values the
    # eval entries stay first, so the sample entries ahead of the j-th eval
    # entry are exactly those below it: its position less j.
    merged = np.argsort(np.hstack([eval_rows, sample_rows]), axis=1, kind="stable")
    at = np.flatnonzero(merged < q).reshape(b, q) - (np.arange(b) * width)[:, None]
    return at - np.arange(q)


def _accepted_projections(dirs: DirectionSet, lam: float, scores: np.ndarray):
    """The pool indices accepted at lambda and the (n, k) projections of the
    score rows on them: the one product the count kernel and fences share."""
    accepted = dirs.accepted(lam)
    if accepted.size == 0:
        raise EmptyPoolError(lam, float(dirs.rkhs_norms.min()))
    return accepted, scores[:, : dirs.truncation] @ dirs.coefficients[accepted].T


def _min_counts(proj_sample: np.ndarray, eval_scores, coeff: np.ndarray):
    """Halfspace counts minimized over directions.

    count[m, j] = #{i : S_i·a_m >= x_j·a_m}, with S_i·a_m = proj_sample[i, m],
    x_j the evaluation scores and a_m the rows of coeff: n less the
    lower-bound rank of x_j·a_m among the sample projections. Directions go
    in blocks of _COUNT_BLOCK. Per direction the evaluation projections are
    sorted once and ranked against the sorted sample projections by a stable
    merge; when eval_scores is None (the sample itself), a rank is the start
    of the value's tie run in that one sorted row, and no merge runs.

    The evaluation projections are made one block at a time, so a separate
    evaluation set never holds a (q, k) matrix: beside the (n, k) sample
    projections, the largest array is the (k, q) counts, in the smallest
    unsigned type that holds n.

    Returns (min_counts, (points, columns)): the minimum count per
    evaluation point, and the (point, coeff row) pairs that attain it,
    point-major with columns ascending.
    """
    n = proj_sample.shape[0]
    itself = eval_scores is None
    q, k = n if itself else eval_scores.shape[0], coeff.shape[0]
    counts = np.empty((k, q), dtype=np.min_scalar_type(n))
    for lo in range(0, k, _COUNT_BLOCK):
        block = slice(lo, lo + _COUNT_BLOCK)
        # The eval product keeps the eval rows first: coeff[block] @ eval.T
        # rounds differently, and on shuffled copies of the sample it moved
        # 38 of 10000 depths off the self-depth's, against 4 this way.
        rows = (proj_sample[:, block] if itself else eval_scores @ coeff[block].T).T.copy()
        order = np.argsort(rows, axis=1)
        rows.sort(axis=1)
        if itself:
            ranks = _tie_run_starts(rows)
        else:
            ranks = _merged_ranks(rows, np.sort(proj_sample[:, block].T, axis=1))
        np.put_along_axis(counts[block], order, n - ranks, axis=1)
    min_counts = counts.min(axis=0)
    return min_counts, np.nonzero((counts == min_counts).T)


def depth_from_scores(
    dirs: DirectionSet,
    lam: float,
    sample_scores: np.ndarray,
    eval_scores: np.ndarray,
) -> DepthResult:
    """Approximate depth evaluated directly on score matrices.

    The depth at x is the minimum over accepted directions a of the
    fraction of sample rows S_i with S_i·a >= x·a.
    """
    J = dirs.truncation
    accepted, projections = _accepted_projections(dirs, lam, sample_scores)
    itself = np.array_equal(sample_scores[:, :J], eval_scores[:, :J])
    min_counts, (points, columns) = _min_counts(
        projections, None if itself else eval_scores[:, :J], dirs.coefficients[accepted]
    )
    del projections  # freed before the minimizing directions are split
    n = sample_scores.shape[0]
    # Every point has at least one minimizing direction; the last piece is empty.
    ends = np.cumsum(np.bincount(points, minlength=min_counts.size))
    return DepthResult(
        depths=min_counts / n,
        minimizing_directions=tuple(np.split(accepted[columns], ends)[:-1]),
        lambda_used=float(lam),
        accepted_count=int(accepted.size),
        n=n,
    )


def approximate_rhd(
    eig: EigenSystem, dirs: DirectionSet, lam: float, eval_points: FunctionalSample
) -> DepthResult:
    """Approximate sample depth at each evaluation curve.

    Evaluation curves are projected with the sample's eigenfunctions; the
    depth at x is the minimum over accepted directions a of the fraction
    of sample curves i with scores_i·a >= scores_x·a. Minimizing direction
    indices refer to the full pool; ties are kept.
    """
    eval_scores = eig.project(eval_points)
    return depth_from_scores(dirs, lam, eig.scores, eval_scores)


def naive_tukey_depth(
    eig: EigenSystem, dirs: DirectionSet, eval_points: FunctionalSample
) -> DepthResult:
    """Unregularized depth: every pool direction accepted (lambda = inf).

    Still an upper bound on the exact depth. The pool's data directions
    are what bring it down to the exact 1/n at many hull vertices of the
    sample's scores; the random proposals alone almost never do.
    """
    return approximate_rhd(eig, dirs, np.inf, eval_points)
