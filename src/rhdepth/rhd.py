"""Constrained random-projection pool and the approximate sample depth.

One direction pool is drawn per analysis and reused for every value of the
regularization parameter: the constraint is applied by filtering directions
on their RKHS norm at depth time, which makes depth exactly nonincreasing
in lambda.

Pool rows, with M = proposal_size, as `draw_directions` builds them:
- [0, M): proposal i, z_i/||z_i||, z ~ N(0, diag gamma) from
  default_rng(seed). lambda at level u is the ceil(uM)-th smallest norm.
- [M, size): the unit data row Gamma^-1 (s_j - mean(s)) of the (i-M)-th
  curve whose row is kept (a curve at the score mean has none), in curve
  order; i - M is a curve index only if no row was dropped.
- Accepted at lambda: norm <= lambda, counted by `accepted_count`.
  `minimizing_directions[x]`: ascending, the accepted rows where curve x's
  count is its minimum; `n_min_directions` is their number. A
  `FenceRecord`'s `direction` is its pair's row.

Only this module reads the sorted blocks of the sample projections: the
count kernel, and `_candidate_fences` for the fences' pairs and quartiles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .funspace import _EIGVAL_FLOOR, EigenSystem, FunctionalSample, RankError, _frozen_array


class EmptyPoolError(RuntimeError):
    """No pool direction satisfies the RKHS-norm constraint at the given lambda."""

    def __init__(self, lam: float, min_norm: float):
        self.lam = lam
        self.min_norm = min_norm
        super().__init__(
            f"no accepted directions: lambda={lam!r} is below the smallest "
            f"pool RKHS norm {min_norm!r}"
        )


@dataclass(frozen=True)
class DirectionSet:
    """Unit coefficient vectors in R^J, one row each, and their RKHS norms.

    What each row index is: the pool-row table in this module's docstring.
    """

    coefficients: np.ndarray
    rkhs_norms: np.ndarray
    proposal_size: int

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _frozen_array(self.coefficients))
        object.__setattr__(self, "rkhs_norms", _frozen_array(self.rkhs_norms))
        coeff, norms = self.coefficients.shape, self.rkhs_norms.shape
        if len(coeff) != 2 or coeff[1] < 1 or norms != coeff[:1]:
            raise ValueError(
                f"coefficients {coeff} and rkhs_norms {norms} must be (m, J), J >= 1, and (m,)"
            )
        if not 1 <= self.proposal_size <= self.size:
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


def draw_directions(eig: EigenSystem, M: int, seed: int) -> DirectionSet:
    """The pool of the module docstring's table, every row built by one rule:
    the M proposals and each curve's whitened radial vector, which reaches
    the high-norm directions that cut a hull vertex off the sample, are
    made unit in one pass, and a row whose RKHS norm is not finite and
    positive is dropped (a radial one only: gamma is above fit_fpca's floor).
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    gamma = eig.eigenvalues
    if not gamma.min() > _EIGVAL_FLOOR:  # fit_fpca's rank floor: no proposal overflows
        raise RankError(gamma.size, int(np.sum(gamma > _EIGVAL_FLOOR)))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((M, gamma.size)) * np.sqrt(gamma)
    radial = (eig.scores - eig.scores.mean(axis=0)) / gamma
    with np.errstate(all="ignore"):
        coeff, norms = _unit_rows(np.vstack([z, radial]), gamma)
    # A zero or non-finite row leaves a NaN or zero norm here; no proposal does.
    keep = np.isfinite(norms) & (norms > 0)
    return DirectionSet(coefficients=coeff[keep], rkhs_norms=norms[keep], proposal_size=M)


def resolve_lambda(spec: RegularizationSpec, dirs: DirectionSet) -> float:
    """Resolve a regularization spec against the pool's RKHS norms.

    The quantile form reads the proposal rows of the pool-row table alone,
    so the accepted fraction of the proposals is exactly ceil(u*M)/M. u*M
    is taken on the decimal that u is written as: in floats 0.55 * 100 is
    55.00000000000001, whose ceiling would accept 56 of 100.
    """
    if spec.lam is not None:
        return float(spec.lam)
    m = dirs.proposal_size
    k = math.ceil(Fraction(repr(float(spec.quantile_level))) * m)
    return float(np.sort(dirs.rkhs_norms[:m])[k - 1])


# Directions per full block of the count kernel, whose temporaries are a few
# (q, block) and (block, n) arrays beside its records of counted pairs. The
# blocks before it hold 1, 2, 4, ... directions, so the kernel's bound is
# tight before the wide blocks run. The kernel and `_candidate_fences` read
# the same sorted blocks.
_COUNT_BLOCK = 64


def _sorted_blocks(projections: np.ndarray):
    """(lo, rows, tops) for each block of columns of the (n, k) projections,
    of 1, 2, 4, ... and then _COUNT_BLOCK columns: lo is the block's first
    column, rows its columns as contiguous rows, each sorted, and tops each
    column's first largest row. No (k, n) copy is held."""
    lo, width = 0, 1
    while lo < projections.shape[1]:
        rows = projections[:, lo : lo + width].T.copy()
        tops = rows.argmax(axis=1)
        rows.sort(axis=1)
        yield lo, rows, tops
        del rows  # a consumer that lets go of a block frees it before the next copy
        lo, width = lo + width, min(2 * width, _COUNT_BLOCK)


def _accepted_projections(dirs: DirectionSet, lam: float, scores: np.ndarray):
    """The pool indices accepted at lambda and the (n, k) projections of the
    score rows on them: the one product the count kernel and fences share,
    and the one place a pool meets scores and lambda, so a pool of another J
    and a lambda that is not positive (NaN too) are refused."""
    width, columns = dirs.coefficients.shape[1], scores.shape[1]
    if width != columns:
        raise ValueError(
            f"pool directions have {width} coordinates, the scores have {columns} columns"
        )
    if not lam > 0:
        raise ValueError("lambda must be positive")
    accepted = dirs.accepted(lam)
    if accepted.size == 0:
        raise EmptyPoolError(lam, float(dirs.rkhs_norms.min()))
    return accepted, scores @ dirs.coefficients[accepted].T


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
    would keep the whole block. A function, not a generator expression, so
    that no loop variable holds a block while the next one is copied."""
    return (*_sorted_quartiles(rows), rows[:, -1].copy(), tops, rows[:, -2] == rows[:, -1])


def _candidate_fences(eig: EigenSystem, dirs: DirectionSet, lams):
    """The sample projections on the directions accepted at the largest
    lambda (n, k) and, per lambda, its (candidate, minimizing direction)
    pairs, candidates ascending and then directions ascending: candidates,
    columns (each a direction whose norm that lambda accepts), pool
    directions, and (Q1, Q3) of those columns, all off the sorted blocks.
    No count kernel runs: a direction's smallest count #{i : p_i >= p_j} is
    its top tie run, so the candidates are the curves on top of the
    directions with the shortest run; only a tied column's run is counted.
    Quartile fences need 4 curves: fewer are refused before the product."""
    _require_fence_sample(eig.scores.shape[0])
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


def _lower_ranks(rows: np.ndarray, at: np.ndarray, values: np.ndarray):
    """np.searchsorted(rows[r], v, side="left") for each (r, v) in zip(at,
    values): one branchless binary search of n.bit_length() steps."""
    n = rows.shape[1]
    flat, before = rows.ravel(), at * n - 1  # flat[before + i] is rows[at, i - 1]
    ranks, step = np.zeros_like(at), 1 << (n.bit_length() - 1)
    while step:
        ahead = np.minimum(ranks + step, n)
        ranks = np.where(flat[before + ahead] < values, ahead, ranks)
        step >>= 1
    return ranks


def _min_counts(proj_sample: np.ndarray, eval_scores=None, coeff=None):
    """Halfspace counts minimized over directions.

    count[m, j] = #{i : S_i·a_m >= x_j·a_m}, with S_i·a_m = proj_sample[i, m],
    x_j the evaluation scores (the sample itself in the self pass, the defaults)
    and a_m the rows of coeff: n less the lower-bound rank of x_j·a_m among
    the sample projections. A running bound per point starts at n, and the
    first block, one direction, counts every point. Directions go in blocks
    that double up to _COUNT_BLOCK, with the sample projections sorted once
    per block: count <= bound exactly when x·a exceeds the (bound+1)-th
    largest of them, so one gather and one compare pick out the pairs that
    can still reach a point's minimum. Only
    these are counted, and they lower the bound. A pair that attains the
    minimum is at or below the bound whenever its block runs, so the result
    is exact whatever the order of the directions.

    The evaluation projections are made one block at a time, and no (k, q)
    matrix of counts is kept: beside the (n, k) sample projections, the
    kernel holds one record per counted pair at or below its point's bound,
    one per output pair when every pair ties at the minimum.

    Returns (min_counts, (points, columns)): the minimum count per
    evaluation point, and the (point, coeff row) pairs that attain it,
    point-major with columns ascending.
    """
    n = proj_sample.shape[0]
    bound = np.full(n if eval_scores is None else eval_scores.shape[0], n)
    found = []
    for lo, rows, _ in _sorted_blocks(proj_sample):
        block = slice(lo, lo + rows.shape[0])
        # The eval product keeps the eval rows first: coeff[block] @ eval.T
        # rounds differently, and on shuffled copies of the sample it moved
        # 38 of 10000 depths off the self-depth's, against 4 this way.
        x = proj_sample[:, block] if eval_scores is None else eval_scores @ coeff[block].T
        survive = x > rows.T[np.maximum(n - 1 - bound, 0)]
        survive[bound == n] = True  # no (n+1)-th largest: every count is at most n
        points, columns = np.divmod(np.flatnonzero(survive), rows.shape[0])
        counts = n - _lower_ranks(rows, columns, x[points, columns])
        np.minimum.at(bound, points, counts)
        keep = counts <= bound[points]
        found.append((points[keep], columns[keep] + lo, counts[keep]))
    points, columns, counts = (np.concatenate(part) for part in zip(*found))
    keep = counts == bound[points]
    order = np.argsort(points[keep], kind="stable")
    return bound, (points[keep][order], columns[keep][order])


def depth_from_scores(
    dirs: DirectionSet,
    lam: float,
    sample_scores: np.ndarray,
    eval_scores: np.ndarray,
) -> DepthResult:
    """Approximate depth evaluated directly on score matrices, each with
    one column per pool coordinate (the J of the pool's eigensystem).

    The depth at x is the minimum over accepted directions a of the
    fraction of sample rows S_i with S_i·a >= x·a.
    """
    for name, scores in (("sample", sample_scores), ("evaluation", eval_scores)):
        if scores.ndim != 2:
            raise ValueError(f"{name} scores must be a 2-D array, got shape {scores.shape}")
    if sample_scores.shape[0] == 0:
        raise ValueError("sample scores must hold at least one row")
    if eval_scores.shape[1] != sample_scores.shape[1]:
        raise ValueError(
            f"evaluation scores have {eval_scores.shape[1]} columns, "
            f"the sample scores have {sample_scores.shape[1]}"
        )
    accepted, projections = _accepted_projections(dirs, lam, sample_scores)
    itself = np.array_equal(sample_scores, eval_scores)
    min_counts, (points, columns) = _min_counts(
        projections, None if itself else eval_scores, dirs.coefficients[accepted]
    )
    del projections  # freed before the minimizing directions are sliced
    n = sample_scores.shape[0]
    # The pairs are point-major, so each point's ties are one slice.
    ties = accepted[columns]
    ends = np.cumsum(np.bincount(points, minlength=min_counts.size)).tolist()
    return DepthResult(
        depths=min_counts / n,
        minimizing_directions=tuple(ties[a:b] for a, b in itertools.pairwise([0, *ends])),
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
    indices are pool rows (the pool-row table); ties are kept.
    """
    eval_scores = eig.project(eval_points)
    return depth_from_scores(dirs, lam, eig.scores, eval_scores)


def naive_tukey_depth(
    eig: EigenSystem, dirs: DirectionSet, eval_points: FunctionalSample
) -> DepthResult:
    """Unregularized depth: every pool row accepted (lambda = inf).

    Still an upper bound on the exact depth. The pool's data rows (see the
    pool-row table) bring it down to the exact 1/n at many hull vertices
    of the sample's scores; the random proposals alone almost never do.
    """
    return approximate_rhd(eig, dirs, np.inf, eval_points)
