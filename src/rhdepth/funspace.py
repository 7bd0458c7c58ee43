"""Discretized functional samples and empirical functional PCA.

Curves live on a shared grid of any span; the L2 inner product is a
weighted sum with the trapezoidal quadrature weights the grid derives. The
sample covariance operator's eigenpairs come from one thin SVD of the
centered curves scaled by the square roots of the weights, at a cost of
O(n p min(n, p)) whichever of n and p is larger; the SVD also avoids the
squared condition number of a covariance or Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RankError

# Eigenvalues below max_eig * RANK_RTOL are treated as numerically zero.
RANK_RTOL = 1e-10
# Nor does an eigenvalue below this absolute floor, sqrt of the smallest
# normal double (about 1.5e-154), count toward the rank: the direction
# pool divides by the eigenvalues, and beneath it those quotients overflow.
_EIGVAL_FLOOR = float(np.sqrt(np.finfo(float).tiny))


def _frozen_array(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Finite, strictly increasing time points of any span, with the
    trapezoidal weights they derive (half of each point's two gaps); the
    exact uniform grid on [0, 1] gets h/2, h, ..., h, h/2, h = 1 / (p - 1)."""

    points: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        points = _frozen_array(self.points)
        object.__setattr__(self, "points", points)
        p = points.size
        if points.ndim != 1 or p < 2:
            raise ValueError(f"the grid needs at least 2 points, got {p}")
        if not np.all(np.isfinite(points)):
            raise ValueError("grid points must be finite")
        with np.errstate(over="ignore"):
            gaps = np.diff(points)
            span = points[-1] - points[0]
        if not np.all(gaps > 0):
            raise ValueError("grid points must be strictly increasing")
        if not np.isfinite(span):
            raise ValueError("the grid span overflows")
        # Only the exact uniform grid takes the even gap: a grid that merely
        # lies close to it keeps its own gaps.
        if np.array_equal(points, np.linspace(0.0, 1.0, p)):
            gaps = np.full(p - 1, 1 / (p - 1))
        weights = np.concatenate(([gaps[0]], gaps[:-1] + gaps[1:], [gaps[-1]])) / 2
        # Gaps of a few subnormals halve to 0.
        if not np.all(weights > 0):
            raise ValueError("quadrature weights must be positive")
        object.__setattr__(self, "weights", _frozen_array(weights))

    def __len__(self) -> int:
        return self.points.size


def make_uniform_grid(p: int) -> Grid:
    """Equispaced grid on [0, 1] with trapezoidal weights."""
    if p < 2:
        raise ValueError(f"grid size must be at least 2, got {p}")
    return Grid(np.linspace(0.0, 1.0, p))


@dataclass(frozen=True)
class FunctionalSample:
    """n curves observed on a shared grid; one row per curve."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(np.atleast_2d(self.values)))
        if self.values.shape[1] != len(self.grid):
            raise ValueError(
                f"curves have {self.values.shape[1]} points, grid has {len(self.grid)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def inner_product(f, g, grid: Grid) -> float:
    """Weighted L2 inner product sum_k w_k f(t_k) g(t_k)."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (len(grid),) or g.shape != (len(grid),):
        raise ValueError("curve length does not match grid")
    return float(np.sum(grid.weights * f * g))


@dataclass(frozen=True)
class EigenSystem:
    """Top-J eigenpairs of the sample covariance operator, with scores.

    eigenfunctions has one row per eigenfunction, orthonormal under the
    weighted inner product; scores[i, j] is the (uncentered) projection
    of curve i on eigenfunction j.
    """

    grid: Grid
    mean: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    scores: np.ndarray
    usable_rank: int

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen_array(self.mean))
        object.__setattr__(self, "eigenvalues", _frozen_array(self.eigenvalues))
        object.__setattr__(self, "eigenfunctions", _frozen_array(self.eigenfunctions))
        object.__setattr__(self, "scores", _frozen_array(self.scores))
        J, p = self.eigenvalues.size, len(self.grid)
        if J < 1:
            raise ValueError("an eigensystem needs at least one eigenvalue")
        n = np.atleast_1d(self.scores).shape[0]
        expected = {"eigenvalues": (J,), "eigenfunctions": (J, p), "mean": (p,), "scores": (n, J)}
        for name, shape in expected.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape} for J={J}, p={p}")

    @property
    def truncation(self) -> int:
        return self.eigenvalues.size

    def project(self, sample: FunctionalSample) -> np.ndarray:
        """Scores of arbitrary curves on the fitted eigenfunctions."""
        if not np.array_equal(sample.grid.points, self.grid.points):
            raise ValueError("evaluation curves must share the sample grid")
        return _scores(sample.values, self.eigenfunctions, self.grid.weights)


def _scores(values, eigenfunctions, weights) -> np.ndarray:
    """Weighted inner products of each curve (row of values) with each
    eigenfunction: the one projection expression, so that the sample read
    again projects to the fitted scores bit for bit."""
    return values @ (eigenfunctions * weights).T


def usable_rank(sample: FunctionalSample) -> int:
    """Number of strictly positive eigenvalues of the sample covariance."""
    return _thin_svd(sample)[3]


def _thin_svd(sample: FunctionalSample):
    """Mean, descending eigenvalues, eigenvectors in sqrt(w) coordinates
    (rows of vt), and usable rank, from one thin SVD of the weighted data."""
    w = sample.grid.weights
    mean = sample.values.mean(axis=0)
    _, s, vt = np.linalg.svd((sample.values - mean) * np.sqrt(w), full_matrices=False)
    eigvals = s**2 / sample.n
    # Rank floor also in the data's own squared scale: centering residuals of
    # a constant sample leave eigenvalues ~1e-32 that must not count as rank.
    scale = max(eigvals[0], float(np.mean((sample.values * np.sqrt(w)) ** 2)))
    floor = max(scale * RANK_RTOL, _EIGVAL_FLOOR)
    return mean, eigvals, vt, int(np.sum(eigvals > floor))


def fit_fpca(sample: FunctionalSample, J: int) -> EigenSystem:
    """Top-J empirical eigenpairs from a thin SVD of the weighted data.

    Raises RankError when J exceeds the number of strictly positive
    eigenvalues, since the truncated inverse square root would be
    undefined downstream.
    """
    if J < 1:
        raise ValueError("J must be at least 1")
    if sample.n < 2:
        raise ValueError("need at least two curves")
    if J > min(sample.n - 1, len(sample.grid)):
        raise ValueError(f"J={J} exceeds min(n-1, p)={min(sample.n - 1, len(sample.grid))}")

    mean, eigvals, vt, rank = _thin_svd(sample)
    if J > rank:
        raise RankError(J, rank)

    phi = vt[:J] / np.sqrt(sample.grid.weights)

    # Deterministic sign: the largest-magnitude coordinate is positive.
    lead = np.abs(phi).argmax(axis=1)
    signs = np.sign(phi[np.arange(J), lead])
    phi = phi * signs[:, None]

    return EigenSystem(
        grid=sample.grid,
        mean=mean,
        eigenvalues=eigvals[:J],
        eigenfunctions=phi,
        scores=_scores(sample.values, phi, sample.grid.weights),
        usable_rank=rank,
    )
