"""Discretized functional samples and empirical functional PCA.

Curves live on a shared grid of any span; the L2 inner product is a
weighted sum with the trapezoidal quadrature weights the grid derives. The
sample covariance operator's eigenpairs come from one thin SVD of the
centered curves scaled by the square roots of the weights, at a cost of
O(n p min(n, p)) whichever of n and p is larger; the SVD also avoids the
squared condition number of a covariance or Gram matrix. Curves that lie in
a fitted mean plus the span of its J eigenfunctions, as Gaussian null data
does, take the same SVD on their n x J coordinates instead.

A FunctionalSample refuses values that are not finite, and values whose
weighted squares overflow the sum that FPCA takes, wherever it is built.
RankError, for a J above the usable rank, is raised here and by the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Eigenvalues below max_eig * RANK_RTOL are treated as numerically zero.
RANK_RTOL = 1e-10
# Nor does an eigenvalue below this absolute floor, sqrt of the smallest
# normal double (about 1.5e-154), count toward the rank: the direction
# pool divides by the eigenvalues, and beneath it those quotients overflow.
_EIGVAL_FLOOR = float(np.sqrt(np.finfo(float).tiny))


class RankError(RuntimeError):
    """Requested truncation level exceeds the usable rank of the sample covariance."""

    def __init__(self, requested: int, usable_rank: int):
        self.requested = requested
        self.usable_rank = usable_rank
        advice = f"lower J to at most {usable_rank}"
        if usable_rank == 0:  # J is at least 1
            advice = "the sample has no usable variation"
        super().__init__(
            f"truncation level {requested} exceeds usable rank {usable_rank}; {advice}"
        )


def _frozen_array(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Finite, strictly increasing time points of any span, a 1-D array of
    at least 2, with the trapezoidal weights they derive (half of each
    point's two gaps); the exact uniform grid on [0, 1] gets h/2, h, ..., h,
    h/2, h = 1 / (p - 1)."""

    points: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        points = _frozen_array(self.points)
        object.__setattr__(self, "points", points)
        if points.ndim != 1:
            raise ValueError(f"grid points must be a 1-D array, got shape {points.shape}")
        p = points.size
        _require_grid_size(p)
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


def _require_grid_size(p: int) -> None:
    if p < 2:
        raise ValueError(f"the grid needs at least 2 points, got {p}")


def make_uniform_grid(p: int) -> Grid:
    """Equispaced grid on [0, 1] with trapezoidal weights. Grid's size rule
    runs first, since np.linspace refuses a negative p in its own words."""
    _require_grid_size(p)
    return Grid(np.linspace(0.0, 1.0, p))


@dataclass(frozen=True)
class FunctionalSample:
    """n curves observed on a shared grid; one row per curve."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(np.atleast_2d(self.values)))
        if self.values.ndim != 2:
            shape = self.values.shape
            raise ValueError(f"curve values must be a 1-D or 2-D array, got shape {shape}")
        if self.values.shape[1] != len(self.grid):
            raise ValueError(
                f"curves have {self.values.shape[1]} points, grid has {len(self.grid)}"
            )
        with np.errstate(over="ignore"):
            # FPCA squares the centered curves scaled by sqrt(w) and sums the
            # squares: a centered square is at most 4x the largest uncentered
            # one, and the centered sum at most the uncentered sum. Summed
            # per grid point first, with no n x p temporary.
            squares = np.einsum("ij,ij->j", self.values, self.values)
            energy = 4 * (self.grid.weights @ squares)
        if not np.isfinite(energy):  # as it is when some value is not finite
            if not np.all(np.isfinite(self.values)):
                raise ValueError("curve values must be finite")
            raise ValueError("curve values are too large: their weighted squares overflow")

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
    return _grid_svd(sample)[3]


def _thin_svd(centered: np.ndarray):
    """Descending eigenvalues and eigenvectors (rows of vt) from one thin
    SVD of n centered rows of coordinates in a w-orthonormal basis:
    sqrt(w)-scaled grid values, or coordinates on fitted eigenfunctions."""
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    return s**2 / centered.shape[0], vt


def _usable_rank(eigvals: np.ndarray, energy: float) -> int:
    """Eigenvalues above the rank floor. energy is the data's mean weighted
    square over the p grid points: the mean over the curves of
    ||x_i||_w^2 / p."""
    # Rank floor also in the data's own squared scale: centering residuals of
    # a constant sample leave eigenvalues ~1e-32 that must not count as rank.
    scale = max(eigvals[0], energy)
    floor = max(scale * RANK_RTOL, _EIGVAL_FLOOR)
    return int(np.sum(eigvals > floor))


def _grid_svd(sample: FunctionalSample):
    """Mean, eigenvalues, eigenvectors in sqrt(w) coordinates and usable
    rank, from the thin SVD of the curves' sqrt(w)-scaled grid values."""
    root_w = np.sqrt(sample.grid.weights)
    mean = sample.values.mean(axis=0)
    eigvals, vt = _thin_svd((sample.values - mean) * root_w)
    energy = float(np.mean((sample.values * root_w) ** 2))
    return mean, eigvals, vt, _usable_rank(eigvals, energy)


def _sign_rule(phi: np.ndarray) -> np.ndarray:
    """+1 or -1 per eigenfunction (row of phi on the grid), so that its
    largest-magnitude grid coordinate becomes positive."""
    lead = np.abs(phi).argmax(axis=1)
    return np.sign(phi[np.arange(phi.shape[0]), lead])


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

    mean, eigvals, vt, rank = _grid_svd(sample)
    if J > rank:
        raise RankError(J, rank)
    phi = vt[:J] / np.sqrt(sample.grid.weights)
    phi = phi * _sign_rule(phi)[:, None]
    return EigenSystem(
        grid=sample.grid,
        mean=mean,
        eigenvalues=eigvals[:J],
        eigenfunctions=phi,
        scores=_scores(sample.values, phi, sample.grid.weights),
        usable_rank=rank,
    )


def fit_fpca_coordinates(basis: EigenSystem, coords) -> EigenSystem:
    """fit_fpca of the n curves basis.mean + coords @ basis.eigenfunctions,
    with J = basis.truncation, without building them on the grid.

    The curves lie in the mean plus the span of the J w-orthonormal
    eigenfunctions, so their FPCA is the thin SVD of the centered n x J
    coordinates, the same SVD path that fit_fpca runs on grid values: the
    eigenvalues are s^2/n, the eigenfunctions V^T phi under fit_fpca's sign
    rule, and the scores (m0 + coords) V, where m0 holds the mean's
    coordinates <basis.mean, phi_j>_w. The rank floor reads each curve's
    squared norm as ||mean||_w^2 + 2 m0.x_i + ||x_i||^2. A Gaussian null
    dataset of the fitted sample is such a sample.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2:
        raise ValueError(f"coordinates must be a 2-D array, got shape {coords.shape}")
    J = coords.shape[1]
    if J != basis.truncation:
        raise ValueError(f"coordinates have {J} columns, the basis has {basis.truncation}")
    w, phi = basis.grid.weights, basis.eigenfunctions
    m0 = _scores(basis.mean, phi, w)
    center = coords.mean(axis=0)
    eigvals, vt = _thin_svd(coords - center)
    energy = float(np.sum(w * basis.mean**2)) + 2 * (coords @ m0) + np.sum(coords**2, axis=1)
    rank = _usable_rank(eigvals, float(np.mean(energy)) / len(basis.grid))
    if J > rank:
        raise RankError(J, rank)
    psi = vt @ phi
    signs = _sign_rule(psi)
    return EigenSystem(
        grid=basis.grid,
        mean=basis.mean + center @ phi,
        eigenvalues=eigvals,
        eigenfunctions=psi * signs[:, None],
        scores=(m0 + coords) @ (vt.T * signs),
        usable_rank=rank,
    )
