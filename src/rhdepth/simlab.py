"""Synthetic functional data: truncated KL inliers and eight outlier types.

Inliers are truncated Karhunen-Loeve series on the trigonometric basis with
eigenvalues gamma_j = 2 * sum_{l >= j} l^-5 and coefficients xi_j = xi * W_j,
xi and W_j independent Unif(-sqrt(3), sqrt(3)); the process is non-Gaussian
with bounded range. A Gaussian variant (xi_j ~ N(0, 1)) is provided for
degeneracy experiments.

The outlier constructions are this package's own: one magnitude outlier that
leaves the pointwise inlier envelope, and seven shape outliers tuned to stay
inside the envelope at every time point while remaining detectable under
strong regularization (quantile levels u >= 0.9). See README for the tuning
notes.

J0 >= 1 is checked by the two primitives that index by it,
`eigenvalue_tail_sums` and `trigonometric_basis`, and again by ScenarioSpec
when a spec is made.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .funspace import FunctionalSample, make_uniform_grid

OUTLIER_KINDS = (
    "magnitude",
    "jump",
    "peak",
    "wiggle",
    "linear",
    "nondifferentiable",
    "phase",
    "damping",
)

DEFAULT_GRID_SIZE = 50
DEFAULT_TRUNCATION = 15
# The phase outlier moves KL amplitude from terms 2, 3 to terms 8, 9.
PHASE_MIN_J0 = 9

_SQRT3 = np.sqrt(3.0)


def eigenvalue_tail_sums(J0: int) -> np.ndarray:
    """gamma_j = 2 * sum_{l=j}^inf l^-5 for j = 1..J0.

    Partial sum through l = L = max(J0, 2000) plus the midpoint integral
    estimate of the remainder, (L + 0.5)^-4 / 4; absolute error well below
    1e-12.
    """
    _require_truncation(J0)
    L = max(J0, 2000)
    inv = np.arange(1, L + 1, dtype=float) ** -5
    # suffix[j-1] = sum_{l=j}^{L} l^-5
    suffix = np.cumsum(inv[::-1])[::-1]
    return 2.0 * (suffix[:J0] + (L + 0.5) ** -4 / 4)


def trigonometric_basis(points: np.ndarray, J0: int) -> np.ndarray:
    """Rows: 1, sqrt(2) sin(2 pi k t), sqrt(2) cos(2 pi k t), ..."""
    _require_truncation(J0)
    basis = np.empty((J0, points.size))
    basis[0] = 1.0
    for j in range(2, J0 + 1):
        k = j // 2
        if j % 2 == 0:
            basis[j - 1] = np.sqrt(2.0) * np.sin(2.0 * np.pi * k * points)
        else:
            basis[j - 1] = np.sqrt(2.0) * np.cos(2.0 * np.pi * k * points)
    return basis


# Built once per (p, J0) and shared read-only, also across threads: every
# scenario, inlier batch and outlier curve on one grid reads the same set-up.
@functools.cache
def _kl_setup(p: int, J0: int):
    """The uniform grid, the J0 basis rows on it and the eigenvalue tail sums."""
    gamma = eigenvalue_tail_sums(J0)  # refuses J0 < 1 before the grid is built
    grid = make_uniform_grid(p)
    basis = trigonometric_basis(grid.points, J0)
    basis.flags.writeable = gamma.flags.writeable = False
    return grid, basis, gamma


def _require_integer(name: str, value) -> None:
    """The config reader's integer rule, for a spec built in Python."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_truncation(J0: int) -> None:
    if J0 < 1:
        raise ValueError(f"J0 must be at least 1, got {J0}")


def _require_phase_truncation(J0: int) -> None:
    if J0 < PHASE_MIN_J0:
        raise ValueError(f"phase outliers need J0 >= {PHASE_MIN_J0}, got {J0}")


def inlier_sup_bound(J0: int = DEFAULT_TRUNCATION) -> float:
    """Explicit bound: |xi_j| <= 3 and |phi_j| <= sqrt(2) pointwise."""
    gamma = eigenvalue_tail_sums(J0)
    return float(3.0 * np.sqrt(2.0) * np.sum(np.sqrt(gamma)))


def _inlier_coefficients(rng, n: int, gamma: np.ndarray, gaussian: bool) -> np.ndarray:
    """KL coefficient matrix sqrt(gamma_j) * xi_ij, shape n x J0."""
    J0 = gamma.size
    if gaussian:
        xi = rng.standard_normal((n, J0))
    else:
        scale = rng.uniform(-_SQRT3, _SQRT3, size=n)
        w = rng.uniform(-_SQRT3, _SQRT3, size=(n, J0))
        xi = scale[:, None] * w
    return xi * np.sqrt(gamma)


def generate_inliers(
    n: int,
    seed: int,
    p: int = DEFAULT_GRID_SIZE,
    J0: int = DEFAULT_TRUNCATION,
    gaussian: bool = False,
) -> FunctionalSample:
    """n inlier curves on a p-point uniform grid."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    grid, basis, gamma = _kl_setup(p, J0)
    return FunctionalSample(grid, _inlier_coefficients(rng, n, gamma, gaussian) @ basis)


# Pointwise cap for shape outliers: the inlier envelope half-width from 1e4
# draws is >= 4.3 at every grid point, so curves capped at ENVELOPE_CAP stay
# strictly inside it. MAGNITUDE_SHIFT clears the envelope on most of the grid
# (inlier level-1 scores are bounded by 3 * sqrt(gamma_1) ~ 4.32).
ENVELOPE_CAP = 3.5
MAGNITUDE_SHIFT = 8.0
BASE_SHARE = 0.25


def _trapezoid_bump(t: np.ndarray, center: float, width: float) -> np.ndarray:
    """Flat-topped bump: plateau of width/2, linear shoulders, sup 1."""
    return np.clip(2.0 - 4.0 * np.abs(t - center) / width, 0.0, 1.0)


def _shape_outlier(base: np.ndarray, dev: np.ndarray):
    """Scaled base plus deviation, with the deviation amplitude chosen to
    spend the remaining pointwise budget under ENVELOPE_CAP."""
    body = BASE_SHARE * base
    sup = np.abs(dev).max()
    if sup <= 0:
        return body
    amp = (ENVELOPE_CAP - np.abs(body).max()) / sup
    return body + amp * dev


def generate_outlier(
    kind: str,
    seed: int,
    p: int = DEFAULT_GRID_SIZE,
    J0: int = DEFAULT_TRUNCATION,
) -> np.ndarray:
    """One outlier curve of the given kind; deterministic in (kind, seed).

    Shape outliers stay inside the pointwise inlier envelope by construction
    (sup-norm at most ENVELOPE_CAP); the magnitude outlier leaves it.
    """
    if kind not in OUTLIER_KINDS:
        raise ValueError(f"unknown outlier kind {kind!r}; choose from {OUTLIER_KINDS}")
    if kind == "phase":
        _require_phase_truncation(J0)
    rng = np.random.default_rng(seed)
    grid, basis, gamma = _kl_setup(p, J0)
    t = grid.points
    coeff = _inlier_coefficients(rng, 1, gamma, gaussian=False)[0]
    base = coeff @ basis

    if kind == "magnitude":
        return base + MAGNITUDE_SHIFT

    if kind == "jump":
        t0 = rng.uniform(0.2, 0.6)
        # Mean-balanced step: negative before t0, positive after, so the
        # discontinuity does not double as a magnitude shift.
        step = np.where(t >= t0, t0, t0 - 1.0)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        return _shape_outlier(base, sign * step)
    if kind == "peak":
        center = rng.uniform(0.25, 0.75)
        bump = _trapezoid_bump(t, center, 0.4)
        bump = bump - bump.mean()
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        return _shape_outlier(base, sign * bump)
    if kind == "wiggle":
        phase = rng.uniform(0.0, 2.0 * np.pi)
        # Flattened sinusoid: near-square wave carries more L2 energy per
        # unit of sup-norm than a plain sine.
        dev = np.tanh(3.0 * np.sin(2.0 * np.pi * 6.0 * t + phase)) / np.tanh(3.0)
        return _shape_outlier(base, dev)
    if kind == "linear":
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        return _shape_outlier(np.zeros_like(t), sign * (2.0 * t - 1.0))
    if kind == "nondifferentiable":
        knots = np.linspace(0.0, 1.0, 25)
        heights = rng.uniform(-1.0, 1.0, size=25)
        zigzag = np.interp(t, knots, heights)
        return _shape_outlier(base, zigzag - zigzag.mean())
    if kind == "phase":
        # Reallocate the low-frequency KL amplitude (j = 2, 3) to high
        # frequency (j = 8, 9), inflated to a detectable total magnitude.
        shifted = coeff.copy()
        donor = np.array([coeff[1], coeff[2]])
        norm = np.linalg.norm(donor)
        if norm == 0:
            donor = np.array([1.0, 1.0]) / np.sqrt(2.0)
            norm = 1.0
        target = 2.2
        shifted[7] += donor[0] * target / norm
        shifted[8] += donor[1] * target / norm
        shifted[1] = 0.0
        shifted[2] = 0.0
        curve = shifted @ basis
    else:  # damping
        damped = coeff * np.exp(-0.4 * np.arange(1, J0 + 1))
        typical = np.sqrt(np.sum(gamma))
        norm = np.sqrt(np.sum(damped**2))
        if norm > 0:
            damped *= typical / norm
        curve = damped @ basis

    peak_val = np.abs(curve).max()
    if peak_val > ENVELOPE_CAP:
        curve = curve * (ENVELOPE_CAP / peak_val)
    return curve


@dataclass(frozen=True)
class ScenarioSpec:
    """Contaminated-sample design: inlier count plus per-kind outlier counts."""

    n_inliers: int
    outlier_counts: dict = field(default_factory=dict)
    seed: int = 0
    p: int = DEFAULT_GRID_SIZE
    J0: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        for name in ("n_inliers", "p", "J0", "seed"):
            _require_integer(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.n_inliers < 1:
            raise ValueError(f"n_inliers must be at least 1, got {self.n_inliers}")
        if self.p < 2:
            raise ValueError(f"p must be at least 2, got {self.p}")
        _require_truncation(self.J0)
        if self.outlier_counts.get("phase"):
            _require_phase_truncation(self.J0)
        for kind, count in self.outlier_counts.items():
            if kind not in OUTLIER_KINDS:
                raise ValueError(f"unknown outlier kind {kind!r}")
            _require_integer(f"the count of {kind!r}", count)
            if count < 0:
                raise ValueError("outlier counts must be nonnegative")
        total = self.n_inliers + sum(self.outlier_counts.values())
        if total < 4:
            raise ValueError("scenario needs at least 4 curves in total")


def generate_scenario(spec: ScenarioSpec):
    """Shuffled contaminated sample with ground-truth labels.

    Returns (FunctionalSample, labels) where labels[i] is 'inlier' or the
    outlier kind of curve i.
    """
    rng = np.random.default_rng(spec.seed)
    inlier_seed = int(rng.integers(2**63))
    inliers = generate_inliers(spec.n_inliers, inlier_seed, p=spec.p, J0=spec.J0)
    rows = [inliers.values]
    labels = ["inlier"] * spec.n_inliers
    for kind in OUTLIER_KINDS:
        for _ in range(spec.outlier_counts.get(kind, 0)):
            out_seed = int(rng.integers(2**63))
            rows.append(generate_outlier(kind, out_seed, p=spec.p, J0=spec.J0)[None, :])
            labels.append(kind)
    values = np.vstack(rows)
    order = rng.permutation(values.shape[0])
    sample = FunctionalSample(inliers.grid, values[order])
    labels = [labels[i] for i in order]
    return sample, labels
