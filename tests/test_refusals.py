"""Argument checks of the library functions, each with its own message."""

import re

import numpy as np
import pytest

from rhdepth import (
    EigenSystem,
    FunctionalSample,
    Grid,
    RankError,
    RegularizationSpec,
    ScenarioSpec,
    approximate_rhd,
    calibrate_factor,
    detect_outliers,
    detection_metrics,
    draw_directions,
    eigenvalue_tail_sums,
    fit_fpca,
    generate_inliers,
    inlier_sup_bound,
    make_uniform_grid,
    normalized_ranks,
    roc_table,
    trigonometric_basis,
    tukey_depth_2d_exact,
)
from rhdepth.funspace import fit_fpca_coordinates
from rhdepth.outlier import flag_sweep
from rhdepth.rhd import depth_from_scores


def _zero_eigenvalue_system():
    """An eigensystem whose last eigenvalue is 0, which fit_fpca never returns."""
    return EigenSystem(
        grid=make_uniform_grid(2),
        mean=np.zeros(2),
        eigenvalues=np.array([1.0, 0.0]),
        eigenfunctions=np.zeros((2, 2)),
        scores=np.zeros((3, 2)),
        usable_rank=1,
    )


def _sweep(n, factor):
    """One flag_sweep at the median lambda on n curves, with one factor."""
    eig = fit_fpca(generate_inliers(n, seed=0), 2)
    return flag_sweep(eig, 50, np.random.default_rng(1), (MEDIAN,), (factor,))


def _outliers(lam, factor):
    eig = fit_fpca(WIDER, 2)
    return detect_outliers(eig, draw_directions(eig, 50, seed=1), lam, factor)


def _depth(lam):
    eig = fit_fpca(WIDER, 2)
    return approximate_rhd(eig, draw_directions(eig, 50, seed=1), lam, WIDER)


SAMPLE = generate_inliers(5, seed=0)
WIDER = generate_inliers(12, seed=0)
SCENARIO = ScenarioSpec(n_inliers=10)
MEDIAN = RegularizationSpec.from_quantile(0.5)
NAN = float("nan")
CLOUD = np.random.default_rng(0).standard_normal((20, 2))
CLOUD_WITH_NAN = np.vstack([CLOUD, [[NAN, 0.0]]])

REFUSALS = {
    "fpca-J-below-1": (lambda: fit_fpca(SAMPLE, 0), ValueError, "J must be at least 1"),
    "fpca-one-curve": (
        lambda: fit_fpca(FunctionalSample(SAMPLE.grid, SAMPLE.values[:1]), 1),
        ValueError,
        "need at least two curves",
    ),
    "fpca-J-above-n-1": (lambda: fit_fpca(SAMPLE, 5), ValueError, "J=5 exceeds min(n-1, p)=4"),
    "pool-M-below-1": (
        lambda: draw_directions(fit_fpca(SAMPLE, 2), 0, seed=0),
        ValueError,
        "M must be at least 1",
    ),
    "pool-zero-eigenvalue": (
        lambda: draw_directions(_zero_eigenvalue_system(), 10, seed=0),
        RankError,
        "truncation level 2 exceeds usable rank 1; lower J to at most 1",
    ),
    "calibrate-B-0": (
        lambda: calibrate_factor(fit_fpca(SAMPLE, 2), 10, MEDIAN, 0, seed=0),
        ValueError,
        "B must be at least 1",
    ),
    "roc-no-replicates": (
        lambda: roc_table(SCENARIO, 2, 10, 0, seed=0),
        ValueError,
        "replicates must be at least 1",
    ),
    "fpca-coordinates-columns": (
        lambda: fit_fpca_coordinates(fit_fpca(SAMPLE, 2), np.zeros((5, 3))),
        ValueError,
        "coordinates have 3 columns, the basis has 2",
    ),
    "pool-of-another-J": (
        lambda: approximate_rhd(
            fit_fpca(WIDER, 4), draw_directions(fit_fpca(WIDER, 6), 100, 1), np.inf, WIDER
        ),
        ValueError,
        "pool directions have 6 coordinates, the scores have 4 columns",
    ),
    "outliers-pool-of-another-J": (
        lambda: detect_outliers(
            fit_fpca(WIDER, 4), draw_directions(fit_fpca(WIDER, 6), 100, 1), np.inf, 3.0
        ),
        ValueError,
        "pool directions have 6 coordinates, the scores have 4 columns",
    ),
    "depth-eval-columns": (
        lambda: depth_from_scores(
            draw_directions(fit_fpca(SAMPLE, 2), 10, 1), np.inf, np.zeros((5, 2)), np.zeros((3, 3))
        ),
        ValueError,
        "evaluation scores have 3 columns, the sample scores have 2",
    ),
    "depth-sample-1-D": (
        lambda: depth_from_scores(
            draw_directions(fit_fpca(SAMPLE, 2), 10, 1), np.inf, np.zeros(2), np.zeros((3, 2))
        ),
        ValueError,
        "sample scores must be a 2-D array, got shape (2,)",
    ),
    "depth-eval-1-D": (
        lambda: depth_from_scores(
            draw_directions(fit_fpca(SAMPLE, 2), 10, 1), np.inf, np.zeros((5, 2)), np.zeros(2)
        ),
        ValueError,
        "evaluation scores must be a 2-D array, got shape (2,)",
    ),
    "depth-eval-3-D": (
        lambda: depth_from_scores(
            draw_directions(fit_fpca(SAMPLE, 2), 10, 1), np.inf, np.zeros((5, 2)), np.zeros((1, 3, 2))
        ),
        ValueError,
        "evaluation scores must be a 2-D array, got shape (1, 3, 2)",
    ),
    "fpca-coordinates-1-D": (
        lambda: fit_fpca_coordinates(fit_fpca(SAMPLE, 2), np.zeros(2)),
        ValueError,
        "coordinates must be a 2-D array, got shape (2,)",
    ),
    "fpca-coordinates-3-D": (
        lambda: fit_fpca_coordinates(fit_fpca(SAMPLE, 2), np.zeros((2, 5, 2))),
        ValueError,
        "coordinates must be a 2-D array, got shape (2, 5, 2)",
    ),
    "sample-overflow": (
        lambda: FunctionalSample(Grid([0.0, 0.5, 1.0]), [[1e200, 1, 2], [1, 2, 3], [1, 1, 1]]),
        ValueError,
        "curve values are too large: their weighted squares overflow",
    ),
    "tail-sums-J0-0": (lambda: eigenvalue_tail_sums(0), ValueError, "J0 must be at least 1, got 0"),
    "tail-sums-J0-negative": (
        lambda: eigenvalue_tail_sums(-1),
        ValueError,
        "J0 must be at least 1, got -1",
    ),
    "basis-J0-0": (
        lambda: trigonometric_basis(np.linspace(0.0, 1.0, 5), 0),
        ValueError,
        "J0 must be at least 1, got 0",
    ),
    "sup-bound-J0-0": (lambda: inlier_sup_bound(0), ValueError, "J0 must be at least 1, got 0"),
    "ranks-empty": (lambda: normalized_ranks([]), ValueError, "depths must be nonempty"),
    "ranks-nan": (lambda: normalized_ranks([0.1, NAN, 0.2]), ValueError, "depths must be finite"),
    "metrics-bool-mask": (
        lambda: detection_metrics([True, False, False], ["inlier", "jump", "inlier"]),
        TypeError,
        "flagged must hold curve indices, not bool",
    ),
    "tukey-no-points": (
        lambda: tukey_depth_2d_exact(np.empty((0, 2)), [0.0, 0.0]),
        ValueError,
        "need at least one point",
    ),
    "tukey-points-in-3d": (
        lambda: tukey_depth_2d_exact(np.eye(4, 3), [0.0, 0.0]),
        ValueError,
        "points must be an (n, 2) array, got shape (4, 3)",
    ),
    "tukey-x-of-3-values": (
        lambda: tukey_depth_2d_exact(np.eye(3, 2), [0.0, 0.0, 0.0]),
        ValueError,
        "x must hold 2 values, got 3",
    ),
    "tukey-nan-point": (
        lambda: tukey_depth_2d_exact(CLOUD_WITH_NAN, [0.0, 0.0]),
        ValueError,
        "points must be finite",
    ),
    "tukey-nan-x": (
        lambda: tukey_depth_2d_exact(CLOUD, [NAN, 0.0]),
        ValueError,
        "x must be finite",
    ),
    "tukey-inf-x": (
        lambda: tukey_depth_2d_exact(CLOUD, [np.inf, 0.0]),
        ValueError,
        "x must be finite",
    ),
    "inliers-none": (lambda: generate_inliers(0, seed=0), ValueError, "n must be at least 1"),
    "sweep-factor-negative": (
        lambda: _sweep(12, -1.0),
        ValueError,
        "factor -1.0 must be positive and finite",
    ),
    "sweep-factor-0": (lambda: _sweep(12, 0.0), ValueError, "factor 0.0 must be positive and finite"),
    "sweep-factor-nan": (
        lambda: _sweep(12, float("nan")),
        ValueError,
        "factor nan must be positive and finite",
    ),
    "sweep-factor-inf": (
        lambda: _sweep(12, float("inf")),
        ValueError,
        "factor inf must be positive and finite",
    ),
    "sweep-three-curves": (
        lambda: _sweep(3, 3.0),
        ValueError,
        "need at least 4 curves for quartile fences",
    ),
    "roc-factor-negative": (
        lambda: roc_table(SCENARIO, 2, 10, 1, seed=0, factor_grid=(-1.0,)),
        ValueError,
        "factor -1.0 must be positive and finite",
    ),
    "outliers-factor-negative": (
        lambda: _outliers(np.inf, -1.0),
        ValueError,
        "factor -1.0 must be positive and finite",
    ),
    "outliers-lambda-nan": (
        lambda: _outliers(float("nan"), 3.0),
        ValueError,
        "lambda must be positive",
    ),
    "depth-lambda-nan": (lambda: _depth(float("nan")), ValueError, "lambda must be positive"),
    "depth-lambda-0": (lambda: _depth(0.0), ValueError, "lambda must be positive"),
    "depth-lambda-negative": (lambda: _depth(-1.0), ValueError, "lambda must be positive"),
    "grid-of-2-by-2": (
        lambda: Grid(np.zeros((2, 2))),
        ValueError,
        "grid points must be a 1-D array, got shape (2, 2)",
    ),
    "uniform-grid-of-1": (
        lambda: make_uniform_grid(1),
        ValueError,
        "the grid needs at least 2 points, got 1",
    ),
    "uniform-grid-negative": (
        lambda: make_uniform_grid(-1),
        ValueError,
        "the grid needs at least 2 points, got -1",
    ),
    "scenario-negative-count": (
        lambda: ScenarioSpec(n_inliers=10, outlier_counts={"jump": -1}),
        ValueError,
        "outlier counts must be nonnegative",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_library_check_raises_its_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
