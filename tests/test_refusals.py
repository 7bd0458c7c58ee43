"""Argument checks of the library functions, each with its own message."""

import re

import numpy as np
import pytest

from rhdepth import (
    EigenSystem,
    FunctionalSample,
    RankError,
    RegularizationSpec,
    ScenarioSpec,
    calibrate_factor,
    draw_directions,
    fit_fpca,
    generate_inliers,
    make_uniform_grid,
    normalized_ranks,
    roc_table,
    tukey_depth_2d_exact,
)
from rhdepth.funspace import fit_fpca_coordinates


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


SAMPLE = generate_inliers(5, seed=0)
SCENARIO = ScenarioSpec(n_inliers=10)
MEDIAN = RegularizationSpec.from_quantile(0.5)

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
    "ranks-empty": (lambda: normalized_ranks([]), ValueError, "depths must be nonempty"),
    "tukey-no-points": (
        lambda: tukey_depth_2d_exact(np.empty((0, 2)), [0.0, 0.0]),
        ValueError,
        "need at least one point",
    ),
    "inliers-none": (lambda: generate_inliers(0, seed=0), ValueError, "n must be at least 1"),
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
