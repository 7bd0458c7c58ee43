"""Grids, inner products, and FPCA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhdepth import (
    FunctionalSample,
    Grid,
    RankError,
    fit_fpca,
    inner_product,
    make_uniform_grid,
    usable_rank,
)
from rhdepth.funspace import RANK_RTOL
from rhdepth.simlab import eigenvalue_tail_sums, generate_inliers


class TestGrid:
    def test_two_points(self):
        g = make_uniform_grid(2)
        assert np.allclose(g.points, [0.0, 1.0])
        assert np.allclose(g.weights, [0.5, 0.5])

    def test_three_points(self):
        g = make_uniform_grid(3)
        assert np.allclose(g.points, [0.0, 0.5, 1.0])
        assert np.allclose(g.weights, [0.25, 0.5, 0.25])

    def test_fifty_points(self):
        g = make_uniform_grid(50)
        assert len(g) == 50
        assert abs(g.weights.sum() - 1.0) < 1e-12

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_uniform_grid(1)

    def test_nonincreasing_points_rejected(self):
        with pytest.raises(ValueError):
            Grid([0.0, 0.5, 0.5], [0.25, 0.25, 0.0])

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            Grid([0.0, 0.5, 1.0], [0.5, 0.5, 0.0])

    def test_weight_sum_must_match_span(self):
        with pytest.raises(ValueError):
            Grid([0.0, 0.5, 1.0], [0.5, 0.5, 0.5])

    def test_non_finite_points_rejected(self):
        # an infinite span made the weight-sum check compare NaN and pass
        with pytest.raises(ValueError, match="finite"):
            Grid([0.0, np.inf], [np.inf, np.inf])


class TestInnerProduct:
    def test_constants(self):
        g = make_uniform_grid(17)
        ones = np.ones(17)
        assert inner_product(ones, ones, g) == pytest.approx(1.0)

    def test_orthogonality(self):
        g = make_uniform_grid(101)
        f = np.sqrt(2.0) * np.sin(2 * np.pi * g.points)
        assert abs(inner_product(f, np.ones(101), g)) < 1e-3

    def test_unit_norm(self):
        # trapezoid rule vs the analytic integral of 2 sin^2(2 pi t) = 1
        g = make_uniform_grid(101)
        f = np.sqrt(2.0) * np.sin(2 * np.pi * g.points)
        assert inner_product(f, f, g) == pytest.approx(1.0, abs=1e-3)

    def test_length_mismatch(self):
        g = make_uniform_grid(10)
        with pytest.raises(ValueError):
            inner_product(np.ones(9), np.ones(10), g)


class TestFunctionalSample:
    def test_shape_check(self):
        g = make_uniform_grid(5)
        with pytest.raises(ValueError):
            FunctionalSample(g, np.zeros((3, 4)))

    def test_nonfinite_rejected(self):
        g = make_uniform_grid(5)
        vals = np.zeros((2, 5))
        vals[1, 2] = np.nan
        with pytest.raises(ValueError):
            FunctionalSample(g, vals)

    def test_single_curve_promoted(self):
        g = make_uniform_grid(5)
        s = FunctionalSample(g, np.zeros(5))
        assert s.n == 1


class TestFpca:
    def test_identical_curves_rank_zero(self):
        g = make_uniform_grid(20)
        s = FunctionalSample(g, np.tile(np.sin(g.points), (6, 1)))
        assert usable_rank(s) == 0
        with pytest.raises(RankError):
            fit_fpca(s, 1)

    def test_two_point_antithetic_sample(self):
        # X1 = phi, X2 = -phi with ||phi|| = 1: mean 0, covariance phi (x) phi
        g = make_uniform_grid(101)
        phi = np.sqrt(2.0) * np.sin(2 * np.pi * g.points)
        phi = phi / np.sqrt(inner_product(phi, phi, g))
        s = FunctionalSample(g, np.vstack([phi, -phi]))
        eig = fit_fpca(s, 1)
        assert eig.eigenvalues[0] == pytest.approx(1.0, rel=1e-10)
        aligned = min(
            np.abs(eig.eigenfunctions[0] - phi).max(),
            np.abs(eig.eigenfunctions[0] + phi).max(),
        )
        assert aligned < 1e-8

    def test_rank_error_reports_rank(self):
        g = make_uniform_grid(20)
        s = FunctionalSample(g, np.outer([1.0, 2.0, 3.0, 4.0], np.sin(g.points)))
        with pytest.raises(RankError) as err:
            fit_fpca(s, 3)
        assert err.value.requested == 3
        assert err.value.usable_rank == 1

    def test_eigenfunctions_orthonormal(self):
        s = generate_inliers(200, seed=1)
        eig = fit_fpca(s, 6)
        gram = (eig.eigenfunctions * eig.grid.weights) @ eig.eigenfunctions.T
        assert np.abs(gram - np.eye(6)).max() < 1e-8

    def test_scores_are_uncentered_projections(self):
        s = generate_inliers(50, seed=2)
        eig = fit_fpca(s, 4)
        expected = s.values @ (eig.eigenfunctions * eig.grid.weights).T
        assert np.array_equal(eig.scores, expected)
        assert np.array_equal(eig.project(s), eig.scores)

    def test_large_sample_eigenvalue_recovery(self):
        gamma = eigenvalue_tail_sums(5)
        s = generate_inliers(2000, seed=3)
        eig = fit_fpca(s, 5)
        rel = np.abs(eig.eigenvalues - gamma) / gamma
        assert rel.max() < 0.10

    def test_project_requires_same_grid(self):
        s = generate_inliers(30, seed=4)
        eig = fit_fpca(s, 2)
        other = generate_inliers(3, seed=5, p=40)
        with pytest.raises(ValueError):
            eig.project(other)

    def test_deterministic_sign_convention(self):
        s = generate_inliers(100, seed=6)
        a = fit_fpca(s, 6)
        b = fit_fpca(s, 6)
        assert np.array_equal(a.eigenfunctions, b.eigenfunctions)
        assert np.array_equal(a.scores, b.scores)

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=20, deadline=None)
    def test_positive_scaling_scales_eigenvalues(self, c):
        s = generate_inliers(60, seed=7)
        scaled = FunctionalSample(s.grid, c * s.values)
        a = fit_fpca(s, 3)
        b = fit_fpca(scaled, 3)
        assert np.allclose(b.eigenvalues, c * c * a.eigenvalues, rtol=1e-9)


def _gram_reference(sample, J):
    """The n x n Gram-matrix fit that the thin SVD replaced: (usable rank,
    eigenvalues, sign-fixed eigenfunctions, scores), the last three None
    when J exceeds the rank."""
    w = sample.grid.weights
    z = (sample.values - sample.values.mean(axis=0)) * np.sqrt(w)
    eigvals, eigvecs = np.linalg.eigh(z @ z.T / sample.n)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    floor = float(np.mean((sample.values * np.sqrt(w)) ** 2)) * RANK_RTOL
    if eigvals[0] <= floor:
        rank = 0
    else:
        rank = int(np.sum(eigvals > max(eigvals[0] * RANK_RTOL, floor)))
    if J > rank:
        return rank, None, None, None
    gamma = eigvals[:J]
    psi = (z.T @ eigvecs[:, :J]) / np.sqrt(sample.n * gamma)
    phi = (psi / np.sqrt(w)[:, None]).T
    lead = np.abs(phi).argmax(axis=1)
    phi = phi * np.sign(phi[np.arange(J), lead])[:, None]
    return rank, gamma, phi, sample.values @ (phi * w).T


def _duplicated(n, seed):
    s = generate_inliers(n, seed=seed)
    return FunctionalSample(s.grid, np.vstack([s.values, s.values]))


_REFERENCE_CASES = {
    "n>p": lambda: generate_inliers(401, seed=11),
    "n<p": lambda: generate_inliers(40, seed=12, p=200, J0=60),
    "n=p": lambda: generate_inliers(50, seed=13),
    "duplicated": lambda: _duplicated(30, seed=14),
    "constant": lambda: FunctionalSample(
        make_uniform_grid(50), np.tile(np.sin(np.linspace(0, 3, 50)), (8, 1))
    ),
}


class TestGramReference:
    @pytest.mark.parametrize("name", _REFERENCE_CASES)
    def test_fit_matches_gram_eigendecomposition(self, name):
        sample = _REFERENCE_CASES[name]()
        rank, gamma, phi, scores = _gram_reference(sample, 6)
        assert usable_rank(sample) == rank
        if gamma is None:
            with pytest.raises(RankError) as err:
                fit_fpca(sample, 6)
            assert err.value.usable_rank == rank
            return
        eig = fit_fpca(sample, 6)
        assert eig.usable_rank == rank
        for got, ref in ((eig.eigenvalues, gamma), (eig.eigenfunctions, phi), (eig.scores, scores)):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
