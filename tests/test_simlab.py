"""Synthetic inlier generator and the eight outlier kinds."""

import re

import numpy as np
import pytest
from scipy.special import zeta

from rhdepth import (
    OUTLIER_KINDS,
    ScenarioSpec,
    generate_inliers,
    generate_outlier,
    generate_scenario,
    make_uniform_grid,
)
from rhdepth import simlab
from rhdepth.cli import run
from rhdepth.io import read_sample
from rhdepth.simlab import (
    ENVELOPE_CAP,
    eigenvalue_tail_sums,
    inlier_sup_bound,
    trigonometric_basis,
)

SHAPE_KINDS = tuple(k for k in OUTLIER_KINDS if k != "magnitude")


class TestEigenvalues:
    def test_matches_hurwitz_zeta(self):
        # gamma_j = 2 * sum_{l >= j} l^-5 = 2 * zeta(5, j)
        gamma = eigenvalue_tail_sums(15)
        expected = 2.0 * zeta(5, np.arange(1, 16))
        assert np.allclose(gamma, expected, rtol=1e-10)

    def test_leading_eigenvalue(self):
        assert eigenvalue_tail_sums(1)[0] == pytest.approx(2.07386, abs=5e-6)

    def test_eigengap_identity(self):
        gamma = eigenvalue_tail_sums(15)
        j = np.arange(1, 15)
        gaps = gamma[:-1] - gamma[1:]
        assert np.abs(gaps - 2.0 * j**-5.0).max() < 1e-12

    def test_strictly_decreasing(self):
        gamma = eigenvalue_tail_sums(15)
        assert np.all(np.diff(gamma) < 0)

    def test_more_terms_than_the_partial_sum(self):
        # The partial sum runs through max(J0, 2000) terms.
        assert eigenvalue_tail_sums(2001).shape == (2001,)

    def test_eigengap_identity_past_the_partial_sum(self):
        gamma = eigenvalue_tail_sums(2003)
        j = np.arange(1995, 2003)
        gaps = gamma[j - 1] - gamma[j]
        assert np.allclose(gaps, 2.0 * j**-5.0, rtol=1e-9, atol=0)


class TestBasis:
    def test_orthonormal_under_trapezoid(self):
        from rhdepth import make_uniform_grid

        grid = make_uniform_grid(201)
        basis = trigonometric_basis(grid.points, 7)
        gram = (basis * grid.weights) @ basis.T
        assert np.abs(gram - np.eye(7)).max() < 1e-3

    def test_first_function_constant(self):
        basis = trigonometric_basis(np.linspace(0, 1, 50), 5)
        assert np.allclose(basis[0], 1.0)


class TestInliers:
    def test_sup_norm_bound(self):
        bound = inlier_sup_bound()
        s = generate_inliers(10_000, seed=0)
        assert np.abs(s.values).max() <= bound

    def test_mean_near_zero(self):
        s = generate_inliers(10_000, seed=1)
        # coefficient variance gamma_1 dominates; O(n^{-1/2}) envelope
        envelope = 5.0 * np.sqrt(2.0739) / np.sqrt(10_000)
        assert np.abs(s.values.mean(axis=0)).max() < envelope

    def test_deterministic(self):
        a = generate_inliers(20, seed=2)
        b = generate_inliers(20, seed=2)
        assert np.array_equal(a.values, b.values)

    def test_gaussian_variant_differs(self):
        a = generate_inliers(20, seed=3)
        b = generate_inliers(20, seed=3, gaussian=True)
        assert not np.array_equal(a.values, b.values)

    def test_shapes(self):
        s = generate_inliers(7, seed=4, p=30)
        assert s.values.shape == (7, 30)


@pytest.fixture(scope="module")
def envelope():
    """Pointwise inlier min/max band from 1e4 draws."""
    s = generate_inliers(10_000, seed=99)
    return s.values.min(axis=0), s.values.max(axis=0)


class TestOutliers:
    def test_known_kinds(self):
        assert set(OUTLIER_KINDS) == {
            "magnitude",
            "jump",
            "peak",
            "wiggle",
            "linear",
            "nondifferentiable",
            "phase",
            "damping",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_outlier("banana", seed=0)

    @pytest.mark.parametrize("J0", [1, 2, 5, 8])
    def test_phase_needs_nine_terms(self, J0):
        # the phase outlier moves KL terms 2, 3 to 8, 9; ScenarioSpec says the same
        message = f"phase outliers need J0 >= 9, got {J0}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_outlier("phase", seed=0, J0=J0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioSpec(n_inliers=10, outlier_counts={"phase": 1}, J0=J0)
        assert generate_outlier("damping", seed=0, J0=J0).shape == (50,)

    def test_seed_determinism(self):
        for kind in OUTLIER_KINDS:
            a = generate_outlier(kind, seed=5)
            b = generate_outlier(kind, seed=5)
            assert np.array_equal(a, b), kind

    def test_magnitude_exceeds_envelope_on_most_of_grid(self, envelope):
        lo, hi = envelope
        for seed in range(10):
            curve = generate_outlier("magnitude", seed=seed)
            outside = (curve > hi) | (curve < lo)
            assert outside.mean() > 0.5, seed

    def test_shape_outliers_stay_inside_envelope(self, envelope):
        lo, hi = envelope
        for kind in SHAPE_KINDS:
            for seed in range(10):
                curve = generate_outlier(kind, seed=seed)
                assert np.all(curve <= hi) and np.all(curve >= lo), (kind, seed)

    def test_shape_outliers_respect_cap(self):
        for kind in SHAPE_KINDS:
            for seed in range(10):
                curve = generate_outlier(kind, seed=seed)
                assert np.abs(curve).max() <= ENVELOPE_CAP + 1e-9, (kind, seed)


class TestScenario:
    def test_simulate_more_terms_than_the_partial_sum(self, tmp_path):
        cfg = tmp_path / "long.cfg"
        cfg.write_text("n_inliers = 6\noutliers = magnitude:1, damping:1\nJ0 = 2001\n")
        out = str(tmp_path / "sim.csv")
        argv = ["simulate", "--scenario", str(cfg), "--seed", "1", "--out-sample", out]
        assert run(argv + ["--out-labels", out + ".lab"]) == 0
        assert read_sample(out).values.shape == (8, 50)

    def test_single_contamination(self):
        spec = ScenarioSpec(n_inliers=400, outlier_counts={"magnitude": 1}, seed=0)
        sample, labels = generate_scenario(spec)
        assert sample.n == 401
        assert len(labels) == 401
        assert labels.count("magnitude") == 1
        assert labels.count("inlier") == 400

    def test_mixed_scenario(self):
        spec = ScenarioSpec(
            n_inliers=200,
            outlier_counts={"magnitude": 1, "jump": 1, "wiggle": 1, "linear": 1},
            seed=1,
        )
        sample, labels = generate_scenario(spec)
        assert sample.n == 204
        assert sorted(set(labels)) == ["inlier", "jump", "linear", "magnitude", "wiggle"]

    def test_zero_outliers(self):
        spec = ScenarioSpec(n_inliers=10, outlier_counts={}, seed=2)
        _, labels = generate_scenario(spec)
        assert set(labels) == {"inlier"}

    def test_deterministic(self):
        spec = ScenarioSpec(n_inliers=30, outlier_counts={"jump": 2}, seed=3)
        a, la = generate_scenario(spec)
        b, lb = generate_scenario(spec)
        assert np.array_equal(a.values, b.values)
        assert la == lb

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_inliers=2, outlier_counts={}, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n_inliers=10, outlier_counts={"banana": 1}, seed=0)

    def test_truncation_checked(self):
        # J0 = 0 has no basis function, and a phase outlier moves KL terms 2, 3 to 8, 9
        with pytest.raises(ValueError, match="J0"):
            ScenarioSpec(n_inliers=10, J0=0)
        with pytest.raises(ValueError, match="phase"):
            ScenarioSpec(n_inliers=10, outlier_counts={"phase": 1}, J0=8)
        spec = ScenarioSpec(n_inliers=10, outlier_counts={"phase": 1}, J0=9)
        assert generate_scenario(spec)[0].n == 11

    @pytest.mark.parametrize("J0", [0, -1])
    def test_generators_refuse_an_empty_truncation(self, J0):
        # the generators give ScenarioSpec's message, not an IndexError from the basis
        message = f"^J0 must be at least 1, got {J0}$"
        with pytest.raises(ValueError, match=message):
            ScenarioSpec(n_inliers=10, J0=J0)
        with pytest.raises(ValueError, match=message):
            generate_inliers(5, seed=0, J0=J0)
        with pytest.raises(ValueError, match=message):
            generate_outlier("jump", seed=0, J0=J0)


def _fresh_kl_setup(p, J0):
    """The grid, basis and tail sums built anew on each call."""
    grid = make_uniform_grid(p)
    return grid, trigonometric_basis(grid.points, J0), eigenvalue_tail_sums(J0)


class TestSharedKLSetup:
    """One read-only KL set-up per (p, J0) serves every generator."""

    # Interleaved, so that a set-up kept per p or per J0 alone serves a wrong shape.
    SHAPES = ((50, 15), (50, 9), (30, 15), (50, 15), (30, 9), (30, 15))

    def _draw_all(self):
        drawn = []
        for p, J0 in self.SHAPES:
            counts = dict.fromkeys(OUTLIER_KINDS, 1)
            sample, labels = generate_scenario(ScenarioSpec(20, counts, seed=p + J0, p=p, J0=J0))
            drawn += [sample.values, sample.grid.points, sample.grid.weights, labels]
            for gaussian in (False, True):
                drawn.append(generate_inliers(7, seed=J0, p=p, J0=J0, gaussian=gaussian).values)
            drawn += [generate_outlier(kind, seed=p, p=p, J0=J0) for kind in OUTLIER_KINDS]
        return drawn

    def test_bit_identical_to_a_fresh_set_up_per_call(self, monkeypatch):
        shared = self._draw_all()
        monkeypatch.setattr(simlab, "_kl_setup", _fresh_kl_setup)
        fresh = self._draw_all()
        assert len(shared) == len(fresh)
        for a, b in zip(shared, fresh):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_shared_arrays_are_read_only(self):
        grid, basis, gamma = simlab._kl_setup(50, 15)
        for array in (grid.points, grid.weights, basis, gamma):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_writing_into_public_helper_arrays_leaves_the_next_scenario(self):
        spec = ScenarioSpec(20, {"phase": 1, "damping": 1, "jump": 1}, seed=4)
        before = generate_scenario(spec)[0].values
        basis = trigonometric_basis(make_uniform_grid(spec.p).points, spec.J0)
        gamma = eigenvalue_tail_sums(spec.J0)
        basis[:] = 0.0
        gamma[:] = 0.0
        assert np.array_equal(generate_scenario(spec)[0].values, before)
