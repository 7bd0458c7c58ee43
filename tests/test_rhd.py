"""Direction pools, lambda resolution, and approximate depth."""

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhdepth import (
    DirectionSet,
    EigenSystem,
    EmptyPoolError,
    RegularizationSpec,
    ScenarioSpec,
    approximate_rhd,
    draw_directions,
    generate_scenario,
    make_uniform_grid,
    naive_tukey_depth,
    resolve_lambda,
)
from rhdepth.evalkit import tukey_depth_2d_exact
from rhdepth.funspace import fit_fpca
from rhdepth.outlier import detect_outliers
from rhdepth.rhd import _COUNT_BLOCK, DepthResult, _accepted_projections, _blocks, _kernel_order
from rhdepth.rhd import _column_blocks, _column_tops, _min_counts, _sorted_quartiles
from rhdepth.rhd import depth_from_scores
from rhdepth.simlab import eigenvalue_tail_sums, generate_inliers, trigonometric_basis


def _toy_eigensystem(eigenvalues, scores=None):
    """EigenSystem stub carrying only what draw_directions consumes."""
    J = len(eigenvalues)
    grid = make_uniform_grid(2)
    return EigenSystem(
        grid=grid,
        mean=np.zeros(2),
        eigenvalues=np.asarray(eigenvalues, dtype=float),
        eigenfunctions=np.zeros((J, 2)),
        scores=np.zeros((1, J)) if scores is None else np.asarray(scores, dtype=float),
        usable_rank=J,
    )


def _pool(coefficients, eigenvalues):
    """An all-proposal pool of the given directions."""
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
    gamma = np.asarray(eigenvalues, dtype=float)
    norms = np.sqrt((coefficients**2 / gamma).sum(axis=1))
    return DirectionSet(coefficients, norms, proposal_size=coefficients.shape[0])


class TestDrawDirections:
    def test_one_dimensional_pool(self):
        eig = _toy_eigensystem([0.25])
        dirs = draw_directions(eig, 50, seed=1)
        assert set(np.unique(dirs.coefficients)) <= {-1.0, 1.0}
        assert np.allclose(dirs.rkhs_norms, 1.0 / np.sqrt(0.25))

    def test_unit_vectors(self):
        eig = _toy_eigensystem([2.0, 0.5, 0.1])
        dirs = draw_directions(eig, 200, seed=2)
        assert np.allclose(np.linalg.norm(dirs.coefficients, axis=1), 1.0)

    def test_equal_eigenvalues_uniform_on_circle(self):
        # isotropic proposal: the empirical mean direction is O(M^{-1/2})
        eig = _toy_eigensystem([0.7, 0.7])
        M = 100_000
        dirs = draw_directions(eig, M, seed=3)
        assert np.abs(dirs.coefficients.mean(axis=0)).max() < 4.0 / np.sqrt(M)

    def test_seed_determinism(self):
        eig = _toy_eigensystem([1.0, 0.5])
        a = draw_directions(eig, 1000, seed=9)
        b = draw_directions(eig, 1000, seed=9)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.rkhs_norms, b.rkhs_norms)

    def test_proposal_rows_are_the_anisotropic_draw(self):
        s = generate_inliers(50, seed=21)
        eig = fit_fpca(s, 4)
        dirs = draw_directions(eig, 300, seed=22)
        gamma = eig.eigenvalues[:4]
        z = np.random.default_rng(22).standard_normal((300, 4)) * np.sqrt(gamma)
        assert dirs.proposal_size == 300
        assert dirs.size == 300 + s.n
        assert np.array_equal(
            dirs.coefficients[:300], z / np.linalg.norm(z, axis=1, keepdims=True)
        )

    def test_data_directions_are_whitened_radial(self):
        s = generate_inliers(50, seed=21)
        eig = fit_fpca(s, 4)
        dirs = draw_directions(eig, 300, seed=22)
        scores = eig.scores[:, :4]
        radial = (scores - scores.mean(axis=0)) / eig.eigenvalues[:4]
        radial /= np.linalg.norm(radial, axis=1, keepdims=True)
        assert np.allclose(dirs.coefficients[300:], radial)
        gamma = eig.eigenvalues[:4]
        assert np.allclose(
            dirs.rkhs_norms, np.sqrt((dirs.coefficients**2 / gamma).sum(axis=1))
        )

    def test_zero_radial_vectors_dropped(self):
        # the third curve sits at the score mean; the one-row toy has no spread
        eig = _toy_eigensystem([1.0, 0.5], scores=[[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        dirs = draw_directions(eig, 40, seed=23)
        assert dirs.size == 42
        assert not np.isnan(dirs.coefficients).any()
        assert not np.isnan(dirs.rkhs_norms).any()
        res = depth_from_scores(dirs, np.inf, eig.scores, eig.scores)
        assert res.depths.min() >= 1.0 / 3
        one_row = draw_directions(_toy_eigensystem([1.0, 0.5]), 40, seed=23)
        assert one_row.size == one_row.proposal_size == 40

    def test_proposal_size_checked(self):
        with pytest.raises(ValueError):
            DirectionSet(np.ones((3, 1)), np.ones(3), proposal_size=4)

    @pytest.mark.parametrize(
        "coefficients, norms",
        [
            # more rows than norms: the depth would count over rows 0-2 only
            (np.ones((5, 2)) / np.sqrt(2), np.ones(3)),
            # more norms than rows: an IndexError at depth time
            (np.ones((3, 2)) / np.sqrt(2), np.ones(5)),
            (np.ones(3), np.ones(3)),
            (np.ones((3, 0)), np.ones(3)),
            (np.ones((3, 1)), np.ones((3, 1))),
        ],
    )
    def test_shapes_checked(self, coefficients, norms):
        message = (
            f"coefficients {coefficients.shape} and rkhs_norms {norms.shape} "
            "must be (m, J), J >= 1, and (m,)"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DirectionSet(coefficients, norms, proposal_size=2)


class TestResolveLambda:
    @staticmethod
    def _pool_with_norms(norms):
        norms = np.asarray(norms, dtype=float)
        return DirectionSet(np.ones((norms.size, 1)), norms, proposal_size=norms.size)

    def test_median_of_four(self):
        dirs = self._pool_with_norms([3.0, 1.0, 4.0, 2.0])
        spec = RegularizationSpec.from_quantile(0.5)
        assert resolve_lambda(spec, dirs) == 2.0

    def test_near_one_gives_max(self):
        norms = np.random.default_rng(4).uniform(1.0, 5.0, size=1000)
        dirs = self._pool_with_norms(norms)
        spec = RegularizationSpec.from_quantile(0.9999)
        assert resolve_lambda(spec, dirs) == norms.max()

    def test_acceptance_fraction_matches_u(self):
        norms = np.random.default_rng(5).uniform(0.5, 2.0, size=1000)
        dirs = self._pool_with_norms(norms)
        lam = resolve_lambda(RegularizationSpec.from_quantile(0.95), dirs)
        assert lam == np.sort(norms)[949]
        assert (norms <= lam).mean() == 0.95

    @pytest.mark.parametrize("u, M, k", [(0.55, 100, 55), (0.07, 200, 14), (0.95, 1000, 950)])
    def test_accepts_ceil_of_u_as_written_times_M(self, u, M, k):
        # in floats 0.55 * 100 and 0.07 * 200 land just above 55 and 14
        dirs = self._pool_with_norms(np.arange(1.0, M + 1))
        lam = resolve_lambda(RegularizationSpec.from_quantile(u), dirs)
        assert lam == k and dirs.accepted(lam).size == k

    def test_quantile_ignores_data_directions(self):
        s = generate_inliers(60, seed=24)
        eig = fit_fpca(s, 5)
        dirs = draw_directions(eig, 400, seed=25)
        for u in (0.1, 0.5, 0.95, 0.9999):
            lam = resolve_lambda(RegularizationSpec.from_quantile(u), dirs)
            k = int(np.ceil(u * 400))
            assert lam == np.sort(dirs.rkhs_norms[:400])[k - 1]

    def test_explicit_lambda_passthrough(self):
        dirs = _pool(np.ones((3, 1)), [1.0])
        assert resolve_lambda(RegularizationSpec.from_lambda(2.5), dirs) == 2.5


class TestRegularizationSpec:
    def test_requires_exactly_one(self):
        with pytest.raises(ValueError):
            RegularizationSpec(lam=1.0, quantile_level=0.5)
        with pytest.raises(ValueError):
            RegularizationSpec(lam=None, quantile_level=None)

    def test_bounds(self):
        with pytest.raises(ValueError):
            RegularizationSpec.from_quantile(0.0)
        with pytest.raises(ValueError):
            RegularizationSpec.from_quantile(1.0)
        with pytest.raises(ValueError):
            RegularizationSpec.from_lambda(0.0)
        with pytest.raises(ValueError):
            RegularizationSpec.from_lambda(float("nan"))
        assert RegularizationSpec.from_lambda(float("inf")).lam == float("inf")


class TestDepth:
    def test_scalar_case(self):
        # J=1, sample scores {-1, 0, 1}, pool {+1, -1}, closed halfspaces
        dirs = _pool([[1.0], [-1.0]], [1.0])
        sample = np.array([[-1.0], [0.0], [1.0]])
        queries = np.array([[0.0], [1.0], [2.0]])
        res = depth_from_scores(dirs, 10.0, sample, queries)
        assert np.allclose(res.depths, [2 / 3, 1 / 3, 0.0])

    def test_minimizing_directions_keep_ties(self):
        dirs = _pool([[1.0], [-1.0]], [1.0])
        sample = np.array([[-1.0], [1.0]])
        res = depth_from_scores(dirs, 10.0, sample, np.array([[0.0]]))
        # both directions give depth 1/2 at the center
        assert res.depths[0] == 0.5
        assert set(res.minimizing_directions[0]) == {0, 1}

    def test_empty_pool_raises(self):
        dirs = _pool([[1.0]], [1.0])
        with pytest.raises(EmptyPoolError):
            depth_from_scores(dirs, 0.5, np.zeros((3, 1)), np.zeros((1, 1)))

    def test_sample_point_depth_positive(self):
        # a sample point always lies in its own closed halfspace
        s = generate_inliers(50, seed=11)
        eig = fit_fpca(s, 4)
        dirs = draw_directions(eig, 300, seed=12)
        lam = resolve_lambda(RegularizationSpec.from_quantile(0.95), dirs)
        res = approximate_rhd(eig, dirs, lam, s)
        assert res.depths.min() >= 1.0 / s.n
        assert naive_tukey_depth(eig, dirs, s).depths.min() >= 1.0 / s.n

    def test_naive_equals_full_pool(self):
        s = generate_inliers(40, seed=13)
        eig = fit_fpca(s, 3)
        dirs = draw_directions(eig, 200, seed=14)
        lam = dirs.rkhs_norms.max()
        full = approximate_rhd(eig, dirs, lam, s)
        naive = naive_tukey_depth(eig, dirs, s)
        assert np.array_equal(full.depths, naive.depths)

    def test_depths_nonincreasing_in_nested_pools(self):
        s = generate_inliers(60, seed=15)
        eig = fit_fpca(s, 4)
        big = draw_directions(eig, 2000, seed=16)
        lam = big.rkhs_norms.max() + 1.0
        prev = None
        for M in (100, 500, 2000):
            sub = DirectionSet(big.coefficients[:M], big.rkhs_norms[:M], proposal_size=M)
            depths = approximate_rhd(eig, sub, lam, s).depths
            if prev is not None:
                assert np.all(depths <= prev)
            prev = depths
        # Real draws nest too: the pool of M proposals is the first M rows of
        # the pool of 2M with the same seed, with the same data rows after
        # them, so at a fixed lambda the larger pool's depths are no larger.
        for M in (64, 500):
            pool, doubled = draw_directions(eig, M, seed=16), draw_directions(eig, 2 * M, seed=16)
            for name in ("coefficients", "rkhs_norms"):
                a, b = getattr(pool, name), getattr(doubled, name)
                assert np.array_equal(a[:M], b[:M]) and np.array_equal(a[M:], b[2 * M :])
            lams = [resolve_lambda(RegularizationSpec.from_quantile(u), pool) for u in (0.5, 0.9)]
            for lam in (*lams, np.inf):
                depths = approximate_rhd(eig, pool, lam, s).depths
                assert np.all(approximate_rhd(eig, doubled, lam, s).depths <= depths)
        # So a curve is settled, its depth on the M pool already reached by the
        # M/2 pool, exactly when one of its M-pool minimizing directions is a
        # proposal below M/2 or a data row (index >= M).
        spec = ScenarioSpec(n_inliers=400, outlier_counts={"jump": 1, "wiggle": 1}, seed=3)
        paper = generate_scenario(spec)[0]
        eig = fit_fpca(paper, 6)
        for M, seed in ((1000, 7), (500, 7), (64, 1)):
            pool, half = draw_directions(eig, M, seed), draw_directions(eig, M // 2, seed)
            lam95 = resolve_lambda(RegularizationSpec.from_quantile(0.95), pool)
            for lam in (3.0, lam95, np.inf):
                full = approximate_rhd(eig, pool, lam, paper)
                settled = [np.any((d < M // 2) | (d >= M)) for d in full.minimizing_directions]
                same = approximate_rhd(eig, half, lam, paper).depths == full.depths
                assert np.array_equal(same, settled)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_lambda_monotonicity_property(self, seed):
        rng = np.random.default_rng(seed)
        sample = rng.standard_normal((30, 3))
        dirs = _pool(rng.standard_normal((80, 3)), rng.uniform(0.1, 2.0, size=3))
        norms = np.sort(dirs.rkhs_norms)
        lam1, lam2 = norms[20], norms[60]
        d1 = depth_from_scores(dirs, lam1, sample, sample).depths
        d2 = depth_from_scores(dirs, lam2, sample, sample).depths
        assert np.all(d1 >= d2)

    def test_accepted_count_reported(self):
        s = generate_inliers(30, seed=17)
        eig = fit_fpca(s, 3)
        dirs = draw_directions(eig, 400, seed=18)
        lam = resolve_lambda(RegularizationSpec.from_quantile(0.7), dirs)
        res = approximate_rhd(eig, dirs, lam, s)
        assert res.accepted_count == int((dirs.rkhs_norms <= lam).sum())
        assert res.lambda_used == lam
        assert res.n == 30


class TestMonotoneFromTheCenter:
    """Monotonicity relative to the deepest point, a property of the paper's
    depth: on a sample symmetric about 0, D(x/2) >= min(D(0), D(x)). An
    upper level set of a pool depth is an intersection of halfspaces, and
    halving is exact in floating point, so the comparison is exact. The
    center need not be the deepest point of a pool depth, so that is not
    asserted."""

    def test_halfway_to_the_center_is_no_shallower(self):
        spec = ScenarioSpec(n_inliers=400, outlier_counts={"magnitude": 1}, seed=3)
        eig = fit_fpca(generate_scenario(spec)[0], 6)
        dirs = draw_directions(eig, 1000, seed=7)
        centered = eig.scores - eig.scores.mean(axis=0)
        sample = np.vstack([centered, -centered])
        spread = 2 * sample.std(axis=0) * np.random.default_rng(3).standard_normal((400, 6))
        points, center = np.vstack([sample, spread]), np.zeros((1, 6))
        q = points.shape[0]
        specs = [RegularizationSpec.from_quantile(u) for u in (0.005, 0.5, 0.95)]
        for lam in [*(resolve_lambda(spec, dirs) for spec in specs), np.inf]:
            # the points passed together, then one evaluation call each
            together = depth_from_scores(dirs, lam, sample, np.vstack([center, points, points / 2]))
            separately = [
                depth_from_scores(dirs, lam, sample, x).depths for x in (center, points, points / 2)
            ]
            for d0, dx, dhalf in (np.split(together.depths, [1, q + 1]), separately):
                assert np.all(dhalf >= np.minimum(d0, dx))


def _nonzero_differences(points, x):
    """The differences s_i - x that are not 0, and m, the count of the rest."""
    d = np.asarray(points, dtype=float) - x
    nonzero = d[np.any(d != 0.0, axis=1)]
    return nonzero, len(d) - len(nonzero)


def _exact_depth_3d(points, x) -> float:
    """Exact closed halfspace depth of x among the points of R^3, from
    bivariate depths (Rousseeuw & Struyf 1998): (m + min_j D_j) / n, where
    m counts the points equal to x and D_j is the closed 2-D count of the
    origin among the other differences s_i - x projected on the plane
    orthogonal to s_j - x, with s_j left out."""
    d, m = _nonzero_differences(points, x)
    counts = []
    for j in range(len(d)):
        plane = np.linalg.svd(d[j : j + 1])[2][1:]  # orthonormal rows orthogonal to d_j
        others = np.delete(d, j, axis=0) @ plane.T
        counts.append(round(tukey_depth_2d_exact(others, np.zeros(2)) * len(others)))
    return (m + min(counts)) / len(points)


def _enumerated_depth_3d(points, x) -> float:
    """The same depth by enumeration, O(n^3), for points in general
    position: the closed count is least on an open cell of the great
    circles d_i . a = 0. Every cell has a vertex a = +-(d_j x d_k), and the
    least of the cells at that vertex holds d_j and d_k out and every other
    d_i on its side of a."""
    d, m = _nonzero_differences(points, x)
    j, k = np.triu_indices(len(d), 1)
    side = np.cross(d[j], d[k]) @ d.T
    others = (np.arange(len(d)) != j[:, None]) & (np.arange(len(d)) != k[:, None])
    least = min(((side > 0) & others).sum(axis=1).min(), ((side < 0) & others).sum(axis=1).min())
    return (m + int(least)) / len(points)


class TestExact3DOracle:
    """The pool depth against the exact halfspace depth at J = 3."""

    def test_reduction_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for n in (6, 9, 12, 15):
            points = rng.standard_normal((n, 3))
            for x in np.vstack([points, rng.standard_normal((5, 3))]):
                assert _exact_depth_3d(points, x) == _enumerated_depth_3d(points, x)

    def test_pool_depth_bounds_the_exact_depth(self):
        sample = generate_inliers(80, seed=5, gaussian=True)
        eig = fit_fpca(sample, 3)
        naive = naive_tukey_depth(eig, draw_directions(eig, 1000, seed=6), sample).depths
        exact = np.array([_exact_depth_3d(eig.scores, x) for x in eig.project(sample)])
        excess = naive - exact
        print(f"3-D oracle: exact {np.mean(excess == 0):.4f}, mean excess {excess.mean():.5f}")
        assert np.all(excess >= 0)


def _population_radius(x, gamma, lam):
    """r* of the population depth Phi-bar(r*) of each row of x, for scores
    N(0, diag(gamma)) and unit directions v with RKHS norm at most lam:
    r* = sup v'x / sqrt(v' Gamma v) over them. With b = 1/gamma - lam^2 a
    unit v is feasible iff sum(v_j^2 b_j) <= 0. The Mahalanobis norm, from
    v = x/gamma, holds when that v is feasible, and always at lam = inf;
    otherwise the sup is on the boundary, at v = x/(gamma + t b) with t in
    (0, t1) the root of sum(x_j^2 b_j / (gamma_j + t b_j)^2), found by
    bisection; t1 = min over b_j < 0 of gamma_j / |b_j|."""
    mahalanobis = np.sqrt((x**2 / gamma).sum(axis=1))
    if lam == np.inf:
        return mahalanobis
    b = 1 / gamma - lam**2
    feasible = ((x / gamma) ** 2 * b).sum(axis=1) <= 0
    lo, hi = np.zeros(len(x)), np.full(len(x), (gamma[b < 0] / -b[b < 0]).min())
    for _ in range(100):
        t = (lo + hi) / 2
        outside = (x**2 * b / (gamma + t[:, None] * b) ** 2).sum(axis=1) > 0
        lo, hi = np.where(outside, t, lo), np.where(outside, hi, t)
    v = x / (gamma + lo[:, None] * b)
    boundary = (v * x).sum(axis=1) / np.sqrt((v**2 * gamma).sum(axis=1))
    return np.where(feasible, mahalanobis, boundary)


@functools.lru_cache(maxsize=None)
def _gaussian_case(n):
    """The eigensystem of n Gaussian curves, 400 evaluation curves, and
    their true scores on the simlab basis, J = 3."""
    eig = fit_fpca(generate_inliers(n, 1, gaussian=True), 3)
    curves = generate_inliers(400, 2, gaussian=True)
    grid = make_uniform_grid(50)  # the simlab basis is orthonormal under its weights
    return eig, curves, curves.values @ (trigonometric_basis(grid.points, 3) * grid.weights).T


class TestGaussianPopulationOracle:
    """The paper's consistency property: on Gaussian curves the sample depth
    converges to the population halfspace depth, which for scores
    N(0, diag(gamma)) is Phi-bar(r*), r* from _population_radius; at
    lambda = inf r* is the Mahalanobis norm, so
    D(x) = erfc(sqrt(x' Gamma^-1 x) / sqrt(2)) / 2."""

    # With these seeds max |D_n - D| * sqrt(n) at lambda = inf reads 1.805 at
    # n = 4000 and 1.243 at n = 1000; 10 other (sample, pool, evaluation)
    # seed triples at n = 4000 gave 0.76-1.51. C leaves 38% over the largest
    # of these. At lambda = 1 and 8 (M = 1000) it reads at most 1.47.
    C = 2.5

    @staticmethod
    def _errors(n, lam, M):
        """D_n - D on the 400 evaluation curves, with a pool of M proposals."""
        eig, curves, x = _gaussian_case(n)
        depths = approximate_rhd(eig, draw_directions(eig, M, 4), lam, curves).depths
        gamma = eigenvalue_tail_sums(15)[:3]
        radius = _population_radius(x, gamma, lam)
        return depths - np.array([math.erfc(r / math.sqrt(2)) / 2 for r in radius])

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_depth_within_c_over_root_n_of_the_population_depth(self, n):
        assert np.abs(self._errors(n, np.inf, 1000)).max() <= self.C / math.sqrt(n)

    @pytest.mark.parametrize("lam", [1.0, 8.0])
    @pytest.mark.parametrize("n", [1000, 4000])
    def test_finite_lambda_depth_within_c_over_root_n(self, n, lam):
        assert np.abs(self._errors(n, lam, 1000)).max() <= self.C / math.sqrt(n)

    def test_lambda_3_depth_with_a_larger_pool(self):
        # At lambda = 3 a pool of M = 1000 falls short: max (D_n - D) * sqrt(n)
        # reads +2.31 at n = 1000 and +4.03 at n = 4000, since too few of its
        # accepted directions come near the constrained minimizing one (a
        # random pool only bounds the depth from above). Only the lower side
        # holds there; with M = 8000 the error at n = 4000 reads +1.43/-1.02.
        for n in (1000, 4000):
            assert self._errors(n, 3.0, 1000).min() >= -self.C / math.sqrt(n)
        assert np.abs(self._errors(4000, 3.0, 8000)).max() <= self.C / math.sqrt(4000)

    # Over 30 seeds of this scan, the largest gap between r* and the scan's
    # radius read 2.4e-4 at J = 2 and 0.0154 at J = 3 (r* from v = x/gamma
    # alone leaves gaps of 0.3-1.0); the tolerances are twice those.
    @pytest.mark.parametrize("J, tolerance", [(2, 5e-4), (3, 0.03)])
    def test_population_radius_bounds_a_direction_scan(self, J, tolerance):
        gamma = eigenvalue_tail_sums(15)[:J]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, J)) * np.sqrt(gamma) * 1.5
        v = rng.standard_normal((200_000, J))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        for lam in (1.0, 1.5, 3.0, 8.0):
            u = v[(v**2 / gamma).sum(axis=1) <= lam**2]
            scan = ((x @ u.T) / np.sqrt(u**2 @ gamma)).max(axis=1)
            gap = _population_radius(x, gamma, lam) - scan
            assert gap.min() >= -1e-12 and gap.max() <= tolerance


def _reference_min_counts(sample_scores, eval_scores, coeff):
    """The kernel the blocked one replaced: per direction, sort the sample
    projections and binary-search every evaluation projection."""
    n = sample_scores.shape[0]
    proj_sample = sample_scores @ coeff.T
    proj_eval = eval_scores @ coeff.T
    q, k = proj_eval.shape
    counts = np.empty((q, k), dtype=np.int64)
    for m in range(k):
        col = np.sort(proj_sample[:, m])
        counts[:, m] = n - np.searchsorted(col, proj_eval[:, m], side="left")
    min_counts = counts.min(axis=1)
    argmins = [np.flatnonzero(counts[i] == min_counts[i]) for i in range(q)]
    points = np.repeat(np.arange(q), [a.size for a in argmins])
    return min_counts, points, np.concatenate(argmins)


def _kernel_case(name, k):
    """(sample scores, eval scores, coefficients) of one named case."""
    rng = np.random.default_rng(k)
    if name in ("self", "eval"):
        sample = rng.standard_normal((40, 3))
        coeff = rng.standard_normal((k, 3))
        return sample, sample if name == "self" else rng.standard_normal((55, 3)), coeff
    if name in ("ties_self", "ties_eval"):
        # J=1 integer scores: most projections tie, and the unit rows are
        # +-1, so most directions tie too
        sample = rng.integers(-3, 4, size=(60, 1)).astype(float)
        coeff = rng.choice([-1.0, 1.0], size=(k, 1))
        if name == "ties_self":
            return sample, sample, coeff
        return sample, rng.integers(-4, 5, size=(70, 1)).astype(float), coeff
    if name == "integer_plane":
        # exact integer projections in J=2, self-depth
        sample = rng.integers(-2, 3, size=(50, 2)).astype(float)
        return sample, sample.copy(), rng.integers(-2, 3, size=(k, 2)).astype(float)
    if name == "duplicated":
        sample = np.repeat(rng.standard_normal((15, 3)), 3, axis=0)
        return sample, sample, rng.standard_normal((k, 3))
    if name == "copies_in_eval":
        # exact copies of sample rows among fresh points, in shuffled order
        sample = rng.integers(-2, 3, size=(30, 2)).astype(float)
        eval_scores = np.vstack([sample[::2], rng.integers(-3, 4, size=(20, 2))])
        coeff = rng.integers(-2, 3, size=(k, 2)).astype(float)
        return sample, eval_scores[rng.permutation(len(eval_scores))], coeff
    raise ValueError(name)


_KERNEL_CASES = (
    "self", "eval", "ties_self", "ties_eval", "integer_plane", "duplicated", "copies_in_eval"
)


def _kernel(sample, eval_scores, coeff, visit=None):
    """The count kernel on the sample's projections, with depth_from_scores'
    choice of the self pass; by default it visits the columns in order."""
    itself = np.array_equal(sample, eval_scores)
    visit = np.arange(coeff.shape[0]) if visit is None else visit
    return _min_counts(sample @ coeff.T, visit, None if itself else eval_scores, coeff)


def _later_first(k):
    """Visit orders that put later columns first: the columns reversed, and
    _kernel_order's shape, the first column and then the back half before
    the front."""
    half = (k + 1) // 2
    return np.arange(k)[::-1], np.r_[0, half:k, 1:half]


class TestCountKernel:
    # 1, 3, 63 and 127 directions end a block; 2 and 64 end inside one
    @pytest.mark.parametrize(
        "k", [1, 2, 3, 63, _COUNT_BLOCK, _COUNT_BLOCK + 1, 127, 128, 3 * _COUNT_BLOCK + 5]
    )
    @pytest.mark.parametrize("name", _KERNEL_CASES)
    def test_matches_per_direction_search(self, name, k):
        sample, eval_scores, coeff = _kernel_case(name, k)
        ref_min, ref_points, ref_columns = _reference_min_counts(sample, eval_scores, coeff)
        # In any visit order: the pairs come back point-major, columns ascending.
        for visit in (np.arange(k), *_later_first(k)):
            min_counts, (points, columns) = _kernel(sample, eval_scores, coeff, visit)
            assert np.array_equal(min_counts, ref_min)
            assert np.array_equal(points, ref_points)
            assert np.array_equal(columns, ref_columns)

    @staticmethod
    def _assert_matches_reference(sample, eval_scores, coeff):
        ref_min, ref_points, ref_columns = _reference_min_counts(sample, eval_scores, coeff)
        min_counts, (points, columns) = _kernel(sample, eval_scores, coeff)
        assert np.array_equal(min_counts, ref_min)
        assert np.array_equal(points, ref_points)
        assert np.array_equal(columns, ref_columns)
        return min_counts, points, columns

    @pytest.mark.parametrize("q", [None, 7])
    def test_constant_sample_ties_every_pair(self, q):
        # every projection ties, so every pair survives every block and
        # every direction minimizes every point at count n
        sample = np.full((12, 2), 0.5)
        eval_scores = sample if q is None else np.full((q, 2), 0.5)
        k = 2 * _COUNT_BLOCK + 3
        coeff = np.random.default_rng(1).standard_normal((k, 2))
        min_counts, points, columns = self._assert_matches_reference(sample, eval_scores, coeff)
        q = eval_scores.shape[0]
        assert np.array_equal(min_counts, np.full(q, 12))
        assert np.array_equal(points, np.repeat(np.arange(q), k))
        assert np.array_equal(columns, np.tile(np.arange(k), q))

    @pytest.mark.parametrize("itself", [True, False])
    def test_minimizers_in_the_last_block(self, itself):
        # all sample projections on (1, 0) tie at count n, so until the last
        # block every pair survives; only the last 5 directions, all in the
        # last block, separate the points
        rng = np.random.default_rng(2)
        sample = np.column_stack([np.full(40, 2.0), rng.standard_normal(40)])
        eval_scores = sample if itself else np.column_stack(
            [np.full(30, 2.0), rng.standard_normal(30)]
        )
        k = 3 * _COUNT_BLOCK + 5
        coeff = np.tile([1.0, 0.0], (k, 1))
        coeff[-5:] = rng.standard_normal((5, 2))
        min_counts, points, columns = self._assert_matches_reference(sample, eval_scores, coeff)
        assert columns.min() >= k - 5
        rev_min, rev_points, rev_columns = self._assert_matches_reference(
            sample, eval_scores, coeff[::-1]
        )
        assert np.array_equal(rev_min, min_counts)
        assert rev_columns.max() < 5
        for i in range(min_counts.size):
            mirrored = np.sort(k - 1 - rev_columns[rev_points == i])
            assert np.array_equal(mirrored, columns[points == i])

    def test_first_direction_the_unique_minimizer(self):
        # along (1, 0) and (-1, 0) every eval point ties with the whole
        # sample (count n); along direction 0, (0, 1), every count is
        # below n, so the seeded bound is already every point's minimum
        y = np.arange(20.0)
        sample = np.column_stack([np.full(20, 3.0), y])
        eval_scores = np.column_stack([np.full(25, 3.0), np.linspace(0.5, 21.0, 25)])
        k = 2 * _COUNT_BLOCK + 1
        coeff = np.tile([[1.0, 0.0], [-1.0, 0.0]], (k, 1))[:k]
        coeff[0] = [0.0, 1.0]
        min_counts, points, columns = self._assert_matches_reference(sample, eval_scores, coeff)
        assert np.array_equal(points, np.arange(25))
        assert not columns.any()
        assert np.array_equal(min_counts, 20 - np.searchsorted(y, eval_scores[:, 1]))

    @given(
        n=st.integers(1, 25),
        q=st.integers(1, 25),
        J=st.integers(1, 3),
        k=st.integers(1, 2 * _COUNT_BLOCK + 9),
        itself=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_tied_integer_scores(self, n, q, J, k, itself, seed):
        # integer scores and directions: exact projections with many ties,
        # among points and among directions (zero rows included)
        rng = np.random.default_rng(seed)
        sample = rng.integers(-2, 3, size=(n, J)).astype(float)
        eval_scores = sample if itself else rng.integers(-3, 4, size=(q, J)).astype(float)
        coeff = rng.integers(-2, 3, size=(k, J)).astype(float)
        self._assert_matches_reference(sample, eval_scores, coeff)

    def test_minimizing_directions_map_to_the_pool(self):
        sample, eval_scores, coeff = _kernel_case("ties_eval", _COUNT_BLOCK + 1)
        # about half the pool accepted, at scattered indices
        norms = np.random.default_rng(0).permutation(coeff.shape[0]) + 1.0
        dirs = DirectionSet(coeff, norms, proposal_size=norms.size)
        lam = float(coeff.shape[0] // 2)
        accepted = dirs.accepted(lam)
        res = depth_from_scores(dirs, lam, sample, eval_scores)
        ref_min, ref_points, ref_columns = _reference_min_counts(
            sample, eval_scores, coeff[accepted]
        )
        assert np.array_equal(res.depths, ref_min / sample.shape[0])
        assert len(res.minimizing_directions) == eval_scores.shape[0]
        for i, found in enumerate(res.minimizing_directions):
            assert np.array_equal(found, accepted[ref_columns[ref_points == i]])

    def test_kernel_order_visits_the_data_rows_before_the_proposals(self):
        # 5 proposals, then 3 data rows; the order is over accepted columns
        norms = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 2.0, 9.0, 6.0])
        dirs = DirectionSet(np.ones((8, 1)), norms, proposal_size=5)
        orders = {lam: _kernel_order(dirs, dirs.accepted(lam)) for lam in (np.inf, 2.0, 1.5, 5.5)}
        # k=8 ends in a one-column block, so column 7 stays last
        assert orders[np.inf].tolist() == [0, 5, 6, 1, 2, 3, 4, 7]
        assert orders[5.5].tolist() == [0, 5, 1, 2, 3, 4]
        assert dirs.accepted(2.0)[orders[2.0]].tolist() == [1, 5, 3]
        # no data row accepted, or no proposal after the first: the accepted order
        assert orders[1.5].tolist() == [0, 1]
        only_data = DirectionSet(np.ones((4, 1)), np.array([9.0, 1.0, 2.0, 3.0]), proposal_size=1)
        assert _kernel_order(only_data, only_data.accepted(5.0)).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("k", [2, 3, 4, 63, _COUNT_BLOCK, 127, 2 * _COUNT_BLOCK, 300])
    def test_kernel_order_keeps_one_column_blocks_in_place(self, k):
        # the front half proposals, the back half data rows
        proposals = max(1, k // 2)
        dirs = DirectionSet(np.ones((k, 1)), np.ones(k), proposal_size=proposals)
        order = _kernel_order(dirs, np.arange(k))
        alone = [lo for lo, hi in _blocks(k) if hi - lo == 1]
        # the first column and, exactly when k ends a block of one, the last
        assert alone == ([0, k - 1] if k in (2, 4) or k % _COUNT_BLOCK == 0 else [0])
        assert order[alone].tolist() == alone
        moved = np.delete(order, alone).tolist()
        rest = [c for c in range(k) if c not in alone]
        assert moved == [c for c in rest if c >= proposals] + [c for c in rest if c < proposals]

    @pytest.mark.parametrize("n, M", [(40, 24), (40, 88), (200, 56)])
    def test_eval_copies_of_sample_curves_count_as_in_accepted_order(self, n, M):
        # k = M + n is a multiple of _COUNT_BLOCK, so the last data row is
        # alone in the last block. Its evaluation projections come from a
        # matrix-vector product, which rounds unlike a matrix product, so
        # a curve evaluated against itself can count itself on its own data
        # row or not. Keeping that column last gives the bytes of the
        # accepted order, where it is last too.
        rng = np.random.default_rng(n + M)
        sample = rng.standard_normal((n, 10)) * np.linspace(2.0, 0.3, 10)
        proposals = rng.standard_normal((M, 10))
        data = sample - sample.mean(axis=0)
        coeff = np.vstack([proposals, data])
        coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
        dirs = DirectionSet(coeff, np.ones(M + n), proposal_size=M)
        eval_scores = sample[::-1].copy()  # every curve, not the sample's array
        res = depth_from_scores(dirs, np.inf, sample, eval_scores)
        min_counts, (points, columns) = _min_counts(
            sample @ coeff.T, np.arange(M + n), eval_scores, coeff
        )
        assert np.array_equal(res.depths, min_counts / n)
        for i, found in enumerate(res.minimizing_directions):
            assert np.array_equal(found, columns[points == i])

    @pytest.mark.parametrize("itself", [True, False])
    def test_data_row_and_proposal_tie_ascending(self, itself):
        # J=1: proposals +1, +1, -1, +1 and data rows -1, +1. At lambda=inf
        # the kernel visits 0, 4, 5, 1, 2, 3, so the curve at -1 meets its
        # data row 4 before its tied proposal 2; it reports them ascending.
        coeff = np.array([[1.0], [1.0], [-1.0], [1.0], [-1.0], [1.0]])
        dirs = DirectionSet(coeff, np.ones(6), proposal_size=4)
        sample = np.array([[-1.0], [0.0], [1.0]])
        eval_scores = sample if itself else np.array([[-1.0], [0.5], [1.0], [-3.0]])
        res = depth_from_scores(dirs, np.inf, sample, eval_scores)
        assert _kernel_order(dirs, dirs.accepted(np.inf)).tolist() == [0, 4, 5, 1, 2, 3]
        assert res.minimizing_directions[0].tolist() == [2, 4]
        ref_min, ref_points, ref_columns = _reference_min_counts(sample, eval_scores, coeff)
        assert np.array_equal(res.depths, ref_min / 3)
        for i, found in enumerate(res.minimizing_directions):
            assert np.array_equal(found, ref_columns[ref_points == i])

    def test_eval_pass_holds_no_projection_matrix(self):
        # the depth_mixed eval shape: 4000 curves against 500 at J=10, with
        # the M=2000 proposals and 500 data directions all accepted
        n, q, J, k = 500, 4000, 10, 2500
        rng = np.random.default_rng(0)
        sample, eval_scores = rng.standard_normal((n, J)), rng.standard_normal((q, J))
        coeff = rng.standard_normal((k, J))
        tracemalloc.start()
        try:
            proj_sample = sample @ coeff.T
            held = tracemalloc.get_traced_memory()[0]
            _min_counts(proj_sample, np.arange(k), eval_scores, coeff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < q * k * np.dtype(float).itemsize
        # nor a (k, q) matrix of counts: the kernel's own allocations stay
        # below the size of one in uint16, the smallest type that holds n
        assert peak - held < k * q * np.dtype(np.uint16).itemsize

    def test_empty_eval_set(self):
        dirs = _pool([[1.0], [-1.0]], [1.0])
        res = depth_from_scores(dirs, 10.0, np.zeros((3, 1)), np.zeros((0, 1)))
        assert res.depths.shape == (0,)
        assert res.minimizing_directions == ()


class TestSortedBlocks:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 63, 64, 127, 128, 300])
    @pytest.mark.parametrize("tied", [False, True])
    def test_blocks_cover_each_column_once(self, k, tied):
        rng = np.random.default_rng(k)
        proj = rng.integers(-2, 3, size=(20, k)) if tied else rng.standard_normal((20, k))
        proj = proj.astype(float)
        blocks = list(_column_blocks(proj, np.arange(k)))
        widths = [rows.shape[0] for _, rows in blocks]
        assert np.array_equal(np.hstack([at for at, _ in blocks]), np.arange(k))
        assert all(at.size == w for (at, _), w in zip(blocks, widths))
        # 1, 2, 4, ..., _COUNT_BLOCK, _COUNT_BLOCK, ..., the last one cut short
        full = [min(2**b, _COUNT_BLOCK) for b in range(len(blocks))]
        assert widths[:-1] == full[:-1] and 1 <= widths[-1] <= full[-1]
        # each block a contiguous copy of its columns, which its reader may sort
        assert all(rows.flags.c_contiguous and rows.base is None for _, rows in blocks)
        assert np.array_equal(np.vstack([rows for _, rows in blocks]), proj.T)
        # A visit order takes each column where the visit puts it, in
        # blocks of the same widths.
        visit = np.arange(k)[::-1]  # later columns first
        visited = list(_column_blocks(proj, visit))
        assert [rows.shape[0] for _, rows in visited] == widths
        assert np.array_equal(np.hstack([at for at, _ in visited]), visit)
        assert all(rows.flags.c_contiguous for _, rows in visited)
        assert np.array_equal(np.vstack([rows for _, rows in visited]), proj.T[visit])

    @pytest.mark.parametrize("k", [1, 3, 64, 300])
    @pytest.mark.parametrize("tied", [False, True])
    def test_column_tops_sort_the_block_after_the_first_top(self, k, tied):
        rng = np.random.default_rng(k)
        proj = rng.integers(-2, 3, size=(20, k)) if tied else rng.standard_normal((20, k))
        proj = proj.astype(float)
        blocks = list(_column_blocks(proj, np.arange(k)))
        q1, q3, top, tops, top_tied = map(np.hstack, zip(*(_column_tops(*b) for b in blocks)))
        # the first largest row of each column, taken before the sort
        assert np.array_equal(tops, proj.argmax(axis=0))
        assert np.array_equal(np.vstack([rows for _, rows in blocks]), np.sort(proj.T, axis=1))
        assert np.array_equal(top, proj.max(axis=0))
        assert np.array_equal(top_tied, (proj == proj.max(axis=0)).sum(axis=0) > 1)


class TestKernelQuartiles:
    """The fences' Q1 and Q3 are NumPy's linear percentiles of the one
    projection product, the count kernel's, bit for bit. At n = 4, 5, 6, 7
    the Q1 lerp weight t is 0.75, 0, 0.25 and 0.5, so both lerp forms are
    reached."""

    @pytest.mark.parametrize("k", [1, _COUNT_BLOCK, _COUNT_BLOCK + 1])
    @pytest.mark.parametrize(
        "name", ["n=4", "n=5", "n=6", "n=7", "ties_self", "integer_plane", "duplicated"]
    )
    def test_match_linear_percentile(self, name, k):
        if name.startswith("n="):
            rng = np.random.default_rng(k)
            sample = rng.standard_normal((int(name[2:]), 3))
            coeff = rng.standard_normal((k, 3))
        else:
            sample, _, coeff = _kernel_case(name, k)
        J = sample.shape[1]
        eig, dirs = _toy_eigensystem(np.ones(J), sample), _pool(coeff, np.ones(J))
        accepted, proj = _accepted_projections(dirs, np.inf, eig.scores)
        assert np.array_equal(accepted, np.arange(k))
        assert np.array_equal(proj, sample @ coeff.T)
        ref_q1, ref_q3 = np.percentile(proj, [25.0, 75.0], axis=0)
        fences = detect_outliers(eig, dirs, np.inf, 1.5).fences
        assert fences
        assert [f.q1 for f in fences] == ref_q1[[f.direction for f in fences]].tolist()
        assert [f.q3 for f in fences] == ref_q3[[f.direction for f in fences]].tolist()
        # every direction's quartiles, not only the candidates' directions
        all_q1, all_q3 = _sorted_quartiles(np.sort(proj.T, axis=1))
        assert np.array_equal(all_q1, ref_q1)
        assert np.array_equal(all_q3, ref_q3)

    def test_self_depth_result_is_a_plain_depth_result(self):
        sample, _, coeff = _kernel_case("self", 3)
        res = depth_from_scores(_pool(coeff, [1.0, 1.0, 1.0]), np.inf, sample, sample)
        assert type(res) is DepthResult
