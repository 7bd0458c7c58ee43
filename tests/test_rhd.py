"""Direction pools, lambda resolution, and approximate depth."""

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
    approximate_rhd,
    draw_directions,
    make_uniform_grid,
    naive_tukey_depth,
    resolve_lambda,
)
from rhdepth.funspace import fit_fpca
from rhdepth.rhd import _COUNT_BLOCK, _min_counts, depth_from_scores
from rhdepth.simlab import generate_inliers


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


def _pool(coefficients, eigenvalues, seed=0):
    coefficients = np.atleast_2d(np.asarray(coefficients, dtype=float))
    gamma = np.asarray(eigenvalues, dtype=float)
    norms = np.sqrt((coefficients**2 / gamma).sum(axis=1))
    return DirectionSet(
        truncation=coefficients.shape[1],
        coefficients=coefficients,
        rkhs_norms=norms,
        seed=seed,
    )


class TestDrawDirections:
    def test_one_dimensional_pool(self):
        eig = _toy_eigensystem([0.25])
        dirs = draw_directions(eig, 1, 50, seed=1)
        assert set(np.unique(dirs.coefficients)) <= {-1.0, 1.0}
        assert np.allclose(dirs.rkhs_norms, 1.0 / np.sqrt(0.25))

    def test_unit_vectors(self):
        eig = _toy_eigensystem([2.0, 0.5, 0.1])
        dirs = draw_directions(eig, 3, 200, seed=2)
        assert np.allclose(np.linalg.norm(dirs.coefficients, axis=1), 1.0)

    def test_equal_eigenvalues_uniform_on_circle(self):
        # isotropic proposal: the empirical mean direction is O(M^{-1/2})
        eig = _toy_eigensystem([0.7, 0.7])
        M = 100_000
        dirs = draw_directions(eig, 2, M, seed=3)
        assert np.abs(dirs.coefficients.mean(axis=0)).max() < 4.0 / np.sqrt(M)

    def test_seed_determinism(self):
        eig = _toy_eigensystem([1.0, 0.5])
        a = draw_directions(eig, 2, 1000, seed=9)
        b = draw_directions(eig, 2, 1000, seed=9)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.rkhs_norms, b.rkhs_norms)

    def test_proposal_rows_are_the_anisotropic_draw(self):
        s = generate_inliers(50, seed=21)
        eig = fit_fpca(s, 4)
        dirs = draw_directions(eig, 4, 300, seed=22)
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
        dirs = draw_directions(eig, 4, 300, seed=22)
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
        dirs = draw_directions(eig, 2, 40, seed=23)
        assert dirs.size == 42
        assert not np.isnan(dirs.coefficients).any()
        assert not np.isnan(dirs.rkhs_norms).any()
        res = depth_from_scores(dirs, np.inf, eig.scores, eig.scores)
        assert res.depths.min() >= 1.0 / 3
        one_row = draw_directions(_toy_eigensystem([1.0, 0.5]), 2, 40, seed=23)
        assert one_row.size == one_row.proposal_size == 40

    def test_proposal_size_checked(self):
        with pytest.raises(ValueError):
            DirectionSet(1, np.ones((3, 1)), np.ones(3), seed=0, proposal_size=4)

    def test_truncation_beyond_rank_rejected(self):
        s = generate_inliers(20, seed=0)
        eig = fit_fpca(s, 3)
        with pytest.raises(ValueError):
            draw_directions(eig, 4, 10, seed=0)


class TestResolveLambda:
    @staticmethod
    def _pool_with_norms(norms):
        norms = np.asarray(norms, dtype=float)
        return DirectionSet(
            truncation=1,
            coefficients=np.ones((norms.size, 1)),
            rkhs_norms=norms,
            seed=0,
        )

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

    def test_quantile_ignores_data_directions(self):
        s = generate_inliers(60, seed=24)
        eig = fit_fpca(s, 5)
        dirs = draw_directions(eig, 5, 400, seed=25)
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
        dirs = draw_directions(eig, 4, 300, seed=12)
        lam = resolve_lambda(RegularizationSpec.from_quantile(0.95), dirs)
        res = approximate_rhd(eig, dirs, lam, s)
        assert res.depths.min() >= 1.0 / s.n
        assert naive_tukey_depth(eig, dirs, s).depths.min() >= 1.0 / s.n

    def test_naive_equals_full_pool(self):
        s = generate_inliers(40, seed=13)
        eig = fit_fpca(s, 3)
        dirs = draw_directions(eig, 3, 200, seed=14)
        lam = dirs.rkhs_norms.max()
        full = approximate_rhd(eig, dirs, lam, s)
        naive = naive_tukey_depth(eig, dirs, s)
        assert np.array_equal(full.depths, naive.depths)

    def test_depths_nonincreasing_in_nested_pools(self):
        s = generate_inliers(60, seed=15)
        eig = fit_fpca(s, 4)
        big = draw_directions(eig, 4, 2000, seed=16)
        lam = big.rkhs_norms.max() + 1.0
        prev = None
        for M in (100, 500, 2000):
            sub = DirectionSet(
                truncation=4,
                coefficients=big.coefficients[:M],
                rkhs_norms=big.rkhs_norms[:M],
                seed=16,
            )
            depths = approximate_rhd(eig, sub, lam, s).depths
            if prev is not None:
                assert np.all(depths <= prev)
            prev = depths

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_lambda_monotonicity_property(self, seed):
        rng = np.random.default_rng(seed)
        sample = rng.standard_normal((30, 3))
        dirs = _pool(
            rng.standard_normal((80, 3)), rng.uniform(0.1, 2.0, size=3), seed=seed
        )
        norms = np.sort(dirs.rkhs_norms)
        lam1, lam2 = norms[20], norms[60]
        d1 = depth_from_scores(dirs, lam1, sample, sample).depths
        d2 = depth_from_scores(dirs, lam2, sample, sample).depths
        assert np.all(d1 >= d2)

    def test_accepted_count_reported(self):
        s = generate_inliers(30, seed=17)
        eig = fit_fpca(s, 3)
        dirs = draw_directions(eig, 3, 400, seed=18)
        lam = resolve_lambda(RegularizationSpec.from_quantile(0.7), dirs)
        res = approximate_rhd(eig, dirs, lam, s)
        assert res.accepted_count == int((dirs.rkhs_norms <= lam).sum())
        assert res.lambda_used == lam
        assert res.n == 30


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


class TestCountKernel:
    @pytest.mark.parametrize("k", [1, _COUNT_BLOCK, _COUNT_BLOCK + 1, 3 * _COUNT_BLOCK + 5])
    @pytest.mark.parametrize("name", _KERNEL_CASES)
    def test_matches_per_direction_search(self, name, k):
        sample, eval_scores, coeff = _kernel_case(name, k)
        ref_min, ref_points, ref_columns = _reference_min_counts(sample, eval_scores, coeff)
        min_counts, (points, columns), _ = _min_counts(sample, eval_scores, coeff)
        assert np.array_equal(min_counts, ref_min)
        assert np.array_equal(points, ref_points)
        assert np.array_equal(columns, ref_columns)

    def test_minimizing_directions_map_to_the_pool(self):
        sample, eval_scores, coeff = _kernel_case("ties_eval", _COUNT_BLOCK + 1)
        # about half the pool accepted, at scattered indices
        norms = np.random.default_rng(0).permutation(coeff.shape[0]) + 1.0
        dirs = DirectionSet(1, coeff, norms, seed=0)
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

    def test_eval_pass_holds_no_projection_matrix(self):
        # the depth_mixed eval shape: 4000 curves against 500 at J=10, with
        # the M=2000 proposals and 500 data directions all accepted
        n, q, J, k = 500, 4000, 10, 2500
        rng = np.random.default_rng(0)
        sample, eval_scores = rng.standard_normal((n, J)), rng.standard_normal((q, J))
        coeff = rng.standard_normal((k, J))
        tracemalloc.start()
        try:
            _min_counts(sample, eval_scores, coeff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < q * k * np.dtype(float).itemsize

    def test_empty_eval_set(self):
        dirs = _pool([[1.0], [-1.0]], [1.0])
        res = depth_from_scores(dirs, 10.0, np.zeros((3, 1)), np.zeros((0, 1)))
        assert res.depths.shape == (0,)
        assert res.minimizing_directions == ()


class TestKernelQuartiles:
    """The self-depth pass's Q1 and Q3 are NumPy's linear percentiles of its
    own projection product, bit for bit. At n = 4, 5, 6, 7 the Q1 lerp
    weight t is 0.75, 0, 0.25 and 0.5, so both lerp forms are reached."""

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
        _, _, (proj, q1, q3) = _min_counts(sample, sample, coeff)
        assert np.array_equal(proj, sample @ coeff.T)
        ref_q1, ref_q3 = np.percentile(proj, [25.0, 75.0], axis=0)
        assert np.array_equal(q1, ref_q1)
        assert np.array_equal(q3, ref_q3)

    def test_only_a_self_depth_pass_gives_quartiles(self):
        sample, eval_scores, coeff = _kernel_case("eval", 3)
        assert _min_counts(sample, eval_scores, coeff)[2] is None
        empty = np.zeros((0, 3))
        assert _min_counts(empty, empty, coeff)[2] is None
        dirs = _pool(coeff, [1.0, 1.0, 1.0])
        res = depth_from_scores(dirs, np.inf, sample, sample)
        assert np.array_equal(res.accepted, np.arange(3))
        assert np.array_equal(res.projections, sample @ coeff.T)
