"""Ranks, detection metrics, the exact 2-D oracle, and ROC tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhdepth import (
    RegularizationSpec,
    ScenarioSpec,
    detection_metrics,
    draw_directions,
    fit_fpca,
    generate_inliers,
    generate_scenario,
    normalized_ranks,
    resolve_lambda,
    roc_table,
    tukey_depth_2d_exact,
)
from rhdepth.evalkit import DetectionMetrics
from rhdepth.outlier import detect_outliers
from rhdepth.rhd import depth_from_scores


class TestNormalizedRanks:
    def test_ties_take_minimum(self):
        table = normalized_ranks([0.1, 0.1, 0.3])
        assert list(table.ranks) == [1, 1, 3]
        assert np.allclose(table.normalized, [1 / 3, 1 / 3, 1.0])

    def test_strictly_increasing(self):
        table = normalized_ranks([0.1, 0.2, 0.3, 0.4])
        assert list(table.ranks) == [1, 2, 3, 4]

    def test_all_equal(self):
        table = normalized_ranks([0.2, 0.2, 0.2])
        assert list(table.ranks) == [1, 1, 1]

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=40),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_increasing_transforms(self, grid_depths, a):
        depths = [k / 1000 for k in grid_depths]
        base = normalized_ranks(depths)
        warped = normalized_ranks([a * d + 1.0 for d in depths])
        assert np.array_equal(base.ranks, warped.ranks)
        cubed = normalized_ranks([d**3 for d in depths])
        assert np.array_equal(base.ranks, cubed.ranks)


class TestDetectionMetrics:
    LABELS = ["inlier"] * 9 + ["magnitude"]

    def test_perfect(self):
        m = detection_metrics([9], self.LABELS)
        assert m.p_c == 1.0 and m.p_f == 0.0

    def test_empty(self):
        m = detection_metrics([], self.LABELS)
        assert m.p_c == 0.0 and m.p_f == 0.0

    def test_one_wrong_inlier(self):
        m = detection_metrics([0], self.LABELS)
        assert m.p_c == 0.0
        assert m.p_f == pytest.approx(1 / 9)

    def test_no_outliers_in_truth(self):
        m = detection_metrics([1], ["inlier"] * 5)
        assert m.p_c == 0.0
        assert m.p_f == pytest.approx(1 / 5)

    def test_matches_set_based_form(self):
        rng = np.random.default_rng(11)
        kinds = ["inlier", "magnitude", "jump"]
        for trial in range(300):
            n = int(rng.integers(1, 40))
            share = (0.0, 1.0, rng.uniform())[trial % 3]  # all-inlier, all-outlier, mixed
            outlier = rng.uniform(size=n) < share
            labels = [kinds[1 + int(rng.integers(2))] if o else "inlier" for o in outlier]
            flagged = rng.integers(n, size=int(rng.integers(0, 2 * n + 1)))  # repeats too
            for indices in (flagged, flagged.tolist()):
                assert detection_metrics(indices, labels) == _set_based_metrics(flagged, labels)

    @pytest.mark.parametrize("index", [1.7, 1.0, "1", np.float64(2.0)])
    def test_refuses_non_integer_indices(self, index):
        with pytest.raises(TypeError):
            detection_metrics([0, index], self.LABELS)

    @pytest.mark.parametrize("index", [-1, 10, np.int64(10)])
    def test_refuses_indices_out_of_range(self, index):
        with pytest.raises(ValueError, match="out of range"):
            detection_metrics([index], self.LABELS)

    def test_numpy_integers_pass(self):
        m = detection_metrics([np.int64(9), np.intp(0), np.uint8(9)], self.LABELS)
        assert m == DetectionMetrics(p_c=1.0, p_f=1 / 9, n_outliers=1, n_inliers=9)


def _set_based_metrics(flagged, labels):
    """detection_metrics in its earlier form: sets of every outlier and inlier index."""
    flagged = set(int(i) for i in flagged)
    outliers = {i for i, lab in enumerate(labels) if lab != "inlier"}
    inliers = set(range(len(labels))) - outliers
    return DetectionMetrics(
        p_c=len(flagged & outliers) / len(outliers) if outliers else 0.0,
        p_f=len(flagged & inliers) / len(inliers) if inliers else 0.0,
        n_outliers=len(outliers),
        n_inliers=len(inliers),
    )


class TestExact2dOracle:
    DIAMOND = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])

    def test_center_of_diamond(self):
        assert tukey_depth_2d_exact(self.DIAMOND, [0.0, 0.0]) == 0.5

    def test_hull_vertex(self):
        assert tukey_depth_2d_exact(self.DIAMOND, [1.0, 0.0]) == 0.25

    def test_outside_hull(self):
        assert tukey_depth_2d_exact(self.DIAMOND, [5.0, 5.0]) == 0.0

    def test_single_point(self):
        assert tukey_depth_2d_exact(np.array([[0.0, 0.0]]), [0.0, 0.0]) == 1.0

    @staticmethod
    def _brute_force(points, x):
        diffs = points - np.asarray(x, dtype=float)
        critical = np.arctan2(diffs[:, 1], diffs[:, 0])
        angles = np.concatenate(
            [
                critical + np.pi / 2,
                critical - np.pi / 2,
                np.linspace(0.0, 2 * np.pi, 3600, endpoint=False),
            ]
        )
        v = np.column_stack([np.cos(angles), np.sin(angles)])
        counts = (diffs @ v.T >= -1e-12).sum(axis=0)
        return counts.min() / len(points)

    def test_matches_dense_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            pts = rng.standard_normal((20, 2))
            for x in [pts[0], pts.mean(axis=0), rng.standard_normal(2)]:
                exact = tukey_depth_2d_exact(pts, x)
                brute = self._brute_force(pts, x)
                assert exact == pytest.approx(brute, abs=1e-12)
        # Integer points: repeated points, collinear triples, and x at a
        # sample point or on the integer lattice among them.
        for trial in range(40):
            pts = rng.integers(-3, 4, (15, 2)).astype(float)
            for x in [pts[trial % 15], rng.integers(-3, 4, 2).astype(float)]:
                exact = tukey_depth_2d_exact(pts, x)
                brute = self._brute_force(pts, x)
                assert exact == pytest.approx(brute, abs=1e-12)


def _regularized_depth_2d_exact(points, x, gamma, lam):
    """Exact depth of x over the unit directions (cos t, sin t) whose RKHS
    norm sqrt(cos^2 t/gamma_1 + sin^2 t/gamma_2) is at most lam.

    The angle sweep of tukey_depth_2d_exact, restricted to the arcs where
    sin^2 t <= s, s = (lam^2 - 1/gamma_1) / (1/gamma_2 - 1/gamma_1): the
    count is constant between critical angles and arc endpoints, so it is
    evaluated at the midpoints between them and at the endpoints, keeping
    only angles inside the arcs.
    """
    g1, g2 = gamma
    assert g1 > g2
    d = points - x
    d_nz = d[np.any(d != 0.0, axis=1)]
    alpha = np.arctan2(d_nz[:, 1], d_nz[:, 0])
    s = (lam**2 - 1 / g1) / (1 / g2 - 1 / g1)
    ends = np.empty(0)
    if 0 <= s < 1:
        a = np.arcsin(np.sqrt(s))
        ends = np.array([-a, a, np.pi - a, np.pi + a])
    two_pi = 2.0 * np.pi
    breaks = np.unique(np.mod(np.concatenate([alpha + np.pi / 2, alpha - np.pi / 2, ends]), two_pi))
    mids = (breaks + np.roll(breaks, -1)) / 2.0
    mids[-1] = breaks[-1] + (breaks[0] + two_pi - breaks[-1]) / 2.0
    angles = np.concatenate([mids, ends])
    units = np.vstack([np.cos(angles), np.sin(angles)])
    inside = np.sqrt(units[0] ** 2 / g1 + units[1] ** 2 / g2) <= lam
    return (d @ units[:, inside] >= 0.0).sum(axis=0).min() / len(points)


class TestRegularizedExact2dOracle:
    """The random pool bounds the regularized depth from above: at a finite
    lambda, every accepted pool direction lies on the allowed arcs, so the
    pool depth is at least the exact minimum over those arcs."""

    def test_pool_depth_bounds_exact_regularized_depth(self):
        restriction_bites = False
        for r in range(5):
            sample = generate_inliers(100, seed=700 + r)
            eig = fit_fpca(sample, 2)
            dirs = draw_directions(eig, 1000, seed=800 + r)
            scores = eig.scores[:, :2]
            for u in (0.5, 0.95):
                lam = resolve_lambda(RegularizationSpec.from_quantile(u), dirs)
                pool = depth_from_scores(dirs, lam, scores, scores).depths
                for i, x in enumerate(scores):
                    exact = _regularized_depth_2d_exact(scores, x, eig.eigenvalues, lam)
                    assert pool[i] >= exact
                    unrestricted = _regularized_depth_2d_exact(scores, x, eig.eigenvalues, np.inf)
                    restriction_bites |= exact > unrestricted
        assert restriction_bites

    def test_matches_exact_oracle_and_dense_sweep(self):
        rng = np.random.default_rng(43)
        gamma = (1.0, 0.25)
        angles = np.linspace(0.0, 2 * np.pi, 20_000, endpoint=False)
        units = np.vstack([np.cos(angles), np.sin(angles)])
        norms = np.sqrt(units[0] ** 2 / gamma[0] + units[1] ** 2 / gamma[1])
        for trial in range(5):
            pts = rng.standard_normal((30, 2)) * np.sqrt(gamma)
            for x in (pts[0], pts.mean(axis=0), rng.standard_normal(2)):
                unrestricted = _regularized_depth_2d_exact(pts, x, gamma, np.inf)
                assert unrestricted == tukey_depth_2d_exact(pts, x)
                for lam in (1.1, 1.5, 1.9):
                    dense = ((pts - x) @ units[:, norms <= lam] >= 0.0).sum(axis=0).min()
                    assert _regularized_depth_2d_exact(pts, x, gamma, lam) == dense / 30


class TestRocTable:
    SPEC = ScenarioSpec(
        n_inliers=60, outlier_counts={"magnitude": 1, "jump": 1}, seed=0
    )

    def _rows(self):
        return roc_table(
            self.SPEC,
            J=4,
            M=200,
            replicates=3,
            seed=7,
            u_grid=(0.5, 0.95),
            factor_grid=(1.5, 2.0, 2.5, 3.0, 3.5),
            threads=1,
        )

    def test_five_rows_per_quantile_level(self):
        rows = self._rows()
        assert len(rows) == 10
        for u in (0.5, 0.95):
            assert sum(r["u"] == u for r in rows) == 5

    def test_false_flag_rate_nonincreasing_in_factor(self):
        rows = self._rows()
        for u in (0.5, 0.95):
            pf = [r["p_f"] for r in rows if r["u"] == u]
            assert all(a >= b for a, b in zip(pf, pf[1:]))

    def test_deterministic_and_thread_invariant(self):
        a = self._rows()
        b = self._rows()
        assert a == b
        c = roc_table(
            self.SPEC,
            J=4,
            M=200,
            replicates=3,
            seed=7,
            u_grid=(0.5, 0.95),
            factor_grid=(1.5, 2.0, 2.5, 3.0, 3.5),
            threads=4,
        )
        assert a == c

    def test_refuses_a_bad_factor_before_any_replicate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr("rhdepth.evalkit.generate_scenario", refuse)
        with pytest.raises(ValueError, match="^factor 0.0 must be positive and finite$"):
            roc_table(self.SPEC, 4, 200, 3, seed=7, factor_grid=(1.5, 0.0))

    def test_values_match_per_replicate_reference(self):
        # Each replicate's RNG draws the scenario seed, then the pool seed; a
        # cell is the 1-D mean of its per-replicate rates. Nine or more
        # replicates pin NumPy's pairwise summation order as well.
        J, M, replicates, seed = 4, 200, 9, 7
        u_grid, factor_grid = (0.5, 0.95), (1.5, 2.0, 2.5, 3.0, 3.5)
        per_cell = {(u, f): [] for u in u_grid for f in factor_grid}
        for child in np.random.SeedSequence(seed).spawn(replicates):
            rng = np.random.default_rng(child)
            spec = ScenarioSpec(
                n_inliers=60,
                outlier_counts={"magnitude": 1, "jump": 1},
                seed=int(rng.integers(2**63)),
            )
            sample, labels = generate_scenario(spec)
            eig = fit_fpca(sample, J)
            dirs = draw_directions(eig, M, seed=int(rng.integers(2**63)))
            for u in u_grid:
                lam = resolve_lambda(RegularizationSpec.from_quantile(u), dirs)
                for f in factor_grid:
                    flagged = detect_outliers(eig, dirs, lam, f).flagged
                    per_cell[(u, f)].append(detection_metrics(flagged, labels))
        expected = [
            {
                "u": u,
                "f": f,
                "p_c": float(np.mean([m.p_c for m in metrics])),
                "p_f": float(np.mean([m.p_f for m in metrics])),
                "replicates": replicates,
            }
            for (u, f), metrics in per_cell.items()
        ]
        rows = roc_table(
            self.SPEC, J, M, replicates, seed, u_grid=u_grid, factor_grid=factor_grid
        )
        assert rows == expected
