"""Boxplot-fence outlier detection and fence-factor calibration."""

import numpy as np
import pytest

from rhdepth import (
    FACTOR_GRID,
    FunctionalSample,
    RankError,
    RegularizationSpec,
    calibrate_factor,
    detect_outliers,
    draw_directions,
    fit_fpca,
    generate_inliers,
    make_uniform_grid,
    resolve_lambda,
)
from rhdepth.outlier import FenceRecord
from rhdepth.rhd import depth_from_scores


def _fitted(sample, J=6, M=1000, u=0.5, seed=0):
    eig = fit_fpca(sample, J)
    dirs = draw_directions(eig, J, M, seed)
    lam = resolve_lambda(RegularizationSpec.from_quantile(u), dirs)
    return eig, dirs, lam


def _reference_fences(eig, dirs, lam, factor):
    """Fence records and final flags, one percentile call per
    (candidate, minimizing direction) pair. The projections are columns of
    one matmul over the accepted directions, the product the count kernel
    takes; a per-direction matvec can round differently by an ulp."""
    result = depth_from_scores(dirs, lam, eig.scores, eig.scores)
    candidates = np.flatnonzero(result.depths == result.depths.min())
    accepted = dirs.accepted(lam)
    projections = eig.scores[:, : dirs.truncation] @ dirs.coefficients[accepted].T
    records, flagged = [], set()
    for i0 in candidates:
        for m in result.minimizing_directions[i0]:
            proj = projections[:, np.searchsorted(accepted, m)]
            q1, q3 = np.percentile(proj, [25.0, 75.0])
            iqr = q3 - q1
            lower, upper = q1 - factor * iqr, q3 + factor * iqr
            outside = np.flatnonzero((proj < lower) | (proj > upper))
            records.append(
                FenceRecord(
                    int(i0), int(m), float(q1), float(q3), float(iqr),
                    float(lower), float(upper), tuple(int(i) for i in outside),
                )
            )
            flagged.update(int(i) for i in outside)
    return records, tuple(sorted(flagged & set(candidates.tolist())))


def _contaminated(n, seed):
    """n - 1 inliers and one curve shifted by 6 pointwise SDs."""
    s = generate_inliers(n - 1, seed=seed)
    shifted = s.values[0] + 6.0 * s.values.std(axis=0)
    return FunctionalSample(s.grid, np.vstack([s.values, shifted]))


class TestDetect:
    def test_identical_curves_refused_upstream(self):
        grid = make_uniform_grid(20)
        s = FunctionalSample(grid, np.tile(np.sin(grid.points), (8, 1)))
        with pytest.raises(RankError):
            fit_fpca(s, 1)

    def test_minimum_sample_size(self):
        s = generate_inliers(3, seed=0)
        eig, dirs, lam = _fitted(s, J=2, M=50)
        with pytest.raises(ValueError):
            detect_outliers(eig, dirs, lam, 3.0)

    def test_refuses_factor_without_finite_fences(self):
        eig, dirs, lam = _fitted(generate_inliers(30, seed=0), J=3, M=100)
        for factor in (0.0, -1.0, float("nan"), float("inf"), 1.7e308):
            with pytest.raises(ValueError, match="factor"):
                detect_outliers(eig, dirs, lam, factor)

    def test_shifted_curve_is_flagged(self):
        # one curve moved +10 pointwise SDs must be the unique flag
        hits = exact = 0
        trials = 100
        for r in range(trials):
            s = generate_inliers(400, seed=r, gaussian=True)
            sd = s.values.std(axis=0)
            vals = np.vstack([s.values, s.values[0] + 10.0 * sd])
            sample = FunctionalSample(s.grid, vals)
            eig, dirs, lam = _fitted(sample, seed=10_000 + r)
            report = detect_outliers(eig, dirs, lam, 3.0)
            hits += 400 in report.flagged
            exact += list(report.flagged) == [400]
        assert hits / trials >= 0.95
        assert exact / trials >= 0.95

    def test_flags_subset_of_candidates(self):
        for r in range(5):
            s = generate_inliers(100, seed=50 + r)
            eig, dirs, lam = _fitted(s, u=0.95, seed=60 + r)
            report = detect_outliers(eig, dirs, lam, 1.5)
            assert set(report.flagged) <= set(report.candidate_set)

    def test_candidates_attain_minimum_depth(self):
        s = generate_inliers(80, seed=70)
        eig, dirs, lam = _fitted(s, u=0.95, seed=71)
        report = detect_outliers(eig, dirs, lam, 3.0)
        dmin = report.depths.min()
        assert all(report.depths[i] == dmin for i in report.candidate_set)

    def test_flag_count_nonincreasing_in_factor(self):
        for r in range(5):
            s = generate_inliers(150, seed=80 + r)
            eig, dirs, lam = _fitted(s, u=0.95, seed=90 + r)
            prev = None
            for f in FACTOR_GRID:
                flagged = set(detect_outliers(eig, dirs, lam, f).flagged)
                if prev is not None:
                    assert flagged <= prev
                prev = flagged

    def test_fence_records_are_consistent(self):
        s = generate_inliers(60, seed=100)
        eig, dirs, lam = _fitted(s, u=0.95, seed=101)
        report = detect_outliers(eig, dirs, lam, 2.0)
        for fence in report.fences:
            assert fence.lower == pytest.approx(fence.q1 - 2.0 * fence.iqr)
            assert fence.upper == pytest.approx(fence.q3 + 2.0 * fence.iqr)
            assert fence.iqr == pytest.approx(fence.q3 - fence.q1)

    def test_deterministic(self):
        s = generate_inliers(120, seed=110)
        eig, dirs, lam = _fitted(s, u=0.95, seed=111)
        a = detect_outliers(eig, dirs, lam, 3.0)
        b = detect_outliers(eig, dirs, lam, 3.0)
        assert list(a.flagged) == list(b.flagged)
        assert np.array_equal(a.depths, b.depths)


class TestCalibrate:
    def test_returns_grid_factor_and_rates(self):
        s = generate_inliers(100, seed=120, gaussian=True)
        calib = calibrate_factor(
            s,
            J=4,
            M=300,
            spec=RegularizationSpec.from_quantile(0.95),
            B=5,
            seed=121,
            threads=1,
        )
        assert calib.factor in FACTOR_GRID
        assert set(calib.rates) == set(FACTOR_GRID)
        assert calib.achieved_rate == calib.rates[calib.factor]
        assert calib.B == 5

    def test_rates_nonincreasing_in_factor(self):
        s = generate_inliers(100, seed=122, gaussian=True)
        calib = calibrate_factor(
            s,
            J=4,
            M=300,
            spec=RegularizationSpec.from_quantile(0.95),
            B=5,
            seed=123,
            threads=1,
        )
        rates = [calib.rates[f] for f in FACTOR_GRID]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_thread_count_does_not_change_result(self):
        s = generate_inliers(100, seed=124, gaussian=True)
        kwargs = dict(
            J=4, M=300, spec=RegularizationSpec.from_quantile(0.95), B=6, seed=125
        )
        serial = calibrate_factor(s, threads=1, **kwargs)
        threaded = calibrate_factor(s, threads=4, **kwargs)
        assert serial.factor == threaded.factor
        assert serial.rates == threaded.rates


class TestBatchedFencesMatchPerPairReference:
    SEEDS = (200, 201, 202)

    def test_detect_outliers(self):
        any_flag = any_shared = False
        for seed in self.SEEDS:
            sample = _contaminated(150, seed)
            # Every curve twice: candidates come in pairs sharing directions.
            half = _contaminated(75, seed)
            doubled = FunctionalSample(half.grid, np.vstack([half.values, half.values]))
            for data in (sample, doubled):
                for u in (0.5, 0.95):
                    eig, dirs, lam = _fitted(data, M=500, u=u, seed=seed + 1)
                    for f in FACTOR_GRID:
                        report = detect_outliers(eig, dirs, lam, f)
                        records, flagged = _reference_fences(eig, dirs, lam, f)
                        assert report.flagged == flagged
                        assert list(report.fences) == records
                        any_flag = any_flag or bool(flagged)
                        directions = [r.direction for r in records]
                        any_shared = any_shared or len(set(directions)) < len(directions)
        assert any_flag and any_shared

    def test_calibration_rates(self):
        J, M, B = 6, 500, 3
        for seed in self.SEEDS:
            sample = _contaminated(150, seed)
            for u in (0.5, 0.95):
                spec = RegularizationSpec.from_quantile(u)
                calib = calibrate_factor(sample, J, M, spec, B, seed, threads=1)
                # The null datasets of calibrate_factor, drawn the same way.
                eig = fit_fpca(sample, J)
                per_dataset = []
                for child in np.random.SeedSequence(seed).spawn(B):
                    rng = np.random.default_rng(child)
                    z = rng.standard_normal((sample.n, J))
                    values = eig.mean + (z * np.sqrt(eig.eigenvalues)) @ eig.eigenfunctions
                    null_eig = fit_fpca(FunctionalSample(sample.grid, values), J)
                    null_dirs = draw_directions(null_eig, J, M, seed=int(rng.integers(2**63)))
                    null_lam = resolve_lambda(spec, null_dirs)
                    per_dataset.append(
                        [
                            len(_reference_fences(null_eig, null_dirs, null_lam, f)[1]) / sample.n
                            for f in FACTOR_GRID
                        ]
                    )
                rates = np.mean(per_dataset, axis=0)
                assert calib.rates == {float(f): float(r) for f, r in zip(FACTOR_GRID, rates)}
