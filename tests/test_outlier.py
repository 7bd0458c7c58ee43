"""Boxplot-fence outlier detection and fence-factor calibration."""

import dataclasses
import re
import threading
import tracemalloc

import numpy as np
import pytest

from rhdepth import (
    FACTOR_GRID,
    OUTLIER_KINDS,
    DirectionSet,
    FunctionalSample,
    RankError,
    RegularizationSpec,
    ScenarioSpec,
    calibrate_factor,
    detect_outliers,
    draw_directions,
    fit_fpca,
    generate_inliers,
    generate_scenario,
    make_uniform_grid,
    resolve_lambda,
)
from rhdepth import rhd
from rhdepth import EmptyPoolError
from rhdepth.funspace import fit_fpca_coordinates
from rhdepth import evalkit
from rhdepth.outlier import FenceRecord, flag_sweep, parallel_map
from rhdepth.rhd import _candidate_fences, _sorted_quartiles, depth_from_scores


def _fitted(sample, J=6, M=1000, u=0.5, seed=0):
    eig = fit_fpca(sample, J)
    dirs = draw_directions(eig, M, seed)
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
    projections = eig.scores @ dirs.coefficients[accepted].T
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
        minimal = np.flatnonzero(report.depths == report.depths.min())
        assert set(report.candidate_set) == set(minimal.tolist())

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
            fit_fpca(s, 4),
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
            fit_fpca(s, 4),
            M=300,
            spec=RegularizationSpec.from_quantile(0.95),
            B=5,
            seed=123,
            threads=1,
        )
        rates = [calib.rates[f] for f in FACTOR_GRID]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_minimum_sample_size_before_any_null_dataset(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a null dataset ran")

        monkeypatch.setattr("rhdepth.outlier.flag_sweep", refuse)
        spec = RegularizationSpec.from_quantile(0.5)
        with pytest.raises(ValueError, match="at least 4 curves"):
            calibrate_factor(fit_fpca(generate_inliers(3, seed=0), 2), 50, spec, B=10, seed=1)

    def test_thread_count_does_not_change_result(self):
        eig = fit_fpca(generate_inliers(100, seed=124, gaussian=True), 4)
        kwargs = dict(M=300, spec=RegularizationSpec.from_quantile(0.95), B=6, seed=125)
        serial = calibrate_factor(eig, threads=1, **kwargs)
        threaded = calibrate_factor(eig, threads=4, **kwargs)
        assert serial.factor == threaded.factor
        assert serial.rates == threaded.rates


def _null_curves(eig, coords):
    """A null dataset built on the grid, as calibration once did."""
    return FunctionalSample(eig.grid, eig.mean + coords @ eig.eigenfunctions)


def _assert_close(got, expected):
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class TestScoreSpaceFit:
    """A null dataset fitted from its coordinates on the fitted
    eigenfunctions equals fit_fpca of its curves on the grid."""

    def test_matches_the_grid_fit_on_paper_case_nulls(self):
        spec95 = (RegularizationSpec.from_quantile(0.95),)
        compared = 0
        for rep in range(5):
            kind = OUTLIER_KINDS[rep % len(OUTLIER_KINDS)]
            spec = ScenarioSpec(n_inliers=400, outlier_counts={kind: 1}, seed=9_000_000 + rep)
            eig = fit_fpca(generate_scenario(spec)[0], 6)
            for child in np.random.SeedSequence(rep).spawn(10):
                rng = np.random.default_rng(child)
                coords = rng.standard_normal((eig.scores.shape[0], 6)) * np.sqrt(eig.eigenvalues)
                got = fit_fpca_coordinates(eig, coords)
                expected = fit_fpca(_null_curves(eig, coords), 6)
                rel = np.abs(got.eigenvalues - expected.eigenvalues) / expected.eigenvalues
                assert rel.max() <= 1e-12
                signs = np.sign(np.sum(got.eigenfunctions * expected.eigenfunctions, axis=1))
                _assert_close(got.eigenfunctions * signs[:, None], expected.eigenfunctions)
                _assert_close(got.scores * signs, expected.scores)
                _assert_close(got.mean, expected.mean)
                assert got.usable_rank == expected.usable_rank == 6
                seed = int(rng.integers(2**63))
                sweeps = [
                    _flags(flag_sweep(e, 1000, np.random.default_rng(seed), spec95), FACTOR_GRID)
                    for e in (got, expected)
                ]
                assert sweeps[0] == sweeps[1]
                compared += 1
        assert compared >= 50

    @pytest.mark.parametrize("case", ["zero-column", "constant", "tiny"])
    def test_rank_deficient_coordinates_raise_the_grid_fit_rank_error(self, case):
        eig = fit_fpca(_contaminated(60, 311), 4)
        coords = np.random.default_rng(312).standard_normal((60, 4))
        if case == "zero-column":
            coords[:, 2] = 0.0
        elif case == "constant":
            coords[:] = coords[0]
        else:
            # variation far below the floor that the mean's squared norm sets
            coords *= 1e-9
        with pytest.raises(RankError) as expected:
            fit_fpca(_null_curves(eig, coords), 4)
        with pytest.raises(RankError) as raised:
            fit_fpca_coordinates(eig, coords)
        assert str(raised.value) == str(expected.value)
        assert raised.value.usable_rank == (3 if case == "zero-column" else 0)


class TestBatchedFencesMatchPerPairReference:
    SEEDS = (200, 201, 202)

    def test_detect_outliers(self):
        any_flag = any_shared = False
        for seed in self.SEEDS:
            sample = _contaminated(150, seed)
            # Every curve twice: candidates come in pairs sharing directions.
            half = _contaminated(75, seed)
            doubled = FunctionalSample(half.grid, np.vstack([half.values, half.values]))
            # Integer values on a coarse scale: many curves repeat exactly.
            steps = np.round(sample.values / sample.values.std(axis=0))
            integer = FunctionalSample(sample.grid, steps)
            for data in (sample, doubled, integer):
                eig, dirs, _ = _fitted(data, M=500, seed=seed + 1)
                specs = [RegularizationSpec.from_quantile(u) for u in (0.5, 0.95)]
                for lam in [*(resolve_lambda(spec, dirs) for spec in specs), np.inf]:
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
                calib = calibrate_factor(fit_fpca(sample, J), M, spec, B, seed, threads=1)
                # The null datasets of calibrate_factor, drawn the same way.
                eig = fit_fpca(sample, J)
                per_dataset = []
                for child in np.random.SeedSequence(seed).spawn(B):
                    rng = np.random.default_rng(child)
                    z = rng.standard_normal((sample.n, J))
                    values = eig.mean + (z * np.sqrt(eig.eigenvalues)) @ eig.eigenfunctions
                    null_eig = fit_fpca(FunctionalSample(sample.grid, values), J)
                    null_dirs = draw_directions(null_eig, M, seed=int(rng.integers(2**63)))
                    null_lam = resolve_lambda(spec, null_dirs)
                    per_dataset.append(
                        [
                            len(_reference_fences(null_eig, null_dirs, null_lam, f)[1]) / sample.n
                            for f in FACTOR_GRID
                        ]
                    )
                rates = np.mean(per_dataset, axis=0)
                assert calib.rates == {float(f): float(r) for f, r in zip(FACTOR_GRID, rates)}


def _flags(sweep, factors):
    """The flag sets of a flag_sweep, per spec a tuple over the factors: at
    f, the candidates whose critical factor exceeds f."""
    return [tuple(tuple(c[critical > f].tolist()) for f in factors) for c, critical in sweep]


def _sweep_pool(sample, J, M, seed):
    """The eigensystem and pool flag_sweep builds from default_rng(seed)."""
    eig = fit_fpca(sample, J)
    return eig, draw_directions(eig, M, seed=int(np.random.default_rng(seed).integers(2**63)))


def test_fence_path_makes_no_count_kernel_call(monkeypatch):
    """Candidates and fences come from the top of each direction; only the
    per-curve depths of detect_outliers need the count kernel. It is patched
    under both names: outlier imports it from rhd."""
    sample = _contaminated(80, 300)
    eig, dirs = _sweep_pool(sample, 4, 300, 302)
    spec = RegularizationSpec.from_quantile(0.9)
    lam = resolve_lambda(spec, dirs)
    flags = tuple(_reference_fences(eig, dirs, lam, f)[1] for f in FACTOR_GRID)

    def refuse(*args):
        raise AssertionError("the count kernel ran")

    monkeypatch.setattr("rhdepth.rhd._min_counts", refuse)
    monkeypatch.setattr("rhdepth.outlier._min_counts", refuse)
    with pytest.raises(AssertionError, match="count kernel"):
        depth_from_scores(dirs, lam, eig.scores, eig.scores)
    rng = np.random.default_rng(302)
    assert _flags(flag_sweep(fit_fpca(sample, 4), 300, rng, (spec,)), FACTOR_GRID) == [flags]


def test_sweep_matches_per_lambda_detect_outliers():
    """One sweep over u = 0.5, 0.95 and lambda = inf reads the smaller
    lambdas' columns from the largest lambda's product; its flags equal
    those of a detect_outliers call per lambda, on the plain, doubled and
    integer-valued samples of TestBatchedFencesMatchPerPairReference."""
    specs = [RegularizationSpec.from_quantile(u) for u in (0.5, 0.95)]
    specs.append(RegularizationSpec.from_lambda(np.inf))
    for seed in TestBatchedFencesMatchPerPairReference.SEEDS:
        sample = _contaminated(150, seed)
        half = _contaminated(75, seed)
        doubled = FunctionalSample(half.grid, np.vstack([half.values, half.values]))
        steps = np.round(sample.values / sample.values.std(axis=0))
        integer = FunctionalSample(sample.grid, steps)
        for data in (sample, doubled, integer):
            eig, dirs = _sweep_pool(data, 6, 500, seed)
            lams = [resolve_lambda(spec, dirs) for spec in specs]
            expected = [
                tuple(detect_outliers(eig, dirs, lam, f).flagged for f in FACTOR_GRID)
                for lam in lams
            ]
            rng = np.random.default_rng(seed)
            assert _flags(flag_sweep(fit_fpca(data, 6), 500, rng, specs), FACTOR_GRID) == expected


def test_sweep_returns_ascending_candidates_and_their_critical_factors():
    """Per spec, the candidate set of detect_outliers at that spec's lambda,
    ascending, and one float critical factor per candidate."""
    sample = _contaminated(80, 300)
    specs = [RegularizationSpec.from_quantile(u) for u in (0.5, 0.95)]
    eig, dirs = _sweep_pool(sample, 4, 300, 302)
    sweep = flag_sweep(fit_fpca(sample, 4), 300, np.random.default_rng(302), specs)
    assert len(sweep) == len(specs)
    for spec, (candidates, critical) in zip(specs, sweep):
        report = detect_outliers(eig, dirs, resolve_lambda(spec, dirs), 3.0)
        assert tuple(candidates.tolist()) == report.candidate_set
        assert critical.dtype == float and critical.shape == candidates.shape


def test_sweep_refuses_a_lambda_below_every_norm():
    sample = _contaminated(60, 303)
    _, dirs = _sweep_pool(sample, 4, 200, 304)
    low = float(dirs.rkhs_norms.min()) / 2
    specs = (RegularizationSpec.from_quantile(0.5), RegularizationSpec.from_lambda(low))
    with pytest.raises(EmptyPoolError, match=re.escape(f"lambda={low!r}")) as raised:
        flag_sweep(fit_fpca(sample, 4), 200, np.random.default_rng(304), specs)
    assert raised.value.lam == low


def test_sweep_projects_once_for_all_lambdas(monkeypatch):
    """A flag_sweep makes one projection product however many specs it has."""
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    original = rhd._accepted_projections
    monkeypatch.setattr("rhdepth.rhd._accepted_projections", counted)
    specs = [RegularizationSpec.from_quantile(u) for u in (0.5, 0.7, 0.9, 0.95)]
    rng = np.random.default_rng(306)
    sweep = flag_sweep(fit_fpca(_contaminated(60, 305), 4), 200, rng, specs)
    assert len(sweep) == 4 and len(calls) == 1


def test_detect_outliers_projects_once(monkeypatch):
    """The depths and the fences of detect_outliers read one projection
    product, and the depths are those of depth_from_scores."""
    eig, dirs, lam = _fitted(_contaminated(60, 307), J=4, M=200, seed=308)
    expected = depth_from_scores(dirs, lam, eig.scores, eig.scores).depths
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    original = rhd._accepted_projections
    monkeypatch.setattr("rhdepth.rhd._accepted_projections", counted)
    report = detect_outliers(eig, dirs, lam, 3.0)
    assert len(calls) == 1
    assert np.array_equal(report.depths, expected) and not report.depths.flags.writeable


def _reference_candidate_fences(eig, dirs, lams):
    """_candidate_fences in its earlier form: an (n, k) mask of each
    column's top, its column sums for the top runs, one np.nonzero over the
    mask per lambda, and the quartiles of a full sort."""
    accepted, projections = rhd._accepted_projections(dirs, max(lams), eig.scores)
    at_top = projections == projections.max(axis=0)
    runs = at_top.sum(axis=0)
    q1, q3 = _sorted_quartiles(np.sort(projections.T, axis=1))
    per_lambda = []
    for lam in lams:
        kept = dirs.rkhs_norms[accepted] <= lam
        owners, columns = np.nonzero(at_top & (kept & (runs == runs[kept].min())))
        per_lambda.append((owners, columns, accepted[columns], (q1[columns], q3[columns])))
    return projections, per_lambda


def _assert_fences_match_reference(eig, dirs, lams):
    """Every array _candidate_fences returns equals the reference's; returns
    whether some lambda's shortest top run is above 1."""
    projections, per_lambda = _candidate_fences(eig, dirs, lams)
    ref_projections, ref_per_lambda = _reference_candidate_fences(eig, dirs, lams)
    assert np.array_equal(projections, ref_projections)
    assert len(per_lambda) == len(ref_per_lambda) == len(lams)
    tied = False
    for got, ref in zip(per_lambda, ref_per_lambda):
        owners, columns, directions, (q1, q3) = got
        for a, b in zip((owners, columns, directions, q1, q3), (*ref[:3], *ref[3])):
            assert np.array_equal(a, b)
        tied = tied or columns.size > np.unique(columns).size
    return tied


class TestCandidateFencesMatchMaskReference:
    """Tops, runs, owners and quartiles read off the sorted blocks equal
    those of the (n, k) top mask."""

    U_GRID = (0.5, 0.7, 0.9, 0.95)

    @pytest.mark.parametrize("rep", range(3))
    def test_paper_case(self, rep):
        kind = OUTLIER_KINDS[rep % len(OUTLIER_KINDS)]
        spec = ScenarioSpec(n_inliers=400, outlier_counts={kind: 1}, seed=1_000_000 + rep)
        eig, dirs, lam = _fitted(generate_scenario(spec)[0], u=0.95, seed=2_000_000 + rep)
        _assert_fences_match_reference(eig, dirs, [lam])

    @pytest.mark.parametrize("rep", range(3))
    def test_criterion_6_grid(self, rep):
        counts = {"magnitude": 1, "jump": 1, "wiggle": 1, "linear": 1}
        spec = ScenarioSpec(n_inliers=200, outlier_counts=counts, seed=3_000_000 + rep)
        eig = fit_fpca(generate_scenario(spec)[0], 6)
        dirs = draw_directions(eig, 1000, seed=4_000_000 + rep)
        lams = [resolve_lambda(RegularizationSpec.from_quantile(u), dirs) for u in self.U_GRID]
        _assert_fences_match_reference(eig, dirs, lams)

    def test_tied_tops(self):
        tied = []
        for seed in TestBatchedFencesMatchPerPairReference.SEEDS:
            half = _contaminated(75, seed)
            doubled = FunctionalSample(half.grid, np.vstack([half.values, half.values]))
            sample = _contaminated(150, seed)
            steps = np.round(sample.values / sample.values.std(axis=0))
            integer = FunctionalSample(sample.grid, steps)
            for data in (doubled, integer):
                eig, dirs = _sweep_pool(data, 6, 500, seed)
                specs = [RegularizationSpec.from_quantile(u) for u in self.U_GRID]
                lams = [resolve_lambda(spec, dirs) for spec in specs]
                tied.append(_assert_fences_match_reference(eig, dirs, [*lams, np.inf]))
        # every doubled sample has a shortest top run of 2 at every lambda
        assert all(tied[::2])

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 63, 64, 127, 128])
    @pytest.mark.parametrize("integer", [False, True])
    def test_block_edges(self, k, integer):
        # k pool directions, all accepted at lambda = inf; a permuted norm
        # order makes the smaller lambdas keep scattered columns
        rng = np.random.default_rng(k)
        eig = fit_fpca(_contaminated(40, k), 3)
        coeff = rng.standard_normal((k, 3))
        if integer:
            # integer scores and directions: exact, often tied projections
            scores = np.round(eig.scores / eig.scores.std(axis=0))
            eig = dataclasses.replace(eig, scores=scores)
            coeff = rng.integers(-2, 3, size=(k, 3)).astype(float)
            coeff[~coeff.any(axis=1)] = 1.0
        dirs = DirectionSet(coeff, rng.permutation(k) + 1.0, proposal_size=k)
        _assert_fences_match_reference(eig, dirs, [np.inf, k / 2 + 0.5, 1.0])

    def test_holds_no_sorted_block_past_its_turn(self):
        # the paper case at u = 0.95: 401 curves, about 950 accepted
        # directions. The fences keep per-column values only, so beside the
        # product less than two blocks are alive at once; a top value kept
        # as a view of its block would keep every block.
        spec = ScenarioSpec(n_inliers=400, outlier_counts={"magnitude": 1}, seed=5)
        eig, dirs, lam = _fitted(generate_scenario(spec)[0], u=0.95, seed=6)
        n, k = eig.scores.shape[0], dirs.accepted(lam).size
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            _candidate_fences(eig, dirs, [lam])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = n * rhd._COUNT_BLOCK * np.dtype(float).itemsize
        assert peak - held - n * k * np.dtype(float).itemsize < 2 * block


def _reference_flag_sweep(sample, J, M, rng, specs, factors):
    """flag_sweep in its earlier form, fitting the sample's grid values
    itself: per lambda, a loop over the factors, each with its own fences
    and compare on the same quartiles."""
    eig = fit_fpca(sample, J)
    dirs = draw_directions(eig, M, seed=int(rng.integers(2**63)))
    lams = [resolve_lambda(spec, dirs) for spec in specs]
    projections, per_lambda = _candidate_fences(eig, dirs, lams)
    sweep = []
    for owners, columns, _, (q1, q3) in per_lambda:
        candidates = np.unique(owners)
        rows = projections[np.ix_(candidates, columns)]
        flagged = []
        for factor in factors:
            iqr = q3 - q1
            lower, upper = q1 - factor * iqr, q3 + factor * iqr
            hit = ((rows < lower) | (rows > upper)).any(axis=1)
            flagged.append(tuple(candidates[hit].tolist()))
        sweep.append(tuple(flagged))
    return sweep


class TestFlagSweepMatchesPerFactorLoop:
    """Critical factors flag what a loop of fence compares over the factors
    flags, at ties and at IQR = 0 too."""

    U_GRID = (0.5, 0.7, 0.9, 0.95)
    # Below FACTOR_GRID too, so that the flags differ between factors.
    FACTORS = (0.25, 0.5, 1.0, *FACTOR_GRID)

    def _assert_matches(self, sample, J, M, seed):
        specs = [RegularizationSpec.from_quantile(u) for u in self.U_GRID]
        rng = np.random.default_rng(seed)
        sweep = _flags(flag_sweep(fit_fpca(sample, J), M, rng, specs), self.FACTORS)
        rng = np.random.default_rng(seed)
        expected = _reference_flag_sweep(sample, J, M, rng, specs, self.FACTORS)
        assert sweep == expected
        return sweep

    def test_paper_case(self):
        sweeps = []
        for rep in range(3):
            kind = OUTLIER_KINDS[rep % len(OUTLIER_KINDS)]
            spec = ScenarioSpec(n_inliers=400, outlier_counts={kind: 1}, seed=5_000_000 + rep)
            sweeps += self._assert_matches(generate_scenario(spec)[0], 6, 1000, 6_000_000 + rep)
        assert any(len(set(per_factor)) > 1 for per_factor in sweeps)

    def test_criterion_6_grid(self):
        counts = {"magnitude": 1, "jump": 1, "wiggle": 1, "linear": 1}
        sweeps = []
        for rep in range(3):
            spec = ScenarioSpec(n_inliers=200, outlier_counts=counts, seed=7_000_000 + rep)
            sweeps += self._assert_matches(generate_scenario(spec)[0], 6, 1000, 8_000_000 + rep)
        assert any(len(set(per_factor)) > 1 for per_factor in sweeps)

    def test_doubled_sample(self):
        for seed in TestBatchedFencesMatchPerPairReference.SEEDS:
            half = _contaminated(75, seed)
            doubled = FunctionalSample(half.grid, np.vstack([half.values, half.values]))
            sweep = self._assert_matches(doubled, 6, 500, seed)
            # two curves on top of each minimizing direction: the shortest top run is 2
            eig, dirs = _sweep_pool(doubled, 6, 500, seed)
            lams = [resolve_lambda(RegularizationSpec.from_quantile(u), dirs) for u in self.U_GRID]
            for _, columns, *_ in _candidate_fences(eig, dirs, lams)[1]:
                assert columns.size == 2 * np.unique(columns).size
            assert any(per_factor[0] for per_factor in sweep)

    def test_zero_iqr(self):
        # 34 of 40 curves are one curve, so every quartile is its projection:
        # a fence of width 0, which flags every other value at any factor
        s = generate_inliers(7, seed=11)
        values = np.vstack([np.repeat(s.values[:1], 34, axis=0), s.values[1:]])
        sample = FunctionalSample(s.grid, values)
        self._assert_matches(sample, 3, 200, 12)
        eig, dirs = _sweep_pool(sample, 3, 200, 12)
        lams = [resolve_lambda(RegularizationSpec.from_quantile(u), dirs) for u in self.U_GRID]
        assert any((q1 == q3).any() for *_, (q1, q3) in _candidate_fences(eig, dirs, lams)[1])


def test_sweep_takes_factors_whose_fences_would_overflow():
    # 1e307 times the largest IQR here (about 2.4) is finite, 1.7e308 times
    # it is not; flags read off critical factors build no fences, so they
    # hold at such factors too
    sample = _contaminated(60, 309)
    specs = (RegularizationSpec.from_quantile(0.9),)
    factors = (1.5, 1e307, 1.7e308, 3.0, 1.79e308)
    sweep = _flags(flag_sweep(fit_fpca(sample, 4), 200, np.random.default_rng(310), specs), factors)
    with np.errstate(over="ignore"):
        expected = _reference_flag_sweep(sample, 4, 200, np.random.default_rng(310), specs, factors)
    assert sweep == expected


def test_detect_outliers_holds_no_float_copy_of_the_pairs():
    # the paper case at u = 0.95: about 950 pairs, one per accepted direction.
    # Beside the product and the boolean (n, pairs) outside, a float copy of
    # the pairs' columns would hold n * pairs doubles more.
    spec = ScenarioSpec(n_inliers=400, outlier_counts={"magnitude": 1}, seed=5)
    eig, dirs, lam = _fitted(generate_scenario(spec)[0], u=0.95, seed=6)
    n, k = eig.scores.shape[0], dirs.accepted(lam).size
    pairs = _candidate_fences(eig, dirs, [lam])[1][0][1].size
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        detect_outliers(eig, dirs, lam, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extra = peak - held - n * k * np.dtype(float).itemsize - n * pairs
    assert pairs > rhd._COUNT_BLOCK
    assert extra < n * pairs * np.dtype(float).itemsize / 2


class TestParallelMap:
    """The map both simulation studies run their replicates through."""

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_results_in_input_order(self, threads):
        items = [3, 1, 4, 1, 5]  # 8 threads is more than there are items
        assert parallel_map(lambda x: x * x, iter(items), threads) == [x * x for x in items]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_an_item_error_reaches_the_caller(self, threads):
        def fn(x):
            if x == 2:
                raise RankError(x, 1)
            return x

        with pytest.raises(RankError, match="truncation level 2 exceeds usable rank 1"):
            parallel_map(fn, range(4), threads)

    @pytest.mark.parametrize("threads, items", [(1, range(4)), (1, [0]), (2, [0]), (8, [0])])
    def test_serial_runs_on_the_calling_thread(self, threads, items):
        seen = []
        parallel_map(lambda x: seen.append(threading.get_ident()), items, threads)
        assert seen == [threading.get_ident()] * len(items)

    def test_one_map_serves_both_studies(self):
        assert evalkit.parallel_map is parallel_map
