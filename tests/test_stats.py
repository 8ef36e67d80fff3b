"""Stats module tests: statistics against brute-force and closed forms."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from walshflow.paths import RngStream, sample_wbm_exact
from walshflow.stats import (
    EmptySample,
    InsufficientSamples,
    PowerLawFit,
    TestReport,
    ZeroExpected,
    chi_square_rays,
    default_marginal_functions,
    folded_gaussian_cdf,
    ks_statistic,
    marginal_vs_semigroup,
    _chi_square_sf,
    _kolmogorov_sf,
    powerlaw_fit_coalescence,
)
from walshflow.graph import validate_spec

SPEC3 = validate_spec((0.4, 0.3, 0.3), (1, 1, -1))


class TestReportRecord:
    def test_json_round_trip(self):
        report = TestReport(
            name="demo",
            statistic=0.25,
            threshold=0.01,
            passed=True,
            replicas=1000,
            p_value=0.5,
            details={"z_radial": -1.25, "chi2_p": 0.75},
        )
        line = report.to_json_line()
        assert "\n" not in line
        assert TestReport.from_json_line(line) == report

    def test_optional_p_value(self):
        report = TestReport(
            name="demo", statistic=1.0, threshold=2.0, passed=False, replicas=10
        )
        back = TestReport.from_json_line(report.to_json_line())
        assert back.p_value is None and back.details == {}

    def test_line_is_plain_json(self):
        report = TestReport(
            name="demo", statistic=1.0, threshold=2.0, passed=True, replicas=10
        )
        payload = json.loads(report.to_json_line())
        assert payload["name"] == "demo" and payload["passed"] is True


def _brute_force_ks(samples, cdf):
    n = len(samples)
    best = 0.0
    for i, x in enumerate(sorted(samples)):
        f = cdf(x)
        best = max(best, abs((i + 1) / n - f), abs(i / n - f))
    return best


class TestKsStatistic:
    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            ks_statistic([], lambda x: x)

    @settings(max_examples=150, deadline=None)
    @given(
        samples=st.lists(
            st.floats(0.001, 0.999, allow_nan=False), min_size=1, max_size=5
        )
    )
    def test_matches_brute_force_on_tiny_samples(self, samples):
        cdf = lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        d, _ = ks_statistic(samples, cdf)
        brute = _brute_force_ks(samples, lambda x: float(np.clip(x, 0.0, 1.0)))
        assert abs(d - brute) < 1e-12

    def test_null_calibration(self):
        """Level check: uniform data against the uniform cdf should reject
        at the 1% level only a few times in a hundred."""
        rejections = 0
        for trial in range(100):
            gen = np.random.default_rng(9000 + trial)
            u = gen.random(400)
            _, p = ks_statistic(u, lambda x: np.clip(x, 0.0, 1.0))
            if p <= 0.01:
                rejections += 1
        assert rejections <= 3

    def test_detects_wrong_law(self):
        gen = np.random.default_rng(5)
        u = gen.random(400) ** (1.0 / 0.7)
        _, p = ks_statistic(u, lambda x: np.clip(x, 0.0, 1.0))
        assert p < 0.01

    def test_kolmogorov_sf_matches_scipy(self):
        # both series and the switch between them at y = 1; scipy's own
        # switch sits near 0.82
        ys = np.concatenate(
            [np.linspace(0.05, 4.0, 800), [0.82, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]]
        )
        for y in ys:
            want = float(special.kolmogorov(y))
            assert abs(_kolmogorov_sf(float(y)) - want) <= 1e-12 * want, y

    def test_kolmogorov_sf_limits(self):
        assert _kolmogorov_sf(0.01) == 1.0
        assert _kolmogorov_sf(40.0) == 0.0


class TestChiSquare:
    def test_frozen_example(self):
        stat, p = chi_square_rays([60, 40], [0.5, 0.5])
        assert stat == 4.0
        assert abs(p - math.erfc(math.sqrt(2.0))) < 1e-12

    def test_zero_expected_raises(self):
        with pytest.raises(ZeroExpected):
            chi_square_rays([10, 0], [1.0, 0.0])

    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            chi_square_rays([0, 0], [0.5, 0.5])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            chi_square_rays([10], [1.0])
        with pytest.raises(ValueError):
            chi_square_rays([10, -1], [0.5, 0.5])

    @pytest.mark.parametrize("df", range(1, 7))
    def test_chi_square_sf_matches_scipy(self, df):
        for x in np.geomspace(0.01, 60.0, 400):
            want = float(special.chdtrc(df, x))
            assert abs(_chi_square_sf(df, float(x)) - want) <= 1e-12 * want, x

    @pytest.mark.parametrize("df", range(1, 7))
    def test_chi_square_sf_at_zero(self, df):
        assert _chi_square_sf(df, 0.0) == 1.0

    def test_null_calibration(self):
        rejections = 0
        probs = np.array([0.4, 0.3, 0.3])
        for trial in range(100):
            gen = np.random.default_rng(7000 + trial)
            draws = gen.choice(3, size=600, p=probs)
            counts = np.bincount(draws, minlength=3)
            _, p = chi_square_rays(counts, probs)
            if p <= 0.01:
                rejections += 1
        assert rejections <= 3


class TestPowerLawFit:
    def test_recovers_synthetic_exponent(self):
        """Samples drawn by inverting the target law directly."""
        y = 0.0625
        gen = np.random.default_rng(123)
        v = gen.random(100000)
        u = y / (1.0 - np.sqrt(v))  # exponent 2 by construction
        fit = powerlaw_fit_coalescence(u, y)
        assert abs(fit.lambda_hat - 2.0) < 0.1
        assert fit.r_squared > 0.99
        assert fit.n_used >= 25

    def test_intercept_absorbs_right_truncation(self):
        y = 0.0625
        gen = np.random.default_rng(124)
        v = gen.random(100000)
        u = y / (1.0 - np.sqrt(v))
        cut = np.quantile(u, 0.95)
        fit = powerlaw_fit_coalescence(u[u <= cut], y)
        assert abs(fit.lambda_hat - 2.0) < 0.12
        assert fit.r_squared > 0.99
        assert fit.intercept > 0.0

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            powerlaw_fit_coalescence(np.ones(100), 0.5)

    def test_result_is_frozen_dataclass(self):
        fit = PowerLawFit(lambda_hat=1.0, intercept=0.0, r_squared=1.0, n_used=10)
        with pytest.raises(AttributeError):
            fit.lambda_hat = 2.0


class TestFoldedGaussian:
    def test_frozen_value(self):
        cdf = folded_gaussian_cdf(4.0)
        assert abs(float(cdf(np.array(2.0))) - 0.6826894921370859) < 1e-12

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_matches_scipy_erf_within_4_ulp(self, t):
        r = np.linspace(0.0, 12.0, 20_001)
        got = folded_gaussian_cdf(t)(r)
        want = special.erf(r / (math.sqrt(t) * math.sqrt(2.0)))
        assert got.dtype == np.float64 and got.shape == r.shape
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    def test_limits(self):
        cdf = folded_gaussian_cdf(1.0)
        assert float(cdf(np.array(0.0))) == 0.0
        assert float(cdf(np.array(10.0))) > 1 - 1e-12


class TestMarginalBattery:
    def test_exact_sampler_passes(self):
        rays, radii = sample_wbm_exact(SPEC3, 1.0, 20000, RngStream(2024).child(1))
        report = marginal_vs_semigroup(SPEC3, 1.0, rays, radii)
        assert report.passed, report.details
        assert report.replicas == 20000
        assert set(report.details) >= {"chi2_p", "ks_p", "z_radial-decay"}

    def test_wrong_time_fails(self):
        rays, radii = sample_wbm_exact(SPEC3, 1.0, 20000, RngStream(2024).child(1))
        report = marginal_vs_semigroup(SPEC3, 1.3, rays, radii)
        assert not report.passed

    def test_biased_rays_fail(self):
        rays, radii = sample_wbm_exact(SPEC3, 1.0, 20000, RngStream(2024).child(1))
        swapped = np.where(rays == 1, 3, np.where(rays == 3, 1, rays))
        report = marginal_vs_semigroup(SPEC3, 1.0, swapped, radii)
        assert not report.passed
        assert report.details["chi2_p"] <= 0.01

    def test_ray_coupled_to_radius_fails(self):
        # the same rays and radii, ray 1 moved onto the largest radii: each
        # law alone is right, the joint law is not
        rays, radii = sample_wbm_exact(SPEC3, 1.0, 20000, RngStream(2024).child(1))
        order = np.argsort(radii)
        ones = np.count_nonzero(rays == 1)
        coupled = np.empty_like(rays)
        coupled[order[-ones:]] = 1
        coupled[order[:-ones]] = rays[rays != 1]
        assert np.array_equal(np.bincount(coupled), np.bincount(rays))
        report = marginal_vs_semigroup(SPEC3, 1.0, coupled, radii)
        assert not report.passed
        assert report.details["chi2_p"] > 0.01 and report.details["ks_p"] > 0.01
        assert abs(report.details["z_ray-profile"]) > 3.0

    def test_report_serializes(self):
        rays, radii = sample_wbm_exact(SPEC3, 1.0, 2000, RngStream(7).child(2))
        report = marginal_vs_semigroup(SPEC3, 1.0, rays, radii)
        assert TestReport.from_json_line(report.to_json_line()) == report

    def test_one_ray_graph_skips_the_ray_test(self):
        one_ray = validate_spec((1.0,), (1,))
        rays, radii = sample_wbm_exact(one_ray, 1.0, 20000, RngStream(2024).child(3))
        report = marginal_vs_semigroup(one_ray, 1.0, rays, radii)
        assert report.passed, report.details
        assert "ks_p" in report.details
        assert not any(name.startswith("chi2_") for name in report.details)
        assert any(name.startswith("z_") for name in report.details)

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            marginal_vs_semigroup(SPEC3, 1.0, [], [])

    def test_default_functions_are_continuous_at_junction(self):
        for name, fn in default_marginal_functions(SPEC3):
            values = {comp.value(0.0) for comp in fn.components}
            assert len(values) == 1
            # each component evaluates an array of radii in one call
            radii = np.linspace(0.0, 3.0, 7).reshape(7, 1)
            for comp in fn.components:
                assert np.shape(comp.value(radii)) == radii.shape
