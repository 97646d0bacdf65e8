import math

import numpy as np
import pytest

from parasitech import (
    FitFailureError,
    InsufficientDataError,
    InvalidInputError,
    InvalidKError,
    LogisticParams,
    TechSeries,
    derive_power_law,
    fit_logistic,
    forecast_series,
    logistic_value,
    logit_transform,
    ols_simple,
)
from parasitech.logistic import K_SEARCH_RTOL, _logit_r2, k_search_bracket
from oracles import logistic_exact, power_law_loglog_fit


def series_from_params(params, t_grid, name="s", role="parasite"):
    return TechSeries(
        name, role, "", t_grid, logistic_value(params, np.asarray(t_grid))
    )


class TestLogisticParams:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            LogisticParams(k=-1.0, a=0.0, b=1.0)
        with pytest.raises(InvalidInputError):
            LogisticParams(k=1.0, a=0.0, b=0.0)
        with pytest.raises(InvalidInputError):
            LogisticParams(k=1.0, a=math.inf, b=1.0)

    def test_inflection_time(self):
        p = LogisticParams(k=100.0, a=5.0, b=0.25)
        assert p.inflection_time == 20.0


class TestLogisticValue:
    def test_inflection_is_half_k(self):
        p = LogisticParams(k=100.0, a=5.0, b=0.25)
        np.testing.assert_allclose(logistic_value(p, p.inflection_time), 50.0)

    def test_unit_case(self):
        p = LogisticParams(k=1.0, a=0.0, b=1.0)
        assert logistic_value(p, 0.0) == 0.5

    def test_saturation(self):
        p = LogisticParams(k=7.0, a=0.0, b=1.0)
        assert abs(logistic_value(p, 30.0) - 7.0) < 1e-9
        assert logistic_value(p, 1e6) <= 7.0

    def test_matches_direct_formula(self, rng):
        for _ in range(20):
            p = LogisticParams(
                k=float(rng.uniform(1, 1e3)),
                a=float(rng.uniform(-5, 10)),
                b=float(rng.uniform(0.01, 1.0)),
            )
            t = rng.uniform(-50, 200, size=7)
            np.testing.assert_allclose(
                logistic_value(p, t), logistic_exact(p.k, p.a, p.b, t), rtol=1e-12
            )

    def test_symmetry_about_inflection(self, rng):
        for _ in range(100):
            p = LogisticParams(
                k=float(rng.uniform(0.5, 500)),
                a=float(rng.uniform(-3, 8)),
                b=float(rng.uniform(0.05, 2.0)),
            )
            t_star = p.inflection_time
            d = float(rng.uniform(0, 10))
            total = logistic_value(p, t_star + d) + logistic_value(p, t_star - d)
            assert abs(total - p.k) < 1e-10 * p.k

    def test_strictly_increasing(self):
        p = LogisticParams(k=10.0, a=2.0, b=0.3)
        t = np.linspace(-20, 40, 100)
        assert np.all(np.diff(logistic_value(p, t)) > 0)


class TestLogitTransform:
    def test_midpoint_maps_to_zero(self):
        s = TechSeries("s", "host", "", [0, 1, 2], [2.0, 5.0, 8.0])
        _, logits = logit_transform(s, 10.0)
        assert logits[1] == 0.0

    def test_invalid_k(self):
        s = TechSeries("s", "host", "", [0, 1], [2.0, 5.0])
        with pytest.raises(InvalidKError):
            logit_transform(s, 5.0)
        with pytest.raises(InvalidKError):
            logit_transform(s, 4.0)

    def test_near_k_guard(self):
        v = 10.0
        s = TechSeries("s", "host", "", [0, 1], [2.0, v])
        with pytest.raises(InvalidKError):
            logit_transform(s, v * (1 + 1e-14))

    def test_exact_samples_are_collinear(self):
        p = LogisticParams(k=50.0, a=4.0, b=0.5)
        t = np.linspace(0, 16, 15)
        s = series_from_params(p, t)
        times, logits = logit_transform(s, p.k)
        slope, intercept = np.polyfit(times, logits, 1)
        np.testing.assert_allclose(slope, -p.b, rtol=1e-9)
        np.testing.assert_allclose(intercept, p.a, rtol=1e-9)
        residuals = logits - (intercept + slope * times)
        assert np.max(np.abs(residuals)) < 1e-9


class TestFitLogistic:
    def test_recovers_noiseless_params(self):
        true = LogisticParams(k=100.0, a=5.0, b=0.25)
        s = series_from_params(true, np.linspace(0, 40, 20))
        report = fit_logistic(s)
        assert not report.k_at_bound
        np.testing.assert_allclose(report.params.k, true.k, rtol=1e-6)
        np.testing.assert_allclose(report.params.a, true.a, rtol=1e-6)
        np.testing.assert_allclose(report.params.b, true.b, rtol=1e-6)
        np.testing.assert_allclose(report.r2_logit, 1.0, atol=1e-9)
        assert report.params.k > s.values.max()

    def test_refit_is_fixed_point(self):
        true = LogisticParams(k=100.0, a=5.0, b=0.25)
        s = series_from_params(true, np.linspace(0, 40, 20))
        first = fit_logistic(s).params
        regenerated = series_from_params(first, np.linspace(0, 40, 20))
        second = fit_logistic(regenerated).params
        np.testing.assert_allclose(second.k, first.k, rtol=1e-8)
        np.testing.assert_allclose(second.a, first.a, rtol=1e-8)
        np.testing.assert_allclose(second.b, first.b, rtol=1e-8)

    def test_decreasing_series_fails(self):
        s = TechSeries(
            "down", "host", "", [0, 1, 2, 3, 4], [10.0, 8.0, 6.0, 4.0, 2.0]
        )
        with pytest.raises(FitFailureError):
            fit_logistic(s)

    def test_exponential_growth_pins_k_at_bound(self):
        # data with no saturation signal: the logit fit improves
        # monotonically as K grows, so the search pins at the upper bound
        t = np.linspace(1, 10, 10)
        s = TechSeries("exp", "host", "", t, np.exp(0.2 * t))
        report = fit_logistic(s)
        assert report.k_at_bound

    def test_linear_growth_reads_as_midphase(self):
        # y = t matches the locally-linear midphase of a logistic, so the
        # optimum K sits just above max(y), interior to the search bracket
        t = np.linspace(1, 10, 10)
        s = TechSeries("lin", "host", "", t, t)
        report = fit_logistic(s)
        assert not report.k_at_bound
        assert 10.0 < report.params.k < 15.0

    def test_too_few_points(self):
        s = TechSeries("s", "host", "", [0, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(InsufficientDataError):
            fit_logistic(s)

    def test_constant_series(self):
        s = TechSeries("s", "host", "", [0, 1, 2, 3], [4.0] * 4)
        with pytest.raises(InsufficientDataError):
            fit_logistic(s)

    def test_bad_k_max_factor(self):
        s = TechSeries("s", "host", "", [0, 1, 2, 3], [1.0, 2, 3, 4])
        with pytest.raises(InvalidInputError):
            fit_logistic(s, k_max_factor=1.0)


class TestKSearch:
    def test_probe_r2_is_the_final_fits_r2(self):
        # the search scores K without building a RegressionResult; its R^2
        # must equal ols_simple's to the bit, or the search could pick
        # another K than the final fit reports
        rng = np.random.default_rng(61)
        for _ in range(60):
            n = int(rng.integers(4, 50))
            t = np.sort(rng.choice(np.arange(200.0), n, replace=False))
            b = rng.uniform(0.02, 0.5)
            law = LogisticParams(k=rng.uniform(1, 1e3), a=b * rng.uniform(0, 200), b=b)
            noise = np.exp(rng.normal(0.0, rng.choice([0.0, 0.05, 0.3]), n))
            s = TechSeries("s", "parasite", "", t, logistic_value(law, t) * noise)
            lo, hi = k_search_bracket(s, 10.0)
            r2_at = _logit_r2(s)
            near_lo = lo * (1 + 10.0 ** -rng.uniform(1, 12, 5))
            for k in [lo, hi, *rng.uniform(lo, hi, 5), *near_lo]:
                assert r2_at(float(k)) == ols_simple(*logit_transform(s, k)).r2

    def test_bracket(self):
        s = TechSeries("s", "host", "", [0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0])
        assert k_search_bracket(s, 10.0) == (4.0 * (1 + 1e-6), 40.0)
        with pytest.raises(InvalidInputError, match="k_max_factor"):
            k_search_bracket(s, 1.0)
        with pytest.raises(InvalidInputError, match="overflows"):
            k_search_bracket(s, 1e308)

    def test_lower_bound_k_is_flagged(self):
        # a noisy, saturated series: R^2 grows as K falls to max(v), so the
        # search ends on its lower bound, which k_at_bound reports
        s = TechSeries("sat", "host", "", [0, 1, 2, 3, 4], [6.0, 2.0, 9.0, 9.0, 9.0])
        report = fit_logistic(s)
        lo, hi = k_search_bracket(s, 10.0)
        assert report.k_at_bound
        assert 0 < report.params.k - lo <= K_SEARCH_RTOL * hi


class TestDerivePowerLaw:
    def test_exponent_is_rate_ratio(self):
        host = LogisticParams(k=100.0, a=1.0, b=0.1)
        parasite = LogisticParams(k=50.0, a=1.0, b=0.2)
        assert derive_power_law(host, parasite).b == 2.0

    def test_identical_laws_give_identity(self):
        p = LogisticParams(k=80.0, a=3.0, b=0.2)
        law = derive_power_law(p, p)
        assert law.b == 1.0
        np.testing.assert_allclose(law.a, 1.0)
        np.testing.assert_allclose(law.c1, 1.0)

    def test_elimination_constant(self):
        host = LogisticParams(k=100.0, a=6.0, b=0.05)  # t* = 120
        parasite = LogisticParams(k=50.0, a=6.96, b=0.087)  # t* = 80
        law = derive_power_law(host, parasite)
        np.testing.assert_allclose(law.c1, math.exp(0.05 * (80.0 - 120.0)))

    @pytest.mark.parametrize(
        "host_k, parasite_a, parasite_b, constant",
        [
            (100.0, 1740.0, 0.087, "c1 overflows"),  # t2 = 20000
            (100.0, -1740.0, 0.087, "c1 underflows to 0"),  # t2 = -20000
            (100.0, 1000.0, 8.7, "a underflows to 0"),  # B = 174
            (1e-300, -1000.0, 0.087, "a overflows"),  # c1*K1 underflows
        ],
    )
    def test_out_of_range_constant_is_invalid_input(
        self, host_k, parasite_a, parasite_b, constant
    ):
        host = LogisticParams(k=host_k, a=6.0, b=0.05)
        parasite = LogisticParams(k=50.0, a=parasite_a, b=parasite_b)
        with pytest.raises(InvalidInputError, match=f"constant {constant}"):
            derive_power_law(host, parasite)

    def test_against_numeric_elimination_oracle(self, rng):
        for _ in range(25):
            b1 = float(rng.uniform(0.02, 0.5))
            ratio = float(np.exp(rng.uniform(np.log(0.2), np.log(4.0))))
            host = LogisticParams(
                k=float(np.exp(rng.uniform(0, np.log(1e4)))),
                a=b1 * float(rng.uniform(5, 150)),
                b=b1,
            )
            parasite = LogisticParams(
                k=float(np.exp(rng.uniform(0, np.log(1e4)))),
                a=b1 * ratio * float(rng.uniform(5, 150)),
                b=b1 * ratio,
            )
            law = derive_power_law(host, parasite)
            slope, intercept = power_law_loglog_fit(
                (host.k, host.a, host.b), (parasite.k, parasite.a, parasite.b)
            )
            np.testing.assert_allclose(slope, law.b, atol=1e-4)
            np.testing.assert_allclose(intercept, math.log(law.a), atol=1e-3)

    def test_rate_scaling_invariance(self, rng):
        # scaling both rates by c (inflection times fixed) leaves the
        # exponent alone and raises the elimination constant to the power c
        for _ in range(100):
            host = LogisticParams(
                k=float(rng.uniform(1, 100)),
                a=float(rng.uniform(0.5, 8)),
                b=float(rng.uniform(0.05, 1.0)),
            )
            parasite = LogisticParams(
                k=float(rng.uniform(1, 100)),
                a=float(rng.uniform(0.5, 8)),
                b=float(rng.uniform(0.05, 1.0)),
            )
            c = float(rng.uniform(0.2, 3.0))
            base = derive_power_law(host, parasite)
            scaled = derive_power_law(
                LogisticParams(k=host.k, a=c * host.a, b=c * host.b),
                LogisticParams(k=parasite.k, a=c * parasite.a, b=c * parasite.b),
            )
            np.testing.assert_allclose(scaled.b, base.b, rtol=1e-12)
            np.testing.assert_allclose(scaled.c1, base.c1**c, rtol=1e-9)

    def test_exact_logit_identity(self, rng):
        # H/(K1-H) = C1 * (P/(K2-P))^(b1/b2) holds at every t for exact curves
        for _ in range(30):
            host = LogisticParams(
                k=float(rng.uniform(1, 500)),
                a=float(rng.uniform(0.5, 8)),
                b=float(rng.uniform(0.05, 1.0)),
            )
            parasite = LogisticParams(
                k=float(rng.uniform(1, 500)),
                a=float(rng.uniform(0.5, 8)),
                b=float(rng.uniform(0.05, 1.0)),
            )
            law = derive_power_law(host, parasite)
            t_lo = min(host.inflection_time, parasite.inflection_time) - 8.0
            t_hi = max(host.inflection_time, parasite.inflection_time) + 8.0
            t = np.linspace(t_lo, t_hi, 200)
            h = logistic_value(host, t)
            p = logistic_value(parasite, t)
            # keep clear of float saturation, where K - value loses precision
            mask = (h < (1 - 1e-5) * host.k) & (p < (1 - 1e-5) * parasite.k)
            assert mask.sum() >= 20
            lhs = h[mask] / (host.k - h[mask])
            rhs = (
                law.c1
                * (p[mask] / (parasite.k - p[mask])) ** (host.b / parasite.b)
            )
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


class TestForecast:
    def test_reproduces_fitted_value_at_last_t(self):
        true = LogisticParams(k=100.0, a=5.0, b=0.25)
        s = series_from_params(true, np.linspace(0, 40, 20))
        report = fit_logistic(s)
        rows = forecast_series(report, [40.0])
        np.testing.assert_allclose(
            rows[0, 1], logistic_value(report.params, 40.0), rtol=1e-12
        )

    def test_approaches_k(self):
        true = LogisticParams(k=100.0, a=5.0, b=0.25)
        s = series_from_params(true, np.linspace(0, 40, 20))
        report = fit_logistic(s)
        rows = forecast_series(report, [1e4])
        np.testing.assert_allclose(rows[0, 1], report.params.k, rtol=1e-9)

    def test_tracks_truth_within_two_percent(self):
        true = LogisticParams(k=100.0, a=5.0, b=0.25)
        s = series_from_params(true, np.linspace(0, 45, 30))
        report = fit_logistic(s)
        horizon = np.linspace(0, 80, 33)
        rows = forecast_series(report, horizon)
        truth = logistic_value(true, horizon)
        assert np.max(np.abs(rows[:, 1] - truth) / truth) < 0.02

    def test_monotone_and_bounded(self):
        true = LogisticParams(k=100.0, a=5.0, b=0.25)
        s = series_from_params(true, np.linspace(0, 40, 20))
        report = fit_logistic(s)
        rows = forecast_series(report, np.linspace(0, 200, 50))
        assert np.all(np.diff(rows[:, 1]) >= 0)
        assert np.all(rows[:, 1] <= report.params.k)

    def test_rejects_nonfinite_horizon(self):
        true = LogisticParams(k=100.0, a=5.0, b=0.25)
        s = series_from_params(true, np.linspace(0, 40, 20))
        report = fit_logistic(s)
        with pytest.raises(InvalidInputError):
            forecast_series(report, [1.0, math.inf])
