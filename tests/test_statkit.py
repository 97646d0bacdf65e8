import fractions
import math
import statistics

import numpy as np
import pytest
import scipy.stats

from parasitech import (
    CollinearityError,
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidInputError,
    SingularDesignError,
    UndefinedCorrelationError,
    descriptive,
    f_sf,
    ols_multi,
    ols_simple,
    pearson,
    significance_stars,
    student_t_sf,
    t_critical,
    zscore,
)
from oracles import (
    f_sf_quad,
    moments_brute,
    ols_multi_normal_eq,
    ols_simple_sums,
    pearson_sums,
    t_two_sided_quad,
)


class TestOlsSimple:
    def test_exact_line(self):
        r = ols_simple([0, 1, 2], [1, 3, 5])
        np.testing.assert_allclose(r.coefficients, [1.0, 2.0])
        assert r.r2 == 1.0
        assert r.perfect_fit
        assert r.p_values[1] == 0.0  # reported as 0, not a division by zero

    def test_constant_y(self):
        r = ols_simple([0, 1, 2, 3], [4.0, 4.0, 4.0, 4.0])
        assert r.coefficients[1] == 0.0
        assert r.r2 == 0.0
        assert r.f_stat == 0.0
        assert r.f_p == 1.0

    def test_matches_sum_formula_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 40))
            x = rng.normal(size=n) * rng.uniform(0.5, 3)
            y = 1.5 - 0.7 * x + rng.normal(size=n)
            r = ols_simple(x, y)
            o = ols_simple_sums(x, y)
            np.testing.assert_allclose(
                r.coefficients, [o["intercept"], o["slope"]], rtol=1e-10, atol=1e-12
            )
            np.testing.assert_allclose(
                r.standard_errors,
                [o["se_intercept"], o["se_slope"]],
                rtol=1e-10,
            )
            np.testing.assert_allclose(r.r2, o["r2"], rtol=1e-10)
            np.testing.assert_allclose(r.f_stat, o["f_stat"], rtol=1e-10)

    def test_constant_x_rejected(self):
        with pytest.raises(SingularDesignError):
            ols_simple([2, 2, 2, 2], [1, 2, 3, 4])

    @pytest.mark.parametrize(
        "x", [[0.1] * 3, [0.0, -0.0, 0.0], [5e-324] * 4, [-1e308] * 3, [1950.0] * 44]
    )
    def test_constant_finite_x_is_singular(self, x):
        with pytest.raises(SingularDesignError, match="x is constant"):
            ols_simple(x, np.arange(1.0, len(x) + 1))

    @pytest.mark.parametrize(
        "x, y",
        [
            ([math.nan, 1, 2, 3], [1, 2, 3, 5]),
            ([1, 2, 3, 4], [1, math.nan, 3, 5]),
            ([2, 2, math.nan, 2], [1, 2, 3, 4]),
            ([math.nan] * 3, [1, 2, 3]),
        ],
    )
    def test_nan_input_fails_the_f_test(self, x, y):
        # NaN is not constant: the fit runs and its NaN F statistic is refused
        with pytest.raises(InvalidInputError, match="must be nonnegative, got nan"):
            ols_simple(x, y)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            ols_simple([1, 2], [1, 2])

    def test_r2_equals_squared_correlation(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 30))
            x = rng.normal(size=n)
            y = 0.3 * x + rng.normal(size=n)
            r = ols_simple(x, y)
            rho = pearson(x, y).r
            np.testing.assert_allclose(r.r2, rho * rho, rtol=0, atol=1e-10)

    def test_fit_plus_residuals_reconstructs_y(self, rng):
        # the normal equations: residuals sum to zero and are orthogonal to x
        x = rng.normal(size=25)
        y = 2 + x + rng.normal(size=25)
        b0, b1 = ols_simple(x, y).coefficients
        residuals = y - (b0 + b1 * x)
        assert abs(residuals.sum()) < 1e-9 * len(y)
        assert abs(residuals @ x) < 1e-9 * len(y)

    def test_f_is_t_squared(self, rng):
        for _ in range(10):
            x = rng.normal(size=15)
            y = x + rng.normal(size=15)
            r = ols_simple(x, y)
            np.testing.assert_allclose(r.f_stat, r.t_stats[1] ** 2, rtol=1e-8)

    def test_degrees_of_freedom_in_p(self, rng):
        x = rng.normal(size=12)
        y = 0.5 * x + rng.normal(size=12)
        r = ols_simple(x, y)
        np.testing.assert_allclose(
            r.p_values[1], t_two_sided_quad(r.t_stats[1], 10), atol=1e-9
        )


class TestOlsMulti:
    def test_exact_plane(self, rng):
        x1 = rng.normal(size=12)
        x2 = rng.normal(size=12)
        y = 2 + 3 * x1 - x2
        r = ols_multi([x1, x2], y)
        np.testing.assert_allclose(r.coefficients, [2.0, 3.0, -1.0], atol=1e-10)
        np.testing.assert_allclose(r.r2, 1.0)

    def test_duplicate_column_collinear(self, rng):
        x1 = rng.normal(size=10)
        with pytest.raises(CollinearityError) as exc:
            ols_multi([x1, x1], rng.normal(size=10))
        assert exc.value.column_index == 1

    def test_linear_combination_collinear(self, rng):
        x1 = rng.normal(size=10)
        x2 = rng.normal(size=10)
        with pytest.raises(CollinearityError) as exc:
            ols_multi([x1, x2, 2 * x1 - x2], rng.normal(size=10))
        assert exc.value.column_index == 2

    def test_matches_normal_equations_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(12, 40))
            k = int(rng.integers(2, 6))
            X = [rng.normal(size=n) for _ in range(k)]
            y = 1 + sum(rng.uniform(-2, 2) * np.asarray(c) for c in X)
            y = y + rng.normal(size=n)
            r = ols_multi(X, y)
            o = ols_multi_normal_eq(X, y)
            np.testing.assert_allclose(r.coefficients, o["coefficients"], atol=1e-8)
            np.testing.assert_allclose(
                r.standard_errors, o["standard_errors"], atol=1e-8
            )
            np.testing.assert_allclose(r.r2, o["r2"], atol=1e-10)

    def test_too_few_rows(self, rng):
        with pytest.raises(InsufficientDataError):
            ols_multi([rng.normal(size=3), rng.normal(size=3)], rng.normal(size=3))

    def test_standardized_equal_zscored_fit(self, rng):
        n, k = 30, 3
        X = [rng.normal(size=n) * rng.uniform(0.1, 5) for _ in range(k)]
        y = 2 + sum((j + 1) * np.asarray(c) for j, c in enumerate(X))
        y = y + rng.normal(size=n)
        r = ols_multi(X, y)
        rz = ols_multi([zscore(c) for c in X], zscore(y))
        np.testing.assert_allclose(
            r.standardized_coefficients[1:], rz.coefficients[1:], atol=1e-8
        )

    def test_adjusted_r2_identity(self, rng):
        n, k = 25, 4
        X = [rng.normal(size=n) for _ in range(k)]
        y = rng.normal(size=n)
        r = ols_multi(X, y)
        expected = 1 - (1 - r.r2) * (n - 1) / (n - k - 1)
        np.testing.assert_allclose(r.r2_adj, expected, rtol=1e-12)


class TestStudentTsf:
    def test_zero_stat(self):
        for df in (1, 2, 5, 50):
            assert student_t_sf(0.0, df) == 1.0

    def test_cauchy_closed_form(self):
        # df=1 is Cauchy: P(|T| >= t) = 1 - (2/pi) atan(t)
        for t in np.linspace(0.0, 30, 40):
            expected = 1.0 - 2.0 / math.pi * math.atan(t)
            np.testing.assert_allclose(student_t_sf(t, 1), expected, atol=1e-10)
        np.testing.assert_allclose(student_t_sf(1.0, 1), 0.5, atol=1e-14)

    def test_df2_closed_form(self):
        # df=2: P(|T| >= t) = 1 - t/sqrt(2 + t^2)
        for t in np.linspace(0.0, 30, 40):
            expected = 1.0 - t / math.sqrt(2.0 + t * t)
            np.testing.assert_allclose(student_t_sf(t, 2), expected, atol=1e-10)

    def test_symmetry(self):
        for t in (0.3, 1.7, 4.2):
            assert student_t_sf(t, 7) == student_t_sf(-t, 7)

    def test_monotone_decreasing(self):
        grid = np.linspace(0, 10, 200)
        vals = [student_t_sf(t, 9) for t in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_normal_limit(self):
        for t in np.linspace(0.0, 5, 26):
            normal_two_sided = math.erfc(t / math.sqrt(2.0))
            assert abs(student_t_sf(t, 1000) - normal_two_sided) < 1e-3

    def test_quadrature_oracle(self, rng):
        for _ in range(15):
            t = float(rng.uniform(-6, 6))
            df = int(rng.integers(1, 60))
            np.testing.assert_allclose(
                student_t_sf(t, df), t_two_sided_quad(t, df), atol=1e-10
            )

    def test_invalid_df(self):
        with pytest.raises(InvalidInputError):
            student_t_sf(1.0, 0)


class TestFsf:
    def test_zero(self):
        assert f_sf(0.0, 3, 10) == 1.0

    def test_matches_t_squared(self, rng):
        for _ in range(20):
            t = float(rng.uniform(0, 5))
            df = int(rng.integers(1, 50))
            np.testing.assert_allclose(
                f_sf(t * t, 1, df), student_t_sf(t, df), atol=1e-10
            )

    def test_quadrature_oracle(self, rng):
        for _ in range(12):
            f = float(rng.uniform(0.01, 8))
            df1 = int(rng.integers(1, 10))
            df2 = int(rng.integers(2, 40))
            np.testing.assert_allclose(
                f_sf(f, df1, df2), f_sf_quad(f, df1, df2), atol=1e-7
            )

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            f_sf(-0.5, 2, 10)


# t_critical(alpha, df) as the 200-step bisection over student_t_sf gave it;
# one row per df, one column per alpha.
BISECTION_ALPHAS = (0.5, 0.1, 0.05, 0.01, 1e-3, 1e-6, 1e-10)
BISECTION_T_CRITICAL = {
    1: (1.0, 6.313751514675042, 12.706204736174705, 63.65674116287157,
        636.6192487687194, 636619.7723670576, 6366197723.675812),
    2: (0.8164965809277258, 2.9199855803537256, 4.302652729749463,
        9.924843200918293, 31.59905457644362, 999.9992499998436,
        99999.9999925),
    3: (0.7648923284043454, 2.3533634348018238, 3.182446305283709,
        5.840909309733359, 12.92397863668748, 130.15458955835794,
        2804.293825339525),
    5: (0.7266868438004224, 2.0150483733330242, 2.5705818356363155,
        4.032142983555229, 6.868826625881111, 28.478473462984212,
        180.14910084827108),
    10: (0.6998120613124317, 1.8124611228116763, 2.228138851986274,
         3.169272672616951, 4.586893858702634, 10.516489956914903,
         27.318724874262543),
    42: (0.6803760449373877, 1.6819523574675337, 2.018081702818445,
         2.698066186219984, 3.5377454453274293, 5.720984413238689,
         8.539986590234864),
    100: (0.6769510430114742, 1.6602343260853396, 1.983971518523553,
          2.6258905214380164, 3.390491311164231, 5.213727574230077,
          7.22718705672853),
    1000: (0.6747351646070199, 1.6463788172854819, 1.9623390808264065,
           2.580754698065954, 3.3002826484239103, 4.92228952342958,
           6.53682083004059),
}


class TestTCritical:
    def test_against_scipy(self):
        for alpha, df in [(0.05, 10), (0.05, 42), (0.01, 5), (0.1, 100)]:
            expected = scipy.stats.t.ppf(1 - alpha / 2, df)
            np.testing.assert_allclose(t_critical(alpha, df), expected, atol=1e-9)
        for df, row in BISECTION_T_CRITICAL.items():
            for alpha, expected in zip(BISECTION_ALPHAS, row):
                np.testing.assert_allclose(t_critical(alpha, df), expected, rtol=1e-12)

    def test_tiny_alpha_matches_cauchy_closed_form(self):
        # df = 1 is the Cauchy distribution: t = 1 / tan(pi * alpha / 2)
        alpha = 1e-15
        expected = 1.0 / math.tan(math.pi * alpha / 2)
        np.testing.assert_allclose(t_critical(alpha, 1), expected, rtol=1e-9)

    def test_round_trip(self):
        t = t_critical(0.05, 20)
        np.testing.assert_allclose(student_t_sf(t, 20), 0.05, atol=1e-12)


class TestDescriptive:
    def test_simple(self):
        d = descriptive([1.0, 2.0, 3.0])
        assert d.n == 3
        assert d.mean == 2.0
        assert d.sd == 1.0
        assert d.skewness == 0.0
        assert d.kurtosis is None  # needs n >= 4

    def test_constant(self):
        d = descriptive([7.0] * 10)
        assert d.sd == 0.0
        assert d.skewness is None
        assert d.kurtosis is None

    def test_small_samples_flagged(self):
        assert descriptive([1.0]).sd == 0.0
        assert descriptive([1.0, 2.0]).skewness is None
        assert descriptive([1.0, 2.0, 4.0]).kurtosis is None

    def test_matches_brute_force_oracle(self, rng):
        values = list(rng.normal(10, 3, size=50))
        d = descriptive(values)
        o = moments_brute(values)
        np.testing.assert_allclose(d.mean, o["mean"], rtol=1e-12)
        np.testing.assert_allclose(d.sd, o["sd"], rtol=1e-12)
        np.testing.assert_allclose(d.skewness, o["skewness"], rtol=0, atol=1e-10)
        np.testing.assert_allclose(d.kurtosis, o["kurtosis"], rtol=0, atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            descriptive([])

    def test_huge_values_do_not_overflow(self):
        # the deviations' squares and cubes overflowed: sd inf, skewness nan
        d = descriptive([1e308, 5.0, 7.0])
        assert d.mean == pytest.approx((1e308 + 12.0) / 3, rel=1e-15)
        assert d.sd == statistics.stdev([1e308, 5.0, 7.0])
        assert d.skewness == pytest.approx(math.sqrt(3.0), rel=1e-15)
        # the sum overflowed too: mean inf
        values = [1e308, 1.5e308, 7.0, 1.2e308]
        d = descriptive(values)
        o = moments_brute([math.ldexp(v, -1024) for v in values])
        exact_mean = statistics.mean(fractions.Fraction(v) for v in values)
        assert d.mean == pytest.approx(float(exact_mean), rel=1e-15)
        assert d.sd == pytest.approx(math.ldexp(o["sd"], 1024), rel=1e-15)
        assert d.skewness == pytest.approx(o["skewness"], rel=1e-13)
        assert d.kurtosis == pytest.approx(o["kurtosis"], rel=1e-13)

    @pytest.mark.parametrize("scale", [1e150, 1e-150, 1e-200])
    def test_spread_whose_powers_leave_the_floats(self, scale):
        # m2**1.5 overflowed (OverflowError) or underflowed (ZeroDivisionError);
        # at 1e-200 the squares underflowed to sd 0
        d = descriptive([scale, 2 * scale, 4 * scale])
        unit = descriptive([1.0, 2.0, 4.0])
        sd = statistics.stdev([1.0, 2.0, 4.0]) * scale
        assert d.sd == pytest.approx(sd, rel=1e-15)
        assert d.skewness == pytest.approx(unit.skewness, rel=1e-14)

    def test_sd_beyond_the_floats_is_inf(self):
        d = descriptive([-1.7e308, 1.7e308])
        assert d.mean == 0.0
        assert d.sd == math.inf


class TestPearson:
    def test_identity(self):
        x = [1.0, 2.0, 5.0, 9.0]
        e = pearson(x, x)
        assert e.r == 1.0
        assert e.p == 0.0
        assert e.n == 4

    def test_negation(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        assert pearson(x, -x).r == -1.0

    def test_matches_sum_oracle(self, rng):
        for _ in range(10):
            x = rng.normal(size=15)
            y = 0.4 * x + rng.normal(size=15)
            e = pearson(x, y)
            np.testing.assert_allclose(e.r, pearson_sums(x, y), atol=1e-12)
            t = e.r * math.sqrt((e.n - 2) / (1 - e.r**2))
            np.testing.assert_allclose(e.p, t_two_sided_quad(t, e.n - 2), atol=1e-9)

    def test_pairwise_deletion(self):
        x = [1.0, np.nan, 3.0, 4.0, 5.0]
        y = [2.0, 9.0, 6.0, np.nan, 10.0]
        e = pearson(x, y)
        assert e.n == 3  # only indices 0, 2, 4 are complete

    def test_too_few_pairs(self):
        with pytest.raises(InsufficientDataError):
            pearson([1.0, 2.0, np.nan], [1.0, 2.0, 3.0])

    def test_constant_side(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])

    def test_symmetry_and_affine_invariance(self, rng):
        for _ in range(25):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            e = pearson(x, y)
            np.testing.assert_allclose(pearson(y, x).r, e.r, atol=1e-14)
            c, d = float(rng.uniform(0.1, 5)), float(rng.uniform(-10, 10))
            np.testing.assert_allclose(pearson(c * x + d, y).r, e.r, atol=1e-12)


class TestZscore:
    def test_simple(self):
        np.testing.assert_allclose(zscore([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])

    def test_output_is_standardized(self, rng):
        x = rng.normal(1e6, 1.0, size=200)  # hostile mean-to-sd ratio
        z = zscore(x)
        d = descriptive(z)
        assert abs(d.mean) < 1e-12
        assert abs(d.sd - 1.0) < 1e-12

    def test_affine_invariance(self, rng):
        for _ in range(25):
            x = rng.normal(size=30)
            c, d = float(rng.uniform(0.1, 10)), float(rng.uniform(-5, 5))
            np.testing.assert_allclose(zscore(c * x + d), zscore(x), atol=1e-10)

    @pytest.mark.parametrize(
        "values",
        [[1e308, 5.0, 7.0], [1e308, 1.5e308, 7.0], [1e150, 2e150, 4e150],
         [1e-200, 2e-200, 4e-200], [5e-324, 1e-323]],
    )
    def test_extreme_values_are_standardized(self, values):
        # huge values gave 0.0, -0.0, -0.0 or NaN; tiny ones a zero variance.
        # The oracle works on the exact values over their maximum.
        exact = [fractions.Fraction(v) for v in values]
        unit = [v / max(exact) for v in exact]
        mean = sum(unit) / len(unit)
        sd = math.sqrt(sum((v - mean) ** 2 for v in unit) / (len(unit) - 1))
        expected = [float(v - mean) / sd for v in unit]
        np.testing.assert_allclose(zscore(values), expected, rtol=1e-14)

    @pytest.mark.parametrize("values", [[1e308, 1e308], [5e-324] * 3, [0.0, -0.0]])
    def test_constant_extremes_are_degenerate(self, values):
        # two 1e308 overflowed the mean and gave NaN z-scores
        with pytest.raises(DegenerateSeriesError):
            zscore(values)

    def test_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            zscore([3.0, 3.0, 3.0])
        with pytest.raises(InsufficientDataError):
            zscore([3.0])


class TestStars:
    @pytest.mark.parametrize(
        "p,stars",
        [(0.0005, "***"), (0.005, "**"), (0.03, "*"), (0.2, ""), (math.nan, "")],
    )
    def test_thresholds(self, p, stars):
        assert significance_stars(p) == stars
