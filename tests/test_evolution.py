import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from parasitech import (
    CollinearityError,
    InsufficientDataError,
    InvalidInputError,
    LogisticParams,
    NoOverlapError,
    TechSeries,
    build_report,
    correlation_matrix,
    fit_evolution,
    fit_evolution_multi,
    logistic_value,
)
from parasitech.evolution import _align
from conftest import make_series, scaled


def power_series(host, a, b, name="p"):
    """Parasite generated exactly as P = a * H^b on the host's years."""
    return TechSeries(
        name, "parasite", "", host.times, a * host.values**b
    )


@pytest.fixture
def host(rng):
    t = np.arange(1920, 1964)
    values = np.exp(rng.uniform(0.5, 3.0, size=t.size))
    return make_series("host", t, values, role="host")


def random_series(rng, name, years, role="parasite"):
    return make_series(name, years, np.exp(rng.uniform(0, 2, len(years))), role=role)


class TestAlignByYear:
    def test_pairwise_intersection(self):
        h = make_series("h", [1, 2, 3, 4, 5], [1.0, 2.0, 3.0, 5.0, 8.0], role="host")
        p = make_series("p", [2, 3, 4, 5, 6], [5.0, 6.0, 9.0, 7.0, 4.0])
        fit = fit_evolution(h, p)
        assert fit.years_used == (2.0, 3.0, 4.0, 5.0)
        np.testing.assert_allclose(fit.log_host_values, np.log([2.0, 3.0, 5.0, 8.0]))
        np.testing.assert_allclose(fit.log_parasite_values, np.log([5.0, 6.0, 9.0, 7.0]))

    def test_disjoint_years_error(self):
        h = make_series("h", [1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0], role="host")
        p = make_series("p", [5, 6, 7, 8], [5.0, 6.0, 7.0, 8.0])
        with pytest.raises(NoOverlapError):
            fit_evolution(h, p)

    def test_listwise_staggered_gaps(self, rng):
        h = random_series(rng, "h", [1, 2, 3, 5, 6, 8], role="host")
        p1 = random_series(rng, "p1", [2, 3, 4, 5, 8])
        p2 = random_series(rng, "p2", [1, 2, 3, 5, 7, 8, 9])
        fit = fit_evolution_multi(p1, h, [p2])
        # brute-force scan over every year mentioned anywhere
        all_years = sorted(
            set(h.times.tolist())
            | set(p1.times.tolist())
            | set(p2.times.tolist())
        )
        expected = [
            y
            for y in all_years
            if all(
                y in s.times.tolist() for s in (h, p1, p2)
            )
        ]
        assert list(fit.years_used) == expected
        assert fit.n_listwise == len(expected)

    def test_pairwise_vs_listwise_counts(self, rng):
        h = random_series(rng, "h", range(1, 9), role="host")
        p1 = random_series(rng, "p1", range(1, 7))
        p2 = random_series(rng, "p2", range(3, 8))
        pairwise = build_report(h, [p1, p2])
        assert [f.n_paired for f in pairwise.fits] == [6, 5]
        (listwise,) = build_report(h, [p1, p2], multi=True).multi_fits
        assert listwise.years_used == (3.0, 4.0, 5.0, 6.0)
        assert listwise.n_listwise == 4


# strictly increasing times: distinct floats from a pool with overlaps,
# -0.0 and 0.0 (equal, so never both in one series), subnormals and extremes
POOL = [-1e308, -3.5, -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0, 1950.0,
        1950.5, 1951.0, 1.7976931348623157e308]
TIMES = st.lists(
    st.one_of(st.sampled_from(POOL), st.floats(-1e6, 1e6)), min_size=1,
    max_size=12, unique=True,
).map(sorted)


def intersect_reference(times):
    """The years and the index into each series, by chained np.intersect1d."""
    years, picks = np.asarray(times[0], float), [np.arange(len(times[0]))]
    for t in times[1:]:
        years, kept, idx = np.intersect1d(
            years, np.asarray(t, float), assume_unique=True, return_indices=True
        )
        picks = [p[kept] for p in picks] + [idx]
    return years, picks


class TestAlignIntersection:
    @given(st.lists(TIMES, min_size=2, max_size=3))
    @example([[0.0, 1.0], [-0.0, 1.0]])
    @example([[-0.0, 2.0], [0.0, 2.0], [-1.0, 0.0, 2.0]])
    @example([[1.0, 2.0], [3.0, 4.0]])
    @example([[1950.0, 1951.0], [1950.0, 1951.0]])
    @example([[1950.0], [1950.0]])
    @example([[1950.0], [1951.0]])
    def test_equals_intersect1d(self, times):
        # distinct values per series, so each log column names its indices
        series = [
            make_series(f"s{i}", t, np.arange(1.0, len(t) + 1))
            for i, t in enumerate(times)
        ]
        years, picks = intersect_reference(times)
        if not years.size:
            with pytest.raises(NoOverlapError):
                _align(series)
            return
        got_years, columns = _align(series)
        assert got_years.tolist() == years.tolist()
        np.testing.assert_array_equal(np.signbit(got_years), np.signbit(years))
        for s, column, pick in zip(series, columns, picks):
            np.testing.assert_array_equal(column, np.log(s.values)[pick])


class TestFitEvolution:
    def test_exact_power_law(self, host):
        parasite = power_series(host, 2.0, 1.5)
        fit = fit_evolution(host, parasite)
        np.testing.assert_allclose(fit.b, 1.5, atol=1e-10)
        np.testing.assert_allclose(math.exp(fit.log_a), 2.0, rtol=1e-9)
        np.testing.assert_allclose(fit.regression.r2, 1.0)
        assert fit.classification.grade == 3

    def test_proportional_growth_is_mutualism(self, host):
        parasite = power_series(host, 3.7, 1.0)
        fit = fit_evolution(host, parasite)
        np.testing.assert_allclose(fit.b, 1.0, atol=1e-12)
        assert fit.classification.grade == 2

    def test_below_one_is_parasitism(self, host):
        parasite = power_series(host, 1.0, 0.23)
        fit = fit_evolution(host, parasite)
        assert fit.classification.grade == 1
        assert fit.classification.mode == "parasitism"

    def test_coupled_logistics_early_phase(self):
        # exact coupled curves with rate ratio 1.74, sampled while both are
        # far below equilibrium: the log-log slope lands within 0.02
        host_law = LogisticParams(k=100.0, a=6.0, b=0.05)
        parasite_law = LogisticParams(k=50.0, a=6.96, b=0.087)
        t = np.arange(44.0)
        h = TechSeries(
            "h", "host", "", t, logistic_value(host_law, t)
        )
        p = TechSeries(
            "p", "parasite", "", t, logistic_value(parasite_law, t)
        )
        fit = fit_evolution(h, p)
        assert abs(fit.b - 1.74) < 0.02
        assert fit.n_paired == 44

    def test_needs_four_years(self):
        h = make_series("h", [1, 2, 3], [1.0, 2.0, 4.0], role="host")
        p = make_series("p", [1, 2, 3], [1.0, 3.0, 9.0])
        with pytest.raises(InsufficientDataError):
            fit_evolution(h, p)

    @pytest.mark.parametrize("alpha", [7.0, math.nan, 0.0, 1.0, -0.05])
    @pytest.mark.parametrize("perfect", [True, False], ids=["perfect", "noisy"])
    def test_alpha_out_of_range_is_rejected(self, host, rng, alpha, perfect):
        # a perfect fit has zero standard error and runs no t-test, so the
        # level is checked before the fit, whatever the data
        noise = 1.0 if perfect else np.exp(rng.normal(0, 0.05, host.n))
        parasite = TechSeries(
            "p", "parasite", "", host.times, host.values * noise
        )
        with pytest.raises(InvalidInputError, match="alpha must lie in"):
            fit_evolution(host, parasite, alpha=alpha)

    def test_invariants_hold(self, host):
        parasite = power_series(host, 0.5, 1.2)
        fit = fit_evolution(host, parasite)
        assert fit.b == fit.regression.coefficients[1]
        assert fit.log_a == fit.regression.coefficients[0]
        assert fit.n_paired == len(fit.years_used)
        assert fit.classification.b_estimate == fit.b


class TestScaleInvariance:
    def test_host_rescaling(self, rng, host):
        parasite = power_series(host, 2.0, 1.4, "p")
        noisy = TechSeries(
            "p", "parasite", "", parasite.times,
            parasite.values * np.exp(rng.normal(0, 0.05, parasite.n)),
        )
        base = fit_evolution(host, noisy)
        for _ in range(100):
            c = float(np.exp(rng.uniform(-3, 3)))
            rescaled = fit_evolution(scaled(host, c), noisy)
            np.testing.assert_allclose(rescaled.b, base.b, atol=1e-10)
            np.testing.assert_allclose(
                rescaled.regression.standard_errors[1],
                base.regression.standard_errors[1],
                atol=1e-10,
            )
            np.testing.assert_allclose(
                rescaled.log_a, base.log_a - base.b * math.log(c), atol=1e-9
            )
            assert rescaled.classification.grade == base.classification.grade

    def test_parasite_rescaling(self, rng, host):
        parasite = power_series(host, 2.0, 0.8, "p")
        noisy = TechSeries(
            "p", "parasite", "", parasite.times,
            parasite.values * np.exp(rng.normal(0, 0.05, parasite.n)),
        )
        base = fit_evolution(host, noisy)
        for _ in range(100):
            c = float(np.exp(rng.uniform(-3, 3)))
            rescaled = fit_evolution(host, scaled(noisy, c))
            np.testing.assert_allclose(rescaled.b, base.b, atol=1e-10)
            np.testing.assert_allclose(
                rescaled.log_a, base.log_a + math.log(c), atol=1e-9
            )
            assert rescaled.classification.grade == base.classification.grade

    def test_swap_inverts_slope_on_exact_data(self, host):
        parasite = power_series(host, 2.0, 1.6, "p")
        forward = fit_evolution(host, parasite)
        host_as_parasite = TechSeries(
            "h2", "parasite", "", host.times, host.values
        )
        parasite_as_host = TechSeries(
            "p2", "host", "", parasite.times, parasite.values
        )
        backward = fit_evolution(parasite_as_host, host_as_parasite)
        np.testing.assert_allclose(forward.b * backward.b, 1.0, atol=1e-10)


class TestFitEvolutionMulti:
    def test_exact_log_linear_combination(self, rng):
        t = np.arange(1990, 2020)
        h = make_series("h", t, np.exp(rng.uniform(0, 2, t.size)), role="host")
        p2 = make_series("p2", t, np.exp(rng.uniform(0, 2, t.size)))
        target_values = h.values**0.5 * p2.values**0.3
        target = make_series("p1", t, target_values)
        fit = fit_evolution_multi(target, h, [p2])
        np.testing.assert_allclose(
            fit.regression.coefficients, [0.0, 0.5, 0.3], atol=1e-10
        )
        np.testing.assert_allclose(fit.regression.r2, 1.0)
        assert fit.predictor_names == ("h", "p2")

    def test_duplicate_predictor_names_series(self, rng):
        t = np.arange(2000, 2020)
        h = make_series("h", t, np.exp(rng.uniform(0, 2, t.size)), role="host")
        p2 = make_series("p2", t, np.exp(rng.uniform(0, 2, t.size)))
        p3 = make_series("p3", t, p2.values)  # exact copy
        target = make_series("p1", t, np.exp(rng.uniform(0, 2, t.size)))
        with pytest.raises(CollinearityError) as exc:
            fit_evolution_multi(target, h, [p2, p3])
        assert "p3" in str(exc.value)

    def test_recovers_known_coefficients_with_noise(self):
        # 6 predictors, 5% noise, n=30: count replicates where every
        # coefficient lands within 3 standard errors of its truth
        rng = np.random.default_rng(777)
        t = np.arange(1988, 2018)
        truth = np.array([0.4, 0.5, 0.3, -0.2, 0.15, 0.25, -0.1])  # const + 6
        hits = 0
        replicates = 200
        for _ in range(replicates):
            cols = [np.exp(rng.uniform(0, 2, t.size)) for _ in range(6)]
            log_target = truth[0] + sum(
                truth[j + 1] * np.log(c) for j, c in enumerate(cols)
            )
            log_target = log_target + rng.normal(0, 0.05, t.size)
            h = make_series("h", t, cols[0], role="host")
            others = [make_series(f"p{j}", t, c) for j, c in enumerate(cols[1:], 2)]
            target = make_series("p1", t, np.exp(log_target))
            fit = fit_evolution_multi(target, h, others)
            coef = np.array(fit.regression.coefficients)
            se = np.array(fit.regression.standard_errors)
            if np.all(np.abs(coef - truth) <= 3 * se):
                hits += 1
        assert hits / replicates >= 0.95

    def test_dominance_order_and_rescaling_invariance(self, rng):
        t = np.arange(1990, 2020)
        h = make_series("h", t, np.exp(rng.uniform(0, 2, t.size)), role="host")
        p2 = make_series("p2", t, np.exp(rng.uniform(0, 2, t.size)))
        p3 = make_series("p3", t, np.exp(rng.uniform(0, 2, t.size)))
        log_target = (
            0.1 * np.log(h.values)
            + 0.9 * np.log(p2.values)
            + 0.4 * np.log(p3.values)
            + rng.normal(0, 0.02, t.size)
        )
        target = make_series("p1", t, np.exp(log_target))
        fit = fit_evolution_multi(target, h, [p2, p3])
        assert fit.dominant_predictors[0] == "p2"
        for _ in range(20):
            c = float(np.exp(rng.uniform(-2, 2)))
            rescaled = fit_evolution_multi(target, scaled(h, c), [p2, p3])
            assert rescaled.dominant_predictors == fit.dominant_predictors
            # only the intercept moves, by -b_h log c
            coefficients = fit.regression.coefficients
            np.testing.assert_allclose(
                rescaled.regression.coefficients,
                [coefficients[0] - coefficients[1] * math.log(c), *coefficients[1:]],
                atol=1e-9,
            )

    def test_listwise_n_needed(self, rng):
        t = np.arange(2000, 2004)
        h = make_series("h", t, np.exp(rng.uniform(0, 1, 4)), role="host")
        p2 = make_series("p2", t, np.exp(rng.uniform(0, 1, 4)))
        p3 = make_series("p3", t, np.exp(rng.uniform(0, 1, 4)))
        target = make_series("p1", t, np.exp(rng.uniform(0, 1, 4)))
        with pytest.raises(InsufficientDataError):
            fit_evolution_multi(target, h, [p2, p3])


class TestCorrelationMatrix:
    def test_identical_series(self):
        a = make_series("a", [1, 2, 3, 4], [1.0, 2.0, 4.0, 8.0])
        b = make_series("b", [1, 2, 3, 4], [1.0, 2.0, 4.0, 8.0])
        m = correlation_matrix([a, b])
        e = m.entries[0][1]
        assert e.r == 1.0
        assert e.p == 0.0
        assert e.n == 4
        assert m.entries[0][0].r == 1.0

    def test_symmetry(self, rng):
        t = np.arange(2000, 2015)
        series = [
            make_series(f"s{i}", t, np.exp(rng.uniform(0, 2, t.size)))
            for i in range(4)
        ]
        m = correlation_matrix(series)
        for i in range(4):
            for j in range(4):
                assert m.entries[i][j].r == m.entries[j][i].r
                assert m.entries[i][j].n == m.entries[j][i].n

    def test_staggered_overlap_counts(self, rng):
        a = make_series("a", [1, 2, 3, 4, 5, 6], np.exp(rng.uniform(0, 1, 6)))
        b = make_series("b", [4, 5, 6, 7, 8], np.exp(rng.uniform(0, 1, 5)))
        c = make_series("c", [1, 2, 9], np.exp(rng.uniform(0, 1, 3)))
        m = correlation_matrix([a, b, c])
        assert m.entries[0][1].n == 3  # years 4, 5, 6
        assert m.entries[0][2].n == 2  # years 1, 2 -> undefined
        assert m.entries[1][2].n == 0
        assert math.isfinite(m.entries[0][1].r)
        assert not math.isfinite(m.entries[0][2].r)
        assert not math.isfinite(m.entries[1][2].r)

    def test_constant_side_flagged_not_fatal(self):
        a = make_series("a", [1, 2, 3, 4], [1.0, 2.0, 4.0, 8.0])
        flat = make_series("flat", [1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0])
        m = correlation_matrix([a, flat])
        assert not math.isfinite(m.entries[0][1].r)
        assert m.entries[0][1].n == 4

    def test_needs_two_series(self):
        a = make_series("a", [1, 2, 3], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError):
            correlation_matrix([a])


class TestBuildReport:
    def test_single_pair_structure(self, host):
        parasite = power_series(host, 2.0, 1.5)
        report = build_report(host, [parasite], source_files=["h.csv", "p.csv"])
        assert len(report.fits) == 1
        assert not report.multi_fits
        assert report.correlations is not None
        assert len(report.correlations.names) == 2
        assert [name for name, _ in report.descriptives] == ["host", "p"]
        assert {tr.name for tr in report.standardized_trajectories} == {"host", "p"}
        assert report.provenance.inputs == ("h.csv", "p.csv")
        assert report.provenance.timestamp is None

    def test_determinism(self, host):
        parasite = power_series(host, 2.0, 1.5)
        r1 = build_report(host, [parasite], options={"aggregator": "mean"})
        r2 = build_report(host, [parasite], options={"aggregator": "mean"})
        assert r1 == r2

    def test_multi_bundle_shape(self, rng):
        t = np.arange(2008, 2019)
        h = make_series("cpu", t, np.exp(rng.uniform(0, 1, t.size)), role="host")
        parasites = [
            make_series(f"part{j}", t, np.exp(rng.uniform(0, 2, t.size)))
            for j in range(6)
        ]
        report = build_report(h, parasites, multi=True)
        assert len(report.multi_fits) == 1
        assert not report.fits
        assert len(report.correlations.names) == 7
        assert len(report.correlations.entries) == 7
        assert len(report.standardized_trajectories) == 7
        fit = report.multi_fits[0]
        assert fit.target_parasite == "part0"
        assert fit.predictor_names[0] == "cpu"
        assert len(fit.predictor_names) == 6

    def test_only_pairwise_options_record_alpha(self, rng):
        # the multidimensional fit runs no test of B = 1, so no test level
        t = np.arange(2008, 2019)
        h = make_series("cpu", t, np.exp(rng.uniform(0, 1, t.size)), role="host")
        parasites = [
            make_series(f"part{j}", t, np.exp(rng.uniform(0, 2, t.size)))
            for j in range(3)
        ]
        multi = dict(build_report(h, parasites, multi=True).provenance.options)
        pairwise = dict(build_report(h, parasites).provenance.options)
        assert multi == {"mode": "'multi'"}
        assert pairwise == {"alpha": "0.05", "mode": "'pairwise'"}

    def test_multi_needs_sibling(self, host):
        parasite = power_series(host, 2.0, 1.5)
        with pytest.raises(InvalidInputError):
            build_report(host, [parasite], multi=True)

    def test_at_least_one_parasite(self, host):
        with pytest.raises(InvalidInputError):
            build_report(host, [])
