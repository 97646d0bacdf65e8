import math

import numpy as np
import pytest

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
from conftest import make_series


def power_series(host, a, b, name="p"):
    """Parasite generated exactly as P = a * H^b on the host's years."""
    return TechSeries.from_columns(
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
        h = TechSeries.from_columns(
            "h", "host", "", t, logistic_value(host_law, t)
        )
        p = TechSeries.from_columns(
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
        noisy = TechSeries.from_columns(
            "p", "parasite", "", parasite.times,
            parasite.values * np.exp(rng.normal(0, 0.05, parasite.n)),
        )
        base = fit_evolution(host, noisy)
        for _ in range(100):
            c = float(np.exp(rng.uniform(-3, 3)))
            scaled = fit_evolution(host.scaled(c), noisy)
            np.testing.assert_allclose(scaled.b, base.b, atol=1e-10)
            np.testing.assert_allclose(
                scaled.regression.standard_errors[1],
                base.regression.standard_errors[1],
                atol=1e-10,
            )
            np.testing.assert_allclose(
                scaled.log_a, base.log_a - base.b * math.log(c), atol=1e-9
            )
            assert scaled.classification.grade == base.classification.grade

    def test_parasite_rescaling(self, rng, host):
        parasite = power_series(host, 2.0, 0.8, "p")
        noisy = TechSeries.from_columns(
            "p", "parasite", "", parasite.times,
            parasite.values * np.exp(rng.normal(0, 0.05, parasite.n)),
        )
        base = fit_evolution(host, noisy)
        for _ in range(100):
            c = float(np.exp(rng.uniform(-3, 3)))
            scaled = fit_evolution(host, noisy.scaled(c))
            np.testing.assert_allclose(scaled.b, base.b, atol=1e-10)
            np.testing.assert_allclose(
                scaled.log_a, base.log_a + math.log(c), atol=1e-9
            )
            assert scaled.classification.grade == base.classification.grade

    def test_swap_inverts_slope_on_exact_data(self, host):
        parasite = power_series(host, 2.0, 1.6, "p")
        forward = fit_evolution(host, parasite)
        host_as_parasite = TechSeries.from_columns(
            "h2", "parasite", "", host.times, host.values
        )
        parasite_as_host = TechSeries.from_columns(
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
            rescaled = fit_evolution_multi(target, h.scaled(c), [p2, p3])
            assert rescaled.dominant_predictors == fit.dominant_predictors

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
        e = m.entry(0, 1)
        assert e.r == 1.0
        assert e.p == 0.0
        assert e.n == 4
        assert m.entry(0, 0).r == 1.0

    def test_symmetry(self, rng):
        t = np.arange(2000, 2015)
        series = [
            make_series(f"s{i}", t, np.exp(rng.uniform(0, 2, t.size)))
            for i in range(4)
        ]
        m = correlation_matrix(series)
        for i in range(4):
            for j in range(4):
                assert m.entry(i, j).r == m.entry(j, i).r
                assert m.entry(i, j).n == m.entry(j, i).n

    def test_staggered_overlap_counts(self, rng):
        a = make_series("a", [1, 2, 3, 4, 5, 6], np.exp(rng.uniform(0, 1, 6)))
        b = make_series("b", [4, 5, 6, 7, 8], np.exp(rng.uniform(0, 1, 5)))
        c = make_series("c", [1, 2, 9], np.exp(rng.uniform(0, 1, 3)))
        m = correlation_matrix([a, b, c])
        assert m.entry(0, 1).n == 3  # years 4, 5, 6
        assert m.entry(0, 2).n == 2  # years 1, 2 -> undefined
        assert m.entry(1, 2).n == 0
        assert m.entry(0, 1).defined
        assert not m.entry(0, 2).defined
        assert not m.entry(1, 2).defined

    def test_constant_side_flagged_not_fatal(self):
        a = make_series("a", [1, 2, 3, 4], [1.0, 2.0, 4.0, 8.0])
        flat = make_series("flat", [1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0])
        m = correlation_matrix([a, flat])
        assert not m.entry(0, 1).defined
        assert m.entry(0, 1).n == 4

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
