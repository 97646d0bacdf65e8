"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, none are calibrated elsewhere.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from parasitech import (
    LogisticParams,
    SimConfig,
    classify_point,
    derive_power_law,
    f_sf,
    fit_evolution,
    logistic_value,
    monte_carlo_recovery,
    ols_multi,
    ols_simple,
    pearson,
    student_t_sf,
    zscore,
)
from parasitech.cli import run as cli_run
from conftest import make_series, scaled
from oracles import ols_multi_normal_eq, ols_simple_sums, power_law_loglog_fit

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_evolve.json"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_published_coefficient_classification():
    with criterion(1, "published coefficients classify exactly"):
        for b in (1.74, 1.89, 1.19):
            cls = classify_point(b)
            assert cls.evolution_label == "development"
            assert cls.grade == 3
            assert cls.mode == "symbiosis"
        for b in (0.23, 0.35):
            cls = classify_point(b)
            assert cls.evolution_label == "underdevelopment"
            assert cls.grade == 1
            assert cls.mode == "parasitism"


def test_criterion_2_estimator_recovery():
    with criterion(2, "Monte Carlo recovery of B=1.74 (bias and coverage)"):
        start = time.perf_counter()
        config = SimConfig(
            host=LogisticParams(k=100.0, a=6.0, b=0.05),
            parasites=(LogisticParams(k=50.0, a=6.96, b=0.087),),
            t_start=0.0,
            t_end=43.0,
            n_points=44,
            noise_sigma=0.03,
            missing_prob=0.0,
            seed=20260810,
        )
        summary = monte_carlo_recovery(config, replicates=200, early_phase_only=True)
        elapsed = time.perf_counter() - start
        mean_estimate = float(np.mean(summary.estimates))
        assert summary.failures == 0
        assert abs(mean_estimate - 1.74) < 0.05
        assert 0.90 <= summary.coverage_95 <= 0.99
        assert elapsed < 10.0


def test_criterion_3_power_law_analytic_identity():
    with criterion(3, "derived power law matches numeric elimination oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(31337)
        for _ in range(100):
            b1 = float(rng.uniform(0.02, 0.5))
            ratio = float(np.exp(rng.uniform(np.log(0.2), np.log(4.0))))
            host = LogisticParams(
                k=float(np.exp(rng.uniform(0.0, np.log(1e4)))),
                a=b1 * float(rng.uniform(5.0, 150.0)),
                b=b1,
            )
            parasite = LogisticParams(
                k=float(np.exp(rng.uniform(0.0, np.log(1e4)))),
                a=b1 * ratio * float(rng.uniform(5.0, 150.0)),
                b=b1 * ratio,
            )
            law = derive_power_law(host, parasite)
            slope, intercept = power_law_loglog_fit(
                (host.k, host.a, host.b), (parasite.k, parasite.a, parasite.b)
            )
            assert abs(slope - law.b) < 1e-4
            assert abs(intercept - math.log(law.a)) < 1e-3
        assert time.perf_counter() - start < 5.0


def test_criterion_4_ols_oracle_equivalence():
    with criterion(4, "OLS matches closed-form and normal-equation oracles"):
        start = time.perf_counter()
        rng = np.random.default_rng(1234)
        for _ in range(50):
            n = int(rng.integers(5, 51))
            x = rng.normal(size=n) * float(rng.uniform(0.5, 4.0))
            y = 1.0 + 0.8 * x + rng.normal(size=n)
            r = ols_simple(x, y)
            o = ols_simple_sums(x, y)
            assert abs(r.coefficients[0] - o["intercept"]) < 1e-10
            assert abs(r.coefficients[1] - o["slope"]) < 1e-10
            assert abs(r.standard_errors[0] - o["se_intercept"]) < 1e-10
            assert abs(r.standard_errors[1] - o["se_slope"]) < 1e-10

            k = int(rng.integers(1, 7))
            n_multi = int(rng.integers(k + 3, 51))
            cols = [rng.normal(size=n_multi) for _ in range(k)]
            y_multi = 0.5 + sum(
                float(rng.uniform(-2, 2)) * c for c in cols
            ) + rng.normal(size=n_multi)
            rm = ols_multi(cols, y_multi)
            om = ols_multi_normal_eq(cols, y_multi)
            np.testing.assert_allclose(
                rm.coefficients, om["coefficients"], atol=1e-8
            )
            np.testing.assert_allclose(
                rm.standard_errors, om["standard_errors"], atol=1e-8
            )
        assert time.perf_counter() - start < 5.0


def test_criterion_5_distribution_kernels():
    with criterion(5, "t and F tails match closed forms and the normal limit"):
        for t in np.linspace(0.0, 40.0, 101):
            cauchy = 1.0 - 2.0 / math.pi * math.atan(t)
            assert abs(student_t_sf(t, 1) - cauchy) < 1e-10
            df2 = 1.0 - t / math.sqrt(2.0 + t * t)
            assert abs(student_t_sf(t, 2) - df2) < 1e-10
        for t in np.linspace(0.0, 6.0, 61):
            normal = math.erfc(t / math.sqrt(2.0))
            assert abs(student_t_sf(t, 1000) - normal) < 1e-3
        rng = np.random.default_rng(55)
        for _ in range(100):
            t = float(rng.uniform(0.0, 8.0))
            df = int(rng.integers(1, 200))
            assert abs(f_sf(t * t, 1, df) - student_t_sf(t, df)) < 1e-10


def test_criterion_6_invariance_suite():
    with criterion(6, "invariance properties hold over 100+ random cases each"):
        rng = np.random.default_rng(99)

        # scale invariance of B and of the classification
        t = np.arange(1950, 1994)
        x = rng.uniform(0.5, 3.0, t.size)
        host = make_series("h", t, np.exp(x), role="host")
        parasite = make_series(
            "p", t, 2.0 * host.values**1.4 * np.exp(rng.normal(0, 0.05, t.size))
        )
        base = fit_evolution(host, parasite)
        for _ in range(100):
            c = float(np.exp(rng.uniform(-4, 4)))
            scaled_host = fit_evolution(scaled(host, c), parasite)
            assert abs(scaled_host.b - base.b) < 1e-10
            assert (
                abs(
                    scaled_host.regression.standard_errors[1]
                    - base.regression.standard_errors[1]
                )
                < 1e-10
            )
            assert abs(
                scaled_host.log_a - (base.log_a - base.b * math.log(c))
            ) < 1e-9
            assert scaled_host.classification.grade == base.classification.grade
            scaled_parasite = fit_evolution(host, scaled(parasite, c))
            assert abs(scaled_parasite.b - base.b) < 1e-10
            assert abs(
                scaled_parasite.log_a - (base.log_a + math.log(c))
            ) < 1e-9
            assert (
                scaled_parasite.classification.grade == base.classification.grade
            )

        # z-score affine invariance
        for _ in range(100):
            values = rng.normal(size=int(rng.integers(5, 60)))
            c = float(rng.uniform(0.01, 100.0))
            d = float(rng.uniform(-50.0, 50.0))
            np.testing.assert_allclose(
                zscore(c * values + d), zscore(values), atol=1e-10
            )

        # logistic symmetry about the inflection point
        for _ in range(100):
            params = LogisticParams(
                k=float(rng.uniform(0.5, 1e3)),
                a=float(rng.uniform(-5.0, 10.0)),
                b=float(rng.uniform(0.01, 2.0)),
            )
            t_star = params.inflection_time
            d = float(rng.uniform(0.0, 20.0))
            total = logistic_value(params, t_star + d) + logistic_value(
                params, t_star - d
            )
            assert abs(total - params.k) < 1e-10 * params.k

        # Pearson affine invariance (and symmetry)
        for _ in range(100):
            n = int(rng.integers(5, 40))
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
            r = pearson(xs, ys).r
            c = float(rng.uniform(0.01, 50.0))
            d = float(rng.uniform(-20.0, 20.0))
            assert abs(pearson(c * xs + d, ys).r - r) < 1e-10
            assert abs(pearson(xs, c * ys + d).r - r) < 1e-10
            assert abs(pearson(ys, xs).r - r) < 1e-12


def test_criterion_7_end_to_end_golden(tmp_path, capsys):
    with criterion(7, "simulate -> evolve --format json is byte-identical"):
        assert GOLDEN_PATH.exists(), "golden file missing"
        start = time.perf_counter()
        prefix = tmp_path / "golden"
        code = cli_run(
            [
                "simulate",
                "--k1", "100", "--b1", "0.05", "--t1", "120",
                "--k2", "50", "--b2", "0.087", "--t2", "80",
                "--t-start", "0", "--t-end", "43", "--n", "44",
                "--noise", "0.02", "--missing", "0.1", "--seed", "42",
                "--out-prefix", str(prefix),
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = cli_run(
            [
                "evolve",
                "--host", str(tmp_path / "golden_host.csv"),
                "--parasite", str(tmp_path / "golden_parasite.csv"),
                "--format", "json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.encode("utf-8")
        elapsed = time.perf_counter() - start
        golden = GOLDEN_PATH.read_bytes()
        assert out == golden
        assert elapsed < 1.0
        payload = json.loads(out)
        assert payload["fits"][0]["classification"]["grade"] == 3
