import math
import warnings
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parasitech import simulate
from parasitech import (
    HarnessError,
    InvalidInputError,
    LogisticParams,
    SimConfig,
    fit_evolution,
    logistic_value,
    monte_carlo_recovery,
    simulate_pair,
    simulate_series,
)
from parasitech.simulate import _derive, _pcg_states, derive_seed, early_phase_cutoff
from oracles import recovery_reference


HOST_LAW = LogisticParams(k=100.0, a=6.0, b=0.05)  # inflection at t=120
PARASITE_LAW = LogisticParams(k=50.0, a=6.96, b=0.087)  # inflection at t=80
SIBLING_LAW = LogisticParams(k=70.0, a=7.5, b=0.07)
UNDERFLOWING_LAW = LogisticParams(k=50.0, a=760.0, b=17.6)  # 0.0 at t=0
FLAT_LAW = LogisticParams(k=100.0, a=6.0, b=1e-20)  # one float on these grids
STEEP_LAW = LogisticParams(k=100.0, a=6.0, b=17.6)  # exactly K from t=3 on


@pytest.fixture
def fills(monkeypatch):
    """Counts of the normal and uniform fills of every numpy Generator made."""
    counts = Counter()

    class CountingGenerator(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            counts["standard_normal"] += 1
            return super().standard_normal(*args, **kwargs)

        def random(self, *args, **kwargs):
            counts["random"] += 1
            return super().random(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    return counts


def early_config(**overrides):
    defaults = dict(
        host=HOST_LAW,
        parasites=(PARASITE_LAW,),
        t_start=0.0,
        t_end=43.0,
        n_points=44,
        noise_sigma=0.0,
        missing_prob=0.0,
        seed=11,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            early_config(t_start=50.0, t_end=50.0)
        with pytest.raises(InvalidInputError):
            early_config(n_points=3)
        with pytest.raises(InvalidInputError):
            early_config(noise_sigma=-0.1)
        with pytest.raises(InvalidInputError):
            early_config(missing_prob=1.0)
        with pytest.raises(InvalidInputError):
            early_config(seed=-1)
        with pytest.raises(InvalidInputError):
            SimConfig(
                host=HOST_LAW, parasites=(), t_start=0, t_end=10, n_points=5
            )

    def test_grid(self):
        grid = early_config().grid()
        assert grid.size == 44
        assert grid[0] == 0.0
        assert grid[-1] == 43.0

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(t_start=-math.inf),
            dict(t_end=math.inf),
            dict(t_start=math.nan),
            dict(t_end=math.nan),
            dict(t_start=-1e308, t_end=1e308),  # the span overflows
            dict(n_points=44.5),
            dict(n_points="44"),
        ],
    )
    def test_unusable_grid_is_refused_up_front(self, overrides):
        # no grid can be built from these: refused before numpy warns, raises
        # a TypeError, or fails every replicate
        with pytest.raises(InvalidInputError):
            early_config(**overrides)

    def test_integral_n_points_becomes_an_int(self):
        for n in (44.0, np.int64(44)):
            config = early_config(n_points=n)
            assert type(config.n_points) is int and config.grid().size == 44

    def test_indistinct_grid_points_are_refused(self):
        # 44 points 8 apart at 1e16, where floats are 2 apart, collide
        config = early_config(t_start=1e16, t_end=1e16 + 8.0)
        for call in (config.grid, lambda: simulate_pair(config),
                     lambda: monte_carlo_recovery(config, replicates=3)):
            with pytest.raises(InvalidInputError, match="distinct"):
                call()


class TestSimulateSeries:
    def test_noiseless_matches_law_exactly(self):
        grid = np.linspace(0, 40, 20)
        s = simulate_series(HOST_LAW, grid, noise_sigma=0.0, seed=3)
        np.testing.assert_array_equal(s.values, logistic_value(HOST_LAW, grid))
        np.testing.assert_array_equal(s.times, grid)

    def test_same_seed_same_series(self):
        grid = np.linspace(0, 40, 30)
        a = simulate_series(HOST_LAW, grid, 0.1, 0.2, seed=99)
        b = simulate_series(HOST_LAW, grid, 0.1, 0.2, seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        grid = np.linspace(0, 40, 30)
        a = simulate_series(HOST_LAW, grid, 0.1, seed=1)
        b = simulate_series(HOST_LAW, grid, 0.1, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_log_noise_magnitude(self):
        grid = np.linspace(0, 100, 10000)
        sigma = 0.05
        s = simulate_series(PARASITE_LAW, grid, noise_sigma=sigma, seed=5)
        log_resid = np.log(s.values) - np.log(logistic_value(PARASITE_LAW, grid))
        sample_sd = float(np.std(log_resid, ddof=1))
        assert abs(sample_sd - sigma) / sigma < 0.03

    def test_missingness_drops_points(self):
        grid = np.linspace(0, 40, 200)
        s = simulate_series(HOST_LAW, grid, missing_prob=0.3, seed=7)
        assert s.n < 200
        assert s.n > 100  # ~140 expected
        assert set(s.times.tolist()) <= set(grid.tolist())

    def test_bad_grid(self):
        with pytest.raises(InvalidInputError):
            simulate_series(HOST_LAW, [1.0, 1.0, 2.0], seed=1)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, 800.0])
    def test_bad_noise_sigma_is_named(self, sigma):
        # NaN used to give the noise-free series; 800 overflows exp
        with pytest.raises(InvalidInputError, match="noise_sigma"):
            simulate_series(HOST_LAW, np.linspace(0, 40, 20), sigma, seed=1)


class TestSimulatePair:
    def test_noiseless_early_phase_recovers_ratio(self):
        host, parasites = simulate_pair(early_config())
        fit = fit_evolution(host, parasites[0])
        true_b = PARASITE_LAW.b / HOST_LAW.b
        assert abs(fit.b - true_b) < 1e-3

    def test_missingness_shrinks_intersection_but_runs(self):
        config = early_config(missing_prob=0.3, noise_sigma=0.02)
        host, parasites = simulate_pair(config)
        fit = fit_evolution(host, parasites[0])
        assert fit.n_paired < 44
        assert fit.n_paired >= 4

    def test_many_parasites_distinct_streams(self):
        laws = tuple(
            LogisticParams(k=50.0 + 10 * i, a=6.9, b=0.08 + 0.01 * i)
            for i in range(6)
        )
        config = early_config(parasites=laws, noise_sigma=0.05)
        host, parasites = simulate_pair(config)
        assert len(parasites) == 6
        assert host.name == "host" and host.role == "host"
        assert [p.name for p in parasites] == [f"parasite{i+1}" for i in range(6)]
        # distinct sub-seeds -> distinct noise
        for i in range(6):
            for j in range(i + 1, 6):
                assert not np.array_equal(parasites[i].values, parasites[j].values)

    def test_determinism(self):
        config = early_config(noise_sigma=0.05, missing_prob=0.1)
        assert simulate_pair(config) == simulate_pair(config)

    def test_one_seed_pass_draws_numpys_streams(self, monkeypatch):
        # every series' PCG64 state in one pass, every series in one draw
        calls = []
        for name in ("_draw", "_pcg_states"):
            f = getattr(simulate, name)
            monkeypatch.setattr(
                simulate, name, lambda *a, f=f, name=name: calls.append(name) or f(*a)
            )
        config = early_config(
            parasites=(PARASITE_LAW, SIBLING_LAW), noise_sigma=0.05, missing_prob=0.2,
            seed=2**64 - 1,
        )
        host, parasites = simulate_pair(config)
        assert calls == ["_draw", "_pcg_states"]
        grid = config.grid()
        laws = (config.host, *config.parasites)
        for i, (law, s) in enumerate(zip(laws, (host, *parasites))):
            entropy = np.random.SeedSequence([config.seed, 0, i])
            rng = np.random.default_rng(int(entropy.generate_state(1, np.uint64)[0]))
            z = rng.standard_normal(grid.size)
            keep = rng.random(grid.size) >= 0.2
            np.testing.assert_array_equal(s.times, grid[keep])
            np.testing.assert_array_equal(
                s.values, (logistic_value(law, grid) * np.exp(0.05 * z))[keep]
            )

    @pytest.mark.parametrize("missing_prob, uniform_fills", [(0.0, 0), (0.2, 3)])
    def test_uniforms_are_drawn_only_with_dropouts(self, fills, missing_prob,
                                                   uniform_fills):
        # without dropouts every point is kept, so no uniform is drawn
        config = early_config(parasites=(PARASITE_LAW, SIBLING_LAW),
                              noise_sigma=0.05, missing_prob=missing_prob)
        host, parasites = simulate_pair(config)
        assert (fills["standard_normal"], fills["random"]) == (3, uniform_fills)
        if not missing_prob:
            assert host.n == parasites[0].n == parasites[1].n == config.n_points

    @pytest.mark.parametrize("huge", ["host", "parasite2"])
    def test_overflow_names_the_first_series_it_reaches(self, huge):
        big = LogisticParams(k=1.79e308, a=-50.0, b=0.05)
        laws = dict(host=HOST_LAW, parasites=(PARASITE_LAW, SIBLING_LAW))
        if huge == "host":
            laws = dict(host=big, parasites=(PARASITE_LAW, big))
        else:
            laws["parasites"] = (PARASITE_LAW, big)
        with pytest.raises(InvalidInputError, match=f"series '{huge}'"):
            simulate_pair(early_config(noise_sigma=0.03, **laws))


# 64-bit seeds, with the boundaries where numpy's entropy grows a word
SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1)
)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(42, 0, 1) == derive_seed(42, 0, 1)
        seen = {derive_seed(42, s, i) for s in (0, 1) for i in range(50)}
        assert len(seen) == 100

    @given(st.lists(st.tuples(SEEDS, st.sampled_from([0, 1]), SEEDS), min_size=1,
                    max_size=40))
    def test_block_derivation_is_numpys(self, rows):
        master, stream, index = (np.array(c, dtype=np.uint64) for c in zip(*rows))
        expected = [
            int(np.random.SeedSequence(list(row)).generate_state(1, np.uint64)[0])
            for row in rows
        ]
        assert _derive(master, stream, index).tolist() == expected
        assert [derive_seed(*row) for row in rows[:3]] == expected[:3]

    @given(st.lists(SEEDS, min_size=1, max_size=40))
    def test_generator_states_are_numpys(self, seeds):
        states = _pcg_states(np.array(seeds, dtype=np.uint64))
        assert [{"state": s, "inc": inc} for s, inc in states] == [
            np.random.PCG64(seed).state["state"] for seed in seeds
        ]

    def test_series_draws_as_numpy(self):
        grid = np.linspace(0, 40, 30)
        for seed in (0, 2**32, 2**64 - 1):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal(30)
            keep = rng.random(30) >= 0.2
            s = simulate_series(HOST_LAW, grid, 0.1, 0.2, seed=seed)
            np.testing.assert_array_equal(s.times, grid[keep])
            np.testing.assert_array_equal(
                s.values, (logistic_value(HOST_LAW, grid) * np.exp(0.1 * z))[keep]
            )

    @pytest.mark.parametrize("bad", [-1, 2**64, 3.0, 2.5, "3", None])
    def test_seed_outside_64_bits_is_refused(self, bad):
        # numpy raised a bare ValueError or TypeError, and took 2**64
        with pytest.raises(InvalidInputError, match=r"integer in \[0, 2\*\*64\)"):
            simulate_series(HOST_LAW, np.linspace(0, 40, 20), seed=bad)
        for args in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
            with pytest.raises(InvalidInputError):
                derive_seed(*args)

    def test_numpy_integer_seeds_are_accepted(self):
        assert derive_seed(np.uint64(2**64 - 1), np.int8(1), np.int64(7)) == derive_seed(
            2**64 - 1, 1, 7
        )


class TestEarlyPhaseCutoff:
    def test_cutoff_matches_law(self):
        t_cut = early_phase_cutoff(HOST_LAW)
        np.testing.assert_allclose(
            logistic_value(HOST_LAW, t_cut), 0.1 * HOST_LAW.k, rtol=1e-12
        )
        assert logistic_value(HOST_LAW, t_cut - 1.0) < 0.1 * HOST_LAW.k


class TestMonteCarloRecovery:
    def test_noiseless_is_nearly_unbiased(self):
        # distinct laws: noiseless curves are not *exactly* log-log linear
        # (the power law is a small-value approximation), so standard errors
        # stay positive, but the bias is tiny
        summary = monte_carlo_recovery(early_config(), replicates=5)
        assert summary.replicates == 5
        assert summary.failures == 0
        assert abs(summary.bias) < 1e-3
        assert len(summary.estimates) == 5

    @pytest.mark.parametrize("missing_prob, uniform_fills", [(0.0, 0), (0.1, 400)])
    def test_one_generator_fill_per_series(self, fills, missing_prob, uniform_fills):
        # the recover benchmark's scenario: 200 replicates of host and
        # parasite, 400 series, each one normal fill, and one uniform fill
        # only with dropouts
        config = early_config(noise_sigma=0.03, missing_prob=missing_prob, seed=42)
        monte_carlo_recovery(config, 200)
        assert (fills["standard_normal"], fills["random"]) == (400, uniform_fills)

    def test_rmse_of_a_true_b_near_the_float_maximum(self):
        # B = 0.087 / 1e-300 = 8.7e298: the squared deviations overflowed,
        # with a RuntimeWarning, to rmse=inf
        host = LogisticParams(k=100.0, a=6.0, b=1e-300)
        config = early_config(host=host, noise_sigma=0.03)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = monte_carlo_recovery(config, 20)
        assert summary.failures == 0 and summary.true_b == 0.087 / 1e-300
        true_b = Fraction(summary.true_b)
        mean_square = sum((Fraction(e) - true_b) ** 2 for e in summary.estimates) / 20
        with localcontext() as exact:
            exact.prec = 40
            oracle = float((Decimal(mean_square.numerator)
                            / Decimal(mean_square.denominator)).sqrt())
        assert math.isfinite(summary.rmse)
        assert summary.rmse == pytest.approx(oracle, rel=1e-12)

    def test_noiseless_identical_laws_degenerate(self):
        # identical laws make the parasite array equal the host array, the
        # residuals exactly zero, and every CI a point: coverage degenerates
        config = early_config(parasites=(HOST_LAW,))
        summary = monte_carlo_recovery(config, replicates=5)
        assert summary.perfect_fits == 5
        assert math.isnan(summary.coverage_95)
        assert summary.true_b == 1.0
        assert abs(summary.bias) < 1e-3
        assert summary.estimates == (1.0,) * 5

    def test_determinism(self):
        config = early_config(noise_sigma=0.03, seed=21)
        a = monte_carlo_recovery(config, replicates=20)
        b = monte_carlo_recovery(config, replicates=20)
        assert a == b

    def test_estimates_sorted(self):
        config = early_config(noise_sigma=0.03, seed=21)
        summary = monte_carlo_recovery(config, replicates=20)
        assert list(summary.estimates) == sorted(summary.estimates)

    def test_error_shrinks_with_window(self):
        # noiseless estimation error decreases as the window's top edge
        # pulls back toward the curve origin (anchored deep in the left
        # tail, where both laws are vanishingly small)
        errors = []
        true_b = PARASITE_LAW.b / HOST_LAW.b
        for t_end in (60.0, 20.0, -20.0):
            config = early_config(t_start=-100.0, t_end=t_end)
            summary = monte_carlo_recovery(
                config, replicates=1, early_phase_only=False
            )
            errors.append(abs(summary.estimates[0] - true_b))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 5e-4

    def test_full_window_bias_exceeds_early_phase(self):
        # the power law is a small-value approximation: sampling across
        # saturation must show larger systematic bias
        config = early_config(
            t_start=0.0, t_end=200.0, n_points=100, noise_sigma=0.0
        )
        early = monte_carlo_recovery(config, replicates=1, early_phase_only=True)
        full = monte_carlo_recovery(config, replicates=1, early_phase_only=False)
        assert abs(full.bias) > abs(early.bias)
        assert abs(full.bias) > 0.05

    def test_k_scale_invariance(self):
        config = early_config()
        scaled = early_config(
            host=LogisticParams(k=300.0, a=6.0, b=0.05),
            parasites=(LogisticParams(k=150.0, a=6.96, b=0.087),),
        )
        a = monte_carlo_recovery(config, replicates=1)
        b = monte_carlo_recovery(scaled, replicates=1)
        np.testing.assert_allclose(a.estimates[0], b.estimates[0], atol=1e-6)

    def test_all_failures_is_harness_error(self):
        # early-phase cutoff falls before the grid: every window is empty
        bad_host = LogisticParams(k=100.0, a=-5.0, b=0.05)
        config = early_config(host=bad_host)
        with pytest.raises(HarnessError):
            monte_carlo_recovery(config, replicates=3)

    def test_failures_counted_not_fatal(self):
        # heavy dropout on a tiny grid: some replicates lose too many points
        config = early_config(n_points=5, missing_prob=0.6, seed=3)
        summary = monte_carlo_recovery(config, replicates=40)
        assert summary.failures > 0
        assert len(summary.estimates) == 40 - summary.failures

    @pytest.mark.parametrize("early_phase_only", [True, False])
    @pytest.mark.parametrize("missing_prob", [0.0, 0.1])
    def test_equals_the_whole_config_reference(self, early_phase_only, missing_prob):
        config = early_config(
            parasites=(PARASITE_LAW, SIBLING_LAW),
            noise_sigma=0.03,
            missing_prob=missing_prob,
            seed=41,
        )
        summary = monte_carlo_recovery(config, 30, early_phase_only)
        assert summary == recovery_reference(config, 30, early_phase_only)

    @pytest.mark.parametrize(
        "replicates, n_points",
        [pytest.param(r, 44, id=str(r)) for r in (1, 3, 7)]
        + [pytest.param(3, 50_000, id="3-on-50000-points")],
    )
    def test_seed_blocks_equal_the_reference(self, monkeypatch, replicates, n_points):
        # blocks of 3: one short block, one whole block, and a remainder; on
        # 50,000 points the bound on numbers drawn per pass leaves one
        # replicate per block
        monkeypatch.setattr(simulate, "_SEED_BLOCK", 3)
        passes, draw = [], simulate._draw
        monkeypatch.setattr(
            simulate, "_draw",
            lambda *args: passes.append(args[-1].shape) or draw(*args),
        )
        config = early_config(
            noise_sigma=0.03, missing_prob=0.1, seed=2**64 - 1, n_points=n_points
        )
        summary = monte_carlo_recovery(config, replicates)
        assert summary == recovery_reference(config, replicates)
        rows = [r for r, n_series in passes]
        assert sum(rows) == replicates
        assert max(rows) * 2 * n_points <= max(simulate._DRAW_BLOCK, 2 * n_points)
        assert max(rows) == (min(3, replicates) if n_points == 44 else 1)

    def test_failing_scenario_equals_the_reference(self):
        config = early_config(n_points=5, missing_prob=0.6, seed=3)
        summary = monte_carlo_recovery(config, replicates=40)
        assert summary.failures > 0
        assert summary == recovery_reference(config, 40)

    def test_unused_sibling_is_not_drawn(self):
        # a sibling at the top of the float range overflows under any upward
        # noise, so simulate_pair refuses the config; recovery never draws
        # the sibling, so none of its replicates fails for it
        huge = LogisticParams(k=1.79e308, a=-50.0, b=0.05)
        config = early_config(parasites=(PARASITE_LAW, huge), noise_sigma=0.03)
        with pytest.raises(InvalidInputError, match="noise_sigma"):
            simulate_pair(config)
        with pytest.raises(HarnessError):
            recovery_reference(config, 5)
        summary = monte_carlo_recovery(config, 5)
        assert summary.failures == 0
        assert summary == monte_carlo_recovery(early_config(noise_sigma=0.03), 5)

    def test_replicates_validated(self):
        with pytest.raises(InvalidInputError):
            monte_carlo_recovery(early_config(), replicates=0)

    @pytest.mark.parametrize("replicates", [2.5, np.float64(3.7), "3", None])
    def test_non_integral_replicates_are_refused(self, replicates):
        # 2.5 and 3.7 raised a bare TypeError
        with pytest.raises(InvalidInputError, match="replicates must be an integer"):
            monte_carlo_recovery(early_config(), replicates)

    def test_integral_replicates_become_an_int(self):
        # True gave a summary with replicates=True
        cases = ((3.0, 3), (np.int64(3), 3), (np.float64(3.0), 3), (True, 1))
        for value, count in cases:
            summary = monte_carlo_recovery(early_config(), value)
            assert type(summary.replicates) is int and summary.replicates == count
            assert len(summary.estimates) == count

    @settings(max_examples=100, deadline=None)
    @given(
        n_points=st.integers(4, 60),
        t_end=st.sampled_from([43.0, 120.0]),
        missing_prob=st.sampled_from([0.0, 0.1, 0.6]),
        noise_sigma=st.sampled_from([0.0, 0.03, 0.3, 200.0, 1e3]),
        early_phase_only=st.booleans(),
        seed=SEEDS,
        host=st.sampled_from([HOST_LAW, FLAT_LAW]),
        target=st.sampled_from([PARASITE_LAW, HOST_LAW, UNDERFLOWING_LAW]),
        replicates=st.integers(1, 12),
    )
    # every value overflows the floats: both sides fail every replicate
    @example(n_points=44, t_end=43.0, missing_prob=0.0, noise_sigma=1e3,
             early_phase_only=True, seed=1, host=HOST_LAW, target=PARASITE_LAW,
             replicates=5)
    # some replicates overflow only outside the early-phase window
    @example(n_points=60, t_end=120.0, missing_prob=0.0, noise_sigma=200.0,
             early_phase_only=True, seed=3, host=HOST_LAW, target=PARASITE_LAW,
             replicates=12)
    # the replicates that keep the parasite's 0.0 at t=0 fail
    @example(n_points=44, t_end=43.0, missing_prob=0.6, noise_sigma=0.03,
             early_phase_only=True, seed=5, host=HOST_LAW, target=UNDERFLOWING_LAW,
             replicates=12)
    # a noiseless flat host is constant: every replicate fails
    @example(n_points=10, t_end=43.0, missing_prob=0.1, noise_sigma=0.0,
             early_phase_only=False, seed=7, host=FLAT_LAW, target=PARASITE_LAW,
             replicates=3)
    # one block fits rows of 7 to 10 shared years; among the 7-year rows,
    # two have a constant host (t=0, the steep host's one value below K,
    # dropped) and three do not
    @example(n_points=10, t_end=43.0, missing_prob=0.1, noise_sigma=0.0,
             early_phase_only=False, seed=1, host=STEEP_LAW, target=PARASITE_LAW,
             replicates=12)
    def test_block_fit_equals_the_reference(self, n_points, t_end, missing_prob,
                                            noise_sigma, early_phase_only, seed,
                                            host, target, replicates):
        # σ 200 overflows some replicates, σ 1e3 all; 60% dropout leaves some
        # with fewer than 4 shared years; identical laws fit perfectly at σ 0
        config = early_config(host=host, parasites=(target,), n_points=n_points,
                              t_end=t_end,
                              missing_prob=missing_prob, noise_sigma=noise_sigma,
                              seed=seed)
        outcomes = []
        for recover in (monte_carlo_recovery, recovery_reference):
            try:
                outcomes.append(repr(recover(config, replicates, early_phase_only)))
            except HarnessError:
                outcomes.append("HarnessError")
        assert outcomes[0] == outcomes[1]
