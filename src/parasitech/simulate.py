"""Synthetic coupled-logistic ecosystems and estimator-recovery harness.

Generates host/parasite series from known logistic laws with multiplicative
lognormal noise (positivity is preserved, and the disturbance lives in log
space where the estimator's error term does). Sub-seeds for series and
replicates are derived deterministically from the master seed, so any run is
reproducible and replicates could be farmed out in parallel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import statkit
from .core import TechSeries
from .errors import HarnessError, InvalidInputError, ParasitechError
from .evolution import fit_evolution
from .logistic import LogisticParams, logistic_value

# Tags keeping series-level and replicate-level seed streams disjoint.
_SERIES_STREAM = 0
_REPLICATE_STREAM = 1

# Default "early phase" threshold: a series is early while its value is
# below this fraction of its equilibrium level K.
EARLY_PHASE_FRACTION = 0.1


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario: laws, grid, noise, sparsity, seed."""

    host: LogisticParams
    parasites: tuple[LogisticParams, ...]
    t_start: float
    t_end: float
    n_points: int
    noise_sigma: float = 0.0
    missing_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.parasites:
            raise InvalidInputError("config needs at least one parasite law")
        object.__setattr__(self, "parasites", tuple(self.parasites))
        if not math.isfinite(self.t_end - self.t_start):  # NaN and inf too
            raise InvalidInputError(
                f"t_start {self.t_start!r} and t_end {self.t_end!r} must be "
                "finite, and so must their difference"
            )
        if not (self.t_start < self.t_end):
            raise InvalidInputError("t_start must be strictly below t_end")
        n = self.n_points
        if not (isinstance(n, numbers.Real) and float(n).is_integer()):
            raise InvalidInputError(f"n_points must be an integer, got {n!r}")
        object.__setattr__(self, "n_points", int(n))
        if self.n_points < 4:
            raise InvalidInputError(f"n_points must be >= 4, got {self.n_points}")
        if not (self.noise_sigma >= 0 and math.isfinite(self.noise_sigma)):
            raise InvalidInputError("noise_sigma must be a nonnegative finite real")
        if not (0.0 <= self.missing_prob < 1.0):
            raise InvalidInputError("missing_prob must lie in [0, 1)")
        if not (0 <= int(self.seed) < 2**64):
            raise InvalidInputError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))

    def grid(self) -> np.ndarray:
        """The n_points evenly spaced times; they must be distinct floats."""
        t = np.linspace(self.t_start, self.t_end, self.n_points)
        if (np.diff(t) <= 0).any():
            raise InvalidInputError(
                f"{self.n_points} grid points from {self.t_start!r} to "
                f"{self.t_end!r} are not distinct floats"
            )
        return t


@dataclass(frozen=True)
class RecoverySummary:
    """Monte Carlo recovery of the evolutionary coefficient.

    ``estimates`` holds the per-replicate slope estimates, sorted ascending
    so the summary is independent of evaluation order. ``coverage_95`` is
    the fraction of non-degenerate replicates whose 95% CI contains the true
    coefficient (NaN when every fit was perfect, where the CI collapses to a
    point and coverage is meaningless).
    """

    replicates: int
    true_b: float
    estimates: tuple[float, ...]
    bias: float
    rmse: float
    coverage_95: float
    failures: int
    perfect_fits: int


def derive_seed(master: int, stream: int, index: int) -> int:
    """Deterministic 64-bit sub-seed from (master seed, stream tag, index)."""
    ss = np.random.SeedSequence([int(master), int(stream), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def simulate_series(
    params: LogisticParams,
    grid: Sequence[float],
    noise_sigma: float = 0.0,
    missing_prob: float = 0.0,
    seed: int = 0,
    name: str = "sim",
    role: str = "parasite",
    units: str = "fmt",
) -> TechSeries:
    """Sample a logistic law on a grid with lognormal noise and dropouts.

    value_t = logistic(t) * exp(noise_sigma * z_t) with z_t standard normal;
    each point is then independently dropped with ``missing_prob``. The
    noise draws for kept points do not depend on the dropout draws, and the
    same seed always reproduces the same series.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise InvalidInputError("grid must be a non-empty 1-d sequence")
    if np.any(np.diff(t) <= 0):
        raise InvalidInputError("grid times must be strictly increasing")
    if not noise_sigma >= 0:  # NaN too
        raise InvalidInputError(f"noise_sigma must be nonnegative, got {noise_sigma!r}")
    if not (0.0 <= missing_prob < 1.0):
        raise InvalidInputError("missing_prob must lie in [0, 1)")

    values = logistic_value(params, t)
    keep, values = _draw(values, noise_sigma, missing_prob, seed, name)
    return TechSeries.from_columns(name, role, units, t[keep], values[keep])


def _draw(values, noise_sigma, missing_prob, seed, name):
    """The kept mask and the noisy values around the true ``values``."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(values.size)
    keep = rng.random(values.size) >= missing_prob
    if noise_sigma > 0:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            noisy = values * np.exp(noise_sigma * z)
        if np.any(keep & (values > 0) & ~((noisy > 0) & (noisy < math.inf))):
            raise InvalidInputError(
                f"noise_sigma={noise_sigma!r} is too large: lognormal noise "
                f"drives a value of series {name!r} out of the positive floats"
            )
        values = noisy
    return keep, values


def simulate_pair(config: SimConfig) -> tuple[TechSeries, tuple[TechSeries, ...]]:
    """Generate the host and every parasite on the shared grid.

    Series i draws from a sub-seed derived from (seed, series stream, i),
    with the host at index 0, so streams stay independent and reproducible.
    """
    grid = config.grid()
    host = simulate_series(
        config.host,
        grid,
        config.noise_sigma,
        config.missing_prob,
        seed=derive_seed(config.seed, _SERIES_STREAM, 0),
        name="host",
        role="host",
    )
    parasites = tuple(
        simulate_series(
            p,
            grid,
            config.noise_sigma,
            config.missing_prob,
            seed=derive_seed(config.seed, _SERIES_STREAM, i + 1),
            name=f"parasite{i + 1}",
            role="parasite",
        )
        for i, p in enumerate(config.parasites)
    )
    return host, parasites


def early_phase_cutoff(
    params: LogisticParams, fraction: float = EARLY_PHASE_FRACTION
) -> float:
    """Latest t at which the law is still below ``fraction`` of K."""
    if not (0.0 < fraction < 1.0):
        raise InvalidInputError("fraction must lie in (0, 1)")
    # value < f*K  <=>  a - b*t > log((1-f)/f)
    return (params.a - math.log((1.0 - fraction) / fraction)) / params.b


def monte_carlo_recovery(
    config: SimConfig,
    replicates: int,
    early_phase_only: bool = True,
) -> RecoverySummary:
    """Repeatedly simulate and refit to measure recovery of B = b2/b1.

    Each replicate re-derives its own seed, draws the host and the first
    parasite as ``simulate_pair`` would (the other parasites are not drawn),
    optionally keeps only the early-phase window (both values below
    ``EARLY_PHASE_FRACTION`` of their equilibria, judged on the true laws),
    and fits the log-log evolution model. Replicate fit failures are
    counted, not fatal; if every replicate fails the harness errors out.

    The power law only holds as a small-value approximation, so full-curve
    sampling (early_phase_only=False) exhibits systematic bias by design.
    """
    if replicates < 1:
        raise InvalidInputError(f"replicates must be >= 1, got {replicates}")
    target = config.parasites[0]
    true_b = target.b / config.host.b

    grid = config.grid()
    t_cut = min(early_phase_cutoff(config.host), early_phase_cutoff(target))
    window = grid <= t_cut if early_phase_only else True
    laws = (
        ("host", "host", logistic_value(config.host, grid)),
        ("parasite1", "parasite", logistic_value(target, grid)),
    )

    estimates: list[float] = []
    covered = 0
    usable_cis = 0
    failures = 0
    perfect = 0
    sigma, p_missing = config.noise_sigma, config.missing_prob
    for r in range(replicates):
        rep_seed = derive_seed(config.seed, _REPLICATE_STREAM, r)
        try:
            pair = []
            for i, (name, role, curve) in enumerate(laws):
                seed = derive_seed(rep_seed, _SERIES_STREAM, i)
                keep, values = _draw(curve, sigma, p_missing, seed, name)
                keep &= window
                pair.append(TechSeries(name, role, "fmt", grid[keep], values[keep]))
            fit = fit_evolution(*pair)
        except ParasitechError:
            failures += 1
            continue
        estimates.append(fit.b)
        se = fit.regression.standard_errors[1]
        if se > 0:
            usable_cis += 1
            half = statkit.t_critical(0.05, fit.n_paired - 2) * se
            if abs(fit.b - true_b) <= half:
                covered += 1
        else:
            perfect += 1

    if not estimates:
        raise HarnessError(
            f"all {replicates} replicates failed to fit; check the scenario"
        )

    est = np.sort(np.array(estimates))
    bias = float(est.mean() - true_b)
    rmse = float(math.sqrt(np.mean((est - true_b) ** 2)))
    coverage = covered / usable_cis if usable_cis > 0 else math.nan
    return RecoverySummary(
        replicates=replicates,
        true_b=float(true_b),
        estimates=tuple(float(e) for e in est),
        bias=bias,
        rmse=rmse,
        coverage_95=float(coverage),
        failures=failures,
        perfect_fits=perfect,
    )
