"""Synthetic coupled-logistic ecosystems and estimator-recovery harness.

Generates host/parasite series from known logistic laws with multiplicative
lognormal noise (positivity is preserved, and the disturbance lives in log
space where the estimator's error term does). Sub-seeds for series and
replicates are derived deterministically from the master seed, so any run is
reproducible and replicates could be farmed out in parallel.

The sub-seeds and the streams drawn from them are numpy's: the sub-seed of
(master, stream, index) is the first 64-bit word of numpy's seed sequence
of the entropy [master, stream, index], and a series drawn from seed s gets
the numbers of numpy's PCG64 seeded with s. Both are computed here, bit for
bit, rather than by numpy's per-seed objects, so that a block of replicates
is seeded in one array pass.
"""

from __future__ import annotations

import math
import numbers
from itertools import accumulate
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

# Replicates seeded per array pass: bounds the pass's scratch memory.
_SEED_BLOCK = 1024

# numpy's seed-sequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1

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
        object.__setattr__(self, "seed", _check_seed(self.seed))

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


def _check_seed(value, what: str = "seed") -> int:
    if not (isinstance(value, numbers.Integral) and 0 <= value < 2**64):
        raise InvalidInputError(
            f"{what} must be an integer in [0, 2**64), got {value!r}"
        )
    return int(value)


def _hash_constants(const: int, mult: int, calls: int):
    """The (xor, multiply) constants of ``calls`` successive calls of numpy's
    seed-sequence hash, each a uint64 column."""
    consts = accumulate(range(calls), lambda c, _: c * mult & _M32, initial=const)
    column = np.array(list(consts), np.uint64)[:, None]
    return column[:-1], column[1:]


# the hash calls that mix the pool of 3 integers (6 words at most), and
# those of 8 output words
_POOL_HASH = _hash_constants(_INIT_A, _MULT_A, 4 + 12 + 4 * 2)
_OUTPUT_HASH = _hash_constants(_INIT_B, _MULT_B, 8)


def _hash(v, constants, calls: slice):
    xor, mult = constants
    v = (v ^ xor[calls]) * mult[calls] & _M32
    return v ^ v >> 16


def _mix(x, y):
    v = (_MIX_L * x - _MIX_R * y) & _M32
    return v ^ v >> 16


def _seed_sequence(columns, n_words: int) -> np.ndarray:
    """Column j is ``generate_state(n_words, np.uint64)`` of numpy's seed
    sequence of the j-th entries of ``columns`` (at most 3 columns of integers
    below 2**64, scalars or equal-length arrays).

    numpy hashes one word at a time; here the pool words that one word is
    mixed into, and the words of the output, are hashed in one array op.
    """
    n = max(np.size(c) for c in columns)
    rows, length = np.arange(n), np.zeros(n, np.intp)
    # each integer is 1 or 2 little-endian 32-bit words; numpy pads to 4 with 0
    words = np.zeros((max(4, 2 * len(columns)), n), np.uint64)
    for c in columns:
        c = np.asarray(c, np.uint64)
        # a high word of 0 is overwritten by the next column's low word
        words[length, rows], words[length + 1, rows] = c & _M32, c >> 32
        length += 1 + (c > _M32)

    pool = _hash(words[:4], _POOL_HASH, slice(0, 4))
    call = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], _POOL_HASH, slice(call, call + 3)))
        call += 3
    for src in range(4, len(words)):  # words beyond the pool, in rows that have them
        present = length > src
        if not present.any():
            break
        mixed = _mix(pool, _hash(words[src], _POOL_HASH, slice(call, call + 4)))
        pool = np.where(present, mixed, pool)
        call += 4
    half = _hash(pool[np.arange(2 * n_words) % 4], _OUTPUT_HASH, slice(0, 2 * n_words))
    return half[0::2] | half[1::2] << 32


def _derive(master, stream, index) -> np.ndarray:
    """``derive_seed`` of each row of (master, stream, index), as uint64."""
    return _seed_sequence((master, stream, index), 1)[0]


def _pcg_states(seeds) -> list[tuple[int, int]]:
    """The (state, inc) that ``np.random.PCG64(seed)`` starts from, per seed."""
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*_seed_sequence((seeds,), 4).tolist()):
        # pcg64_set_seed: state 0, one LCG step, add the seed, one more step
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc))
    return states


def derive_seed(master: int, stream: int, index: int) -> int:
    """Deterministic 64-bit sub-seed from (master seed, stream tag, index).

    It is the first uint64 that numpy's seed sequence of the entropy
    [master, stream, index] generates; each argument must be an integer in
    [0, 2**64).
    """
    names = ("master", "stream", "index")
    return int(_derive(*map(_check_seed, (master, stream, index), names))[0])


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

    (state,) = _pcg_states([_check_seed(seed)])
    gen = np.random.Generator(np.random.PCG64())
    values = logistic_value(params, t)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        keep, values = _draw(values, noise_sigma, missing_prob, gen, state, name)
    return TechSeries.from_columns(name, role, units, t[keep], values[keep])


def _draw(values, noise_sigma, missing_prob, gen, state, name):
    """The kept mask and the noisy values around the true ``values``, drawn
    by ``gen`` from the PCG64 ``state`` that ``_pcg_states`` gives a seed.
    The caller silences numpy's over/underflow warnings."""
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    z = gen.standard_normal(values.size)
    keep = gen.random(values.size) >= missing_prob
    if noise_sigma > 0:
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
    laws = [(config.host, "host", "host")] + [
        (p, f"parasite{i}", "parasite") for i, p in enumerate(config.parasites, 1)
    ]
    seeds = _derive(config.seed, _SERIES_STREAM, np.arange(len(laws))).tolist()
    host, *parasites = (
        simulate_series(params, grid, config.noise_sigma, config.missing_prob,
                        seed=seed, name=name, role=role)
        for (params, name, role), seed in zip(laws, seeds)
    )
    return host, tuple(parasites)


def _replicate_states(master: int, replicates: int, n_series: int):
    """Per replicate r, the PCG64 states of the first ``n_series`` series that
    ``simulate_pair`` draws on r's seed, derived (master, replicate stream, r).
    One array pass seeds ``_SEED_BLOCK`` replicates."""
    for start in range(0, replicates, _SEED_BLOCK):
        block = _derive(master, _REPLICATE_STREAM,
                        np.arange(start, min(start + _SEED_BLOCK, replicates)))
        series = np.tile(np.arange(n_series), block.size)
        states = _pcg_states(_derive(block.repeat(n_series), _SERIES_STREAM, series))
        for j in range(0, len(states), n_series):
            yield states[j:j + n_series]


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
    gen = np.random.Generator(np.random.PCG64())  # re-seeded by every _draw
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for states in _replicate_states(config.seed, replicates, len(laws)):
            try:
                pair = []
                for (name, role, curve), state in zip(laws, states):
                    keep, values = _draw(curve, sigma, p_missing, gen, state, name)
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
