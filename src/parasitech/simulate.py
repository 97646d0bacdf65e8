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
is seeded in one array pass, and drawn with one generator fill per series.
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
from .errors import HarnessError, InvalidInputError
from .evolution import fit_evolution  # noqa: F401 (perfbench/selftest.py reads it here)
from .logistic import LogisticParams, logistic_value

# Tags keeping series-level and replicate-level seed streams disjoint.
_SERIES_STREAM = 0
_REPLICATE_STREAM = 1

# Replicates seeded, and numbers drawn, per block: they bound its
# scratch memory (about 1 MB), with at least one replicate per block.
_SEED_BLOCK = 1024
_DRAW_BLOCK = 2**15

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
        object.__setattr__(self, "n_points", _check_integer(self.n_points, "n_points"))
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


def _check_integer(value, what: str) -> int:
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    return int(value)


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

    seeds = np.array([[_check_seed(seed)]], np.uint64)
    keep, values, overflow = _draw(logistic_value(params, t)[None], noise_sigma,
                                   missing_prob, seeds)
    return _kept(name, role, units, t, keep[0, 0], values[0, 0], overflow[0, 0],
                 noise_sigma)


def _draw(curves, noise_sigma, missing_prob, seeds):
    """Draw a block of replicates around the true ``curves`` (series x n).

    ``seeds`` holds one PCG64 seed per (replicate, series); each series
    draws its n normals z, then (with dropouts only) its n uniforms u, as
    numpy's ``default_rng(seed)`` would, with one generator fill each into a
    row of a (replicates, series, n) array. Returns the kept mask
    u >= missing_prob (all true without dropouts), the values
    ``curves * exp(noise_sigma * z)`` and, per (replicate, series), whether
    the noise drives a kept value out of the positive floats.
    """
    z = np.empty(seeds.shape + curves.shape[-1:])
    z_rows = z.reshape(seeds.size, -1)
    u_rows = np.empty_like(z_rows) if missing_prob > 0 else None
    gen = np.random.Generator(np.random.PCG64())  # re-seeded for every series
    bits, normal, uniform = gen.bit_generator, gen.standard_normal, gen.random
    pcg = {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for i, (pcg["state"], pcg["inc"]) in enumerate(_pcg_states(seeds.ravel())):
        bits.state = state
        normal(out=z_rows[i])
        if u_rows is not None:
            uniform(out=u_rows[i])
    keep = (np.ones(z.shape, bool) if u_rows is None
            else u_rows.reshape(z.shape) >= missing_prob)
    if not noise_sigma > 0:
        return keep, np.broadcast_to(curves, z.shape), np.zeros(seeds.shape, bool)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        z *= noise_sigma  # z becomes the values, in place
        values = np.multiply(curves, np.exp(z, out=z), out=z)
        lost = keep & (curves > 0) & ~((values > 0) & (values < math.inf))
    return keep, values, lost.any(axis=-1)


def _kept(name, role, units, t, keep, values, overflow, noise_sigma) -> TechSeries:
    """The series of the kept points of one drawn row."""
    if overflow:
        raise InvalidInputError(
            f"noise_sigma={noise_sigma!r} is too large: lognormal noise "
            f"drives a value of series {name!r} out of the positive floats"
        )
    return TechSeries(name, role, units, t[keep], values[keep])


def simulate_pair(config: SimConfig) -> tuple[TechSeries, tuple[TechSeries, ...]]:
    """Generate the host and every parasite on the shared grid.

    Series i draws from a sub-seed derived from (seed, series stream, i),
    with the host at index 0, so streams stay independent and reproducible.
    """
    grid = config.grid()
    laws = [(config.host, "host", "host")] + [
        (p, f"parasite{i}", "parasite") for i, p in enumerate(config.parasites, 1)
    ]
    curves = np.array([logistic_value(params, grid) for params, _, _ in laws])
    seeds = _derive(config.seed, _SERIES_STREAM, np.arange(len(laws)))[None]
    sigma = config.noise_sigma
    keep, values, overflow = _draw(curves, sigma, config.missing_prob, seeds)
    host, *parasites = (
        _kept(name, role, "fmt", grid, *row, sigma)
        for (_, name, role), *row in zip(laws, keep[0], values[0], overflow[0])
    )
    return host, tuple(parasites)


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
    and fits the log-log evolution model. The replicates of a seed block
    are fitted in one array pass, with results identical to building both
    series and calling ``fit_evolution`` on each. A replicate fails where
    that would raise; failures are counted, not fatal, but if every
    replicate fails the harness errors out.

    The power law only holds as a small-value approximation, so full-curve
    sampling (early_phase_only=False) exhibits systematic bias by design.
    """
    replicates = _check_integer(replicates, "replicates")
    if replicates < 1:
        raise InvalidInputError(f"replicates must be >= 1, got {replicates}")
    target = config.parasites[0]
    true_b = target.b / config.host.b

    grid = config.grid()
    t_cut = min(early_phase_cutoff(config.host), early_phase_cutoff(target))
    window = grid <= t_cut if early_phase_only else True
    curves = np.array([logistic_value(config.host, grid), logistic_value(target, grid)])
    block = max(1, min(_SEED_BLOCK, _DRAW_BLOCK // curves.size))

    # per replicate, the slope and the half-width of its 95% CI: NaN if not fitted
    b, half = np.full((2, replicates), math.nan)
    for start in range(0, replicates, block):
        # series i of replicate r draws as simulate_pair on r's seed would
        masters = _derive(config.seed, _REPLICATE_STREAM,
                          np.arange(start, min(start + block, replicates)))
        series = np.tile(np.arange(len(curves)), masters.size)
        seeds = _derive(masters.repeat(len(curves)), _SERIES_STREAM, series)
        seeds = seeds.reshape(-1, len(curves))
        keep, values, overflow = _draw(curves, config.noise_sigma,
                                       config.missing_prob, seeds)
        keep &= window
        # a replicate is fitted where its two series build (no noise overflow,
        # no kept 0 where a law underflows) and share at least 4 years
        shared = keep.all(axis=1)
        n_shared = shared.sum(axis=-1)
        fits = ~overflow.any(axis=1) & (keep <= (values > 0)).all(axis=(1, 2))
        for m in np.unique(n_shared[fits & (n_shared >= 4)]).tolist():
            rows = np.flatnonzero(fits & (n_shared == m))
            log_h, log_p = (np.log(values[rows, i][shared[rows]]).reshape(-1, m)
                            for i in (0, 1))
            varied = (log_h != log_h[:, :1]).any(axis=-1)  # else x is constant
            slope, se = statkit._slopes(log_h[varied], log_p[varied])
            rows = start + rows[varied]
            b[rows], half[rows] = slope, statkit.t_critical(0.05, m - 2) * se

    fitted = np.isfinite(b) & (half != math.inf)  # where fit_evolution returns
    b, half = b[fitted], half[fitted]
    if not b.size:
        raise HarnessError(
            f"all {replicates} replicates failed to fit; check the scenario"
        )
    usable = half > 0  # the others are perfect fits
    usable_cis = int(usable.sum())
    covered = int((np.abs(b - true_b) <= half)[usable].sum())
    est = np.sort(b)
    bias = float(est.mean() - true_b)
    # scaled by a power of two, so the squares cannot overflow
    dev, e = statkit._unit_scaled(est - true_b)
    rmse = float(np.ldexp(math.sqrt(np.mean(dev**2)), e))
    coverage = covered / usable_cis if usable_cis > 0 else math.nan
    return RecoverySummary(
        replicates=replicates,
        true_b=float(true_b),
        estimates=tuple(est.tolist()),
        bias=bias,
        rmse=rmse,
        coverage_95=float(coverage),
        failures=replicates - est.size,
        perfect_fits=est.size - usable_cis,
    )
