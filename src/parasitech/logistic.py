"""Logistic growth laws and the host-parasite power law they imply.

A technology's FMT follows the symmetric logistic

    value(t) = K / (1 + exp(a - b*t)),

equivalently ``log((K - v)/v) = a - b*t``: K is the equilibrium level, b the
rate of growth, a the initial-condition constant, and the inflection sits at
t* = a/b where the curve crosses K/2.

Eliminating t between a host law (K1, a1, b1) and a parasite law
(K2, a2, b2) gives the exact relation

    H/(K1 - H) = C1 * (P/(K2 - P))^(b1/b2),   C1 = exp(b1*(t2 - t1)),

and, when both values are small against their equilibria, the power law
P = A * H^B with B = b2/b1. Solving the exact relation in that limit gives
A = K2 * (C1*K1)^(-B). Note this is *not* the occasionally quoted
K2*C1/K1^B; the numeric elimination oracle in the test suite confirms the
derived form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import statkit
from .core import TechSeries
from .errors import FitFailureError, InsufficientDataError, InvalidInputError

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi

# The K search stops when its bracket is this narrow, relative to its top.
K_SEARCH_RTOL = 1e-12


@dataclass(frozen=True)
class LogisticParams:
    """Parameters (K, a, b) of one logistic growth law; K > 0, b > 0."""

    k: float
    a: float
    b: float

    def __post_init__(self):
        for name in ("k", "a", "b"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise InvalidInputError(f"logistic parameter {name} must be finite")
            object.__setattr__(self, name, v)
        if self.k <= 0:
            raise InvalidInputError(f"equilibrium level K must be > 0, got {self.k}")
        if self.b <= 0:
            raise InvalidInputError(f"growth rate b must be > 0, got {self.b}")

    @property
    def inflection_time(self) -> float:
        """Abscissa t* = a/b of the inflection point, where value = K/2."""
        return self.a / self.b


@dataclass(frozen=True)
class PowerLaw:
    """P = a * H^b with elimination constant c1; all three positive."""

    a: float
    b: float
    c1: float

    def __post_init__(self):
        for name in ("a", "b", "c1"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0):
                raise InvalidInputError(
                    f"power-law parameter {name} must be a positive finite real"
                )
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class LogisticFitReport:
    """Result of fitting a logistic law to a series.

    ``r2_logit`` is the R^2 of the straight-line fit in logit space at the
    selected K; ``k_at_bound`` flags an equilibrium estimate pinned against
    either end of ``k_search_bracket``: within 1% of the bracket of its top
    (the data carry no saturation information), or within ``K_SEARCH_RTOL``
    times the top of its bottom (just above the largest value, where the
    logit fit does not locate the equilibrium).
    """

    params: LogisticParams
    r2_logit: float
    k_at_bound: bool
    n: int


def logistic_value(params: LogisticParams, t):
    """Evaluate K/(1 + exp(a - b*t)); accepts a scalar or an array of t."""
    t_arr = np.asarray(t, dtype=float)
    out = params.k * expit(-(params.a - params.b * t_arr))
    if np.ndim(t) == 0:
        return float(out)
    return out


def k_search_bracket(series: TechSeries, k_max_factor: float) -> tuple[float, float]:
    """The interval (max*(1+1e-6), max*k_max_factor) that the K search spans."""
    if not (math.isfinite(k_max_factor) and k_max_factor > 1.0 + 1e-6):
        raise InvalidInputError(
            f"k_max_factor must exceed 1 + 1e-6, got {k_max_factor!r}"
        )
    vmax = float(series.values.max())
    hi = vmax * k_max_factor
    if hi == math.inf:
        raise InvalidInputError(
            f"k_max_factor {k_max_factor!r} times the largest value {vmax} "
            "overflows"
        )
    return vmax * (1.0 + 1e-6), hi


def _logit_line(series: TechSeries):
    """K -> (R^2, intercept, slope, e) of the least-squares line of
    log((K - v)/v) on t, for K in the search bracket, with the sums over t
    formed once. t is fitted as ``ols_simple`` fits it, scaled by an exact
    power of two into [-1, 1]: the slope is that on t / 2**e, and R^2 and
    the intercept do not depend on t's scale."""
    values = series.values
    t, e = statkit._unit_scaled(series.times)
    t_sums = statkit._x_sums(t)

    def line_at(k: float):
        y = np.log((k - values) / values)
        intercept, slope, sse, sst = statkit._line(t, y, *t_sums)
        return statkit._r2(sse, sst), intercept, slope, e

    return line_at


def fit_logistic(series: TechSeries, k_max_factor: float = 10.0) -> LogisticFitReport:
    """Fit (K, a, b) to a series via its logit linearization.

    K is searched over (max*(1+1e-6), max*k_max_factor] by golden-section,
    maximizing the R^2 of the straight-line fit of log((K-v)/v) against t;
    a is the intercept and b the negated slope of the search's own line at
    the K returned. A non-positive b (no growth trend) is a fit failure.
    """
    if series.n < 4:
        raise InsufficientDataError(
            f"need at least 4 observations to fit a logistic, got {series.n}"
        )
    values = series.values
    if np.ptp(values) == 0.0:
        raise InsufficientDataError(
            f"series {series.name!r} is constant; no growth law to fit"
        )
    lo, hi = k_search_bracket(series, k_max_factor)
    line_at = _logit_line(series)

    # Golden-section maximization of R^2(K). ~90 shrinks take the bracket
    # below float spacing; the objective is smooth and unimodal in practice.
    a_br, b_br = lo, hi
    c = b_br - _INV_PHI * (b_br - a_br)
    d = a_br + _INV_PHI * (b_br - a_br)
    fc, fd = line_at(c)[0], line_at(d)[0]
    for _ in range(90):
        if fc > fd:
            b_br, d, fd = d, c, fc
            c = b_br - _INV_PHI * (b_br - a_br)
            fc = line_at(c)[0]
        else:
            a_br, c, fc = c, d, fd
            d = a_br + _INV_PHI * (b_br - a_br)
            fd = line_at(d)[0]
        if b_br - a_br <= K_SEARCH_RTOL * hi:
            break
    k_best = 0.5 * (a_br + b_br)

    r2, intercept, slope, e = line_at(k_best)
    try:
        slope = math.ldexp(slope, -e)
    except OverflowError:
        raise InvalidInputError("an estimate of y on x overflows the floats") from None
    if slope >= 0.0:
        raise FitFailureError(
            f"series {series.name!r}: logit slope is nonnegative (b <= 0); "
            "no increasing logistic trend"
        )
    params = LogisticParams(k=k_best, a=intercept, b=-slope)
    k_at_bound = hi - k_best <= 0.01 * (hi - lo) or k_best - lo <= K_SEARCH_RTOL * hi
    return LogisticFitReport(
        params=params, r2_logit=float(r2), k_at_bound=k_at_bound, n=series.n
    )


def derive_power_law(host: LogisticParams, parasite: LogisticParams) -> PowerLaw:
    """Power law implied by a host and a parasite logistic law.

    Exponent b = b2/b1; the elimination constant is
    c1 = exp(b1*(t2 - t1)) with t_i = a_i/b_i; the scale constant is
    a = K2 * (c1*K1)^(-b), the small-value limit of the exact relation (see
    the module docstring for why this differs from the commonly quoted form).
    """
    b = parasite.b / host.b
    t1 = host.inflection_time
    t2 = parasite.inflection_time
    try:
        c1 = math.exp(host.b * (t2 - t1))
    except OverflowError:
        c1 = math.inf
    _require_float_range("c1", c1, host, parasite)
    try:
        a = parasite.k * (c1 * host.k) ** (-b)
    except (OverflowError, ZeroDivisionError):  # c1*K1 overflowed or hit 0
        a = math.inf
    _require_float_range("a", a, host, parasite)
    return PowerLaw(a=a, b=b, c1=c1)


def _require_float_range(
    name: str, value: float, host: LogisticParams, parasite: LogisticParams
) -> None:
    if not 0.0 < value < math.inf:
        raise InvalidInputError(
            f"power-law constant {name} "
            f"{'overflows' if value else 'underflows to 0'} in floating point "
            f"for host {host} and parasite {parasite}"
        )


def forecast_series(fit: LogisticFitReport, horizon) -> np.ndarray:
    """Evaluate the fitted law at the requested times.

    Returns an (n, 2) array of (t, value) rows; values are bounded by K and
    nondecreasing in t.
    """
    t = np.asarray(horizon, dtype=float)
    if t.ndim != 1:
        raise InvalidInputError("horizon must be a 1-d sequence of times")
    if not np.all(np.isfinite(t)):
        raise InvalidInputError("horizon times must be finite")
    values = logistic_value(fit.params, t)
    return np.column_stack([t, values])
