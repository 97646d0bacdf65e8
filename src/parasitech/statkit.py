"""Statistics kernel: OLS with diagnostics, t/F tails, moments, correlation.

Everything here operates on plain float sequences / numpy arrays and is pure.
The t and F tail probabilities go through the regularized incomplete beta
function; moment conventions (sample sd, adjusted Fisher-Pearson skewness,
excess kurtosis) follow the usual social-science software definitions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np
from scipy.special import betainc, stdtrit

from .errors import (
    CollinearityError,
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidInputError,
    SingularDesignError,
    UndefinedCorrelationError,
)

_TINY = sys.float_info.min  # the smallest normal float

# The sum and the dot product along the last axis: of 1-d arrays, and per
# row of 2-d stacks, kept as (rows, 1) columns. (keepdims=False costs a 1-d
# call, made ~61 times per fit_logistic, ~0.4 us more than no keyword.)
_OPS = np.add.reduce, np.vecdot
_ROW_OPS = (partial(np.add.reduce, axis=-1, keepdims=True),
            partial(np.vecdot, keepdims=True))


@dataclass(frozen=True)
class RegressionResult:
    """OLS estimates with the diagnostics a regression table reports.

    ``coefficients[0]`` is the intercept; predictor coefficients follow in
    input order. ``standardized_coefficients`` carries NaN in the intercept
    slot (a standardized intercept is not defined). ``perfect_fit`` is set
    when the residual variance is exactly zero, in which case standard errors
    are zero and p-values are reported as 0 for nonzero coefficients instead
    of dividing by zero.
    """

    coefficients: tuple[float, ...]
    standard_errors: tuple[float, ...]
    t_stats: tuple[float, ...]
    p_values: tuple[float, ...]
    standardized_coefficients: tuple[float, ...]
    r2: float
    r2_adj: float
    f_stat: float
    f_p: float
    residual_se: float
    n: int
    k: int
    perfect_fit: bool = False


@dataclass(frozen=True)
class DescriptiveStats:
    """First four moments of a sample; sd uses the n-1 denominator.

    ``skewness`` is None for n < 3 or zero variance; ``kurtosis`` (excess)
    is None for n < 4 or zero variance.
    """

    n: int
    mean: float
    sd: float
    skewness: float | None
    kurtosis: float | None


@dataclass(frozen=True)
class CorrelationEntry:
    """One Pearson correlation cell: coefficient, two-sided p, pairs used.

    ``r`` and ``p`` are NaN when the cell is undefined (fewer than 3 pairs,
    or a constant side inside a matrix).
    """

    r: float
    p: float
    n: int


def student_t_sf(t: float, df: int) -> float:
    """Two-sided tail probability P(|T| >= |t|) of Student's t.

    Uses the identity P(|T| >= |t|) = I_x(df/2, 1/2) with
    x = df/(df + t^2), where I is the regularized incomplete beta function.
    """
    if df < 1:
        raise InvalidInputError(f"degrees of freedom must be >= 1, got {df}")
    t = float(t)
    if math.isnan(t):
        raise InvalidInputError("t statistic must not be NaN")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return float(betainc(df / 2.0, 0.5, x))


def f_sf(f: float, df1: int, df2: int) -> float:
    """Upper tail probability P(F >= f) of the F distribution.

    Uses P(F >= f) = I_x(df2/2, df1/2) with x = df2/(df2 + df1*f).
    """
    if df1 < 1 or df2 < 1:
        raise InvalidInputError(
            f"degrees of freedom must be >= 1, got ({df1}, {df2})"
        )
    f = float(f)
    if math.isnan(f) or f < 0:
        raise InvalidInputError(f"F statistic must be nonnegative, got {f!r}")
    if math.isinf(f):
        return 0.0
    x = df2 / (df2 + df1 * f)
    return float(betainc(df2 / 2.0, df1 / 2.0, x))


def t_critical(alpha: float, df: int) -> float:
    """Two-sided critical value: the t >= 0 with student_t_sf(t, df) = alpha.

    Negated lower-tail quantile at alpha/2 (no cancellation in 1 - alpha/2).
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha!r}")
    if df < 1:
        raise InvalidInputError(f"degrees of freedom must be >= 1, got {df}")
    return float(-stdtrit(df, alpha / 2.0))


def significance_stars(p: float) -> str:
    """Conventional significance stars: *** <.001, ** <.01, * <.05."""
    if not math.isfinite(p):
        return ""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def _tail_stats(coef, se, df: int):
    """t statistics and two-sided p-values, guarding zero standard errors."""
    t_stats, p_values = [], []
    for c, s in zip(coef, se):
        if s > 0:
            t = float(c / s)
            t_stats.append(t)
            p_values.append(student_t_sf(t, df))
        elif c == 0.0:
            t_stats.append(0.0)
            p_values.append(1.0)
        else:
            t_stats.append(math.copysign(math.inf, c))
            p_values.append(0.0)
    return t_stats, p_values


def _f_overall(sst: float, sse: float, k: int, df_resid: int):
    """Overall F statistic and its p-value, guarding degenerate cases."""
    ssr = sst - sse
    if sst <= 0.0:
        return 0.0, 1.0
    if sse == 0.0:
        return math.inf, 0.0
    f = (ssr / k) / (sse / df_resid)
    f = max(f, 0.0)
    return f, f_sf(f, k, df_resid)


def _x_sums(x):
    """x's mean, its deviations from it and their sum of squares along the
    last axis; for a 2-d stack of rows the mean and the sum keep that axis."""
    total, dot = _ROW_OPS if x.ndim > 1 else _OPS
    x_mean = total(x) / x.shape[-1]  # as x.mean()
    dx = x - x_mean
    return x_mean, dx, dot(dx, dx)


def _fit_x(x):
    """The 1-d x to fit, its ``_x_sums`` and the e of x = 2**e * (x to fit).

    That is x itself and e = 0, unless x's sum of squared deviations or
    squared mean leaves the normal floats; then it is x / 2**e, with max
    |x / 2**e| in [0.5, 1), whose sums cannot.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = x_mean, _, sxx = _x_sums(x)
        if _TINY <= sxx < math.inf and x_mean**2 < math.inf:
            return x, sums, 0
    scaled, e = _unit_scaled(x)
    return scaled, _x_sums(scaled), e


def _line(x, y, x_mean, dx, sxx):
    """Intercept, slope, SSE and SST of the least-squares line of y on x
    along the last axis, given ``_x_sums(x)``; one line per row of 2-d x, y."""
    total, dot = _ROW_OPS if y.ndim > 1 else _OPS
    y_mean = total(y) / y.shape[-1]  # as y.mean()
    dy = y - y_mean
    slope = dot(dx, dy) / sxx
    intercept = y_mean - slope * x_mean
    residuals = y - (intercept + slope * x)
    return intercept, slope, dot(residuals, residuals), dot(dy, dy)


def _slopes(x, y):
    """The slope of the least-squares line of each row of y on the same row
    of x (2-d arrays), and its standard error, as ``ols_simple`` has them."""
    x_mean, dx, sxx = _x_sums(x)
    _, slope, sse, _ = _line(x, y, x_mean, dx, sxx)
    return slope[:, 0], np.sqrt(sse / (x.shape[-1] - 2) / sxx)[:, 0]


def _r2(sse: float, sst: float) -> float:
    return 1.0 - sse / sst if sst > 0 else 0.0


def _result(coef, se, std_coef, sse, sst, n, k) -> RegressionResult:
    """The record of an OLS fit with k predictors: tail tests, R^2s, F test."""
    df_resid = n - k - 1
    s2 = sse / df_resid
    r2 = _r2(sse, sst)
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / df_resid
    t_stats, p_values = _tail_stats(coef, se, df_resid)
    f_stat, f_p = _f_overall(sst, sse, k, df_resid)
    return RegressionResult(
        coefficients=tuple(map(float, coef)),
        standard_errors=tuple(map(float, se)),
        t_stats=tuple(t_stats),
        p_values=tuple(p_values),
        standardized_coefficients=tuple(std_coef),
        r2=float(r2),
        r2_adj=float(r2_adj),
        f_stat=float(f_stat),
        f_p=float(f_p),
        residual_se=math.sqrt(s2),
        n=int(n),
        k=int(k),
        perfect_fit=s2 == 0.0,
    )


def ols_simple(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Simple OLS of y on x with an intercept.

    Returns coefficients, standard errors from the residual variance and the
    inverse Gram diagonal, two-sided p-values with n-2 degrees of freedom,
    R^2 / adjusted R^2, and the overall F test with (1, n-2) df. Where
    x's sums of squares leave the normal floats, x is fitted scaled by an
    exact power of two.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidInputError("x and y must be equal-length 1-d sequences")
    n = x.size
    if n < 3:
        raise InsufficientDataError(f"need at least 3 observations, got {n}")
    if x.max() - x.min() == 0.0:  # as np.ptp: NaN, not 0, for an infinite x
        raise SingularDesignError("x is constant; slope is not identified")

    x, (x_mean, dx, sxx), e = _fit_x(x)
    intercept, slope, sse, sst = map(float, _line(x, y, x_mean, dx, sxx))
    s2 = sse / (n - 2)
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + x_mean**2 / sxx))

    sd_x = math.sqrt(sxx / (n - 1))
    sd_y = math.sqrt(sst / (n - 1))
    std_slope = slope * sd_x / sd_y if sd_y > 0 else math.nan

    try:  # the slope on x is 2**-e times the slope on the x fitted
        slope, se_slope = math.ldexp(slope, -e), math.ldexp(se_slope, -e)
    except OverflowError:
        raise InvalidInputError("the slope of y on x overflows the floats") from None
    coef, se = (intercept, slope), (se_intercept, se_slope)
    return _result(coef, se, (math.nan, std_slope), sse, sst, n, 1)


def ols_multi(
    columns: Sequence[Sequence[float]], y: Sequence[float]
) -> RegressionResult:
    """Multiple OLS of y on k predictor columns plus an intercept.

    Solved by numpy's least squares (SVD); the design is rank-checked first
    and a CollinearityError names the first offending column. Standardized
    coefficient j is coef_j * sd(x_j) / sd(y).
    """
    X = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    y = np.asarray(y, dtype=float)
    n, k = X.shape
    if y.shape != (n,):
        raise InvalidInputError("y length must match the predictor columns")
    if n < k + 2:
        raise InsufficientDataError(
            f"need at least k+2 = {k + 2} observations for {k} predictors, got {n}"
        )

    design = np.column_stack([np.ones(n), X])
    rank = 1
    for j in range(k):
        new_rank = int(np.linalg.matrix_rank(design[:, : j + 2]))
        if new_rank == rank:
            raise CollinearityError(
                f"predictor column {j} is linearly dependent on earlier columns",
                column_index=j,
            )
        rank = new_rank

    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    residuals = y - fitted
    sse = float(residuals @ residuals)
    dy = y - y.mean()
    sst = float(dy @ dy)
    s2 = sse / (n - k - 1)
    gram_inv = np.linalg.inv(design.T @ design)
    se = np.sqrt(np.maximum(s2 * np.diag(gram_inv), 0.0))

    sd_y = math.sqrt(sst / (n - 1))
    std_coef = [math.nan]
    for j in range(k):
        sd_xj = float(np.std(X[:, j], ddof=1))
        std_coef.append(coef[j + 1] * sd_xj / sd_y if sd_y > 0 else math.nan)

    return _result(coef, se, std_coef, sse, sst, n, k)


def descriptive(values: Sequence[float]) -> DescriptiveStats:
    """Mean, sample sd, adjusted skewness and excess kurtosis of a sample.

    Skewness is the adjusted Fisher-Pearson coefficient
    g1 * sqrt(n(n-1))/(n-2); kurtosis is the excess form
    n(n+1)/((n-1)(n-2)(n-3)) * sum(z^4) - 3(n-1)^2/((n-2)(n-3)) with z
    standardized by the sample sd. When a sum of powers over- or
    underflows, the moments are taken of the values scaled by an exact
    power of two.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InsufficientDataError("need at least 1 value")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("values must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        stats = _moments(x)
    if stats is None:
        scaled, e = _unit_scaled(x)
        stats = _moments(scaled)
        with np.errstate(over="ignore"):  # an sd beyond the floats is inf
            sd = float(np.ldexp(stats.sd, e))
        stats = replace(stats, mean=math.ldexp(stats.mean, e), sd=sd)
    return stats


def _unit_scaled(x):
    """x / 2**e and e, for the e that brings max |x| into [0.5, 1): exact,
    but for values pushed below the normal floats."""
    e = math.frexp(float(np.abs(x).max()))[1]
    return np.ldexp(x, -e), e


def _moments(x) -> DescriptiveStats | None:
    """The moments of x, or None where a sum of powers over- or underflows
    (which x / 2**e, max |x / 2**e| in [0.5, 1), cannot do). A finite sd
    bounds every |d / sd| by sqrt(n - 1), so only the cubes can overflow."""
    n = x.size
    mean = float(x.mean())

    if np.all(x == x[0]) or n == 1:
        return DescriptiveStats(n=n, mean=mean, sd=0.0, skewness=None, kurtosis=None)

    d = x - mean
    ss = float(d @ d)
    sd = math.sqrt(ss / (n - 1))
    if not 0.0 < sd < math.inf:  # values that differ have a positive sd
        return None

    skewness = None
    if n >= 3:
        m2 = ss / n
        m3 = float(np.sum(d**3)) / n
        try:
            spread = m2**1.5
        except OverflowError:
            return None
        if spread < _TINY:  # it fell below the normal floats
            return None
        g1 = m3 / spread
        if not math.isfinite(g1):  # a cube overflowed
            return None
        skewness = g1 * math.sqrt(n * (n - 1)) / (n - 2)

    kurtosis = None
    if n >= 4:
        z4 = float(np.sum((d / sd) ** 4))
        kurtosis = (
            n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * z4
            - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
        )

    return DescriptiveStats(n=n, mean=mean, sd=sd, skewness=skewness, kurtosis=kurtosis)


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationEntry:
    """Pearson correlation with pairwise deletion of missing (NaN) sides.

    Two-sided p comes from t = r * sqrt((n-2)/(1-r^2)) with n-2 degrees of
    freedom; |r| = 1 reports p = 0. The returned n is the number of complete
    pairs actually used.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidInputError("x and y must be equal-length 1-d sequences")
    mask = np.isfinite(x) & np.isfinite(y)
    xs = x[mask]
    ys = y[mask]
    n = int(xs.size)
    if n < 3:
        raise InsufficientDataError(
            f"need at least 3 complete pairs for a correlation, got {n}"
        )
    if np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
        raise UndefinedCorrelationError(
            "correlation undefined: one side is constant over the complete pairs"
        )
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    r = float(dx @ dy / math.sqrt(float(dx @ dx) * float(dy @ dy)))
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = student_t_sf(t, n - 2)
    return CorrelationEntry(r=r, p=p, n=n)


def zscore(values: Sequence[float]) -> np.ndarray:
    """Standardize to mean 0 and sample sd 1 (negative below the mean).

    Centered twice so the output mean is zero to machine precision even for
    series with a large mean-to-sd ratio. z is scale-free, so when a sum
    over- or underflows it is taken of the values scaled by an exact power
    of two.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InsufficientDataError("need at least 2 values to standardize")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("values must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        d, sd = _centered(x)
    if not 0.0 < sd < math.inf:
        d, sd = _centered(_unit_scaled(x)[0])
    if sd == 0.0:
        raise DegenerateSeriesError("zero variance: z-scores are undefined")
    return d / sd


def _centered(x):
    """x centered twice, and its sample sd."""
    d = x - x.mean()
    d -= d.mean()
    return d, math.sqrt(float(d @ d) / (x.size - 1))
