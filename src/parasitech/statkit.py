"""Statistics kernel: OLS with diagnostics, t/F tails, moments, correlation.

Everything here operates on plain float sequences / numpy arrays and is pure.
The t and F tail probabilities go through the regularized incomplete beta
function; moment conventions (sample sd, adjusted Fisher-Pearson skewness,
excess kurtosis) follow the usual social-science software definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _check_alpha(alpha: float) -> None:
    """Refuse a test level outside (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha!r}")


def t_critical(alpha: float, df: int) -> float:
    """Two-sided critical value: the t >= 0 with student_t_sf(t, df) = alpha.

    Negated lower-tail quantile at alpha/2 (no cancellation in 1 - alpha/2).
    """
    _check_alpha(alpha)
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


def _result(coef, se, std_coef, sse, sst, n, k, exps) -> RegressionResult:
    """The record of an OLS fit with k predictors: tail tests, R^2s, F test.
    Estimate j was fitted 2**-exps[j] times its size and is scaled back after
    the t test, which that scale leaves alone; the residual SE scales as the
    intercept. An estimate beyond the floats is an InvalidInputError."""
    df_resid = n - k - 1
    s2 = sse / df_resid
    r2 = _r2(sse, sst)
    r2_adj = 1.0 - (1.0 - r2) * (n - 1) / df_resid
    t_stats, p_values = _tail_stats(coef, se, df_resid)
    f_stat, f_p = _f_overall(sst, sse, k, df_resid)
    try:
        coef, se = tuple(map(math.ldexp, coef, exps)), tuple(map(math.ldexp, se, exps))
        residual_se = math.ldexp(math.sqrt(s2), exps[0])
    except OverflowError:
        raise InvalidInputError("an estimate of y on x overflows the floats") from None
    return RegressionResult(
        coefficients=coef,
        standard_errors=se,
        t_stats=tuple(t_stats),
        p_values=tuple(p_values),
        standardized_coefficients=tuple(std_coef),
        r2=float(r2),
        r2_adj=float(r2_adj),
        f_stat=float(f_stat),
        f_p=float(f_p),
        residual_se=residual_se,
        n=int(n),
        k=int(k),
        perfect_fit=s2 == 0.0,
    )


def ols_simple(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Simple OLS of y on x with an intercept.

    Returns coefficients, standard errors from the residual variance and the
    inverse Gram diagonal, two-sided p-values with n-2 degrees of freedom,
    R^2 / adjusted R^2, and the overall F test with (1, n-2) df. x and y are
    fitted scaled by exact powers of two into [-1, 1], whose sums cannot
    leave the floats, and the estimates are scaled back.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise InvalidInputError("x and y must be equal-length 1-d sequences")
    n = x.size
    if n < 3:
        raise InsufficientDataError(f"need at least 3 observations, got {n}")
    x, e = _unit_scaled(x)
    y, f = _unit_scaled(y)
    if x.max() - x.min() == 0.0:  # as np.ptp: NaN, not 0, for an infinite x
        raise SingularDesignError("x is constant; slope is not identified")

    x_mean, dx, sxx = _x_sums(x)
    intercept, slope, sse, sst = map(float, _line(x, y, x_mean, dx, sxx))
    s2 = sse / (n - 2)
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + x_mean**2 / sxx))

    sd_x = math.sqrt(sxx / (n - 1))
    sd_y = math.sqrt(sst / (n - 1))
    std_slope = slope * sd_x / sd_y if sd_y > 0 else math.nan

    coef, se = (intercept, slope), (se_intercept, se_slope)
    # y is 2**f times the y fitted and the slope 2**(f - e) times its
    return _result(coef, se, (math.nan, std_slope), sse, sst, n, 1, (f, f - e))


def ols_multi(
    columns: Sequence[Sequence[float]], y: Sequence[float]
) -> RegressionResult:
    """Multiple OLS of y on k predictor columns plus an intercept.

    Each column and y are scaled by exact powers of two into [-1, 1] and
    centred; one QR factorisation of the columns gives the slopes and, from
    R^-1's row norms, their standard errors. Column j depends on earlier
    ones (a CollinearityError) when |R[j, j]| <= n * eps * ||column j||.
    """
    shapes = {np.shape(c) for c in columns}
    y = np.asarray(y, dtype=float)
    if shapes != {y.shape} or y.ndim != 1:
        raise InvalidInputError("need one or more 1-d predictor columns of y's length")
    X = np.asarray(columns, dtype=float)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise InvalidInputError("predictor columns and y must be finite")
    k, n = X.shape
    if n < k + 2:
        raise InsufficientDataError(
            f"need at least k+2 = {k + 2} observations for {k} predictors, got {n}"
        )
    (y, f), *scaled = map(_unit_scaled, (y, *X))
    X = np.column_stack([x for x, _ in scaled])
    x_mean, y_mean = X.mean(axis=0), y.mean()
    dx, dy = X - x_mean, y - y_mean
    q, r = np.linalg.qr(dx)
    dependent = np.abs(r.diagonal()) <= n * 2.0**-52 * np.sqrt(np.vecdot(X, X, axis=0))
    if dependent.any():
        j = int(dependent.argmax())
        raise CollinearityError(
            f"predictor column {j} is linearly dependent on earlier columns",
            column_index=j,
        )
    slopes = np.linalg.solve(r, q.T @ dy)
    residuals = dy - dx @ slopes
    sse, sst = float(residuals @ residuals), float(dy @ dy)
    r_inv = np.linalg.inv(r)  # (dx' dx)^-1 = r_inv @ r_inv.T
    g = x_mean @ r_inv  # the intercept's (X' X)^-1 entry is 1/n + g @ g
    inv_diag = np.array([1.0 / n + g @ g, *np.vecdot(r_inv, r_inv)])
    se = np.sqrt(inv_diag * sse / (n - k - 1))
    sd_ratio = np.sqrt(np.vecdot(dx, dx, axis=0) / sst) if sst > 0 else math.nan
    coef = (y_mean - x_mean @ slopes, *slopes)
    std = (math.nan, *(slopes * sd_ratio).tolist())  # slope * sd(x) / sd(y)
    exps = (f, *(f - e for _, e in scaled))  # y is 2**f times the y fitted
    return _result(coef, se, std, sse, sst, n, k, exps)


def descriptive(values: Sequence[float]) -> DescriptiveStats:
    """Mean, sample sd, adjusted skewness and excess kurtosis of a sample.

    Skewness is the adjusted Fisher-Pearson coefficient
    g1 * sqrt(n(n-1))/(n-2); kurtosis is the excess form
    n(n+1)/((n-1)(n-2)(n-3)) * sum(z^4) - 3(n-1)^2/((n-2)(n-3)) with z
    standardized by the sample sd. All are taken of the values scaled by an
    exact power of two into [-1, 1], whose sums of powers cannot leave the
    floats; an sd beyond the floats is inf.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InsufficientDataError("need at least 1 value")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("values must be finite")
    n = x.size
    scaled, e = _unit_scaled(x)
    scaled_mean, d, ss = _x_sums(scaled)
    mean = math.ldexp(scaled_mean, e)

    if np.all(x == x[0]) or n == 1:
        return DescriptiveStats(n=n, mean=mean, sd=0.0, skewness=None, kurtosis=None)

    # One |x| is scaled into [0.5, 1) and the values differ, so max |d| >=
    # 2**-55: m2 * sqrt(m2), and each cube or z^4 large enough to move its
    # sum, stay far above the subnormals for any n that fits in memory
    sd = math.sqrt(ss / (n - 1))
    skewness = kurtosis = None
    if n >= 3:
        m2 = float(ss) / n
        g1 = float(np.add.reduce(d * d * d)) / n / (m2 * math.sqrt(m2))
        skewness = g1 * math.sqrt(n * (n - 1)) / (n - 2)
    if n >= 4:
        z2 = np.square(d / sd)
        kurtosis = (
            n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * float(np.add.reduce(z2 * z2))
            - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
        )
    try:
        sd = math.ldexp(sd, e)
    except OverflowError:  # an sd beyond the floats
        sd = math.inf
    return DescriptiveStats(n=n, mean=mean, sd=sd, skewness=skewness, kurtosis=kurtosis)


def _unit_scaled(x):
    """x / 2**e and e, for the e that brings max |x| into [0.5, 1): exact,
    but for values pushed below the normal floats."""
    e = math.frexp(float(np.abs(x).max()))[1]
    return np.ldexp(x, -e), e


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationEntry:
    """Pearson correlation with pairwise deletion of missing (NaN) sides.

    Two-sided p comes from t = r * sqrt((n-2)/(1-r^2)) with n-2 degrees of
    freedom; |r| = 1 reports p = 0. The returned n is the number of complete
    pairs actually used. r is taken of the pairs scaled by exact powers of
    two into [-1, 1], whose sums of products cannot leave the floats.
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
    xs, ys = _unit_scaled(xs)[0], _unit_scaled(ys)[0]
    if np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
        raise UndefinedCorrelationError(
            "correlation undefined: one side is constant over the complete pairs"
        )
    (_, dx, sxx), (_, dy, syy) = _x_sums(xs), _x_sums(ys)
    r = float(np.vecdot(dx, dy) / math.sqrt(float(sxx) * float(syy)))
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
    series with a large mean-to-sd ratio. z is scale-free, so it is taken of
    the values scaled by an exact power of two into [-1, 1], whose sums
    cannot leave the floats.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise InsufficientDataError("need at least 2 values to standardize")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("values must be finite")
    x, _ = _unit_scaled(x)
    d = x - x.mean()
    d -= d.mean()
    sd = math.sqrt(float(d @ d) / (x.size - 1))
    if sd == 0.0:
        raise DegenerateSeriesError("zero variance: z-scores are undefined")
    return d / sd
