"""Independent reference implementations used only to check the library.

Each oracle takes a deliberately different route from the code under test:
textbook sum formulas for simple regression, explicit normal equations for
multiple regression (in floats, and solved exactly in integers), exact
integer moment sums for the descriptives, quadrature of the density for
distribution tails, and a log-log straight-line fit of exactly generated
curves for the power law, and the Monte Carlo recovery loop by way of
whole simulated configs seeded and drawn by numpy's own SeedSequence and
default_rng, and a ``t,value`` file read one line at a time by ``float()``.
"""

import decimal
import math
import operator
import statistics
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.integrate import quad


def t_pdf(x: float, df: int) -> float:
    log_norm = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(log_norm - (df + 1) / 2.0 * math.log1p(x * x / df))


def t_two_sided_quad(t: float, df: int) -> float:
    """Two-sided tail P(|T| >= |t|) by adaptive quadrature of the density."""
    tail, _ = quad(t_pdf, abs(t), np.inf, args=(df,), epsabs=1e-13, epsrel=1e-12)
    return 2.0 * tail


def f_pdf(x: float, df1: int, df2: int) -> float:
    if x <= 0:
        return 0.0
    log_norm = (
        math.lgamma((df1 + df2) / 2.0)
        - math.lgamma(df1 / 2.0)
        - math.lgamma(df2 / 2.0)
        + (df1 / 2.0) * math.log(df1 / df2)
    )
    return math.exp(
        log_norm
        + (df1 / 2.0 - 1.0) * math.log(x)
        - (df1 + df2) / 2.0 * math.log1p(df1 * x / df2)
    )


def f_sf_quad(f: float, df1: int, df2: int) -> float:
    """Upper tail P(F >= f) by adaptive quadrature of the density."""
    tail, _ = quad(
        f_pdf, f, np.inf, args=(df1, df2), epsabs=1e-13, epsrel=1e-12, limit=200
    )
    return tail


def ols_simple_sums(x, y) -> dict:
    """Simple regression through the raw textbook sum formulas."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    sx = float(np.sum(x))
    sy = float(np.sum(y))
    sxx = float(np.sum(x * x))
    sxy = float(np.sum(x * y))
    syy = float(np.sum(y * y))
    denom = n * sxx - sx * sx
    slope = (n * sxy - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    resid = y - intercept - slope * x
    sse = float(np.sum(resid * resid))
    s2 = sse / (n - 2)
    se_slope = math.sqrt(n * s2 / denom)
    se_intercept = math.sqrt(s2 * sxx / denom)
    sst = syy - sy * sy / n
    r2 = 1.0 - sse / sst if sst > 0 else 0.0
    f_stat = (sst - sse) / (sse / (n - 2)) if sse > 0 else math.inf
    return {
        "intercept": intercept,
        "slope": slope,
        "se_intercept": se_intercept,
        "se_slope": se_slope,
        "r2": r2,
        "f_stat": f_stat,
    }


def ols_multi_normal_eq(columns, y) -> dict:
    """Multiple regression via the explicit (X'X)^-1 X'y normal equations."""
    X = np.column_stack([np.ones(len(y)), *[np.asarray(c, float) for c in columns]])
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    xtx_inv = np.linalg.inv(X.T @ X)
    beta = xtx_inv @ X.T @ y
    resid = y - X @ beta
    sse = float(resid @ resid)
    s2 = sse / (n - p)
    se = np.sqrt(s2 * np.diag(xtx_inv))
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - sse / sst if sst > 0 else 0.0
    return {"coefficients": beta, "standard_errors": se, "r2": r2}


def _integers(column):
    """Integers m and one power of two d with column == m / d, exactly."""
    ratios = [float(v).as_integer_ratio() for v in column]
    d = max(den for _, den in ratios)
    return [num * (d // den) for num, den in ratios], d


def ols_multi_exact(columns, y) -> dict:
    """Multiple regression through the normal equations, solved exactly.

    A float is an integer over a power of two, so the Gram matrix of
    [1, columns, y] is exact in integers. Integer-preserving Gauss-Jordan
    elimination, in which every division is exact, solves X'X b = X'y and
    inverts X'X; no pivoting is needed, as X'X is positive definite for a
    design of full rank. Only the returned statistics are rounded.
    """
    n = len(y)
    ints, dens = zip(([1] * n, 1), *map(_integers, columns), _integers(y))
    p = len(ints) - 1  # the intercept and the k predictors
    gram = [[0] * (p + 1) for _ in range(p + 1)]
    for a in range(p + 1):
        for b in range(a, p + 1):
            gram[a][b] = gram[b][a] = sum(map(operator.mul, ints[a], ints[b]))
    # X'X = D^-1 S D^-1 with D = diag(dens): solve S z = S_y, invert S
    rows = [gram[i][: p + 1] + [int(i == j) for j in range(p)] for i in range(p)]
    det = 1
    for c in range(p):
        pivot = rows[c]
        for r in range(p):
            if r != c:
                f = rows[r][c]
                rows[r] = [(pivot[c] * a - f * b) // det
                           for a, b in zip(rows[r], pivot)]
        det = pivot[c]
    # each diagonal entry is now det(S), and row i is det(S) times [z_i | S^-1 row i]
    beta = [Fraction(rows[i][p] * dens[i], det * dens[p]) for i in range(p)]
    inv_diag = [Fraction(rows[i][p + 1 + i] * dens[i] ** 2, det) for i in range(p)]
    xy = [Fraction(gram[i][p], dens[i] * dens[p]) for i in range(p)]
    yy = Fraction(gram[p][p], dens[p] ** 2)
    sse = yy - sum(b * g for b, g in zip(beta, xy))
    sst = yy - xy[0] ** 2 / n
    k, df = p - 1, n - p
    s2 = sse / df
    return {
        "coefficients": [float(b) for b in beta],
        "standard_errors": [math.sqrt(s2 * v) for v in inv_diag],
        "residual_se": math.sqrt(s2),
        "r2_adj": float(1 - sse / sst * (n - 1) / df),
        "f_stat": float((sst - sse) / k / s2),
    }


def pearson_sums(x, y) -> float:
    """Pearson r through raw sums, no centering tricks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    sx, sy = float(np.sum(x)), float(np.sum(y))
    sxx, syy = float(np.sum(x * x)), float(np.sum(y * y))
    sxy = float(np.sum(x * y))
    num = n * sxy - sx * sy
    den = math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    return num / den


def moments_brute(values) -> dict:
    """Mean/sd/skewness/kurtosis by plain accumulation loops."""
    n = len(values)
    mean = sum(values) / n
    ss2 = sum((v - mean) ** 2 for v in values)
    sd = math.sqrt(ss2 / (n - 1))
    m2 = ss2 / n
    m3 = sum((v - mean) ** 3 for v in values) / n
    g1 = m3 / m2**1.5
    skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
    z4 = sum(((v - mean) / sd) ** 4 for v in values)
    kurt = n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * z4 - 3.0 * (n - 1) ** 2 / (
        (n - 2) * (n - 3)
    )
    return {"mean": mean, "sd": sd, "skewness": skew, "kurtosis": kurt}


def moments_exact(values) -> dict:
    """Mean, sample sd, adjusted skewness and excess kurtosis, and the
    central moments m2, m4 and mean |d|^3, as ``descriptive`` defines them.

    The values are integers m_i over one power of two q, so n q d_i =
    n m_i - sum(m) is an integer D_i and every moment is an exact fraction.
    Kurtosis is rational in the D_i; sd and skewness take one square root,
    in decimal at 50 digits. Only sd, skewness and kurtosis are rounded,
    and skewness and kurtosis are None where ``descriptive`` has them so.
    """
    ints, q = _integers(values)
    n, total = len(ints), sum(ints)
    dev = [n * m - total for m in ints]  # n q d_i
    s2, s3, s4 = (sum(d**p for d in dev) for p in (2, 3, 4))
    nq = n * q
    out = {
        "mean": Fraction(total, nq),
        "m2": Fraction(s2, n * nq**2),
        "m3_abs": Fraction(sum(abs(d) ** 3 for d in dev), n * nq**3),
        "m4": Fraction(s4, n * nq**4),
        "skewness": None,
        "kurtosis": None,
    }
    with decimal.localcontext(prec=50):
        s2_dec = decimal.Decimal(s2)
        out["sd"] = float((s2_dec / max(n - 1, 1)).sqrt() / nq)
        if s2 and n >= 3:  # m3 / m2**1.5 * sqrt(n(n-1)) / (n-2)
            root = decimal.Decimal(n - 1).sqrt()
            out["skewness"] = float(s3 * n * root / (s2_dec * s2_dec.sqrt() * (n - 2)))
    if s2 and n >= 4:  # z4 = sum(z^4) = (n-1)^2 s4 / s2^2
        z4 = Fraction((n - 1) ** 2 * s4, s2**2)
        out["kurtosis"] = float(
            Fraction(n * (n + 1), (n - 1) * (n - 2) * (n - 3)) * z4
            - Fraction(3 * (n - 1) ** 2, (n - 2) * (n - 3))
        )
    return out


def logistic_exact(k: float, a: float, b: float, t):
    """Direct evaluation of the growth law, no shared code with the library."""
    t = np.asarray(t, dtype=float)
    return k / (1.0 + np.exp(a - b * t))


def power_law_loglog_fit(host_kab, parasite_kab, n_points: int = 200) -> tuple:
    """Numeric elimination-of-t oracle for the derived power law.

    Generates both exact curves deep in their early phase (values at most
    1e-4 of K, spanning about four decades of host variation) and fits a
    straight line to log P against log H. Returns (slope, intercept).
    """
    k1, a1, b1 = host_kab
    k2, a2, b2 = parasite_kab
    # t at which a curve reaches fraction q of K: logit(q) = a - b t
    def t_at(kab, q):
        _, a, b = kab
        return (a - math.log((1.0 - q) / q)) / b

    t_hi = min(t_at(host_kab, 1e-4), t_at(parasite_kab, 1e-4))
    t_lo = t_hi - 9.0 / b1  # ~4 decades of host variation below the cap
    t = np.linspace(t_lo, t_hi, n_points)
    log_h = np.log(logistic_exact(k1, a1, b1, t))
    log_p = np.log(logistic_exact(k2, a2, b2, t))
    slope, intercept = np.polyfit(log_h, log_p, 1)
    return float(slope), float(intercept)


def parse_series_reference(path, aggregator: str = "mean") -> tuple:
    """The times, values and warnings of a ``t,value`` file, read line by
    line with ``float()`` into a dict keyed by t (the parser's loop before
    it read the cells with numpy). Raises the errors the parser raises, with
    the same messages."""
    from parasitech import EmptySeriesError, SeriesFormatError

    text = Path(path).read_text(encoding="utf-8-sig")
    warnings = []
    by_t, duplicated = {}, {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            cells = [c.strip().lower() for c in line.split(",")]
            if cells != ["t", "value"]:
                raise SeriesFormatError(
                    f"{path}: line {lineno}: expected header 't,value', got {raw!r}"
                )
            header_seen = True
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise SeriesFormatError(
                f"{path}: line {lineno}: expected 2 columns, got {len(cells)}"
            )
        try:
            t = float(cells[0])
            v = float(cells[1])
        except ValueError:
            raise SeriesFormatError(
                f"{path}: line {lineno}: non-numeric cell in {raw!r}"
            ) from None
        if not (math.isfinite(t) and math.isfinite(v)):
            raise SeriesFormatError(
                f"{path}: line {lineno}: non-finite number in {raw!r}"
            )
        if v <= 0:
            warnings.append(
                f"line {lineno}: non-positive value {v!r} rejected "
                "(log scale requires positive values)"
            )
            continue
        first = by_t.get(t)
        if first is None:
            by_t[t] = v
        else:
            duplicated.setdefault(t, [first]).append(v)
    if not header_seen:
        raise SeriesFormatError(f"{path}: missing 't,value' header")
    if not by_t:
        raise EmptySeriesError(f"{path}: no valid observations")
    times = sorted(by_t)
    for t in times:
        group = duplicated.get(t)
        if group is not None:
            warnings.append(
                f"{len(group)} rows share t={t!r}; aggregated by {aggregator}"
            )
            by_t[t] = _aggregate_reference(aggregator, group)
    return times, [by_t[t] for t in times], tuple(warnings)


def _aggregate_reference(aggregator: str, group: list) -> float:
    """fmean, median or max of finite floats; a mean or median whose float
    arithmetic overflows is formed from the exact rationals."""
    float_form = {"mean": statistics.fmean, "median": statistics.median, "max": max}
    try:
        value = float(float_form[aggregator](group))
    except OverflowError:
        value = math.inf
    if value == math.inf:
        exact = {"mean": statistics.mean, "median": statistics.median}[aggregator]
        value = float(exact(map(Fraction, group)))
    return value


def recovery_reference(config, replicates: int, early_phase_only: bool = True):
    """Monte Carlo recovery the long way round, on numpy's own seeding.

    Every replicate takes its seed and each series' seed from
    ``np.random.SeedSequence``, draws every series of the whole config
    (siblings included) from ``np.random.default_rng``, builds the full
    series, masks host and first parasite to the early-phase window
    ``times <= t_cut`` and refits.
    """
    from parasitech import (
        HarnessError,
        ParasitechError,
        RecoverySummary,
        TechSeries,
        fit_evolution,
        logistic_value,
        t_critical,
    )
    from parasitech.simulate import (
        _REPLICATE_STREAM,
        _SERIES_STREAM,
        early_phase_cutoff,
    )

    def sub_seed(master, stream, index):
        ss = np.random.SeedSequence([master, stream, index])
        return int(ss.generate_state(1, np.uint64)[0])

    grid = config.grid()
    laws = [("host", "host", config.host)] + [
        (f"parasite{i}", "parasite", p) for i, p in enumerate(config.parasites, 1)
    ]
    target = config.parasites[0]
    true_b = target.b / config.host.b
    t_cut = min(early_phase_cutoff(config.host), early_phase_cutoff(target))

    def draw(name, role, law, seed):
        rng = np.random.default_rng(seed)
        values = logistic_value(law, grid)
        z = rng.standard_normal(grid.size)
        kept = rng.random(grid.size) >= config.missing_prob
        if config.noise_sigma > 0:
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                values = values * np.exp(config.noise_sigma * z)
        return TechSeries(name, role, "fmt", grid[kept], values[kept])

    def early(s):
        keep = s.times <= t_cut
        return TechSeries(s.name, s.role, s.units, s.times[keep], s.values[keep])

    estimates, covered, usable, failures, perfect = [], 0, 0, 0, 0
    for r in range(replicates):
        seed = sub_seed(config.seed, _REPLICATE_STREAM, r)
        try:
            host, parasite, *_ = [
                draw(*law, sub_seed(seed, _SERIES_STREAM, i))
                for i, law in enumerate(laws)
            ]
            if early_phase_only:
                host, parasite = early(host), early(parasite)
            fit = fit_evolution(host, parasite)
        except ParasitechError:
            failures += 1
            continue
        estimates.append(fit.b)
        se = fit.regression.standard_errors[1]
        if se > 0:
            usable += 1
            covered += abs(fit.b - true_b) <= t_critical(0.05, fit.n_paired - 2) * se
        else:
            perfect += 1
    if not estimates:
        raise HarnessError(f"all {replicates} replicates failed to fit")
    est = np.sort(np.array(estimates))
    return RecoverySummary(
        replicates=replicates,
        true_b=float(true_b),
        estimates=tuple(float(e) for e in est),
        bias=float(est.mean() - true_b),
        rmse=float(math.sqrt(np.mean((est - true_b) ** 2))),
        coverage_95=float(covered / usable if usable else math.nan),
        failures=failures,
        perfect_fits=perfect,
    )
