"""Dataset ingestion, report serialization, and plot-data emission.

Series files are two-column UTF-8 CSVs with header ``t,value`` (a leading
byte-order mark, as spreadsheet exports write, is accepted); ``#`` lines
are comments. Reports render as human-readable text (regression-table
layout), JSON with a stable key set, or one-row-per-fit CSV. Numbers in
series/plot CSVs use shortest round-trip decimal text, which carries more
than 12 significant digits whenever they matter.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .core import TechSeries
from .errors import EmptySeriesError, InvalidInputError, SeriesFormatError
from .evolution import (
    AnalysisReport,
    CorrelationMatrix,
    EvolutionFit,
    MultiEvolutionFit,
)
from .statkit import DescriptiveStats, significance_stars

AGGREGATORS = {
    "mean": statistics.fmean,
    "median": statistics.median,
    "max": max,
}
# Exact rational forms of the aggregators whose float arithmetic can
# overflow on finite values (a sum, or the midpoint of two large values).
_EXACT_AGGREGATORS = {"mean": statistics.mean, "median": statistics.median}


REPORT_FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class SeriesFile:
    """A parsed series file plus any non-fatal warnings from parsing."""

    path: str
    parsed: TechSeries
    warnings: tuple[str, ...]


def parse_series_csv(
    path: str | Path,
    name: str | None = None,
    role: str = "parasite",
    units: str = "",
    aggregator: str = "mean",
) -> SeriesFile:
    """Read a ``t,value`` CSV into a TechSeries.

    Comment lines (``#``) and blank lines are skipped. Rows with a
    non-positive value are rejected with a warning naming the line; rows
    sharing the same t are collapsed by ``aggregator`` (mean, median or max)
    with a warning. Non-numeric cells and a missing header are fatal.
    """
    path = Path(path)
    if aggregator not in AGGREGATORS:
        raise InvalidInputError(
            f"aggregator must be one of {sorted(AGGREGATORS)}, got {aggregator!r}"
        )
    text = path.read_text(encoding="utf-8-sig")

    warnings: list[str] = []
    by_t: dict[float, float] = {}
    duplicated: dict[float, list[float]] = {}
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

    # one row is its own mean, median and max: only duplicates are aggregated;
    # the warning names the first row's t (0.0 and -0.0 are one year)
    times = sorted(by_t)
    for t in times:
        group = duplicated.get(t)
        if group is not None:
            warnings.append(
                f"{len(group)} rows share t={t!r}; aggregated by {aggregator}"
            )
            by_t[t] = _aggregate(aggregator, group)
    series = TechSeries(
        name if name is not None else path.stem, role, units, times,
        [by_t[t] for t in times],
    )
    return SeriesFile(path=str(path), parsed=series, warnings=tuple(warnings))


def _aggregate(aggregator: str, group: list[float]) -> float:
    """The aggregate of finite values; one that overflows is formed exactly."""
    try:
        value = float(AGGREGATORS[aggregator](group))
    except OverflowError:  # fmean's sum
        value = math.inf
    if value == math.inf:  # no input is infinite, so the arithmetic overflowed
        value = float(_EXACT_AGGREGATORS[aggregator](map(Fraction, group)))
    return value


def _num(x: float) -> str:
    """Shortest decimal text that round-trips the float exactly."""
    return repr(float(x))


def _csv_text(header: str, *columns) -> str:
    """CSV text of numeric columns, one row per index, under ``header``."""
    rows = (",".join(map(_num, row)) for row in zip(*columns))
    return "\n".join([header, *rows]) + "\n"


def write_series_csv(series: TechSeries, path: str | Path) -> Path:
    """Write a TechSeries in the same schema ``parse_series_csv`` reads."""
    path = Path(path)
    path.write_text(_csv_text("t,value", series.times, series.values), encoding="utf-8")
    return path


def _clean(x):
    """JSON-safe float: non-finite becomes null."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _classification_dict(cls) -> dict:
    test = None
    if cls.test is not None:
        test = {
            "t_stat": _clean(cls.test.t_stat),
            "p_value": _clean(cls.test.p_value),
            "alpha": cls.test.alpha,
            "df": cls.test.df,
        }
    return {
        "grade": cls.grade,
        "mode": cls.mode,
        "evolution": cls.evolution_label,
        "symbol": cls.symbol,
        "prediction": cls.prediction,
        "b_estimate": _clean(cls.b_estimate),
        "test": test,
        "warnings": list(cls.warnings),
    }


def _fit_stats_dict(reg) -> dict:
    return {
        "r2": _clean(reg.r2),
        "r2_adj": _clean(reg.r2_adj),
        "residual_se": _clean(reg.residual_se),
        "f_stat": _clean(reg.f_stat),
        "f_p": _clean(reg.f_p),
        "perfect_fit": reg.perfect_fit,
    }


def _fit_dict(fit: EvolutionFit) -> dict:
    reg = fit.regression
    return {
        "host": fit.host_name,
        "parasite": fit.parasite_name,
        "n": fit.n_paired,
        "years_used": list(fit.years_used),
        "log_a": _clean(fit.log_a),
        "log_a_se": _clean(reg.standard_errors[0]),
        "b": _clean(fit.b),
        "b_se": _clean(reg.standard_errors[1]),
        "b_stars": significance_stars(reg.p_values[1]),
        "b_p": _clean(reg.p_values[1]),
        **_fit_stats_dict(reg),
        "classification": _classification_dict(fit.classification),
    }


def _multi_fit_dict(fit: MultiEvolutionFit) -> dict:
    reg = fit.regression
    return {
        "target": fit.target_parasite,
        "predictors": list(fit.predictor_names),
        "n": fit.n_listwise,
        "years_used": list(fit.years_used),
        "coefficients": [_clean(c) for c in reg.coefficients],
        "standard_errors": [_clean(s) for s in reg.standard_errors],
        "t_stats": [_clean(t) for t in reg.t_stats],
        "p_values": [_clean(p) for p in reg.p_values],
        "stars": [significance_stars(p) for p in reg.p_values],
        "standardized_coefficients": [
            _clean(s) for s in reg.standardized_coefficients
        ],
        **_fit_stats_dict(reg),
        "dominant_predictors": list(fit.dominant_predictors),
    }


def _correlations_dict(corr: CorrelationMatrix) -> dict:
    return {
        "names": list(corr.names),
        "entries": [
            [
                {"r": _clean(e.r), "p": _clean(e.p), "n": e.n}
                for e in row
            ]
            for row in corr.entries
        ],
    }


def _logistic_fit_dict(name: str, fit) -> dict:
    return {
        "series": name,
        "k": _clean(fit.params.k),
        "a": _clean(fit.params.a),
        "b": _clean(fit.params.b),
        "inflection_time": _clean(fit.params.inflection_time),
        "r2_logit": _clean(fit.r2_logit),
        "k_at_bound": fit.k_at_bound,
        "n": fit.n,
    }


def _recovery_dict(summary) -> dict:
    return {
        "replicates": summary.replicates,
        "true_b": _clean(summary.true_b),
        "bias": _clean(summary.bias),
        "rmse": _clean(summary.rmse),
        "coverage_95": _clean(summary.coverage_95),
        "failures": summary.failures,
        "perfect_fits": summary.perfect_fits,
        "estimates": [_clean(e) for e in summary.estimates],
    }


def _descriptive_dict(d: DescriptiveStats) -> dict:
    return {
        "n": d.n,
        "mean": _clean(d.mean),
        "sd": _clean(d.sd),
        "skewness": _clean(d.skewness),
        "kurtosis": _clean(d.kurtosis),
    }


def report_to_dict(report: AnalysisReport) -> dict:
    """Stable-keyed dictionary form of a report (the JSON schema)."""
    return {
        "meta": {
            "generator": "parasitech",
            "log_base": "e",
            "inputs": list(report.provenance.inputs),
            "options": {k: v for k, v in report.provenance.options},
            "timestamp": report.provenance.timestamp,
        },
        "fits": [_fit_dict(f) for f in report.fits],
        "multi_fits": [_multi_fit_dict(f) for f in report.multi_fits],
        "correlations": _correlations_dict(report.correlations),
        "descriptives": [
            {"name": name, **_descriptive_dict(d)} for name, d in report.descriptives
        ],
        "standardized_trajectories": [
            {
                "name": tr.name,
                "years": list(tr.years),
                "z": [_clean(z) for z in tr.z],
            }
            for tr in report.standardized_trajectories
        ],
    }


# json.dumps(x, allow_nan=False) without building an encoder per call
_encode = json.JSONEncoder(allow_nan=False).encode
_quote = json.encoder.encode_basestring_ascii


def _json_text(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte, with
    each list of floats written by one C-encoder call (the stdlib indents in
    pure Python). ``nl`` is the newline and indent of ``obj``'s line."""
    inner = nl + "  "
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict) and obj:
        items = (
            # a one-item dict gives the stdlib's key coercion and its errors
            (_quote(k) if isinstance(k, str) else _encode({k: 0})[1:-4])
            + ": " + _json_text(v, inner)
            for k, v in obj.items()
        )
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if {*map(type, obj)} == {float}:  # the C call refuses NaN and +-inf
            body = _encode(obj)[1:-1].replace(", ", "," + inner)
        else:
            body = ("," + inner).join(_json_text(v, inner) for v in obj)
        return "[" + inner + body + nl + "]"
    return _encode(obj)  # scalars and empty containers


def _fmt(x: float, digits: int = 2) -> str:
    return "nan" if not math.isfinite(x) else f"{x:.{digits}f}"


def _text_fit_block(fit: EvolutionFit) -> list[str]:
    reg = fit.regression
    cls = fit.classification
    stars_a = significance_stars(reg.p_values[0])
    stars_b = significance_stars(reg.p_values[1])
    lines = [
        f"Fit: {fit.parasite_name} ~ {fit.host_name}  (n={fit.n_paired})",
        f"  Constant alpha (St. Err.):             "
        f"{_fmt(fit.log_a)}{stars_a} ({_fmt(reg.standard_errors[0])})",
        f"  Evolutionary coefficient B (St. Err.): "
        f"{_fmt(fit.b)}{stars_b} ({_fmt(reg.standard_errors[1])})",
        f"  R2 adj. (St. Err. of the Estimate):    "
        f"{_fmt(reg.r2_adj)} ({_fmt(reg.residual_se)})",
        f"  F (sign.):                             "
        f"{_fmt(reg.f_stat)} ({_fmt(reg.f_p, 3)})",
        f"  Classification: grade {cls.grade} | {cls.mode} | "
        f"{cls.evolution_label} [{cls.symbol}]",
        f"  Prediction: {cls.prediction}",
    ]
    if cls.test is not None:
        lines.append(
            f"  Test of B=1: t={_fmt(cls.test.t_stat, 3)}, df={cls.test.df}, "
            f"p={_fmt(cls.test.p_value, 3)} (alpha={cls.test.alpha})"
        )
    for w in cls.warnings:
        lines.append(f"  Warning: {w}")
    return lines


def _text_multi_block(fit: MultiEvolutionFit) -> list[str]:
    reg = fit.regression
    lines = [
        f"Multidimensional fit: {fit.target_parasite} ~ "
        f"{' + '.join(fit.predictor_names)}  (n={fit.n_listwise})",
        f"  {'predictor':<28} {'coef':>10}    {'(SE)':>7} {'std coef':>10} {'t':>8}",
    ]
    for j, name in enumerate(["constant", *fit.predictor_names]):
        std = _fmt(reg.standardized_coefficients[j]) if j else ""
        lines.append(
            f"  {name:<28} {_fmt(reg.coefficients[j]):>10}"
            f"{significance_stars(reg.p_values[j]):<3}"
            f" {'(' + _fmt(reg.standard_errors[j]) + ')':>7} {std:>10} "
            f"{_fmt(reg.t_stats[j]):>8}"
        )
    lines += [
        f"  R2 adj. (St. Err. of the Estimate):    "
        f"{_fmt(reg.r2_adj)} ({_fmt(reg.residual_se)})",
        f"  F (sign.):                             "
        f"{_fmt(reg.f_stat)} ({_fmt(reg.f_p, 3)})",
        f"  Dominant predictors: {', '.join(fit.dominant_predictors)}",
    ]
    return lines


def _text_correlations(corr: CorrelationMatrix) -> list[str]:
    width = max(12, max(len(n) for n in corr.names) + 1)
    head = " " * width + "".join(f"{n:>{width}}" for n in corr.names)
    lines = ["Correlations (log scale, pairwise deletion):", head]
    for i, name in enumerate(corr.names):
        row_r = f"{name:>{width}}"
        row_n = f"{'n':>{width}}"
        for e in corr.entries[i]:
            r_txt = "undef" if not math.isfinite(e.r) else f"{e.r:.3f}"
            row_r += f"{r_txt:>{width}}"
            row_n += f"{e.n:>{width}}"
        lines.append(row_r)
        lines.append(row_n)
    return lines


def _csv_row(kind, target, source, n, reg, cls) -> str:
    """One report CSV row; coefficient 1 is the host in simple and multi fits."""
    coefs = (
        reg.coefficients[0], reg.standard_errors[0],
        reg.coefficients[1], reg.standard_errors[1],
    )
    stats = (reg.r2, reg.r2_adj, reg.residual_se, reg.f_stat, reg.f_p)
    grade = [cls.grade, cls.mode, cls.evolution_label, cls.symbol] if cls else [""] * 4
    return ",".join(
        [kind, target, source, str(n), *map(_num, coefs)]
        + [significance_stars(reg.p_values[1]), *map(_num, stats), *map(str, grade)]
    )


def render_report(report: AnalysisReport, fmt: str) -> bytes:
    """Serialize an AnalysisReport as text, JSON, or CSV bytes.

    Text mirrors the regression-table layout (constant and slope with
    standard errors and stars, adjusted R2, F) plus the classification line;
    it omits the timestamp so identical analyses render identically. JSON
    carries every field with a stable key order.
    """
    if fmt not in REPORT_FORMATS:
        raise InvalidInputError(
            f"format must be one of {list(REPORT_FORMATS)}, got {fmt!r}"
        )

    if fmt == "json":
        return (_json_text(report_to_dict(report)) + "\n").encode("utf-8")

    if fmt == "csv":
        lines = [
            "kind,target,source,n,intercept,intercept_se,b,b_se,stars,"
            "r2,r2_adj,residual_se,f_stat,f_p,grade,mode,evolution,symbol"
        ]
        lines += [
            _csv_row(
                "simple", fit.parasite_name, fit.host_name, fit.n_paired,
                fit.regression, fit.classification,
            )
            for fit in report.fits
        ]
        lines += [
            _csv_row(
                "multi", fit.target_parasite, ";".join(fit.predictor_names),
                fit.n_listwise, fit.regression, None,
            )
            for fit in report.multi_fits
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")

    # text
    lines = ["Technology evolution report (log base e)", "=" * 41, ""]
    for fit in report.fits:
        lines += _text_fit_block(fit)
        lines.append("")
    for fit in report.multi_fits:
        lines += _text_multi_block(fit)
        lines.append("")
    lines += _text_correlations(report.correlations)
    lines.append("")
    if report.descriptives:
        lines.append("Descriptive statistics (log scale):")
        lines.append(
            f"  {'series':<24} {'n':>5} {'mean':>10} {'sd':>10} "
            f"{'skew':>10} {'kurt':>10}"
        )
        for name, d in report.descriptives:
            skew = "undef" if d.skewness is None else f"{d.skewness:.3f}"
            kurt = "undef" if d.kurtosis is None else f"{d.kurtosis:.3f}"
            lines.append(
                f"  {name:<24} {d.n:>5} {d.mean:>10.3f} {d.sd:>10.3f} "
                f"{skew:>10} {kurt:>10}"
            )
        lines.append("")
    if report.provenance.inputs:
        lines.append("Inputs: " + ", ".join(report.provenance.inputs))
    lines.append("Significance: *** p < .001, ** p < .01, * p < .05")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def emit_plot_data(report: AnalysisReport, path_prefix: str | Path) -> list[Path]:
    """Write per-fit observed/fitted CSVs plus a standardized-trajectory CSV.

    Each simple fit produces ``<prefix>_fit<i>_<parasite>.csv`` with columns
    log_host, log_parasite, log_parasite_fitted (fitted = log_a + b*log_host).
    Trajectories land in ``<prefix>_trajectories.csv`` with a t column and one
    z column per series (blank where a series has no observation).
    """
    if not (report.fits or report.multi_fits):
        raise InvalidInputError("report contains no fits; nothing to plot")
    prefix = Path(path_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    for i, fit in enumerate(report.fits, start=1):
        path = prefix.with_name(
            f"{prefix.name}_fit{i}_{_safe_name(fit.parasite_name)}.csv"
        )
        fitted = [fit.log_a + fit.b * log_h for log_h in fit.log_host_values]
        text = _csv_text(
            "log_host,log_parasite,log_parasite_fitted",
            fit.log_host_values, fit.log_parasite_values, fitted,
        )
        path.write_text(text, encoding="utf-8")
        written.append(path)

    if report.standardized_trajectories:
        path = prefix.with_name(f"{prefix.name}_trajectories.csv")
        trajectories = report.standardized_trajectories
        all_years = sorted({t for tr in trajectories for t in tr.years})
        z_by_year = [dict(zip(tr.years, tr.z)) for tr in trajectories]
        header = "t," + ",".join(f"z_{_safe_name(tr.name)}" for tr in trajectories)
        lines = [header]
        for t in all_years:
            cells = [_num(t)]
            for zmap in z_by_year:
                cells.append(_num(zmap[t]) if t in zmap else "")
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written
