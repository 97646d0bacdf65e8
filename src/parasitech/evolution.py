"""Host-parasite analysis pipeline.

Aligns FMT series by observation year, estimates the log-log evolution
models (one parasite on one host, or one parasite on host plus sibling
parasites), classifies the evolutionary coefficient on the ordinal scale,
builds the correlation matrix, and assembles everything into a report.

All logs are natural logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import statkit
from .core import EvolutionClass, TechSeries, classify_point, classify_with_test
from .errors import (
    CollinearityError,
    InsufficientDataError,
    InvalidInputError,
    NoOverlapError,
    UndefinedCorrelationError,
)
from .statkit import CorrelationEntry, DescriptiveStats, RegressionResult


@dataclass(frozen=True)
class EvolutionFit:
    """One estimated host-parasite evolution model with its classification.

    The aligned log columns ride along so the fit can be re-rendered (plot
    data, residual checks) without the original series.
    """

    host_name: str
    parasite_name: str
    regression: RegressionResult
    b: float
    log_a: float
    classification: EvolutionClass
    n_paired: int
    years_used: tuple[float, ...]
    log_host_values: tuple[float, ...]
    log_parasite_values: tuple[float, ...]


@dataclass(frozen=True)
class MultiEvolutionFit:
    """One parasite regressed on the host and its sibling parasites.

    ``dominant_predictors`` orders predictor names by |standardized
    coefficient|, largest first; ties keep input order.
    """

    target_parasite: str
    predictor_names: tuple[str, ...]
    regression: RegressionResult
    dominant_predictors: tuple[str, ...]
    n_listwise: int
    years_used: tuple[float, ...]


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric matrix of pairwise-deletion correlations over log values."""

    names: tuple[str, ...]
    entries: tuple[tuple[CorrelationEntry, ...], ...]


@dataclass(frozen=True)
class Provenance:
    """Where a report came from: input names, options, optional timestamp."""

    inputs: tuple[str, ...]
    options: tuple[tuple[str, str], ...]
    timestamp: str | None


@dataclass(frozen=True)
class Trajectory:
    """A series' raw values standardized over its own observation years."""

    name: str
    years: tuple[float, ...]
    z: tuple[float, ...]


@dataclass(frozen=True)
class AnalysisReport:
    fits: tuple[EvolutionFit, ...]
    multi_fits: tuple[MultiEvolutionFit, ...]
    correlations: CorrelationMatrix
    descriptives: tuple[tuple[str, DescriptiveStats], ...]
    standardized_trajectories: tuple[Trajectory, ...]
    provenance: Provenance


def _align(series: Sequence[TechSeries]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The years every series observes, ascending, and each series' log
    values on those years, one column per series in input order.

    Columns are addressed by position, never by name, so two series that
    share a name stay two columns. The error names the pair whose
    intersection first becomes empty. Times are strictly increasing, so
    the years of one series are found in the other's by binary search; a
    year keeps the first series' float (-0.0 against 0.0).
    """
    years = series[0].times
    picks = [np.arange(years.size)]
    for s in series[1:]:
        times = s.times
        idx = times.searchsorted(years)
        kept = (times.take(idx, mode="clip") == years).nonzero()[0]
        years, idx = years[kept], idx[kept]
        if not years.size:
            raise NoOverlapError(
                f"series {series[0].name!r} and {s.name!r} share no "
                "observation years"
            )
        picks = [p[kept] for p in picks] + [idx]
    return years, [s.log_values()[p] for s, p in zip(series, picks)]


def fit_evolution(
    host: TechSeries, parasite: TechSeries, alpha: float = 0.05
) -> EvolutionFit:
    """Estimate log P = log a + B log H on the years both series share.

    Classification uses the t-test of B against 1 at level ``alpha``; a
    perfect fit (zero residual variance, so zero standard error) falls back
    to exact comparison.
    """
    if not (0.0 < alpha < 1.0):  # checked here too: a perfect fit runs no test
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha!r}")
    years, (log_h, log_p) = _align([host, parasite])
    n = years.size
    if n < 4:
        raise InsufficientDataError(
            f"{host.name!r} ~ {parasite.name!r}: need at least 4 aligned years, "
            f"got {n}"
        )
    reg = statkit.ols_simple(log_h, log_p)
    log_a, b = reg.coefficients
    se_b = reg.standard_errors[1]
    if se_b > 0:
        classification = classify_with_test(b, se_b, n, alpha)
    else:
        classification = classify_point(b)
    return EvolutionFit(
        host_name=host.name,
        parasite_name=parasite.name,
        regression=reg,
        b=float(b),
        log_a=float(log_a),
        classification=classification,
        n_paired=n,
        years_used=tuple(years.tolist()),
        log_host_values=tuple(log_h.tolist()),
        log_parasite_values=tuple(log_p.tolist()),
    )


def fit_evolution_multi(
    target: TechSeries, host: TechSeries, others: Sequence[TechSeries]
) -> MultiEvolutionFit:
    """Estimate log P1 on log H and the logs of sibling parasites, listwise.

    Predictor order is host first, then the others as given. Dominance is
    read off the standardized coefficients. The multi-model reports
    coefficient significance but no scale grade.
    """
    predictors = [host, *others]
    years, (y, *columns) = _align([target, *predictors])
    k = len(predictors)
    if years.size < k + 2:
        raise InsufficientDataError(
            f"{target.name!r}: need at least {k + 2} listwise-aligned years "
            f"for {k} predictors, got {years.size}"
        )
    try:
        reg = statkit.ols_multi(columns, y)
    except CollinearityError as err:
        name = predictors[err.column_index].name if err.column_index is not None else "?"
        raise CollinearityError(
            f"series {name!r} is collinear with earlier predictors",
            column_index=err.column_index,
        ) from err
    names = tuple(p.name for p in predictors)
    std = reg.standardized_coefficients[1:]
    order = sorted(
        range(k),
        key=lambda j: (-(abs(std[j]) if math.isfinite(std[j]) else -math.inf), j),
    )
    return MultiEvolutionFit(
        target_parasite=target.name,
        predictor_names=names,
        regression=reg,
        dominant_predictors=tuple(names[j] for j in order),
        n_listwise=years.size,
        years_used=tuple(years.tolist()),
    )


def _correlation(a: TechSeries, b: TechSeries) -> CorrelationEntry:
    """One off-diagonal cell, over the years ``a`` and ``b`` share."""
    try:
        years, (x, y) = _align([a, b])
        return statkit.pearson(x, y)
    except NoOverlapError:
        years = ()
    except (InsufficientDataError, UndefinedCorrelationError):
        pass  # fewer than 3 shared years, or a constant side
    return CorrelationEntry(r=math.nan, p=math.nan, n=len(years))


def correlation_matrix(series_list: Sequence[TechSeries]) -> CorrelationMatrix:
    """Pairwise-deletion Pearson correlations over log values.

    Each off-diagonal cell uses the years the two series share; cells with
    fewer than 3 shared years, or with a constant side, are NaN-flagged
    rather than failing the whole matrix. Diagonal r is 1 by definition.
    """
    if len(series_list) < 2:
        raise InvalidInputError("need at least 2 series for a correlation matrix")
    m = len(series_list)
    cells: list[list[CorrelationEntry]] = [[None] * m for _ in range(m)]  # type: ignore[list-item]
    for i in range(m):
        n_i = series_list[i].n
        cells[i][i] = CorrelationEntry(
            r=1.0, p=0.0 if n_i >= 3 else math.nan, n=n_i
        )
        for j in range(i + 1, m):
            cells[i][j] = cells[j][i] = _correlation(series_list[i], series_list[j])
    return CorrelationMatrix(
        names=tuple(s.name for s in series_list),
        entries=tuple(tuple(row) for row in cells),
    )


def build_report(
    host: TechSeries,
    parasites: Sequence[TechSeries],
    *,
    multi: bool = False,
    alpha: float = 0.05,
    source_files: Sequence[str] = (),
    options: Mapping[str, object] | None = None,
    timestamp: str | None = None,
) -> AnalysisReport:
    """Assemble the full analysis for one host and its parasites.

    ``multi=False`` fits each parasite on the host separately;
    ``multi=True`` fits the first parasite on host plus the remaining
    parasites. Descriptives are computed on log values; standardized
    trajectories z-score each series' raw values over its own years
    (constant series are skipped there since z-scores are undefined).

    The report is deterministic given inputs and options; ``timestamp`` is
    whatever the caller injects (None by default, so serialized output is
    reproducible).
    """
    if not parasites:
        raise InvalidInputError("at least one parasite series is required")
    if multi and len(parasites) < 2:
        raise InvalidInputError(
            "multidimensional fit needs a target parasite plus at least one sibling"
        )

    fits: tuple[EvolutionFit, ...] = ()
    multi_fits: tuple[MultiEvolutionFit, ...] = ()
    if multi:
        multi_fits = (fit_evolution_multi(parasites[0], host, parasites[1:]),)
    else:
        fits = tuple(fit_evolution(host, p, alpha=alpha) for p in parasites)

    all_series = [host, *parasites]
    correlations = correlation_matrix(all_series)

    descriptives = tuple(
        (s.name, statkit.descriptive(s.log_values())) for s in all_series
    )

    trajectories = tuple(
        Trajectory(
            name=s.name,
            years=tuple(s.times.tolist()),
            z=tuple(statkit.zscore(s.values).tolist()),
        )
        for s in all_series
        if np.ptp(s.values) != 0.0
    )

    opts = dict(options or {})
    if not multi:
        opts.setdefault("alpha", alpha)
    opts.setdefault("mode", "multi" if multi else "pairwise")
    provenance = Provenance(
        inputs=tuple(source_files),
        options=tuple(sorted((k, repr(v)) for k, v in opts.items())),
        timestamp=timestamp,
    )
    return AnalysisReport(
        fits=fits,
        multi_fits=multi_fits,
        correlations=correlations,
        descriptives=descriptives,
        standardized_trajectories=trajectories,
        provenance=provenance,
    )
