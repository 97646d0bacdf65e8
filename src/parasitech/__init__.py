"""Technometrics of host-parasite technology coevolution.

Measure a parasitic subsystem's advance against its host technology: fit
logistic growth laws, derive the implied log-log power law, estimate the
evolutionary coefficient B by OLS, grade it on the three-step evolution
scale, and validate the whole chain on simulated ecosystems.
"""

__version__ = "0.1.0"

from .core import (
    EVOLUTION_SCALE,
    GRADE_NAMES,
    BTest,
    EvolutionClass,
    TechSeries,
    classify_point,
    classify_with_test,
    prediction_label,
)
from .errors import (
    CollinearityError,
    DataError,
    DegenerateSeriesError,
    EmptySeriesError,
    FitFailureError,
    HarnessError,
    InsufficientDataError,
    InvalidInputError,
    InvalidKError,
    NoOverlapError,
    ParasitechError,
    SeriesFormatError,
    SingularDesignError,
    UndefinedCorrelationError,
)
from .evolution import (
    AnalysisReport,
    CorrelationMatrix,
    EvolutionFit,
    MultiEvolutionFit,
    build_report,
    correlation_matrix,
    fit_evolution,
    fit_evolution_multi,
)
from .io import (
    ReportFormat,
    SeriesFile,
    emit_plot_data,
    parse_series_csv,
    render_report,
    report_to_dict,
    write_series_csv,
)
from .logistic import (
    LogisticFitReport,
    LogisticParams,
    PowerLaw,
    derive_power_law,
    fit_logistic,
    forecast_series,
    logistic_value,
    logit_transform,
)
from .simulate import (
    RecoverySummary,
    SimConfig,
    monte_carlo_recovery,
    simulate_pair,
    simulate_series,
)
from .statkit import (
    CorrelationEntry,
    DescriptiveStats,
    RegressionResult,
    descriptive,
    f_sf,
    ols_multi,
    ols_simple,
    pearson,
    significance_stars,
    student_t_sf,
    t_critical,
    zscore,
)

__all__ = [
    "__version__",
    # core
    "TechSeries",
    "EvolutionClass",
    "BTest",
    "EVOLUTION_SCALE",
    "GRADE_NAMES",
    "classify_point",
    "classify_with_test",
    "prediction_label",
    # statkit
    "RegressionResult",
    "DescriptiveStats",
    "CorrelationEntry",
    "ols_simple",
    "ols_multi",
    "student_t_sf",
    "f_sf",
    "t_critical",
    "descriptive",
    "pearson",
    "zscore",
    "significance_stars",
    # logistic
    "LogisticParams",
    "PowerLaw",
    "LogisticFitReport",
    "logistic_value",
    "logit_transform",
    "fit_logistic",
    "derive_power_law",
    "forecast_series",
    # evolution
    "EvolutionFit",
    "MultiEvolutionFit",
    "CorrelationMatrix",
    "AnalysisReport",
    "fit_evolution",
    "fit_evolution_multi",
    "correlation_matrix",
    "build_report",
    # simulate
    "SimConfig",
    "RecoverySummary",
    "simulate_series",
    "simulate_pair",
    "monte_carlo_recovery",
    # io
    "SeriesFile",
    "ReportFormat",
    "parse_series_csv",
    "write_series_csv",
    "render_report",
    "report_to_dict",
    "emit_plot_data",
    # errors
    "ParasitechError",
    "DataError",
    "InvalidInputError",
    "InsufficientDataError",
    "SingularDesignError",
    "CollinearityError",
    "NoOverlapError",
    "SeriesFormatError",
    "EmptySeriesError",
    "InvalidKError",
    "DegenerateSeriesError",
    "UndefinedCorrelationError",
    "FitFailureError",
    "HarnessError",
]
