"""Technometrics of host-parasite technology coevolution.

Measure a parasitic subsystem's advance against its host technology: fit
logistic growth laws, derive the implied log-log power law, estimate the
evolutionary coefficient B by OLS, grade it on the three-step evolution
scale, and validate the whole chain on simulated ecosystems.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .core import (
    EVOLUTION_SCALE,
    BTest,
    EvolutionClass,
    TechSeries,
    classify_point,
    classify_with_test,
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

# the public names the imports above bind, less the submodules they bind
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
