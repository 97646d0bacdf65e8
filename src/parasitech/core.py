"""Domain types and the ordinal evolution scale.

A technology is observed through a Functional Measure of Technology (FMT): a
technical characteristic sampled over calendar years. A *host* is the master
complex system (e.g. the smartphone); a *parasite* is a subsystem that only
functions and evolves inside the host (e.g. the camera module).

The evolutionary coefficient B is the log-log slope of the parasite's FMT on
the host's FMT. Its position relative to 1 grades the evolution of the whole
complex system:

    grade 1 (Low)      B < 1   parasitism   -> underdevelopment  "/"
    grade 2 (Average)  B = 1   mutualism    -> growth            "+"
    grade 3 (High)     B > 1   symbiosis    -> development       "!"
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import statkit
from .errors import InsufficientDataError, InvalidInputError

ROLES = ("host", "parasite")

# grade -> (interaction mode, evolution label, symbol, forecast string)
EVOLUTION_SCALE = {
    1: (
        "parasitism",
        "underdevelopment",
        "/",
        "Complex system of technology evolves slowly over time",
    ),
    2: (
        "mutualism",
        "growth",
        "+",
        "Complex system of technology has a steady-state growth",
    ),
    3: (
        "symbiosis",
        "development",
        "!",
        "Complex system of technology is likely to evolve rapidly",
    ),
}

# Half-width of the exact-comparison band around B = 1. An estimated
# coefficient landing exactly on 1 is measure-zero, so grade 2 is only
# reachable in exact mode through this band (or through the t-test mode).
B_ONE_EPSILON = 1e-9


class TechSeries:
    """A named, unit-annotated FMT time series.

    ``times`` and ``values`` are read-only float64 arrays of equal length:
    strictly increasing real-valued times (calendar years CE, fractional
    allowed) and strictly positive values, so the natural log is always
    defined. Two series are equal when their names, roles, units and arrays
    are.
    """

    def __init__(self, name: str, role: str, units: str, times, values):
        if role not in ROLES:
            raise InvalidInputError(
                f"series {name!r}: role must be one of {ROLES}, got {role!r}"
            )
        t = np.array(times, dtype=np.float64)
        v = np.array(values, dtype=np.float64)
        if t.ndim != 1 or t.shape != v.shape:
            raise InvalidInputError(
                f"series {name!r}: times and values must be 1-d and of equal length"
            )
        if not t.size:
            raise InvalidInputError(f"series {name!r}: no observations")
        # strictly increasing between finite ends: every time is finite
        ends = math.isfinite(t[0]) and math.isfinite(t[-1])
        if not (ends and (t[1:] > t[:-1]).all()):
            if not np.isfinite(t).all():
                raise InvalidInputError(f"series {name!r}: non-finite time value")
            raise InvalidInputError(
                f"series {name!r}: observation times must be strictly increasing"
            )
        if not (v.min() > 0 and v.max() < math.inf):  # NaN fails too
            raise InvalidInputError(
                f"series {name!r}: every value must be a finite positive real"
            )
        t.flags.writeable = False
        v.flags.writeable = False
        self.name, self.role, self.units = name, role, units
        self._times, self._values = t, v

    @classmethod
    def from_columns(cls, name: str, role: str, units: str, times, values):
        """The constructor under another name, kept only because perfbench/
        calls it; once perfbench calls ``TechSeries(...)`` it can go."""
        return cls(name, role, units, times, values)

    def __eq__(self, other):
        if not isinstance(other, TechSeries):
            return NotImplemented
        return (
            (self.name, self.role, self.units) == (other.name, other.role, other.units)
            and np.array_equal(self._times, other._times)
            and np.array_equal(self._values, other._values)
        )

    @property
    def n(self) -> int:
        return self._times.size

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def values(self) -> np.ndarray:
        return self._values

    def log_values(self) -> np.ndarray:
        return np.log(self._values)

    def scaled(self, factor: float) -> "TechSeries":
        """Return a copy with every value multiplied by ``factor`` (> 0)."""
        if not (math.isfinite(factor) and factor > 0):
            raise InvalidInputError("scale factor must be a positive finite real")
        return TechSeries(
            self.name, self.role, self.units, self._times, self._values * factor
        )


@dataclass(frozen=True)
class BTest:
    """Two-sided t-test of an estimated coefficient against 1."""

    t_stat: float
    p_value: float
    alpha: float
    df: int


@dataclass(frozen=True)
class EvolutionClass:
    """A point on the ordinal evolution scale, fully populated."""

    grade: int
    mode: str
    evolution_label: str
    symbol: str
    prediction: str
    b_estimate: float
    test: BTest | None = None
    warnings: tuple[str, ...] = field(default=())


def _make_class(grade: int, b: float, test: BTest | None) -> EvolutionClass:
    mode, label, symbol, prediction = EVOLUTION_SCALE[grade]
    warnings: tuple[str, ...] = ()
    if b < 0:
        warnings = (
            "negative evolutionary coefficient: the growth model assumes "
            f"positive rates; grade {grade} assigned",
        )
    return EvolutionClass(
        grade=grade,
        mode=mode,
        evolution_label=label,
        symbol=symbol,
        prediction=prediction,
        b_estimate=float(b),
        test=test,
        warnings=warnings,
    )


def classify_point(b: float) -> EvolutionClass:
    """Classify an evolutionary coefficient by exact comparison against 1.

    Grade 1 if ``b < 1 - eps``, grade 2 if ``|b - 1| <= eps``, grade 3 if
    ``b > 1 + eps``, with a fixed ``eps`` of 1e-9. A negative coefficient is
    outside the model's assumptions (growth rates are positive); it still
    classifies as grade 1 but carries a warning.
    """
    b = float(b)
    if not math.isfinite(b):
        raise InvalidInputError(f"evolutionary coefficient must be finite, got {b!r}")
    if b < 1.0 - B_ONE_EPSILON:
        grade = 1
    elif b > 1.0 + B_ONE_EPSILON:
        grade = 3
    else:
        grade = 2
    return _make_class(grade, b, None)


def classify_with_test(
    b: float, se_b: float, n: int, alpha: float = 0.05
) -> EvolutionClass:
    """Classify using a two-sided t-test of ``b`` against 1.

    ``t = (b - 1)/se_b`` with ``n - 2`` degrees of freedom. When the test
    fails to reject ``b = 1`` at level ``alpha`` the classification is
    grade 2 (mutualism); otherwise the sign of ``b - 1`` decides.
    """
    b = float(b)
    se_b = float(se_b)
    if not math.isfinite(b):
        raise InvalidInputError(f"evolutionary coefficient must be finite, got {b!r}")
    if n < 3:
        raise InsufficientDataError(f"need n >= 3 observations for the t-test, got {n}")
    if not (math.isfinite(se_b) and se_b > 0):
        raise InvalidInputError(f"standard error must be positive, got {se_b!r}")
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in (0, 1), got {alpha!r}")

    df = int(n) - 2
    t_stat = (b - 1.0) / se_b
    p_value = statkit.student_t_sf(t_stat, df)
    test = BTest(t_stat=t_stat, p_value=p_value, alpha=alpha, df=df)
    if p_value >= alpha:
        grade = 2
    elif b > 1.0:
        grade = 3
    else:
        grade = 1
    return _make_class(grade, b, test)
