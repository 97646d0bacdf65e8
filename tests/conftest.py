import sys
from pathlib import Path

import numpy as np
import pytest

from parasitech import TechSeries

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable


def make_series(name, times, values, role="parasite", units=""):
    return TechSeries(name, role, units, times, values)


def scaled(series, factor):
    """``series`` with every value multiplied by ``factor``."""
    return TechSeries(
        series.name, series.role, series.units, series.times, series.values * factor
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
