"""The package namespace: ``__all__`` is exactly what a star import binds."""

import types

import pytest

import parasitech


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from parasitech import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(parasitech.__all__)


def test_all_names_resolve_and_none_is_a_module():
    assert len(parasitech.__all__) == len(set(parasitech.__all__))
    for name in parasitech.__all__:
        value = getattr(parasitech, name)
        assert not isinstance(value, types.ModuleType), name


def test_public_api_exports():
    for name in ("TechSeries", "fit_evolution", "render_report", "__version__"):
        assert name in parasitech.__all__


@pytest.mark.parametrize(
    "module, name",
    [("io", "ReportFormat"), ("core", "GRADE_NAMES"), ("core", "prediction_label")],
)
def test_removed_names_are_gone(module, name):
    assert name not in parasitech.__all__
    assert not hasattr(parasitech, name)
    assert not hasattr(getattr(parasitech, module), name)
