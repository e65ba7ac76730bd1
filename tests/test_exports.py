"""Public API surface checks: everything advertised is importable."""

from __future__ import annotations

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.taxonomy",
    "repro.utility",
    "repro.spatial",
    "repro.lp",
    "repro.mckp",
    "repro.algorithms",
    "repro.engine",
    "repro.sharding",
    "repro.resilience",
    "repro.stream",
    "repro.datagen",
    "repro.experiments",
    "repro.obs",
    "repro.cluster",
    "repro.scenario",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_module_docstrings(package):
    module = importlib.import_module(package)
    assert module.__doc__, f"{package} needs a module docstring"


def test_top_level_quickstart_names():
    import repro

    for name in (
        "synthetic_problem",
        "run_panel",
        "Reconciliation",
        "OnlineAdaptiveFactorAware",
        "MUAAProblem",
        "validate_assignment",
    ):
        assert name in repro.__all__


def test_version_is_pep440ish():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(part.isdigit() for part in parts)
