"""The traced benchmark wraps fairhc names by (module, attribute); one that no
longer resolves is skipped at run time, and its per-layer metrics read zero.
These tests fail instead when a rename leaves a wrapped name behind."""
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")


@pytest.mark.parametrize("module, attr, span", spans.BOUND_NAMES)
def test_bound_name_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr} ({span})"


def test_api_namespace_binds_every_spanned_name():
    api = load("workloads").api  # binds fairhc names as it imports
    assert [attr for attr in spans.API_SPANS if not callable(getattr(api, attr, None))] == []
