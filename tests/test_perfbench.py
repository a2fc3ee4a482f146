"""The traced benchmark wraps fairhc names by (module, attribute); one that no
longer resolves is skipped at run time, and its per-layer metrics read zero.
These tests fail instead when a rename leaves a wrapped name behind, or when
a solve stops calling through a wrapped name."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from fairhc.formulation import FairnessPolicy, build_problem

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


def test_traced_solver_names_are_looked_up_at_call_time(monkeypatch, lin3):
    # the tracer swaps these names after import; a solver that bound them
    # earlier would bypass it, and their per-layer counts would read zero
    tracer = spans.Tracer()
    solver = importlib.import_module("fairhc.solver")
    for module, attr, span in spans.BOUND_NAMES:
        if module == "fairhc.solver":
            monkeypatch.setattr(solver, attr, tracer.wrap(span, getattr(solver, attr)))
    solver.solve_hc(build_problem(lin3, FairnessPolicy.bargaining(0.5)))
    called = {span["name"] for span in tracer.spans}
    assert {"powerflow.solve_power_flow", "powerflow.constraint_residuals",
            "powerflow.adjoint_gradient"} <= called, called
