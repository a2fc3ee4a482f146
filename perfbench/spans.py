"""Spans around the calls into fairhc, for the traced benchmark run.

Wrappers go on the names as the calling fairhc module binds them and on the
benchmark's own entry points (the ``api`` namespace of ``workloads``).  A
name that fairhc no longer binds is skipped and reported as absent, so a
later refactor can delete or rename internals without editing the benchmark.
Spans stay in memory; ``layer_metrics`` turns them into the per-layer
metrics when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute it calls through, span name).  The span name is the
# layer that does the work, whatever module binds the name.
BOUND_NAMES = (
    ("fairhc.solver", "solve_power_flow", "powerflow.solve_power_flow"),
    ("fairhc.solver", "adjoint_gradient", "powerflow.adjoint_gradient"),
    ("fairhc.solver", "constraint_residuals", "powerflow.constraint_residuals"),
    ("fairhc.solver", "residual_min_batch", "powerflow.residual_min_batch"),
    ("fairhc.solver", "minimize", "solver.lbfgsb"),
    ("fairhc.pareto", "solve_hc", "solver.solve_hc"),
    ("fairhc.pareto", "build_problem", "formulation.build_problem"),
    ("fairhc.pareto", "to_per_unit", "netmodel.to_per_unit"),
    ("fairhc.cli", "sweep", "pareto.sweep"),
    ("fairhc.cli", "parse_feeder", "netmodel.parse_feeder"),
    ("fairhc.cli", "to_per_unit", "netmodel.to_per_unit"),
    ("fairhc.cli", "solve_hc", "solver.solve_hc"),
)

# The benchmark's own calls, by attribute of the ``api`` namespace.
API_SPANS = {
    "generate_feeder": "synth.generate_feeder",
    "serialize_feeder": "netmodel.serialize_feeder",
    "parse_feeder": "netmodel.parse_feeder",
    "to_per_unit": "netmodel.to_per_unit",
    "build_problem": "formulation.build_problem",
    "solve_hc": "solver.solve_hc",
    "brute_force_oracle_batch": "solver.brute_force_oracle_batch",
    "solve_power_flow": "powerflow.solve_power_flow",
    "constraint_residuals": "powerflow.constraint_residuals",
    "adjoint_gradient": "powerflow.adjoint_gradient",
    "cli_main": "cli.main",
}

# Per-layer metrics and their units, in report order.  Calls, busy and self
# times are per pass of the work list plus per set-up.
PER_LAYER = (
    ("powerflow.solve_power_flow.calls", "count"),
    ("powerflow.solve_power_flow.busy_s", "s"),
    ("powerflow.newton_iters", "count"),
    ("powerflow.iters_per_solve", "1"),
    ("powerflow.adjoint_gradient.calls", "count"),
    ("powerflow.adjoint_gradient.busy_s", "s"),
    ("powerflow.constraint_residuals.calls", "count"),
    ("powerflow.constraint_residuals.busy_s", "s"),
    ("powerflow.residual_min_batch.calls", "count"),
    ("powerflow.residual_min_batch.busy_s", "s"),
    ("solver.solve_hc.calls", "count"),
    ("solver.solve_hc.self_s", "s"),
    ("solver.lbfgsb.calls", "count"),
    ("solver.lbfgsb.self_s", "s"),
    ("solver.lbfgsb.nit", "count"),
    ("solver.lbfgsb.nfev", "count"),
    ("solver.outer_iters", "count"),
    ("solver.inner_iters", "count"),
    ("solver.pf_per_solve", "1"),
    ("solver.pf_per_fev", "1"),
    ("solver.nonoptimal_share", "1"),
    ("solver.brute_force_oracle_batch.self_s", "s"),
    ("solver.oracle_points", "count"),
    ("pareto.sweep.busy_s", "s"),
    ("pareto.sweep.self_s", "s"),
    ("pareto.points", "count"),
    ("pareto.failed_points", "count"),
    ("cli.import_s", "s"),
    ("cli.main.busy_s", "s"),
    ("netmodel.parse_feeder.busy_s", "s"),
    ("netmodel.to_per_unit.busy_s", "s"),
    ("synth.generate_feeder.busy_s", "s"),
    ("formulation.build_problem.busy_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("trace.solve_coverage", "1"),
)


def _annotate(name: str, args: tuple, kwargs: dict, out) -> dict:
    """Counts read off a call's arguments and public result fields."""
    if name == "powerflow.solve_power_flow":
        return {"iters": getattr(out, "iterations", 0)}
    if name == "solver.lbfgsb":
        return {"nit": getattr(out, "nit", 0), "nfev": getattr(out, "nfev", 0)}
    if name == "solver.solve_hc":
        outer, inner = (tuple(getattr(out, "iterations", ())) + (0, 0))[:2]
        policy = getattr(out, "policy", None)
        return {"status": getattr(out, "status", ""), "outer": outer, "inner": inner,
                "variant": getattr(policy, "variant", "")}
    if name == "pareto.sweep":
        points = getattr(out, "points", [])
        return {"points": len(points),
                "failed": sum(getattr(p, "status", "") == "failed" for p in points)}
    if name == "solver.brute_force_oracle_batch":
        problems = args[0] if args else kwargs.get("problems", [])
        steps = kwargs.get("grid_steps") or (args[1] if len(args) > 1 else 0)
        return {"points": int(steps) ** problems[0].n_loads if problems and steps else 0}
    return {}


class Tracer:
    """In-memory span recorder.

    ``phase`` is "setup", "warm-up" or the index of the pass; warm-up spans
    are recorded but count towards no metric.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.phase: object = "setup"
        self.op = 0
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else -1,
                    "op": self.op, "phase": self.phase}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(_annotate(name, args, kwargs, out))
            return out
        return traced

    def install(self, api) -> None:
        targets = [(importlib.import_module(mod), attr, name) for mod, attr, name in BOUND_NAMES]
        targets += [(api, attr, name) for attr, name in API_SPANS.items()]
        for owner, attr, name in targets:
            if not hasattr(owner, attr):
                self.absent.add(f"{getattr(owner, '__name__', 'api')}.{attr}")
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"absent": sorted(self.absent), "spans": self.spans}, fh)


def _nearest(spans: list[dict], span: dict, name: str) -> dict | None:
    """The span itself or its closest ancestor called ``name``."""
    while span["name"] != name:
        if span["parent"] < 0:
            return None
        span = spans[span["parent"]]
    return span


def _has_ancestor(spans: list[dict], span: dict, name: str) -> bool:
    return span["parent"] >= 0 and _nearest(spans, spans[span["parent"]], name) is not None


def layer_metrics(tracer: Tracer, setups: int, passes: set, import_s: float,
                  overhead_s: float, solve_op_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of every set-up and every complete pass.

    Set-up spans count once per set-up, pass spans once per complete pass.
    ``solve_op_s`` is the untraced time per pass of the utilitarian and
    bargaining solves, against which ``trace.solve_coverage`` compares the
    traced layer times of the same solves.
    """
    spans = tracer.spans

    def weight(span):
        if span["phase"] == "setup":
            return 1.0 / setups
        return 1.0 / len(passes) if span["phase"] in passes else 0.0

    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child[span["parent"]] += span["end"] - span["start"]
    calls: dict[str, float] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    attrs: dict[str, float] = {}
    counted = 0.0
    pf_in_solve = pf_in_fev = nonoptimal = covered = 0.0
    for i, span in enumerate(spans):
        w = weight(span)
        if w == 0.0:
            continue
        name, dur = span["name"], span["end"] - span["start"]
        counted += w
        calls[name] = calls.get(name, 0.0) + w
        self_s[name] = self_s.get(name, 0.0) + w * (dur - child[i])
        if not _has_ancestor(spans, span, name):
            busy[name] = busy.get(name, 0.0) + w * dur
        for key in ("iters", "nit", "nfev", "outer", "inner", "points", "failed"):
            if key in span:
                attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0.0) + w * span[key]
        if name == "powerflow.solve_power_flow":
            pf_in_solve += w * _has_ancestor(spans, span, "solver.solve_hc")
            pf_in_fev += w * _has_ancestor(spans, span, "solver.lbfgsb")
        if name == "solver.solve_hc":
            nonoptimal += w * (span.get("status") != "optimal")
        # the layer parts of the utilitarian and bargaining solves
        if span["phase"] == "setup":
            continue
        if name in ("solver.solve_hc", "solver.lbfgsb"):
            part = dur - child[i]
        elif name.startswith("powerflow."):
            part = dur
        else:
            continue
        owner = _nearest(spans, span, "solver.solve_hc")
        if owner is not None and owner.get("variant") in ("utilitarian", "bargaining"):
            covered += w * part

    def ratio(num, den):
        return num / den if den else 0.0

    pf_calls = calls.get("powerflow.solve_power_flow", 0.0)
    solves = calls.get("solver.solve_hc", 0.0)
    iters = attrs.get("powerflow.solve_power_flow.iters", 0.0)
    nfev = attrs.get("solver.lbfgsb.nfev", 0.0)
    out = {
        "powerflow.newton_iters": iters,
        "powerflow.iters_per_solve": ratio(iters, pf_calls),
        "solver.lbfgsb.nit": attrs.get("solver.lbfgsb.nit", 0.0),
        "solver.lbfgsb.nfev": nfev,
        "solver.outer_iters": attrs.get("solver.solve_hc.outer", 0.0),
        "solver.inner_iters": attrs.get("solver.solve_hc.inner", 0.0),
        "solver.pf_per_solve": ratio(pf_in_solve, solves),
        "solver.pf_per_fev": ratio(pf_in_fev, nfev),
        "solver.nonoptimal_share": ratio(nonoptimal, solves),
        "solver.oracle_points": attrs.get("solver.brute_force_oracle_batch.points", 0.0),
        "pareto.points": attrs.get("pareto.sweep.points", 0.0),
        "pareto.failed_points": attrs.get("pareto.sweep.failed", 0.0),
        "cli.import_s": import_s,
        "trace.spans": counted,
        "trace.overhead_s": overhead_s,
        "trace.solve_coverage": ratio(covered, solve_op_s),
    }
    for metric, _ in PER_LAYER:
        if metric in out:
            continue
        layer, suffix = metric.rsplit(".", 1)
        table = {"calls": calls, "busy_s": busy, "self_s": self_s}[suffix]
        out[metric] = table.get(layer, 0.0)
    return out
