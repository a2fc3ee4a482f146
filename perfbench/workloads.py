"""The four fairhc benchmark workloads.

Each workload makes its inputs from the seed (``prepare``), makes one warm-up
call, and runs passes of a fixed work list through a ``Runner``, which times
every op and records every correctness check.  Ops call fairhc only through
``api``, so that the traced run can wrap the benchmark's own calls; checks call
the package's public functions directly and so stay out of the trace.  Only
public fairhc names are used.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

import fairhc
import fairhc.cli
from fairhc import Conductor, FairnessPolicy, References, SynthSpec

api = types.SimpleNamespace(
    generate_feeder=fairhc.generate_feeder,
    serialize_feeder=fairhc.serialize_feeder,
    parse_feeder=fairhc.parse_feeder,
    to_per_unit=fairhc.to_per_unit,
    build_problem=fairhc.build_problem,
    solve_hc=fairhc.solve_hc,
    brute_force_oracle_batch=fairhc.brute_force_oracle_batch,
    solve_power_flow=fairhc.solve_power_flow,
    constraint_residuals=fairhc.constraint_residuals,
    adjoint_gradient=fairhc.adjoint_gradient,
    cli_main=fairhc.cli.main,
)

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "pinned.json"

CONDUCTOR = Conductor(i_rated_a=500.0)
# Seed 0 is the nominal feeders, whose answers are pinned; any other seed
# scales each line and each load demand by its own factor within this share.
JITTER = 0.01
FEAS_TOL = 1e-6  # pu, the solver's own feasibility tolerance
ORDER_TOL = 0.005  # criterion 7's relative tolerance on policy ordering
PIN_TOL = 0.01  # relative tolerance on the seed-0 answers
MISMATCH_TOL = 1e-8
FD_STEP, FD_PF_TOL, FD_REL_TOL = 1e-6, 1e-12, 1e-5  # criterion 10's rule

UTILITARIAN = FairnessPolicy.utilitarian()
EGALITARIAN = FairnessPolicy.egalitarian()
BOUNDED = FairnessPolicy.bounded(0.5, 0.5)
BARGAINING = FairnessPolicy.bargaining(0.5)


class Deadline(Exception):
    """The run's time is up; the pass in progress is dropped."""


class Runner:
    """Times ops, records checks and keeps the complete passes of a run."""

    def __init__(self, workload: str, pins: bool, tracer=None):
        self.pins = json.loads(PINNED.read_text()).get(workload, {}) if pins else None
        self.tracer = tracer
        self.deadline = math.inf
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.checks: dict[str, list] = {}  # name -> [passed, failed, first failure]
        self.errors: list[str] = []
        self.passes: list[dict] = []  # {"index", "ops": [(kind, s)], "hc", "answers"}
        self._pass: dict | None = None
        self._started = 0

    def op(self, kind: str, fn, *args, **kwargs):
        if time.perf_counter() >= self.deadline:
            raise Deadline
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self._pass["ops"].append((kind, time.perf_counter() - t0))
        return out

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.checks.setdefault(name, [0, 0, ""])
        if ok:
            entry[0] += 1
            return
        entry[1] += 1
        entry[2] = entry[2] or detail
        self.failed_ops.add(self.attempted)

    def answer(self, key: str, hc_kw: float, step_kw: float = 0.0) -> None:
        """Record one hosting-capacity answer; at seed 0 compare it with its pin."""
        self._pass["hc"] += hc_kw
        self._pass["answers"][key] = hc_kw
        if self.pins is not None and not self.passes:
            pin = self.pins.get(key)
            ok = pin is not None and abs(hc_kw - pin) <= PIN_TOL * abs(pin) + step_kw
            self.check("pinned_answers", ok, f"{key}: {hc_kw:.6f} kW vs pinned {pin}")

    def run_pass(self, body) -> bool:
        """Run one pass; keep it only if it completes."""
        self._pass = {"index": self._started, "ops": [], "hc": 0.0, "answers": {}}
        self._started += 1
        if self.tracer is not None:
            self.tracer.phase = self._pass["index"]
        try:
            body(self)
        except Deadline:
            return False
        except Exception as exc:  # a raising op fails; the run goes on to report it
            self.failed_ops.add(self.attempted)
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return False
        self.passes.append(self._pass)
        return True


def check_feasible(r: Runner, nf, sol) -> None:
    """Re-verify a reported allocation from outside the solver."""
    state = fairhc.solve_power_flow(nf, sol.allocation / nf.s_base)
    margin = fairhc.constraint_residuals(state, nf).min()
    r.check("allocation_feasible", margin >= -FEAS_TOL,
            f"{fairhc.policy_string(sol.policy)}: min residual {margin:.3e} pu")


def check_order(r: Runner, label: str, uti: float, egal: float | None = None,
                between=(), below=()) -> None:
    """egalitarian <= each of ``between`` <= utilitarian; each of ``below`` <= utilitarian."""
    hi = uti + ORDER_TOL * abs(uti)
    if egal is not None:
        lo = egal - ORDER_TOL * abs(egal)
        r.check("policy_order", egal <= hi,
                f"{label}: egalitarian {egal:.6f} > utilitarian {uti:.6f}")
        for hc in between:
            r.check("policy_order", lo <= hc <= hi,
                    f"{label}: {hc:.6f} outside [{egal:.6f}, {uti:.6f}]")
    for hc in below:
        r.check("policy_order", hc <= hi, f"{label}: {hc:.6f} above utilitarian {uti:.6f}")


def _jittered(text: str, rng) -> str:
    """Scale each line's impedance and length, and each load's demand, by its own factor."""
    if rng is None:
        return text
    doc = json.loads(text)
    for line in doc["lines"]:
        f = 1.0 + rng.uniform(-JITTER, JITTER)
        for key in ("r_ohm", "x_ohm", "length_m"):
            line[key] *= f
    for load in doc["loads"]:
        f = 1.0 + rng.uniform(-JITTER, JITTER)
        load["p_kw"] *= f
        load["q_kvar"] *= f
    return json.dumps(doc)


def feeder_text(spec: SynthSpec, rng) -> str:
    """The feeder file a planner would hold: generated, jittered, serialized."""
    return _jittered(api.serialize_feeder(api.generate_feeder(spec)), rng)


def load_feeder(spec: SynthSpec, rng):
    return api.to_per_unit(api.parse_feeder(feeder_text(spec, rng)))


# ---------------------------------------------------------------------------


class PolicyMix:
    """All four policies on the criterion 8/9 linear feeder and a branched one.

    The feeders are the nominal ones at every seed: any perturbation, even
    0.3 %, moves the time of one augmented-Lagrangian solve by up to a factor
    of two, so jittered feeders would make the seed, not the code, set the
    spread of every timing.
    """

    name = "policy_mix"
    FEEDERS = (("lin10", SynthSpec(10, "linear", 500.0, conductor=CONDUCTOR)),
               ("br5", SynthSpec(5, "branched", 100.0, conductor=CONDUCTOR)))
    SMOKE = (("lin3", SynthSpec(3, "linear", 500.0, conductor=CONDUCTOR)),)
    WARM = SynthSpec(2, "linear", 500.0, conductor=CONDUCTOR)

    def __init__(self, seed: int, smoke: bool, in_process: bool, work: Path):
        self.feeders = self.SMOKE if smoke else self.FEEDERS

    def prepare(self):
        out = []
        for label, spec in self.feeders:
            nf = load_feeder(spec, None)
            out.append((label, nf, {p.variant: api.build_problem(nf, p)
                                    for p in (EGALITARIAN, UTILITARIAN, BARGAINING)}))
        warm = api.build_problem(load_feeder(self.WARM, None), UTILITARIAN)
        return out, warm

    def warm_up(self, inputs) -> None:
        api.solve_hc(inputs[1])

    def run_pass(self, r: Runner, inputs) -> None:
        for label, nf, problems in inputs[0]:
            def solved(variant, problem):
                sol = r.op(f"solve.{variant}.{label}", api.solve_hc, problem)
                r.answer(f"{label}/{variant}", sol.hc_total)
                check_feasible(r, nf, sol)
                return sol

            egal = solved("egalitarian", problems["egalitarian"])
            uti = solved("utilitarian", problems["utilitarian"])
            refs = References(egal_per_load=float(egal.allocation[0]) / nf.s_base,
                              uti_allocation=uti.allocation / nf.s_base)
            bnd = solved("bounded", api.build_problem(nf, BOUNDED, refs))
            barg = solved("bargaining", problems["bargaining"])
            check_order(r, label, uti.hc_total, egal.hc_total, between=[bnd.hc_total],
                        below=[barg.hc_total])

    def extra(self, passes) -> list[tuple]:
        """solve_s.<policy> over both feeders, then per feeder for comparison."""
        def times(prefix):
            return [s for p in passes for kind, s in p["ops"] if kind.startswith(prefix)]
        out = [(f"solve_s.{v}", median(times(f"solve.{v}.")), "s")
               for v in ("utilitarian", "bargaining")]
        out += [(f"solve_s.{v}.{label}", median(times(f"solve.{v}.{label}")), "s")
                for label, _ in self.feeders
                for v in ("egalitarian", "utilitarian", "bounded", "bargaining")]
        return out


class FeederScale:
    """Single-point Newton and adjoint on feeders of 31, 101 and 201 buses."""

    name = "feeder_scale"
    FEEDERS = (("bus31", SynthSpec(30, "linear", 100.0, conductor=CONDUCTOR)),
               ("bus101", SynthSpec(100, "linear", 100.0, conductor=CONDUCTOR)),
               ("bus201", SynthSpec(100, "branched", 100.0, conductor=CONDUCTOR)))
    K = 35  # injection points per feeder, so a pass has more than 100 ops
    DG_MAX = 0.02  # pu per load; Newton takes two or three iterations up to here

    def __init__(self, seed: int, smoke: bool, in_process: bool, work: Path):
        self.seed = seed
        self.k = 2 if smoke else self.K
        self.fd_done = False

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        jitter = rng if self.seed else None
        out = []
        for label, spec in self.FEEDERS:
            nf = load_feeder(spec, jitter)
            points = rng.uniform(0.0, self.DG_MAX, size=(self.k, nf.n_loads))
            weights = np.ones(len(fairhc.constraint_residuals(
                fairhc.solve_power_flow(nf, points[0]), nf).as_vector()))
            entries = rng.choice(nf.n_loads, size=2, replace=False)
            out.append((label, nf, points, weights, entries,
                        api.build_problem(nf, EGALITARIAN)))
        return out

    def warm_up(self, inputs) -> None:
        _, nf, points, weights, _, _ = inputs[-1]
        api.adjoint_gradient(nf, points[0], weights, state=api.solve_power_flow(nf, points[0]))

    def run_pass(self, r: Runner, inputs) -> None:
        for label, nf, points, weights, entries, egal_problem in inputs:
            states = []
            for p in points:
                state = r.op(f"pf.{label}", api.solve_power_flow, nf, p)
                r.check("pf_mismatch", state.max_mismatch < MISMATCH_TOL,
                        f"{label}: mismatch {state.max_mismatch:.3e} pu")
                states.append(state)
            for p, state in zip(points, states):
                r.op(f"adjoint.{label}", api.adjoint_gradient, nf, p, weights, state=state)
            sol = r.op("solve.egalitarian", api.solve_hc, egal_problem)
            r.answer(f"{label}/egalitarian", sol.hc_total)
            check_feasible(r, nf, sol)
            if not self.fd_done:
                self._check_adjoint(r, label, nf, points[0], weights, entries)
        self.fd_done = True

    @staticmethod
    def _check_adjoint(r: Runner, label, nf, p, weights, entries) -> None:
        """Adjoint against central differences on two entries (criterion 10's rule)."""
        grad = fairhc.adjoint_gradient(nf, p, weights, tol=FD_PF_TOL)
        fd = []
        for d in entries:
            e = np.zeros(nf.n_loads)
            e[d] = FD_STEP
            c = [fairhc.constraint_residuals(fairhc.solve_power_flow(nf, x, tol=FD_PF_TOL),
                                             nf).as_vector() for x in (p + e, p - e)]
            fd.append(weights @ (c[0] - c[1]) / (2.0 * FD_STEP))
        fd = np.array(fd)
        rel = np.max(np.abs(grad[entries] - fd)) / max(1.0, np.max(np.abs(fd)))
        r.check("adjoint_vs_central_difference", rel < FD_REL_TOL,
                f"{label}: relative error {rel:.2e}")

    def extra(self, passes) -> list[tuple]:
        ops = [s for p in passes for _, s in p["ops"]]
        out = [("op_p90_s", quantile(ops, 0.9), "s")]
        for label, _ in self.FEEDERS:
            times = [s for p in passes for kind, s in p["ops"] if kind == f"pf.{label}"]
            out.append((f"pf_ms.{label}", 1e3 * median(times), "ms"))
        label = self.FEEDERS[-1][0]
        times = [s for p in passes for kind, s in p["ops"] if kind == f"adjoint.{label}"]
        out.append((f"adjoint_ms.{label}", 1e3 * median(times), "ms"))
        return out


class OracleGrid:
    """The batched grid oracle: one sweep shared by two policies on 7 buses."""

    name = "oracle_grid"
    SPEC = SynthSpec(3, "branched", 200.0, conductor=CONDUCTOR, dg_cap_kw=60.0)
    STEPS = 101

    def __init__(self, seed: int, smoke: bool, in_process: bool, work: Path):
        self.seed = seed
        self.steps = 11 if smoke else self.STEPS

    def prepare(self):
        nf = load_feeder(self.SPEC, np.random.default_rng(self.seed) if self.seed else None)
        return nf, [api.build_problem(nf, UTILITARIAN), api.build_problem(nf, BARGAINING)]

    def warm_up(self, inputs) -> None:
        api.brute_force_oracle_batch(inputs[1], grid_steps=5)

    def run_pass(self, r: Runner, inputs) -> None:
        nf, problems = inputs
        uti, barg = r.op("oracle", api.brute_force_oracle_batch, problems, grid_steps=self.steps)
        step_kw = self.SPEC.dg_cap_kw / (self.steps - 1)
        for sol in (uti, barg):
            r.answer(f"oracle/{sol.policy.variant}", sol.hc_total, step_kw)
            check_feasible(r, nf, sol)
        check_order(r, "oracle", uti.hc_total, below=[barg.hc_total])

    def extra(self, passes) -> list[tuple]:
        times = [s for p in passes for _, s in p["ops"]]
        return [("grid_pts_per_s", self.steps ** self.SPEC.n_loads / median(times), "points/s")]


class FrontierCli:
    """The user-facing job: a fresh ``fairhc pareto`` process on a feeder file.

    The feeder is the nominal one at every seed, for the reason given at
    ``PolicyMix``: with a ±1 % jitter the 23 solves of one sweep took 9.5 to
    11.2 s over ten seeds.
    """

    name = "frontier_cli"
    SPEC = SynthSpec(5, "linear", 250.0, conductor=CONDUCTOR)
    STEPS = 21

    def __init__(self, seed: int, smoke: bool, in_process: bool, work: Path):
        self.steps = 3 if smoke else self.STEPS
        self.in_process = in_process
        self.dir = work

    def prepare(self):
        feeder = self.dir / "feeder.json"
        feeder.write_text(feeder_text(self.SPEC, None))
        return str(feeder), str(self.dir / "frontier.csv")

    def warm_up(self, inputs) -> None:
        self._cli(["validate", inputs[0], "--out", str(self.dir / "valid.json")])

    def _cli(self, argv: list[str]) -> None:
        if self.in_process:
            code = api.cli_main(argv)
        else:
            code = subprocess.run([sys.executable, "-m", "fairhc.cli", *argv], env=child_env(),
                                  cwd=ROOT, timeout=170, stdout=subprocess.DEVNULL).returncode
        if code != 0:
            raise RuntimeError(f"fairhc {argv[0]} exited with {code}")

    def run_pass(self, r: Runner, inputs) -> None:
        feeder, csv = inputs
        r.op("cli.pareto", self._cli, ["pareto", feeder, "--family", "bounded_upper",
                                       "--steps", str(self.steps), "--jobs", "1", "--out", csv])
        points = fairhc.points_from_csv(Path(csv).read_text())
        r.check("frontier_csv_rows", len(points) == self.steps + 2,
                f"{len(points)} rows for --steps {self.steps}")
        try:
            fairhc.knee_point(points)
            r.check("frontier_knee", True)
        except fairhc.FairHCError as exc:
            r.check("frontier_knee", False, str(exc))
        for p in points:
            if math.isfinite(p.hc_kw):
                r.answer(f"{p.family}/{p.param:.2f}", p.hc_kw)
        ends = {p.family: p.hc_kw for p in points if p.family.startswith("endpoint_")}
        check_order(r, "frontier", ends["endpoint_uti"], ends["endpoint_egal"],
                    between=[p.hc_kw for p in points if p.family == "bounded_upper"])

    @staticmethod
    def extra(passes) -> list[tuple]:
        return []


WORKLOADS = {w.name: w for w in (PolicyMix, FeederScale, OracleGrid, FrontierCli)}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def median(values) -> float:
    return float(np.median(values)) if len(values) else math.nan


def quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else math.nan
