"""Command-line front end.

Subcommands: validate, stats, pf, solve, pareto, knee, synth, experiment.
Exit codes: 0 success, 1 infeasible, 2 input/parse error, 3 solver failure.
All JSON outputs embed a run manifest for reproducibility; set the
``SOURCE_DATE_EPOCH`` environment variable for byte-identical reruns.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import __version__
from .errors import (
    DegenerateFrontier,
    FairHCError,
    Infeasible,
    NonConvergence,
    ParseError,
    SchemaError,
    SingularJacobian,
    TooManyLoads,
    UnknownBus,
    ValidationError,
    ZeroUtilitarianHC,
)
from .formulation import build_problem, parse_policy, policy_string
from .kpi import gini
from .netmodel import feeder_stats, parse_feeder, serialize_feeder, to_per_unit
from .pareto import frontier_to_csv, knee_point, points_from_csv, sweep
from .powerflow import constraint_residuals, solve_power_flow
from .solver import GRID_STEPS, brute_force_oracle, solve_hc, solve_references
from .synth import Conductor, SynthSpec, generate_feeder, topology_experiment

log = logging.getLogger("fairhc")

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3

_INPUT_ERRORS = (ParseError, SchemaError, ValidationError, UnknownBus,
                 ZeroUtilitarianHC, TooManyLoads, DegenerateFrontier, ValueError)
_SOLVER_ERRORS = (NonConvergence, SingularJacobian)


@dataclass
class RunManifest:
    command: str
    feeder_sha256: str | None
    policy: str | None
    version: str
    timestamp: str


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def _manifest(args, feeder_text: str | None = None, policy: str | None = None) -> dict:
    digest = hashlib.sha256(feeder_text.encode()).hexdigest() if feeder_text else None
    return asdict(RunManifest(
        command=" ".join(args.argv),
        feeder_sha256=digest,
        policy=policy,
        version=__version__,
        timestamp=_timestamp(),
    ))


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(args, payload: dict, manifest: dict) -> None:
    payload = dict(payload)
    payload["manifest"] = manifest
    _emit(args, json.dumps(payload, indent=2, allow_nan=False, default=_jsonify))


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _read_feeder(path: str) -> tuple[str, "Feeder"]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return text, parse_feeder(text)


def _solution_dict(sol) -> dict:
    return {
        "allocation_kw": sol.allocation.tolist(),
        "hc_total_kw": sol.hc_total,
        "policy": policy_string(sol.policy),
        "status": sol.status,
        "kkt_residual": float(sol.kkt_residual) if np.isfinite(sol.kkt_residual) else None,
        "binding": sol.binding,
        "iterations": list(sol.iterations),
        "disparity_kw": sol.disparity,
        "gini": gini(sol.allocation) if sol.allocation.sum() > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    text, feeder = _read_feeder(args.feeder)
    stats = feeder_stats(feeder)
    _dump(args, {"valid": True, "n_buses": stats.n_buses, "n_loads": stats.n_loads},
          _manifest(args, text))
    return EXIT_OK


def _cmd_stats(args) -> int:
    text, feeder = _read_feeder(args.feeder)
    stats = feeder_stats(feeder)
    payload = dataclasses.asdict(stats)
    if not np.isfinite(payload["r_over_x"]):
        payload["r_over_x"] = None
    _dump(args, payload, _manifest(args, text))
    return EXIT_OK


def _cmd_pf(args) -> int:
    text, feeder = _read_feeder(args.feeder)
    nf = to_per_unit(feeder)
    if args.dg:
        dg_kw = np.array([float(x) for x in args.dg.split(",")])
        if len(dg_kw) != nf.n_loads:
            raise ValueError(f"--dg needs {nf.n_loads} comma-separated values")
    else:
        dg_kw = np.zeros(nf.n_loads)
    state = solve_power_flow(nf, dg_kw / nf.s_base)
    res = constraint_residuals(state, nf)
    payload = {
        "v_pu": state.v.tolist(),
        "theta_rad": state.theta.tolist(),
        "p_flow_pu": state.p_flow.tolist(),
        "q_flow_pu": state.q_flow.tolist(),
        "p_slack_kw": state.p_slack * nf.s_base,
        "q_slack_kvar": state.q_slack * nf.s_base,
        "iterations": state.iterations,
        "max_mismatch_pu": state.max_mismatch,
        "min_residual_pu": res.min(),
    }
    _dump(args, payload, _manifest(args, text))
    return EXIT_OK


def _cmd_solve(args) -> int:
    text, feeder = _read_feeder(args.feeder)
    nf = to_per_unit(feeder)
    policy = parse_policy(args.policy)
    refs = solve_references(nf)[0] if policy.variant == "bounded" else None
    problem = build_problem(nf, policy, refs)
    if args.oracle:
        sol = brute_force_oracle(problem, args.grid_steps)
    else:
        sol = solve_hc(problem)
    _dump(args, _solution_dict(sol), _manifest(args, text, args.policy))
    return EXIT_OK if sol.status in ("optimal", "max_iter") else EXIT_SOLVER


def _cmd_pareto(args) -> int:
    text, feeder = _read_feeder(args.feeder)
    frontier = sweep(feeder, args.family, steps=args.steps, jobs=args.jobs,
                     feeder_id=args.feeder)
    _emit(args, frontier_to_csv(frontier))
    return EXIT_OK


def _cmd_knee(args) -> int:
    try:
        with open(args.frontier) as fh:
            points = points_from_csv(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {args.frontier}: {exc}") from exc
    knee = knee_point(points)
    payload = dataclasses.asdict(knee)
    if not np.isfinite(payload["param"]):
        payload["param"] = None
    _dump(args, payload, _manifest(args))
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        n_loads=args.n_loads,
        layout=args.layout,
        trunk_len_m=args.trunk_m,
        branch_len_m=args.branch_m,
        conductor=Conductor(r_ohm_per_km=args.r_per_km, x_ohm_per_km=args.x_per_km,
                            i_rated_a=args.i_rated),
        load_p_kw=args.load_p, load_q_kvar=args.load_q, seed=args.seed or 0,
        dg_cap_kw=args.dg_cap,
    )
    _emit(args, serialize_feeder(generate_feeder(spec)) + "\n")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    # matched pair: linear trunk carries the branched laterals' length
    branched = SynthSpec(
        n_loads=args.n_loads, layout="branched", trunk_len_m=args.trunk_m,
        branch_len_m=args.branch_m,
        conductor=Conductor(r_ohm_per_km=args.r_per_km, x_ohm_per_km=args.x_per_km,
                            i_rated_a=args.i_rated),
        load_p_kw=args.load_p, load_q_kvar=args.load_q, dg_cap_kw=args.dg_cap,
    )
    linear = dataclasses.replace(branched, layout="linear",
                                 trunk_len_m=branched.total_length_m)
    report = topology_experiment(linear, branched)
    _dump(args, report.to_dict(), _manifest(args))
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-loads", dest="n_loads", type=int, default=10)
    p.add_argument("--trunk-m", dest="trunk_m", type=float, default=500.0)
    p.add_argument("--branch-m", dest="branch_m", type=float, default=30.0)
    p.add_argument("--r-per-km", dest="r_per_km", type=float, default=0.9)
    p.add_argument("--x-per-km", dest="x_per_km", type=float, default=0.08)
    p.add_argument("--i-rated", dest="i_rated", type=float, default=200.0)
    p.add_argument("--load-p", dest="load_p", type=float, default=1.0)
    p.add_argument("--load-q", dest="load_q", type=float, default=0.3)
    p.add_argument("--dg-cap", dest="dg_cap", type=float, default=1000.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairhc",
                                     description="Fairness-aware DG hosting capacity toolkit")
    parser.add_argument("--version", action="version", version=f"fairhc {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="parse and validate a feeder file")
    p.add_argument("feeder")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="aggregate feeder statistics")
    p.add_argument("feeder")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("pf", help="single power-flow solve")
    p.add_argument("feeder")
    p.add_argument("--dg", default=None, help="comma-separated per-load injections, kW")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pf)

    p = sub.add_parser("solve", help="hosting-capacity solve under one policy")
    p.add_argument("feeder")
    p.add_argument("--policy", required=True,
                   help='utilitarian | egalitarian | "bounded:alpha=A,beta=B" | "bargaining:k=K"')
    p.add_argument("--oracle", action="store_true", help="use the brute-force grid oracle")
    p.add_argument("--grid-steps", dest="grid_steps", type=int, default=GRID_STEPS,
                   help="oracle grid points per load")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("pareto", help="fairness-parameter sweep to frontier CSV")
    p.add_argument("feeder")
    p.add_argument("--family", required=True,
                   choices=("bounded_lower", "bounded_upper", "bargaining"))
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("knee", help="knee point of a frontier CSV")
    p.add_argument("frontier")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_knee)

    p = sub.add_parser("synth", help="generate a synthetic feeder JSON")
    p.add_argument("--layout", choices=("linear", "branched"), default="linear")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_synth_flags(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("experiment", help="matched linear-vs-branched topology comparison")
    p.add_argument("--out", default=None)
    _add_synth_flags(p)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    level = os.environ.get("FAIRHC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = ["fairhc"] + argv
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except FairHCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
