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
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import FairHCError, Infeasible, NonConvergence, ParseError, SingularJacobian
from .formulation import build_problem, parse_policy, policy_string
from .kpi import gini
from .netmodel import feeder_stats, parse_feeder, serialize_feeder, to_per_unit
from .pareto import FAMILIES, frontier_to_csv, knee_point, points_from_csv, sweep
from .powerflow import constraint_residuals, solve_power_flow
from .solver import GRID_STEPS, brute_force_oracle, solve_hc, solve_references
from .synth import LAYOUTS, Conductor, SynthSpec, generate_feeder, topology_experiment

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _manifest(args, feeder_text: str | None = None, policy: str | None = None) -> dict:
    return {
        "command": " ".join(args.argv),
        "feeder_sha256": hashlib.sha256(feeder_text.encode()).hexdigest() if feeder_text else None,
        "policy": policy,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", args.epoch or time.gmtime()),
    }


def _emit(args, text: str) -> None:
    if not args.out:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise FairHCError(f"cannot write {args.out}: {exc}") from exc


def _dump(args, payload: dict, feeder_text: str | None = None, policy: str | None = None) -> None:
    """Emit ``payload`` as JSON with the run manifest appended."""
    manifest = _manifest(args, feeder_text, policy)
    _emit(args, json.dumps({**payload, "manifest": manifest}, indent=2, allow_nan=False))


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _read_feeder(path: str) -> tuple[str, "Feeder"]:
    text = _read(path)
    return text, parse_feeder(text)


def _finite_or_none(x: float) -> float | None:
    """JSON has no inf or nan: such a value is written as null."""
    return x if math.isfinite(x) else None


def _solution_dict(sol) -> dict:
    return {
        "allocation_kw": sol.allocation.tolist(),
        "hc_total_kw": sol.hc_total,
        "policy": policy_string(sol.policy),
        "status": sol.status,
        "kkt_residual": _finite_or_none(float(sol.kkt_residual)),
        "binding": sol.binding,
        "iterations": list(sol.iterations),
        "disparity_kw": sol.disparity,
        "gini": gini(sol.allocation) if sol.allocation.sum() > 0 else 0.0,
    }


def _spec(args, layout: str, **kw) -> SynthSpec:
    return SynthSpec(
        n_loads=args.n_loads, layout=layout, trunk_len_m=args.trunk_m,
        branch_len_m=args.branch_m,
        conductor=Conductor(r_ohm_per_km=args.r_per_km, x_ohm_per_km=args.x_per_km,
                            i_rated_a=args.i_rated),
        load_p_kw=args.load_p, load_q_kvar=args.load_q, dg_cap_kw=args.dg_cap, **kw,
    )


# ---------------------------------------------------------------------------
# subcommands: each one emits its result or raises; main maps errors to exit codes
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> None:
    text, feeder = _read_feeder(args.feeder)
    stats = feeder_stats(feeder)
    _dump(args, {"valid": True, "n_buses": stats.n_buses, "n_loads": stats.n_loads}, text)


def _cmd_stats(args) -> None:
    text, feeder = _read_feeder(args.feeder)
    payload = dataclasses.asdict(feeder_stats(feeder))
    payload["r_over_x"] = _finite_or_none(payload["r_over_x"])
    _dump(args, payload, text)


def _cmd_pf(args) -> None:
    text, feeder = _read_feeder(args.feeder)
    nf = to_per_unit(feeder)
    dg_kw = np.array([float(x) for x in args.dg.split(",")]) if args.dg else np.zeros(nf.n_loads)
    if len(dg_kw) != nf.n_loads:
        raise ValueError(f"--dg needs {nf.n_loads} comma-separated values")
    state = solve_power_flow(nf, dg_kw / nf.s_base)
    _dump(args, {
        "v_pu": state.v.tolist(),
        "theta_rad": state.theta.tolist(),
        "p_flow_pu": state.p_flow.tolist(),
        "q_flow_pu": state.q_flow.tolist(),
        "p_slack_kw": state.p_slack * nf.s_base,
        "q_slack_kvar": state.q_slack * nf.s_base,
        "iterations": state.iterations,
        "max_mismatch_pu": state.max_mismatch,
        "min_residual_pu": constraint_residuals(state, nf).min(),
    }, text)


def _cmd_solve(args) -> None:
    if args.grid_steps is not None and not args.oracle:
        raise ValueError("--grid-steps needs --oracle")
    grid_steps = GRID_STEPS if args.grid_steps is None else args.grid_steps
    if grid_steps < 1:  # checked here too, before any reference solve
        raise ValueError("grid_steps must be >= 1")
    text, feeder = _read_feeder(args.feeder)
    nf = to_per_unit(feeder)
    policy = parse_policy(args.policy)
    refs = solve_references(nf)[0] if policy.variant == "bounded" else None
    problem = build_problem(nf, policy, refs)
    sol = brute_force_oracle(problem, grid_steps) if args.oracle else solve_hc(problem)
    _dump(args, _solution_dict(sol), text, args.policy)


def _cmd_pareto(args) -> None:
    _, feeder = _read_feeder(args.feeder)
    _emit(args, frontier_to_csv(sweep(feeder, args.family, steps=args.steps)))


def _cmd_knee(args) -> None:
    payload = dataclasses.asdict(knee_point(points_from_csv(_read(args.frontier))))
    payload["param"] = _finite_or_none(payload["param"])
    _dump(args, payload)


def _cmd_synth(args) -> None:
    _emit(args, serialize_feeder(generate_feeder(_spec(args, args.layout))) + "\n")


def _cmd_experiment(args) -> None:
    # matched pair: linear trunk carries the branched laterals' length
    branched = _spec(args, "branched")
    linear = dataclasses.replace(branched, layout="linear", trunk_len_m=branched.total_length_m)
    _dump(args, topology_experiment(linear, branched).to_dict())


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairhc",
                                     description="Fairness-aware DG hosting capacity toolkit")
    parser.add_argument("--version", action="version", version=f"fairhc {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def command(name, func, help, *positional):
        p = sub.add_parser(name, help=help)
        for arg in positional:
            p.add_argument(arg)
        p.set_defaults(func=func, manifest=True)
        return p

    command("validate", _cmd_validate, "parse and validate a feeder file", "feeder")
    command("stats", _cmd_stats, "aggregate feeder statistics", "feeder")
    p = command("pf", _cmd_pf, "single power-flow solve", "feeder")
    p.add_argument("--dg", default=None, help="comma-separated per-load injections, kW")
    p = command("solve", _cmd_solve, "hosting-capacity solve under one policy", "feeder")
    p.add_argument("--policy", required=True,
                   help='utilitarian | egalitarian | "bounded:alpha=A,beta=B" | "bargaining:k=K"')
    p.add_argument("--oracle", action="store_true", help="use the brute-force grid oracle")
    p.add_argument("--grid-steps", type=int, default=None,
                   help="oracle grid points per load (needs --oracle)")
    p = command("pareto", _cmd_pareto, "fairness-parameter sweep to frontier CSV", "feeder")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--steps", type=int, default=21)
    p.add_argument("--jobs", type=int, default=1, choices=[1],
                   help="must be 1: a sweep runs in one process; the flag stays so that "
                        "command lines passing --jobs 1 still run")
    p.set_defaults(manifest=False)  # CSV out, no manifest
    command("knee", _cmd_knee, "knee point of a frontier CSV", "frontier")
    synth = command("synth", _cmd_synth, "generate a synthetic feeder JSON")
    synth.add_argument("--layout", choices=LAYOUTS, default="linear")
    synth.set_defaults(manifest=False)  # feeder JSON out, no manifest
    experiment = command("experiment", _cmd_experiment,
                         "matched linear-vs-branched topology comparison")
    for p in (synth, experiment):
        p.add_argument("--n-loads", type=int, default=10)
        p.add_argument("--trunk-m", type=float, default=500.0)
        p.add_argument("--branch-m", type=float, default=30.0)
        p.add_argument("--r-per-km", type=float, default=0.9)
        p.add_argument("--x-per-km", type=float, default=0.08)
        p.add_argument("--i-rated", type=float, default=200.0)
        p.add_argument("--load-p", type=float, default=1.0)
        p.add_argument("--load-q", type=float, default=0.3)
        p.add_argument("--dg-cap", type=float, default=1000.0)
    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    level = getattr(logging, os.environ.get("FAIRHC_LOG", "WARNING").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)  # BASIC_FORMAT is no level
    args = build_parser().parse_args(argv)
    args.argv = ["fairhc"] + argv
    try:
        # an --out that cannot be written fails before any work is done
        if args.out and os.path.isdir(args.out):
            raise FairHCError(f"cannot write {args.out}: is a directory")
        if args.out and not os.access(os.path.dirname(args.out) or ".", os.W_OK):
            raise FairHCError(f"cannot write {args.out}: directory missing or not writable")
        epoch = os.environ.get("SOURCE_DATE_EPOCH") if args.manifest else None
        try:  # and so does a manifest's SOURCE_DATE_EPOCH that is no time in range
            args.epoch = time.gmtime(int(epoch)) if epoch else None
        except (ValueError, OverflowError, OSError):
            raise FairHCError(f"SOURCE_DATE_EPOCH must be whole seconds within the platform's time range, "
                              f"got {epoch!r}") from None
        args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NonConvergence, SingularJacobian) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (FairHCError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
