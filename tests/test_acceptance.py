"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete; without ``-s`` they appear in the captured output of failures.
"""
import math

import numpy as np
import pytest
from scipy.stats import spearmanr

from fairhc.formulation import FairnessPolicy, build_problem
from fairhc.kpi import gini, price_of_fairness
from fairhc.netmodel import electrical_distance, to_per_unit
from fairhc.pareto import sweep
from fairhc.powerflow import (
    adjoint_gradient,
    constraint_residuals,
    residual_labels,
    solve_power_flow,
)
from fairhc.solver import SolverOptions, brute_force_oracle_batch, solve_hc, solve_references
from fairhc.synth import Conductor, SynthSpec, generate_feeder, topology_experiment

from conftest import mk, make_br4, make_lin3, make_star3, make_two_bus

OPTS = SolverOptions()
GRID_STEPS = 201


def check(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" :: {detail}" if detail else "")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def feeders():
    return {
        "two_bus": make_two_bus(),
        "lin3": make_lin3(),
        "star3": make_star3(),
        "br4": make_br4(),
    }


@pytest.fixture(scope="module")
def references(feeders):
    """Per-feeder (refs, uti, egal) solved once and shared across criteria."""
    return {name: solve_references(nf, OPTS) for name, nf in feeders.items()}


def test_criterion_01_pof_formula_consistency():
    pairs = [(658.0, 520.0, 0.21), (1575.0, 937.0, 0.41),
             (922.0, 325.0, 0.65), (699.0, 442.0, 0.37)]
    errs = [abs(price_of_fairness(u, f) - expected) for u, f, expected in pairs]
    check("criterion 1: PoF reproduces all four reference pairs within 0.005",
          max(errs) <= 0.005, f"max deviation {max(errs):.4f}")


def test_criterion_02_gini_units_and_invariance():
    ok = (gini([2.0, 2.0, 2.0]) == 0.0
          and gini([0.0, 4.0]) == 0.5
          and abs(gini([1.0, 2.0, 3.0]) - 2.0 / 9.0) <= 1e-9)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        p = rng.uniform(0.0, 100.0, size=int(rng.integers(2, 12)))
        if p.sum() == 0:
            continue
        g = gini(p)
        c = float(rng.uniform(0.1, 10.0))
        worst = max(worst, abs(gini(c * p) - g),
                    abs(gini(rng.permutation(p)) - g))
        ok = ok and 0.0 <= g <= 1.0
    check("criterion 2: Gini unit values exact, scale/permutation invariant "
          "over 1000 random vectors", ok and worst <= 1e-9,
          f"worst invariance deviation {worst:.2e}")


def test_criterion_03_two_bus_analytic(references):
    _, uti, egal = references["two_bus"]
    err_uti = abs(uti.hc_total - 1.05)
    err_egal = abs(egal.hc_total - 1.05)
    check("criterion 3: two-bus utilitarian and egalitarian HC equal 1.05 pu "
          "within 1e-4", max(err_uti, err_egal) <= 1e-4,
          f"uti err {err_uti:.2e}, egal err {err_egal:.2e}")


def test_criterion_04_brute_force_equivalence(feeders, references):
    worst = ""
    ok = True
    for name in ("lin3", "star3", "br4"):
        nf = feeders[name]
        refs, _, _ = references[name]
        problems = [
            build_problem(nf, FairnessPolicy.utilitarian()),
            build_problem(nf, FairnessPolicy.bounded(0.5, 0.5), refs),
            build_problem(nf, FairnessPolicy.bargaining(0.5), refs),
        ]
        oracles = brute_force_oracle_batch(problems, grid_steps=GRID_STEPS,
                                           options=OPTS)
        for prob, oracle in zip(problems, oracles):
            sol = solve_hc(prob, OPTS)
            step = float(np.max(prob.upper - prob.lower)) / (GRID_STEPS - 1)
            tol = 0.01 * abs(oracle.hc_total) + step
            diff = abs(sol.hc_total - oracle.hc_total)
            if diff > tol:
                ok = False
                worst = f"{name}/{prob.policy.variant}: |{sol.hc_total:.4f} - " \
                        f"{oracle.hc_total:.4f}| > {tol:.4f}"
    check("criterion 4: AL solver matches 201-step grid oracle within 1% + one "
          "grid step on all three feeders and three policies", ok, worst)


def test_criterion_05_ordering_and_endpoint_recovery(feeders, references):
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    ok = True
    detail = ""
    for name, nf in feeders.items():
        refs, uti, egal = references[name]
        lo = egal.hc_total - 0.005 * abs(egal.hc_total)
        hi = uti.hc_total + 0.005 * abs(uti.hc_total)
        for a in grid:
            for b in grid:
                sol = solve_hc(build_problem(nf, FairnessPolicy.bounded(a, b), refs), OPTS)
                if not lo <= sol.hc_total <= hi:
                    ok, detail = False, f"{name} bounded({a},{b}) -> {sol.hc_total:.4f}"
        collapse = solve_hc(build_problem(nf, FairnessPolicy.bounded(1.0, 0.0), refs), OPTS)
        if abs(collapse.hc_total - egal.hc_total) / nf.s_base > 1e-6 * nf.n_loads:
            ok, detail = False, f"{name} bounded(1,0) != egalitarian"
        for sol, label in (
            (solve_hc(build_problem(nf, FairnessPolicy.bounded(0.0, 1.0), refs), OPTS),
             "bounded(0,1)"),
            (solve_hc(build_problem(nf, FairnessPolicy.bargaining(1.0), refs), OPTS),
             "bargaining(1)"),
        ):
            if abs(sol.hc_total - uti.hc_total) > 0.005 * abs(uti.hc_total):
                ok, detail = False, f"{name} {label} != utilitarian"
    check("criterion 5: egalitarian <= bounded(a,b) <= utilitarian over the "
          "5x5 parameter grid on every feeder, endpoints recovered", ok, detail)


@pytest.fixture(scope="module")
def frontiers(feeders):
    return {family: sweep(feeders["lin3"], family, steps=5, options=OPTS)
            for family in ("bounded_lower", "bounded_upper", "bargaining")}


def test_criterion_06_frontier_endpoints(frontiers):
    ok = True
    for family, frontier in frontiers.items():
        by = {p.family: p for p in frontier.points}
        if by["endpoint_uti"].pof != 0.0 or by["endpoint_egal"].gini != 0.0:
            ok = False
    check("criterion 6: every generated frontier holds pof = 0 at the "
          "utilitarian endpoint and gini = 0 at the egalitarian endpoint, "
          "exactly", ok)


def test_criterion_07_bargaining_monotonicity(feeders, references):
    ok = True
    detail = ""
    for name, nf in feeders.items():
        refs, _, _ = references[name]
        hcs = [solve_hc(build_problem(nf, FairnessPolicy.bargaining(float(k)), refs),
                        OPTS).hc_total
               for k in np.linspace(0.0, 1.0, 11)]
        for prev, nxt in zip(hcs, hcs[1:]):
            if nxt < prev - 0.005 * abs(prev):
                ok, detail = False, f"{name}: {prev:.4f} -> {nxt:.4f}"
    check("criterion 7: bargaining HC non-decreasing in K over an 11-point "
          "sweep on every feeder (0.5% tolerance)", ok, detail)


@pytest.fixture(scope="module")
def matched_pair():
    conductor = Conductor(i_rated_a=500.0)
    linear = SynthSpec(n_loads=10, layout="linear", trunk_len_m=500.0,
                       conductor=conductor)
    branched = SynthSpec(n_loads=10, layout="branched", trunk_len_m=200.0,
                         branch_len_m=30.0, conductor=conductor)
    return linear, branched


def test_criterion_08_topology_direction(matched_pair):
    linear, branched = matched_pair
    report = topology_experiment(linear, branched, OPTS)
    check("criterion 8: egalitarian PoF higher on the matched linear feeder "
          "than on the branched one (n = 10)",
          report.linear.pof_egal > report.branched.pof_egal,
          f"linear {report.linear.pof_egal:.3f} vs branched "
          f"{report.branched.pof_egal:.3f}")


def test_criterion_09_distance_anticorrelated_allocation(matched_pair):
    linear, _ = matched_pair
    feeder = generate_feeder(linear)
    nf = to_per_unit(feeder)
    uti = solve_hc(build_problem(nf, FairnessPolicy.utilitarian()), OPTS)
    dist = [electrical_distance(feeder, load.bus) for load in feeder.loads]
    rho, _ = spearmanr(dist, uti.allocation)
    check("criterion 9: Spearman correlation between electrical distance and "
          "utilitarian allocation is <= 0 on the 10-load linear feeder",
          rho <= 0.0, f"rho = {rho:.3f}")


def test_criterion_10_numerical_hygiene(feeders):
    rng = np.random.default_rng(42)
    worst_mismatch = 0.0
    worst_rel = 0.0
    tol = 1e-12  # tight Newton stop keeps the implicit map smooth at FD scale
    h = 1e-6
    for _ in range(100):
        n_loads = int(rng.integers(1, 4))
        lines = [(i, i + 1,
                  float(rng.uniform(0.01, 0.08)), float(rng.uniform(0.0, 0.02)))
                 for i in range(n_loads)]
        nf = mk(n_loads + 1, 0, lines, list(range(1, n_loads + 1)),
                p_demand=float(rng.uniform(0.0, 0.1)))
        dg = rng.uniform(0.0, 0.5, size=n_loads)
        weights = rng.normal(size=len(residual_labels(nf)))
        state = solve_power_flow(nf, dg, tol=tol)
        worst_mismatch = max(worst_mismatch, state.max_mismatch)
        grad = adjoint_gradient(nf, dg, weights, tol=tol, state=state)
        fd = np.zeros(n_loads)
        for d in range(n_loads):
            e = np.zeros(n_loads)
            e[d] = h
            cp = constraint_residuals(solve_power_flow(nf, dg + e, tol=tol), nf).as_vector()
            cm = constraint_residuals(solve_power_flow(nf, dg - e, tol=tol), nf).as_vector()
            fd[d] = weights @ (cp - cm) / (2.0 * h)
        rel = np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(fd)))
        worst_rel = max(worst_rel, rel)
    check("criterion 10: power-flow mismatch < 1e-8 on all converged solves "
          "and adjoint matches central differences (rel err < 1e-5, 100 "
          "random samples)",
          worst_mismatch < 1e-8 and worst_rel < 1e-5,
          f"max mismatch {worst_mismatch:.2e}, max rel err {worst_rel:.2e}")
