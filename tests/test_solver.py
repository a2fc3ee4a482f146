import functools
import tracemalloc

import numpy as np
import pytest

from fairhc import solver
from fairhc.errors import Infeasible, TooManyLoads
from fairhc.formulation import FairnessPolicy, HCProblem, References, build_problem
from fairhc.netmodel import parse_feeder, serialize_feeder, to_per_unit
from fairhc.pareto import sweep
from fairhc.powerflow import (
    _solve_batch,
    constraint_residuals,
    residual_labels,
    residual_min_batch,
    solve_power_flow,
)
from fairhc.solver import (
    FEAS_TOL,
    ORACLE_CHUNK,
    HCSolution,
    _grid_block,
    _sweep,
    brute_force_oracle,
    brute_force_oracle_batch,
    solve_egalitarian_bisection,
    solve_hc,
    solve_nlp_al,
    solve_references,
)
from fairhc.synth import Conductor, SynthSpec, generate_feeder

from conftest import make_br4, make_lin3, make_star3, make_two_bus, mk


def assert_solution_invariants(sol: HCSolution, problem):
    nf = problem.feeder
    p = sol.allocation / nf.s_base
    assert sol.hc_total == pytest.approx(float(sol.allocation.sum()), rel=1e-9)
    assert np.all(p >= problem.lower - 1e-7)
    assert np.all(p <= problem.upper + 1e-7)
    state = solve_power_flow(nf, p)
    assert constraint_residuals(state, nf).min() >= -FEAS_TOL


class TestEgalitarianBisection:
    def test_two_bus_analytic(self, two_bus):
        sol = solve_egalitarian_bisection(two_bus)
        assert sol.hc_total == pytest.approx(1.05, abs=1e-4)
        assert sol.status == "optimal"

    @pytest.fixture
    def solves(self, monkeypatch):
        """Uniform injection (pu) of each power flow the solver runs."""
        solves = []
        real = solver.solve_power_flow

        def spy(nf, dg, *args, **kwargs):
            solves.append(float(dg[0]))
            return real(nf, dg, *args, **kwargs)

        monkeypatch.setattr(solver, "solve_power_flow", spy)
        return solves

    def test_cap_binds(self, solves):
        nf = make_two_bus(dg_cap=0.25)
        sol = solve_egalitarian_bisection(nf)
        assert sol.allocation == pytest.approx([0.25])
        assert solves.count(0.25) == 1  # the probe at the cap is not solved again

    def test_reported_point_solved_once(self, lin3, solves):
        sol = solve_egalitarian_bisection(lin3)
        assert sol.allocation[0] < lin3.dg_cap * lin3.s_base  # a limit binds, not the cap
        assert [t * lin3.s_base for t in solves].count(sol.allocation[0]) == 1

    def test_infeasible_baseline(self):
        nf = mk(2, 0, [(0, 1, 0.05, 0.0)], [1], p_demand=3.0, q_demand=0.0)
        with pytest.raises(Infeasible):
            solve_egalitarian_bisection(nf)

    def test_symmetric_star(self, star3):
        sol = solve_egalitarian_bisection(star3)
        assert sol.allocation[0] == pytest.approx(sol.allocation[1])
        assert sol.hc_total == pytest.approx(2.0 * sol.allocation[0], rel=1e-12)

    def test_reverified_feasible(self, lin3):
        sol = solve_egalitarian_bisection(lin3)
        prob = build_problem(lin3, FairnessPolicy.egalitarian())
        assert_solution_invariants(sol, prob)

    def test_non_monotone_bisects_above_highest_feasible_probe(self, lin3, monkeypatch):
        # feasible on [0, 0.3] and [0.6, 0.7] pu, infeasible elsewhere; the
        # prescan probes every 0.15 pu of the 1.2 pu box
        probed = []

        def fake(nf, dg):
            t = float(dg[0])
            probed.append(t)
            ok = t <= 0.3 or 0.6 <= t <= 0.7
            return None, np.array([0.1 if ok else -0.1])

        monkeypatch.setattr(solver._Evaluator, "at", fake)
        sol = solve_egalitarian_bisection(lin3)
        t = float(sol.allocation[0])
        assert 0.7 - solver._BISECT_TOL <= t <= 0.7
        assert t in probed  # the reported point is a probe found feasible
        assert sol.status == "optimal"


class TestAugmentedLagrangian:
    def test_two_bus_utilitarian(self, two_bus):
        prob = build_problem(two_bus, FairnessPolicy.utilitarian())
        sol = solve_nlp_al(prob)
        assert sol.hc_total == pytest.approx(1.05, abs=1e-4)
        assert sol.status == "optimal"
        assert any(b.startswith("v_upper") for b in sol.binding)

    def test_box_only_hits_upper(self):
        nf = make_two_bus(dg_cap=0.1)
        prob = build_problem(nf, FairnessPolicy.utilitarian())
        sol = solve_nlp_al(prob)
        assert sol.allocation == pytest.approx([0.1], abs=1e-9)

    def test_infeasible_lower_bound(self):
        nf = mk(2, 0, [(0, 1, 0.05, 0.0)], [1], p_demand=3.0, q_demand=0.0)
        with pytest.raises(Infeasible):
            solve_nlp_al(build_problem(nf, FairnessPolicy.utilitarian()))

    def test_deterministic(self, lin3):
        prob = build_problem(lin3, FairnessPolicy.utilitarian())
        a = solve_nlp_al(prob)
        b = solve_nlp_al(prob)
        assert a.allocation == pytest.approx(b.allocation, rel=0, abs=0)
        assert a.iterations == b.iterations

    def test_solution_invariants(self, br4):
        prob = build_problem(br4, FairnessPolicy.utilitarian())
        assert_solution_invariants(solve_nlp_al(prob), prob)

    def test_bargaining_reports_disparity(self, lin3):
        prob = build_problem(lin3, FairnessPolicy.bargaining(0.5))
        sol = solve_hc(prob)
        assert sol.disparity is not None
        p = sol.allocation
        assert sol.disparity == pytest.approx(float(np.max(np.abs(p - p.mean()))), abs=1e-6)


# (outer, inner) iterations and allocation (float.hex, kW) of the augmented
# Lagrangian; any change to its floating-point path moves them
AL_PINS = {
    ("lin3", "utilitarian"): ((24, 70), ["0x1.27c7f127e75d4p+0", "0x0.0p+0"]),
    ("lin3", "bargaining"): ((150, 390), ["0x1.9a1d0ccccccccp-2"] * 2),
    ("br4", "utilitarian"): ((27, 100), ["0x1.3333333333333p+0", "0x1.f21cf4b729507p-9",
                                         "0x1.f21cf4b729507p-9"]),
    ("br4", "bargaining"): ((150, 351), ["0x1.4195b33333332p-2"] * 3),
}


@pytest.mark.parametrize("feeder, variant", list(AL_PINS))
def test_al_path_pinned(feeder, variant):
    nf = {"lin3": make_lin3, "br4": make_br4}[feeder]()
    policy = FairnessPolicy.utilitarian() if variant == "utilitarian" else FairnessPolicy.bargaining(0.5)
    sol = solve_nlp_al(build_problem(nf, policy))
    iterations, allocation = AL_PINS[feeder, variant]
    assert sol.iterations == iterations
    assert sol.allocation.tolist() == [float.fromhex(h) for h in allocation]


REPORTING_ROUTES = {
    "bisection": solve_egalitarian_bisection,
    "al_utilitarian": lambda nf: solve_nlp_al(build_problem(nf, FairnessPolicy.utilitarian())),
    "al_bargaining": lambda nf: solve_nlp_al(build_problem(nf, FairnessPolicy.bargaining(0.5))),
    "oracle": lambda nf: brute_force_oracle(build_problem(nf, FairnessPolicy.utilitarian()), grid_steps=41),
}


@pytest.mark.parametrize("route", list(REPORTING_ROUTES))
def test_binding_labels_are_those_of_a_fresh_flow_at_the_reported_allocation(lin3, route):
    sol = REPORTING_ROUTES[route](lin3)
    c = constraint_residuals(solve_power_flow(lin3, sol.allocation / lin3.s_base), lin3).as_vector()
    labels = residual_labels(lin3)
    assert sol.binding == [labels[i] for i in np.flatnonzero(c < solver._BINDING_TOL)]
    assert sol.binding or route == "oracle"


def bench_feeder(n_loads, layout, trunk_m):
    """A benchmark feeder as its feeder file gives it: generated, serialized, parsed."""
    spec = SynthSpec(n_loads, layout, trunk_m, conductor=Conductor(i_rated_a=500.0))
    return to_per_unit(parse_feeder(serialize_feeder(generate_feeder(spec))))


@functools.cache
def status_cases():
    """Status of each AL-routed solve on the AL_PINS feeders and of each solve of the benchmark's
    policy_mix (lin10, br5) and frontier_cli (lin5, 21 bounded_upper steps) workloads."""
    out = {}
    for name, make in (("lin3", make_lin3), ("br4", make_br4)):
        for policy in (FairnessPolicy.utilitarian(), FairnessPolicy.bargaining(0.5)):
            out[name, policy.variant] = solve_nlp_al(build_problem(make(), policy)).status
    for name, feeder in (("lin10", (10, "linear", 500.0)), ("br5", (5, "branched", 100.0))):
        nf = bench_feeder(*feeder)
        egal, uti = (solve_hc(build_problem(nf, p)) for p in (FairnessPolicy.egalitarian(),
                                                                 FairnessPolicy.utilitarian()))
        refs = References(egal_per_load=float(egal.allocation[0]) / nf.s_base,
                          uti_allocation=uti.allocation / nf.s_base)
        bnd = solve_hc(build_problem(nf, FairnessPolicy.bounded(0.5, 0.5), refs))
        barg = solve_hc(build_problem(nf, FairnessPolicy.bargaining(0.5)))
        for sol, variant in ((egal, "egalitarian"), (uti, "utilitarian"), (bnd, "bounded"), (barg, "bargaining")):
            out[name, variant] = sol.status
    for p in sweep(bench_feeder(5, "linear", 250.0), "bounded_upper", steps=21).points:
        out["lin5", f"{p.family}/{p.param:.2f}"] = p.status
    return out


# The AL's status describes its path, not the point it returns: these solves return
# the allocation they returned when they last reported `optimal`, to the bit, but
# their multiplier updates no longer settle before the outer iteration limit.
STATUS_LOST = pytest.mark.xfail(strict=True, reason="optimal allocation, reported as max_iter")


# every case that has reported `optimal`; lin3 bargaining and br5 utilitarian never have
@pytest.mark.parametrize("case", [
    ("lin3", "utilitarian"), ("br4", "utilitarian"), pytest.param(("br4", "bargaining"), marks=STATUS_LOST),
    ("lin10", "egalitarian"), ("lin10", "utilitarian"), ("lin10", "bounded"), ("lin10", "bargaining"),
    ("br5", "egalitarian"), ("br5", "bounded"), pytest.param(("br5", "bargaining"), marks=STATUS_LOST),
    ("lin5", "frontier"),
])
def test_benchmark_solves_report_optimal(case):
    statuses = status_cases()
    if case == ("lin5", "frontier"):
        frontier = {k: s for k, s in statuses.items() if k[0] == "lin5"}
        assert len(frontier) == 23 and set(frontier.values()) == {"optimal"}, frontier
    else:
        assert statuses[case] == "optimal"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the AL reports optimal once any start passes its "
                   "stopping test, but returns its best feasible point, here from an earlier pass")
def test_al_reports_optimal_only_where_its_stopping_test_held():
    nf = bench_feeder(5, "branched", 100.0)
    refs, _, _ = solve_references(nf)
    sol = solve_hc(build_problem(nf, FairnessPolicy.bounded(0.5, 0.5), refs))
    assert sol.status != "optimal" or sol.kkt_residual <= solver._PG_TOL, sol.kkt_residual


@pytest.mark.xfail(strict=True, reason="the augmented Lagrangian stops at a local optimum "
                   "(120.014 kW, status optimal) below a feasible 120.12 kW allocation")
def test_al_reaches_known_feasible_allocation():
    spec = SynthSpec(5, "linear", 250.0, conductor=Conductor(i_rated_a=500.0))
    nf = to_per_unit(parse_feeder(serialize_feeder(generate_feeder(spec))))
    known = np.array([102.59, 17.53, 0.0, 0.0, 0.0])
    state = solve_power_flow(nf, known / nf.s_base)
    assert constraint_residuals(state, nf).min() > 0.0
    sol = solve_hc(build_problem(nf, FairnessPolicy.utilitarian()))
    assert sol.hc_total >= known.sum()


class TestDispatch:
    def test_egalitarian_routes_to_bisection(self, two_bus):
        sol = solve_hc(build_problem(two_bus, FairnessPolicy.egalitarian()))
        assert sol.hc_total == pytest.approx(1.05, abs=1e-4)

    def test_single_load_policies_coincide(self, two_bus):
        uti = solve_hc(build_problem(two_bus, FairnessPolicy.utilitarian()))
        egal = solve_hc(build_problem(two_bus, FairnessPolicy.egalitarian()))
        assert uti.hc_total == pytest.approx(egal.hc_total, abs=1e-4)

    def test_bargaining_k0_is_canonical_egalitarian(self, lin3):
        barg0 = solve_hc(build_problem(lin3, FairnessPolicy.bargaining(0.0)))
        egal = solve_hc(build_problem(lin3, FairnessPolicy.egalitarian()))
        assert barg0.allocation == pytest.approx(egal.allocation, abs=1e-9)
        assert barg0.disparity == 0.0

    def test_bounded_collapse_matches_egalitarian_exactly(self, lin3):
        refs, _, egal = solve_references(lin3)
        sol = solve_hc(build_problem(lin3, FairnessPolicy.bounded(1.0, 0.0), refs))
        assert np.max(np.abs(sol.allocation - egal.allocation)) < 1e-6

    def test_bargaining_k1_matches_utilitarian(self, lin3):
        refs, uti, _ = solve_references(lin3)
        sol = solve_hc(build_problem(lin3, FairnessPolicy.bargaining(1.0), refs))
        assert sol.hc_total == pytest.approx(uti.hc_total, rel=0.005)

    def test_references_run_one_bisection(self, lin3, monkeypatch):
        calls = []
        real = solver.solve_egalitarian_bisection

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_egalitarian_bisection", spy)
        refs, uti, egal = solve_references(lin3)
        assert len(calls) == 1
        assert refs.egal_per_load * lin3.s_base == egal.allocation[0]
        alone = solve_hc(build_problem(lin3, FairnessPolicy.utilitarian()))
        assert np.array_equal(uti.allocation, alone.allocation)
        assert uti.iterations == alone.iterations

    def test_ordering_egal_bounded_uti(self, br4):
        refs, uti, egal = solve_references(br4)
        for alpha, beta in ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0)):
            sol = solve_hc(build_problem(br4, FairnessPolicy.bounded(alpha, beta), refs))
            assert sol.hc_total >= egal.hc_total - 0.005 * abs(egal.hc_total)
            assert sol.hc_total <= uti.hc_total + 0.005 * abs(uti.hc_total)


# Every HCSolution field of bounded(1, 0), whose box is fixed at the egalitarian
# point: the AL returns that point, re-verified, after one outer pass with no
# L-BFGS-B iteration.  (allocation, hc_total, kkt_residual) as float.hex, then binding
FIXED_BOX_PINS = {
    "lin3": (["0x1.9a1d0ccccccccp-2"] * 2, "0x1.9a1d0ccccccccp-1", "0x1.097deacf00000p-20",
             ["v_upper[b2]"]),
    "br4": (["0x1.4195b33333332p-2"] * 3, "0x1.e2608cccccccbp-1", "0x1.f205b54400000p-21",
            ["v_upper[b2]", "v_upper[b3]"]),
}


@pytest.mark.parametrize("feeder", list(FIXED_BOX_PINS))
def test_fixed_box_pinned(feeder):
    nf = {"lin3": make_lin3, "br4": make_br4}[feeder]()
    refs = solve_references(nf)[0]
    sol = solve_hc(build_problem(nf, FairnessPolicy.bounded(1.0, 0.0), refs))
    allocation, hc_total, kkt, binding = FIXED_BOX_PINS[feeder]
    assert sol.allocation.tolist() == [float.fromhex(h) for h in allocation]
    assert sol.hc_total == float.fromhex(hc_total)
    assert sol.kkt_residual == float.fromhex(kkt)
    assert (sol.status, sol.binding, sol.iterations, sol.disparity) == ("optimal", binding, (1, 0), None)
    assert type(sol.iterations[1]) is int


class TestBruteForceOracle:
    def test_two_bus_grid(self, two_bus):
        prob = build_problem(two_bus, FairnessPolicy.utilitarian())
        sol = brute_force_oracle(prob, grid_steps=1001)
        step = two_bus.dg_cap / 1000.0
        assert abs(sol.hc_total - 1.05) <= step + 1e-9

    def test_too_many_loads(self):
        lines = [(i, i + 1, 0.05, 0.01) for i in range(4)]
        nf = mk(5, 0, lines, [1, 2, 3, 4])
        with pytest.raises(TooManyLoads):
            brute_force_oracle(build_problem(nf, FairnessPolicy.utilitarian()))

    def test_empty_feasible_grid(self):
        # demand far above what the cap can offset: undervoltage on the whole box
        nf = mk(2, 0, [(0, 1, 0.05, 0.0)], [1], p_demand=4.0, q_demand=0.0,
                dg_cap=0.5)
        with pytest.raises(Infeasible):
            brute_force_oracle(build_problem(nf, FairnessPolicy.utilitarian()),
                               grid_steps=21)

    def test_al_within_tolerance_of_oracle(self, lin3):
        prob = build_problem(lin3, FairnessPolicy.utilitarian())
        oracle = brute_force_oracle(prob, grid_steps=201)
        sol = solve_hc(prob)
        step = lin3.dg_cap / 200.0
        assert abs(sol.hc_total - oracle.hc_total) <= 0.01 * oracle.hc_total + step

    def test_bargaining_grid_certificate(self, lin3):
        prob = build_problem(lin3, FairnessPolicy.bargaining(0.5))
        oracle = brute_force_oracle(prob, grid_steps=201)
        sol = solve_hc(prob)
        # the grid optimum is a lower-bound certificate at grid resolution
        step = lin3.dg_cap / 200.0
        val_al = prob.objective(sol.allocation / lin3.s_base)
        val_orc = prob.objective(oracle.allocation / lin3.s_base)
        assert val_al >= val_orc - (0.01 * abs(val_orc) + step)

    def test_batch_matches_individual(self, lin3):
        probs = [build_problem(lin3, FairnessPolicy.utilitarian()),
                 build_problem(lin3, FairnessPolicy.bargaining(0.5))]
        batch = brute_force_oracle_batch(probs, grid_steps=101)
        for prob, got in zip(probs, batch):
            solo = brute_force_oracle(prob, grid_steps=101)
            assert got.allocation == pytest.approx(solo.allocation, rel=0, abs=0)

    @pytest.mark.parametrize("policy, points", [(FairnessPolicy.utilitarian(), 11**3),
                                                (FairnessPolicy.egalitarian(), 11)])  # tied: one line
    def test_reports_its_point_count(self, br4, policy, points):
        sol = brute_force_oracle(build_problem(br4, policy), grid_steps=11)
        assert sol.iterations == (0, points)

    def test_batch_requires_shared_feeder(self, lin3, star3):
        probs = [build_problem(lin3, FairnessPolicy.utilitarian()),
                 build_problem(star3, FairnessPolicy.utilitarian())]
        with pytest.raises(ValueError):
            brute_force_oracle_batch(probs, grid_steps=11)

    def test_batch_rejects_an_empty_grid(self, lin3):
        with pytest.raises(ValueError, match="grid_steps must be >= 1"):
            brute_force_oracle_batch([build_problem(lin3, FairnessPolicy.utilitarian())], grid_steps=0)

    def test_batch_of_no_problems_is_empty(self):
        assert brute_force_oracle_batch([]) == []


def flat_oracle(problem, steps):
    """Reference grid oracle: every point solved from a flat start in one batch,
    then the first best feasible point, in kW."""
    nf = problem.feeder
    if problem.tie:
        pts = np.linspace(problem.lower.max(), problem.upper.min(), steps)[:, None].repeat(nf.n_loads, axis=1)
    else:
        axes = np.meshgrid(*(np.linspace(lo, hi, steps) for lo, hi in zip(problem.lower, problem.upper)),
                           indexing="ij")
        pts = np.stack([a.ravel() for a in axes], axis=1)
    res = _solve_batch(nf, pts)
    feas = res.converged & (residual_min_batch(nf, res) >= -FEAS_TOL)
    vals = np.where(feas, problem.objective(pts), -np.inf)
    return pts[int(np.argmax(vals))] * nf.s_base


class TestContinuationSweep:
    """The oracle's continuation sweep picks exactly what a flat-start sweep picks."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """(batch size, warm start?) of each batched solve the oracle makes."""
        calls = []
        real = solver._solve_batch

        def spy(nf, dg, *args, start=None, **kwargs):
            warm = start is not None and bool(np.any(start[0] != 1.0) or np.any(start[1] != 0.0))
            calls.append((len(dg), warm))
            return real(nf, dg, *args, start=start, **kwargs)

        monkeypatch.setattr(solver, "_solve_batch", spy)
        return calls

    @pytest.mark.parametrize("make", [make_lin3, make_star3, make_br4])
    def test_matches_flat_start_sweep(self, make):
        nf = make()
        probs = [build_problem(nf, FairnessPolicy.utilitarian()),
                 build_problem(nf, FairnessPolicy.bargaining(0.5))]
        for prob, sol in zip(probs, brute_force_oracle_batch(probs, grid_steps=31)):
            assert np.array_equal(sol.allocation, flat_oracle(prob, 31))

    def test_tied_grid_is_one_flat_slab(self, br4, solves):
        prob = build_problem(br4, FairnessPolicy.egalitarian())
        sol = brute_force_oracle(prob, grid_steps=31)
        assert solves == [(31, False)]
        assert np.array_equal(sol.allocation, flat_oracle(prob, 31))

    def test_one_load_is_one_flat_slab(self, two_bus, solves):
        prob = build_problem(two_bus, FairnessPolicy.utilitarian())
        sol = brute_force_oracle(prob, grid_steps=1001)
        assert solves == [(1001, False)]
        assert np.array_equal(sol.allocation, flat_oracle(prob, 1001))

    def test_diverging_points_retried_from_flat(self, solves):
        # mostly reactive lines: a large export has no power-flow solution, so part of the box diverges
        nf = mk(3, 0, [(0, 1, 0.01, 0.1), (1, 2, 0.01, 0.1)], [1, 2], p_demand=0.0,
                q_demand=0.0, dg_cap=4.0, v_max=10.0, s_rated=100.0, dtheta=3.0)
        prob = build_problem(nf, FairnessPolicy.utilitarian())
        sol = brute_force_oracle(prob, grid_steps=31)
        assert any(warm for _, warm in solves)
        assert any(not warm for _, warm in solves[1:])  # a retry from flat
        assert np.array_equal(sol.allocation, flat_oracle(prob, 31))

    def test_winner_only_a_predicted_start_converges_is_swept_again(self, solves):
        # near the export limit a predicted start converges where a flat start
        # diverges; such a point must not become the winner
        nf = mk(4, 0, [(0, 1, 0.05, 0.05), (1, 2, 0.05, 0.05), (2, 3, 0.05, 0.05)], [1, 3],
                p_demand=0.0, q_demand=0.0, dg_cap=10.0, v_min=0.0, v_max=10.0,
                s_rated=1000.0, dtheta=3.0)
        probs = [build_problem(nf, FairnessPolicy.utilitarian()),
                 build_problem(nf, FairnessPolicy.bargaining(0.5))]
        for prob, sol in zip(probs, brute_force_oracle_batch(probs, grid_steps=41)):
            assert np.array_equal(sol.allocation, flat_oracle(prob, 41))
        assert solves[-1] == (41 * 41, False)  # the flat-start sweep


class TestGridMemory:
    """The oracle makes its grid chunk by chunk and solves it in ``ORACLE_CHUNK``-point batches."""

    @pytest.mark.parametrize("make", [make_two_bus, make_lin3, make_br4])
    @pytest.mark.parametrize("policy", [FairnessPolicy.utilitarian(), FairnessPolicy.egalitarian()])
    @pytest.mark.parametrize("upper", [[0.7, 0.31, 1.1], [0.7, 0.1, 1.1]])  # the second: load 2 fixed
    @pytest.mark.parametrize("steps", [1, 7])
    def test_points_match_meshgrid(self, make, policy, upper, steps):
        nf = make()
        n = nf.n_loads
        lower, upper = np.array([0.013, 0.1, 0.2])[:n], np.array(upper)[:n]
        prob = HCProblem(nf, policy, lower, upper)
        if prob.tie:
            want = np.linspace(lower.max(), upper.min(), steps)[:, None].repeat(n, axis=1)
        else:
            mesh = np.meshgrid(*(np.linspace(lo, hi, steps) for lo, hi in zip(lower, upper)), indexing="ij")
            want = np.stack([a.ravel() for a in mesh], axis=1)
        slab = len(want) if prob.tie else steps ** (n - 1)
        ranges = [(0, len(want)), (max(slab - 2, 0), min(2 * slab + 1, len(want)))]  # the second crosses a slab
        ranges += np.sort(np.random.default_rng(len(want)).integers(0, len(want) + 1, (8, 2)), axis=1).tolist()
        for lo, hi in ranges:
            got = _grid_block(prob, steps, lo, hi)
            assert got.shape == want[lo:hi].shape and got.tobytes() == want[lo:hi].tobytes()

    @pytest.fixture(scope="class")
    def oracle_grid(self):
        """The 7-bus feeder of the benchmark's oracle_grid workload, its two problems warmed up."""
        nf = to_per_unit(generate_feeder(SynthSpec(3, "branched", 200.0, conductor=Conductor(i_rated_a=500.0),
                                                   dg_cap_kw=60.0)))
        probs = [build_problem(nf, FairnessPolicy.utilitarian()), build_problem(nf, FairnessPolicy.bargaining(0.5))]
        brute_force_oracle_batch(probs, grid_steps=5)
        return probs

    @staticmethod
    def traced_peak(fn, *args, **kwargs):
        """(result, peak bytes that tracemalloc saw allocated during the call)."""
        tracemalloc.start()
        try:
            return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_block_holds_no_grid(self, oracle_grid):
        # the last chunk of a 1001-step grid (about 1e9 points, 24 GB as one array): 3.4x the
        # block's bytes were measured, for its index and column temporaries
        hi = 1001**3
        block, peak = self.traced_peak(_grid_block, oracle_grid[0], 1001, hi - ORACLE_CHUNK, hi)
        assert block.shape == (ORACLE_CHUNK, 3) and block[-1].tolist() == oracle_grid[0].upper.tolist()
        assert peak <= 8 * block.nbytes

    def test_oracle_working_set_scales_with_the_chunk(self, oracle_grid):
        # the whole call, with no grid-sized term: 11.2 MB was measured with 2,048-point
        # batches (4.7 MB of slab arrays plus 3.4 kB per batch point); a whole-grid array
        # alone took 24.7 MB, and the call with it peaked at 35.9 MB
        sols, peak = self.traced_peak(brute_force_oracle_batch, oracle_grid, grid_steps=101)
        assert [s.hc_total for s in sols] == pytest.approx([75.0, 64.2])
        assert peak <= 9e6 + 2e3 * min(ORACLE_CHUNK, 101**2)

    def test_one_slab_sweep_holds_no_whole_grid_state(self, oracle_grid):
        # a flat sweep of the whole grid in one slab, as the fallback re-sweep runs it: each
        # chunk starts flat and no state is kept, so the working set stays within the chunk
        # bound above (whole-grid start and state arrays took 37 MB here)
        nf, objectives = oracle_grid[0].feeder, [p.objective for p in oracle_grid]
        best, peak = self.traced_peak(_sweep, nf, objectives, oracle_grid[0], 51, 1)
        assert peak <= 9e6 + 2e3 * min(ORACLE_CHUNK, 51**3)
        assert all(np.array_equal(a, b) for a, b in zip(best, _sweep(nf, objectives, oracle_grid[0], 51, 51)))
