import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairhc.errors import NonConvergence
from fairhc.netmodel import NormalizedFeeder
from fairhc.powerflow import (
    ConstraintResiduals,
    PowerFlowState,
    _flow_partials,
    _jacobian,
    _residual_blocks,
    _solve_batch,
    adjoint_gradient,
    constraint_residuals,
    residual_labels,
    residual_min_batch,
    solve_power_flow,
)

from conftest import mk, make_two_bus


def two_bus_v2(p_net, r=0.05):
    """Closed-form receiving-end voltage for a lossy two-bus link, x = 0.

    ``p_net`` is the net active injection at bus 2 (positive = generation);
    root of V2^4 - (V1^2 + 2 r p) V2^2 + r^2 p^2 = 0 on the high-voltage branch.
    """
    a = 1.0 + 2.0 * r * p_net
    return math.sqrt((a + math.sqrt(a * a - 4.0 * r * r * p_net * p_net)) / 2.0)


def random_chain(rng):
    """Chain of 1-3 loads rooted at bus 0, every line pointing away from the slack."""
    n_loads = int(rng.integers(1, 4))
    lines = [(i, i + 1, float(rng.uniform(0.01, 0.08)), float(rng.uniform(0.0, 0.02)))
             for i in range(n_loads)]
    return mk(n_loads + 1, 0, lines, list(range(1, n_loads + 1)))


def random_tree(rng):
    """Random radial tree of 3-8 buses: random attachment, the slack at a random
    index, lines listed and oriented at random, 1-3 loads and the rest junctions."""
    n = int(rng.integers(3, 9))
    order = rng.permutation(n)  # order[0] is the slack; each bus attaches to an earlier one
    lines = []
    for i in range(1, n):
        ends = [int(order[rng.integers(0, i)]), int(order[i])]
        rng.shuffle(ends)
        lines.append((*ends, float(rng.uniform(0.01, 0.08)), float(rng.uniform(0.0, 0.02))))
    rng.shuffle(lines)
    loads = rng.choice(order[1:], size=int(rng.integers(1, min(3, n - 1) + 1)), replace=False)
    return mk(n, int(order[0]), lines, sorted(loads.tolist()))


class TestSolvePowerFlow:
    def test_no_load_flat(self):
        nf = mk(2, 0, [(0, 1, 0.05, 0.01)], [], p_demand=0.0, q_demand=0.0)
        state = solve_power_flow(nf, np.zeros(0))
        assert state.v == pytest.approx([1.0, 1.0])
        assert state.theta == pytest.approx([0.0, 0.0])
        assert state.p_flow == pytest.approx([0.0], abs=1e-12)
        assert state.max_mismatch < 1e-8

    def test_slack_reference_exact(self, lin3):
        state = solve_power_flow(lin3, np.array([0.3, 0.2]))
        assert state.v[0] == 1.0
        assert state.theta[0] == 0.0

    def test_two_bus_under_load(self):
        nf = mk(2, 0, [(0, 1, 0.05, 0.0)], [1], p_demand=0.1, q_demand=0.0)
        state = solve_power_flow(nf, np.zeros(1))
        assert state.v[1] == pytest.approx(two_bus_v2(-0.1), abs=1e-9)
        assert state.v[1] == pytest.approx(0.99497, abs=1e-5)

    def test_two_bus_with_generation(self, two_bus):
        state = solve_power_flow(two_bus, np.array([1.05]))
        assert state.v[1] == pytest.approx(two_bus_v2(1.05), abs=1e-9)
        assert state.v[1] == pytest.approx(1.05, abs=1e-4)

    def test_mismatch_below_tolerance(self, br4):
        state = solve_power_flow(br4, np.array([0.5, 0.2, 0.1]))
        assert state.max_mismatch < 1e-8

    def test_nonconvergence_beyond_power_transfer_limit(self):
        # max deliverable load on an r=0.05 link is V1^2/(4r) = 5 pu
        nf = mk(2, 0, [(0, 1, 0.05, 0.0)], [1], p_demand=6.0, q_demand=0.0)
        with pytest.raises(NonConvergence):
            solve_power_flow(nf, np.zeros(1))

    def test_divergence_reports_last_finite_mismatch(self):
        nf = mk(2, 0, [(0, 1, 0.05, 0.0)], [1], p_demand=20.0, q_demand=0.0)
        with pytest.raises(NonConvergence, match="diverged at iteration") as exc:
            solve_power_flow(nf, np.zeros(1))
        assert np.isfinite(exc.value.mismatch)
        assert "inf" not in str(exc.value)

    def test_bad_shape_rejected(self, two_bus):
        with pytest.raises(ValueError):
            solve_power_flow(two_bus, np.array([1.0, 2.0]))


class TestPhysicalInvariants:
    @pytest.mark.parametrize("dg", [[0.0, 0.0], [0.4, 0.1], [1.0, 1.0]])
    def test_power_balance(self, lin3, dg):
        dg = np.array(dg)
        state = solve_power_flow(lin3, dg)
        losses = float(np.sum(state.p_flow + state.p_flow_rev))
        imbalance = state.p_slack - (lin3.p_demand.sum() - dg.sum() + losses)
        assert abs(imbalance) < 1e-8

    @pytest.mark.parametrize("dg", [[0.0, 0.0, 0.0], [0.5, 0.3, 0.2]])
    def test_losses_nonnegative(self, br4, dg):
        state = solve_power_flow(br4, np.array(dg))
        assert np.all(state.p_flow + state.p_flow_rev >= -1e-12)

    def test_stiff_link_stays_near_unity(self):
        for scale in (1e-2, 1e-3, 1e-4):
            nf = mk(2, 0, [(0, 1, 0.05 * scale, 0.01 * scale)], [1])
            state = solve_power_flow(nf, np.array([0.5]))
            assert abs(state.v[1] - 1.0) < 10.0 * scale

    @given(dg=st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_voltage_rises_with_injection(self, dg):
        nf = make_two_bus()
        lo = solve_power_flow(nf, np.array([dg]))
        hi = solve_power_flow(nf, np.array([dg + 0.05]))
        assert hi.v[1] > lo.v[1]


class TestConstraintResiduals:
    def test_flat_no_load_margins(self):
        nf = mk(2, 0, [(0, 1, 0.05, 0.01)], [], p_demand=0.0, q_demand=0.0,
                v_max=1.10)
        res = constraint_residuals(solve_power_flow(nf, np.zeros(0)), nf)
        assert res.v_upper == pytest.approx([0.10, 0.10])
        assert res.v_lower == pytest.approx([0.10, 0.10])
        assert res.min() >= 0

    def test_binding_voltage(self, two_bus):
        res = constraint_residuals(solve_power_flow(two_bus, np.array([1.05])), two_bus)
        assert res.v_upper[1] == pytest.approx(0.0, abs=1e-4)

    def test_thermal_residual_on_unit_circle(self, two_bus):
        state = solve_power_flow(two_bus, np.array([0.5]))
        state.p_flow = np.array([0.6])
        state.q_flow = np.array([0.8])
        nf = mk(2, 0, [(0, 1, 0.05, 0.0)], [1], s_rated=1.0,
                p_demand=0.0, q_demand=0.0)
        res = constraint_residuals(state, nf)
        assert res.thermal[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_vector_matches_labels(self, br4):
        res = constraint_residuals(solve_power_flow(br4, np.zeros(3)), br4)
        assert len(res.as_vector()) == len(residual_labels(br4))

    def test_fields_and_labels_follow_the_blocks(self, br4):
        state = solve_power_flow(br4, np.array([0.3, 0.2, 0.1]))
        res = constraint_residuals(state, br4)
        blocks = _residual_blocks(br4, state)
        fields = [f.name for f in dataclasses.fields(ConstraintResiduals)]
        assert len(fields) == len(blocks)
        labels = iter(residual_labels(br4))
        for name, block in zip(fields, blocks):
            assert np.array_equal(getattr(res, name), block)
            for _ in range(block.size):  # thermal_fwd[...], slack_p_upper, ...
                assert next(labels).startswith(name)
        assert next(labels, None) is None

    def test_angle_margins_symmetric_at_flat(self):
        nf = mk(2, 0, [(0, 1, 0.05, 0.01)], [], p_demand=0.0, q_demand=0.0)
        res = constraint_residuals(solve_power_flow(nf, np.zeros(0)), nf)
        assert res.angle[0] == pytest.approx(res.angle[1])


def loop_jacobian(nf, v, theta):
    """Reference Jacobian, one line and one direction at a time."""
    ns = [i for i in range(nf.n_bus) if i != nf.slack]
    m, pos = len(ns), {bus: k for k, bus in enumerate(ns)}
    J = np.zeros((2 * m, 2 * m))
    for l in range(nf.n_line):
        g, b = nf.g[l], nf.b[l]
        for e, o in ((nf.from_bus[l], nf.to_bus[l]), (nf.to_bus[l], nf.from_bus[l])):
            if e == nf.slack:
                continue
            vm, vn, t = v[e], v[o], theta[e] - theta[o]
            c, s = math.cos(t), math.sin(t)
            dp_dt = vm * vn * (g * s - b * c)
            dq_dt = -vm * vn * (b * s + g * c)
            rp, rq = pos[e], m + pos[e]
            J[rp, pos[e]] += dp_dt
            J[rp, m + pos[e]] += 2 * g * vm - vn * (g * c + b * s)
            J[rq, pos[e]] += dq_dt
            J[rq, m + pos[e]] += -2 * b * vm + vn * (b * c - g * s)
            if o != nf.slack:
                J[rp, pos[o]] += -dp_dt
                J[rp, m + pos[o]] += -vm * (g * c + b * s)
                J[rq, pos[o]] += -dq_dt
                J[rq, m + pos[o]] += vm * (b * c - g * s)
    return J


@pytest.mark.parametrize("seed", range(10))
def test_jacobian_matches_line_loop(seed):
    rng = np.random.default_rng(seed)
    nf = random_tree(rng)
    v = rng.uniform(0.9, 1.1, size=(3, nf.n_bus))
    theta = rng.uniform(-0.1, 0.1, size=(3, nf.n_bus))
    J = _jacobian(nf.plan, _flow_partials(nf.plan, v, theta))
    for i in range(3):
        assert J[i] == pytest.approx(loop_jacobian(nf, v[i], theta[i]), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_warm_start_converges_to_flat_state_in_fewer_steps(seed):
    rng = np.random.default_rng(seed)
    nf = random_tree(rng)
    dg = rng.uniform(0.2, 1.0, size=(4, nf.n_loads))
    flat = _solve_batch(nf, dg)
    ns = nf.plan.ns
    v, theta = flat.v.copy(), flat.theta.copy()
    v[:, ns] += rng.uniform(-1e-5, 1e-5, size=(4, len(ns)))
    theta[:, ns] += rng.uniform(-1e-5, 1e-5, size=(4, len(ns)))
    warm = _solve_batch(nf, dg, start=(v, theta))
    assert flat.converged.all() and warm.converged.all()
    assert np.all(warm.iterations < flat.iterations)
    assert np.abs(warm.v - flat.v).max() < 1e-8
    assert np.abs(warm.theta - flat.theta).max() < 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_batch_rows_match_single_state_residuals(seed):
    rng = np.random.default_rng(seed)
    nf = random_tree(rng)
    dg = rng.uniform(0.0, 3.0, size=(6, nf.n_loads))
    res = _solve_batch(nf, dg)
    mins = residual_min_batch(nf, res)
    blocks = _residual_blocks(nf, res)
    assert res.converged.any()
    for i in np.flatnonzero(res.converged):
        row = PowerFlowState(*(field[i] for field in res[:10]))
        vector = constraint_residuals(row, nf).as_vector()
        assert np.array_equal(np.concatenate([blk[i].ravel() for blk in blocks]), vector)
        single = constraint_residuals(solve_power_flow(nf, dg[i]), nf)
        assert mins[i] == pytest.approx(single.min(), abs=1e-12)
        assert single.as_vector() == pytest.approx(vector, abs=1e-12)


class TestAdjointGradient:
    def test_zero_weights(self, lin3):
        w = np.zeros(len(residual_labels(lin3)))
        g = adjoint_gradient(lin3, np.array([0.2, 0.2]), w)
        assert g == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_two_bus_voltage_sensitivity(self, two_bus):
        # weight 1 on the v_upper residual of bus 1: gradient = -dV2/dP
        w = np.zeros(len(residual_labels(two_bus)))
        w[1] = 1.0
        g = adjoint_gradient(two_bus, np.array([1.05]), w)
        h = 1e-6
        fd = -(two_bus_v2(1.05 + h) - two_bus_v2(1.05 - h)) / (2.0 * h)
        assert g[0] == pytest.approx(fd, rel=1e-7)
        assert g[0] == pytest.approx(-1.0 / 22.0, rel=1e-4)

    def test_linearity_in_weights(self, br4):
        rng = np.random.default_rng(3)
        nw = len(residual_labels(br4))
        dg = np.array([0.3, 0.2, 0.1])
        w1, w2 = rng.normal(size=nw), rng.normal(size=nw)
        g12 = adjoint_gradient(br4, dg, w1 + 2.0 * w2)
        g1 = adjoint_gradient(br4, dg, w1)
        g2 = adjoint_gradient(br4, dg, w2)
        assert g12 == pytest.approx(g1 + 2.0 * g2, rel=1e-9)

    @pytest.mark.parametrize("make, seed", [
        *(pytest.param(random_chain, s, id=str(s)) for s in range(5)),
        *(pytest.param(random_tree, s, id=f"tree{s}") for s in range(20)),
    ])
    def test_matches_central_differences(self, make, seed):
        rng = np.random.default_rng(seed)
        nf = make(rng)
        n_loads = nf.n_loads
        dg = rng.uniform(0.0, 0.5, size=n_loads)
        w = rng.normal(size=len(residual_labels(nf)))
        tol = 1e-12  # tight Newton stop so the implicit map is smooth at FD scale
        g = adjoint_gradient(nf, dg, w, tol=tol)
        h = 1e-6
        fd = np.zeros(n_loads)
        for d in range(n_loads):
            e = np.zeros(n_loads)
            e[d] = h
            cp = constraint_residuals(solve_power_flow(nf, dg + e, tol=tol), nf).as_vector()
            cm = constraint_residuals(solve_power_flow(nf, dg - e, tol=tol), nf).as_vector()
            fd[d] = w @ (cp - cm) / (2.0 * h)
        assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5

    def test_wrong_weight_shape(self, two_bus):
        with pytest.raises(ValueError):
            adjoint_gradient(two_bus, np.array([0.1]), np.zeros(3))
