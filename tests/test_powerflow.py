import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairhc import powerflow, solver
from fairhc.errors import NonConvergence, SingularJacobian
from fairhc.formulation import FairnessPolicy, build_problem
from fairhc.netmodel import NormalizedFeeder, to_per_unit
from fairhc.powerflow import (
    PF_MAX_ITER,
    TREE_MIN_BUSES,
    ConstraintResiduals,
    PowerFlowState,
    _chain_step,
    _eliminate,
    _ends,
    _flow_partials,
    _point_terms,
    _residual_blocks,
    _solve_batch,
    _tree_solve,
    adjoint_gradient,
    constraint_residuals,
    residual_labels,
    residual_min_batch,
    solve_power_flow,
)
from fairhc.solver import _grid_block, _slab_start, brute_force_oracle_batch
from fairhc.synth import Conductor, SynthSpec, generate_feeder

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


def random_tree(rng, n=None):
    """Random radial tree of ``n`` buses, else 3-8: random attachment, the slack at a
    random index, lines listed and oriented at random, 1-3 loads and the rest junctions."""
    if n is None:
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
        pieces = _residual_blocks(br4, state)
        labels = iter(residual_labels(br4))
        for f in dataclasses.fields(ConstraintResiduals):
            block = getattr(res, f.name)
            for row in [block] if f.name.startswith("v_") else block:  # one piece per orientation
                assert np.array_equal(row, next(pieces))
                for _ in range(row.size):  # thermal_fwd[...], slack_p_upper, ...
                    assert next(labels).startswith(f.name)
        assert next(pieces, None) is None
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


def non_slack(nf):
    """The non-slack buses in bus order: the rows and columns of a dense reference Jacobian."""
    return np.flatnonzero(np.arange(nf.n_bus) != nf.slack)


def blocks_jacobian(nf, diag, far):
    """Dense Jacobian from row-major 2x2 blocks: ``diag`` one per bus, ``far`` one per
    oriented flow, in the (P, Q) x (theta, V) layout that :func:`_eliminate` reads."""
    ns, plan = non_slack(nf), nf.plan
    m, pos = len(ns), np.full(nf.n_bus, -1)
    pos[ns] = np.arange(m)
    J = np.zeros((2 * m, 2 * m))
    rows = [(bus, bus, blk) for bus, blk in enumerate(diag)]
    rows += [(a, o, blk) for a, o, blk in zip(plan.at.tolist(), plan.other.tolist(), far)]
    for r, c, (a, b, cc, d) in rows:
        i, j = pos[r], pos[c]
        if i >= 0 and j >= 0:
            J[[i, i, m + i, m + i], [j, m + j, j, m + j]] += [a, b, cc, d]
    return J


def dense_jacobian(nf, d, b):
    """Point ``b``'s dense Jacobian from NumPy partials, the diagonal blocks summed per bus."""
    own, far = (d[e][..., b].transpose(2, 1, 0).reshape(-1, 4) for e in (0, 1))
    diag = np.zeros((nf.n_bus, 4))
    np.add.at(diag, nf.plan.at, own)
    return blocks_jacobian(nf, diag.tolist(), far.tolist())


@pytest.mark.parametrize("seed", range(10))
def test_jacobian_matches_line_loop(seed):
    """The partials, as NumPy builds them for a batch and as the one-point path builds them
    in floats, assemble to the line-by-line Jacobian."""
    rng = np.random.default_rng(seed)
    nf = random_tree(rng)
    v = rng.uniform(0.9, 1.1, size=(3, nf.n_bus))
    theta = rng.uniform(-0.1, 0.1, size=(3, nf.n_bus))
    plan = nf.plan
    d = _flow_partials(plan, _ends(plan, v.T, theta.T))
    for i in range(3):
        want = loop_jacobian(nf, v[i], theta[i])
        assert dense_jacobian(nf, d, i) == pytest.approx(want, rel=1e-12, abs=1e-12)
        *_, far, _, _, diag = _point_terms(plan, v[i].tolist(), theta[i].tolist())
        assert blocks_jacobian(nf, diag, far) == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_reverse_flow_terms_match_their_own_trig(seed):
    """``_ends`` takes cos/sin of the forward angles only and builds each reverse
    flow's ``g cos t + b sin t`` from them; it must equal a direct evaluation at
    the reverse flow's own angle bit for bit, at +-0, tiny angles and near +-pi."""
    rng = np.random.default_rng(seed)
    nf = random_tree(rng)
    plan = nf.plan
    pi = np.pi
    special = [0.0, -0.0, 5e-324, -1e-300, 1e-17, -2e-9, pi, -pi, np.nextafter(pi, 0.0),
               np.nextafter(-pi, 0.0), pi / 2, 3.0, -3.1]
    theta = rng.choice(special + rng.uniform(-pi, pi, size=8).tolist(), size=(nf.n_bus, 64))
    _, _, u = _ends(plan, np.ones_like(theta), theta)
    t = theta[plan.at] - theta[plan.other]
    g, b = np.tile(nf.g, 2)[:, None], np.tile(nf.b, 2)[:, None]
    direct = np.array([g * np.cos(t) + b * np.sin(t), -b * np.cos(t) + g * np.sin(t)])
    assert u.tobytes() == direct.tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_warm_start_converges_to_flat_state_in_fewer_steps(seed):
    rng = np.random.default_rng(seed)
    nf = random_tree(rng)
    dg = rng.uniform(0.2, 1.0, size=(4, nf.n_loads))
    flat = _solve_batch(nf, dg)
    ns = non_slack(nf)
    v, theta = flat.v.copy(), flat.theta.copy()
    v[:, ns] += rng.uniform(-1e-5, 1e-5, size=(4, len(ns)))
    theta[:, ns] += rng.uniform(-1e-5, 1e-5, size=(4, len(ns)))
    warm = _solve_batch(nf, dg, start=(v, theta))
    assert flat.converged.all() and warm.converged.all()
    assert np.all(warm.iterations < flat.iterations)
    assert np.abs(warm.v - flat.v).max() < 1e-8
    assert np.abs(warm.theta - flat.theta).max() < 1e-8


def test_singular_point_leaves_with_its_state():
    # on an x-only link the Jacobian at theta = 0, V = 0.5 is exactly singular (2 V cos t = 1)
    nf = mk(2, 0, [(0, 1, 0.0, 0.1)], [1])
    v, theta = np.array([[1.0, 1.0], [1.0, 0.5]]), np.zeros((2, 2))
    res = _solve_batch(nf, np.full((2, 1), 0.3), start=(v, theta))
    assert res.singular.tolist() == [False, True]
    assert res.converged.tolist() == [True, False]
    assert res.iterations[1] == 0
    assert res.v[1].tolist() == [1.0, 0.5] and res.theta[1].tolist() == [0.0, 0.0]
    assert res.q_flow[1, 0] == pytest.approx(5.0)  # -b V0^2 + V0 V1 b at b = -10
    assert res.mismatch[1] == pytest.approx(2.49)  # |Q1 + q_demand| = |-2.5 + 0.01|


def singular_link():
    """x-only link with 1 pu reactive demand: b = -2, so the first Newton step from a
    flat start at dg = 0 lands on V = 0.5, where the Q-V entry -2 b V + b is exactly 0."""
    return mk(2, 0, [(0, 1, 0.0, 0.5)], [1], p_demand=0.0, q_demand=1.0)


def test_singular_jacobian_raises():
    with pytest.raises(SingularJacobian, match="power-flow Jacobian became singular"):
        solve_power_flow(singular_link(), np.zeros(1))


def test_mixed_singular_batch_solves_its_regular_point_as_in_a_regular_batch():
    nf = singular_link()
    res = _solve_batch(nf, np.array([[0.0], [0.1], [0.0]]))
    assert res.singular.tolist() == [True, False, True]
    assert res.iterations[[0, 2]].tolist() == [1, 1]
    assert (res.v[[0, 2]] == [1.0, 0.5]).all() and (res.theta[[0, 2]] == 0.0).all()
    regular = _solve_batch(nf, np.array([[0.2], [0.1]]))
    assert not regular.singular.any()
    for name, got, want in zip(res._fields, res, regular):
        assert np.array_equal(got[1], want[1], equal_nan=True), name


def test_adjoint_raises_at_a_singular_state():
    nf = singular_link()
    res = _solve_batch(nf, np.zeros((1, 1)))
    state = PowerFlowState(*(field[0] for field in res[:10]))
    assert state.v.tolist() == [1.0, 0.5]
    with pytest.raises(SingularJacobian, match="adjoint system is singular"):
        adjoint_gradient(nf, np.zeros(1), np.ones(len(residual_labels(nf))), state=state)


@pytest.mark.parametrize("seed", range(10))
def test_batch_rows_match_single_state_residuals(seed):
    rng = np.random.default_rng(seed)
    nf = random_tree(rng)
    dg = rng.uniform(0.0, 3.0, size=(6, nf.n_loads))
    res = _solve_batch(nf, dg)
    mins = residual_min_batch(nf, res)
    blocks = list(_residual_blocks(nf, res))
    assert res.converged.any()
    for i in np.flatnonzero(res.converged):
        row = PowerFlowState(*(field[i] for field in res[:10]))
        vector = constraint_residuals(row, nf).as_vector()
        assert np.array_equal(np.concatenate([blk[i].ravel() for blk in blocks]), vector)
        single = constraint_residuals(solve_power_flow(nf, dg[i]), nf)
        assert mins[i] == pytest.approx(single.min(), abs=1e-12)
        assert single.as_vector() == pytest.approx(vector, abs=1e-12)


def newton_path(case):
    """Every output of the Newton core on one pinned input, in a fixed order."""
    if case.startswith("tree"):
        rng = np.random.default_rng(int(case[4:]))
        nf = random_tree(rng)
        out = []
        for dg in rng.uniform(0.0, 1.0, size=(5, nf.n_loads)):
            out += vars(solve_power_flow(nf, dg)).values()
            out.append(adjoint_gradient(nf, dg, rng.normal(size=len(residual_labels(nf)))))
        return out
    nf, dg, start = batch_mix()
    if case == "large":
        return large_batch_path(nf, dg, start)
    res = _solve_batch(nf, dg, start=start)
    assert res.converged.tolist() == [True] * 4 + [False] * 3
    assert res.iterations[4:].tolist() == [50, 12, 1]
    return [*res, residual_min_batch(nf, res)]


def large_batch_path(nf, dg, start):
    """Large batches: ``batch_mix`` with each row repeated 192 times, then the first
    two 101-step slabs of the oracle_grid feeder, the first from a flat start and
    the second warm from it."""
    k = 192
    res = _solve_batch(nf, np.repeat(dg, k, axis=0), start=tuple(np.repeat(a, k, axis=0) for a in start))
    out = [*res, residual_min_batch(nf, res)]
    nf = synth_feeder("branched", 3, dg_cap_kw=60.0)
    prob = build_problem(nf, FairnessPolicy.utilitarian())
    slabs = [_grid_block(prob, 101, k * 101**2, (k + 1) * 101**2) for k in range(2)]
    flat = _solve_batch(nf, slabs[0])
    v, theta, _ = _slab_start([(flat.converged, flat.v, flat.theta)])
    warm = _solve_batch(nf, slabs[1], start=(v, theta))
    assert flat.converged.any() and warm.converged.any() and warm.iterations.mean() < flat.iterations.mean()
    for res in (flat, warm):
        out += [*res, residual_min_batch(nf, res)]
    return out


def batch_mix():
    """One batch ``(nf, dg, start)``: rows 0-1 converge from flat, rows 2-3 from
    a warm start, row 4 hits PF_MAX_ITER, rows 5-6 diverge (at steps 12 and 1)."""
    rng = np.random.default_rng(17)
    nf = random_tree(rng)
    dg = np.vstack([rng.uniform(0.0, 1.0, size=(4, nf.n_loads)),
                    np.repeat([[-2.0], [-4.0], [-20.0]], nf.n_loads, axis=1)])
    v, theta = np.ones((7, nf.n_bus)), np.zeros((7, nf.n_bus))
    warm = _solve_batch(nf, dg[2:4])
    v[2:4] = warm.v + rng.uniform(-1e-3, 1e-3, size=(2, nf.n_bus)) * (np.arange(nf.n_bus) != nf.slack)
    theta[2:4] = warm.theta + rng.uniform(-1e-3, 1e-3, size=(2, nf.n_bus)) * (np.arange(nf.n_bus) != nf.slack)
    return nf, dg, (v, theta)


# SHA-256 of the float64 bytes of every ``newton_path`` output; any change to the
# Newton core's or the adjoint's floating-point path moves them
NEWTON_PINS = {
    "tree0": "67076d0f03e31547dc39a0c0700510975df4de66fd06b4c86f6f17cc1c78d172",
    "tree1": "21543181090e317a6276380e02ee9d0dfa84ed487a009a867c9e0c4f97330a1a",
    "tree2": "2c300ef31ab551acf6bb3f0b2eba52320715d700b92696628865a7b0c9e1a6b5",
    "tree3": "c4e693b31fa6d3873c4f2d16ae85f57115efb12b0e49ce1e586bc638979ce211",
    "tree4": "aee1cf3613eda9c544de4ffda637c2b36afa08779408ce12f6d1aaa19a942cd1",
    "tree5": "7fcddb34061c19de2f0c75ce0d71f15a71cc79604de6e54f88632e35aeb13237",
    "tree6": "148ae803e7d7bac3e0d7f9a3ea6ddeb013d8756188c5a684d9c1f4d2ef24e796",
    "tree7": "280fe3ae7c2f7af162de47d90fdcef39db259c3bf43d1aae5f726d837623a67c",
    "tree8": "8d1af43b56241af427b2d707836992eef2bbbb9792e283feca9a3ee00ad55e76",
    "tree9": "44326c59b5f3a05950d5fd3c0a2a14ecc3cc0507a066d708b94930e6cf27e6bc",
    "batch": "3c54997db8fbd880d563cb40ddfed968f78a0e74a107891124ea0dd299de24dd",
    "large": "9e00bdef07216ab1f7c6107e86b5e0fa7385517b8f456ee1689d9630e19d7c7d",
}


@pytest.mark.parametrize("case", list(NEWTON_PINS))
def test_newton_path_pinned(case):
    digest = hashlib.sha256()
    for a in newton_path(case):
        digest.update(np.asarray(a, dtype=np.float64).tobytes())
    assert digest.hexdigest() == NEWTON_PINS[case]


# ---------------------------------------------------------------------------
# Tree elimination: every step of a call with two or more points takes it.  A
# one-point call steps in Python floats, or by the scalar elimination on large
# feeders, so each row solved alone is a reference for the same row in a batch.
# ---------------------------------------------------------------------------

def one_point_calls(nf, dg, start=None):
    """Each row of ``dg`` solved by its own one-point call, stacked like a batch's results."""
    rows = [_solve_batch(nf, dg[i:i + 1], start=None if start is None else tuple(a[i:i + 1] for a in start))
            for i in range(len(dg))]
    return type(rows[0])(*(np.concatenate(fields) for fields in zip(*rows)))


def lapack_steps(nf):
    """A stand-in for :func:`_tree_solve` or :func:`_chain_step` on ``nf`` that finds ``(dx, singular)``
    by LAPACK: one 2-D solve per point on its dense Jacobian (``dense_jacobian``) over the non-slack
    rows, whose ``LinAlgError`` marks the point singular."""
    ns = non_slack(nf)

    def step(plan, d, F):
        dx, singular = np.zeros_like(F), np.zeros(F.shape[-1], dtype=bool)
        for i in range(F.shape[-1]):
            J = dense_jacobian(nf, d, i)
            try:
                dx[:, ns, i] = np.linalg.solve(J, -F[:, ns, i].reshape(-1, 1)).reshape(2, -1)
            except np.linalg.LinAlgError:
                singular[i] = True
        return dx, singular
    return step


def assert_tree_matches_dense(nf, dg, start=None):
    """A batch against the same batch stepped by LAPACK: flags and step counts equal on
    every row; floats within 1e-10 on every row that stopped before PF_MAX_ITER.  A
    point that wanders PF_MAX_ITER steps without a solution grows the two paths'
    rounding difference about 3.5x per step (1e-13 at step 10, 0.1 at step 50 on
    ``batch_mix``'s row 4), so its final state is compared by its flags alone.  The
    reference shares the batch's flows and mismatches and steps by an independent
    solver.  Returns the batch's results."""
    assert len(dg) >= 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(powerflow, "_tree_solve", lapack_steps(nf))
        dense = _solve_batch(nf, dg, start=start)
    tree = _solve_batch(nf, dg, start=start)
    stopped = dense.iterations < PF_MAX_ITER
    for name, want, got in zip(dense._fields, dense, tree):
        if want.dtype == float:
            np.testing.assert_allclose(got[stopped], want[stopped], rtol=0, atol=1e-10, equal_nan=True,
                                       err_msg=name)
        else:
            assert (got == want).all(), name
    return tree


def synth_feeder(layout, n_loads, trunk_m=200.0, **spec):
    return to_per_unit(generate_feeder(SynthSpec(n_loads, layout, trunk_m,
                                                 conductor=Conductor(i_rated_a=500.0), **spec)))


@pytest.mark.parametrize("seed", range(10))
def test_tree_elimination_matches_dense_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    nf = random_tree(rng)
    assert assert_tree_matches_dense(nf, rng.uniform(0.0, 3.0, size=(3, nf.n_loads))).converged.any()


@pytest.mark.parametrize("layout, n_loads", [("linear", 5), ("branched", 3), ("branched", 15)])
@pytest.mark.parametrize("seed", range(3))
def test_tree_elimination_matches_dense_on_synth_feeders(layout, n_loads, seed):
    nf = synth_feeder(layout, n_loads)
    dg = np.random.default_rng(seed).uniform(0.0, 40.0, size=(2, n_loads)) / nf.s_base
    assert assert_tree_matches_dense(nf, dg).converged.all()


@pytest.mark.parametrize("seed", range(3))
def test_tree_elimination_matches_dense_on_the_pinned_mix(seed):
    # converge from flat and warm, PF_MAX_ITER and divergence, rows in a seeded order
    nf, dg, (v, theta) = batch_mix()
    order = np.random.default_rng(seed).permutation(len(dg))
    res = assert_tree_matches_dense(nf, dg[order], start=(v[order], theta[order]))
    assert res.iterations[np.argsort(order)][4:].tolist() == [50, 12, 1]


@pytest.mark.parametrize("seed", range(3))
def test_tree_singular_point_leaves_with_its_state(seed):
    # the x-only link of test_singular_point_leaves_with_its_state, among converging points
    rng = np.random.default_rng(seed)
    nf = mk(2, 0, [(0, 1, 0.0, 0.1)], [1])
    B = 20 + int(rng.integers(0, 50))
    v = np.where(rng.random((B, 1)) < 0.5, [1.0, 0.5], [1.0, 1.0])
    res = _solve_batch(nf, rng.uniform(0.1, 0.5, size=(B, 1)), start=(v, np.zeros((B, 2))))
    sing = v[:, 1] == 0.5
    assert sing.any() and (res.singular == sing).all() and (res.converged == ~sing).all()
    assert (res.iterations[sing] == 0).all()
    assert (res.v[sing] == [1.0, 0.5]).all() and (res.theta[sing] == 0.0).all()


def steps_alone(res):
    """Which points of a batch's results took steps as the batch's only live point: the
    one that left strictly last, if any."""
    leave = res.iterations + res.singular  # the pass at which each point left
    return leave > np.sort(leave)[-2]


@pytest.mark.parametrize("seed", range(5))
def test_batch_results_do_not_depend_on_batchmates(seed):
    """A point's every result holds the same bits in any batch of two or more points:
    random subsets, in random order, of ``batch_mix`` and of 300 points on a random tree.
    A point that steps alone in either batch is left out, as NumPy's matmul may sum one
    column in another order than several.  That several columns sum alike is what was
    measured on the NumPy and OpenBLAS builds this was written with (2 to 300 columns)."""
    rng = np.random.default_rng(seed)
    nf = random_tree(rng)
    cases = [batch_mix(), (nf, rng.uniform(0.0, 3.0, size=(300, nf.n_loads)), None)]
    for nf, dg, start in cases:
        full = _solve_batch(nf, dg, start=start)
        for _ in range(6):
            pick = rng.choice(len(dg), size=int(rng.integers(2, len(dg) + 1)), replace=False)
            res = _solve_batch(nf, dg[pick], start=None if start is None else tuple(a[pick] for a in start))
            shared = ~steps_alone(res) & ~steps_alone(full)[pick]
            assert shared.sum() >= len(pick) - 2
            for name, want, got in zip(full._fields, full, res):
                assert got[shared].tobytes() == want[pick][shared].tobytes(), name


def test_batch_calls_step_by_the_tree_elimination_and_one_point_calls_never(monkeypatch):
    """Every step of a call with two or more points goes to _tree_solve, down to its
    last live point; a one-point call on a feeder below TREE_MIN_BUSES goes whole to
    _solve_point and takes no NumPy step."""
    calls = []  # per _solve_batch call: its batch size, its points' step counts, its steps
    real_batch, real_tree, real_chain, real_point = (powerflow._solve_batch, powerflow._tree_solve,
                                                     powerflow._chain_step, powerflow._solve_point)

    def batch(nf, dg, *args, **kwargs):
        calls.append([len(dg), None, []])
        res = real_batch(nf, dg, *args, **kwargs)
        calls[-1][1] = res.iterations + res.singular
        return res

    def spy(name, real):
        def step(plan, d, F):
            calls[-1][2].append((name, F.shape[-1]))
            return real(plan, d, F)
        return step

    def point(*args):
        calls[-1][2].append(("floats", 1))
        return real_point(*args)

    monkeypatch.setattr(powerflow, "_solve_batch", batch)
    monkeypatch.setattr(solver, "_solve_batch", batch)
    monkeypatch.setattr(powerflow, "_tree_solve", spy("tree", real_tree))
    monkeypatch.setattr(powerflow, "_chain_step", spy("chain", real_chain))
    monkeypatch.setattr(powerflow, "_solve_point", point)
    nf = synth_feeder("branched", 3, dg_cap_kw=60.0)  # the oracle_grid benchmark feeder, 7 buses
    solve_power_flow(nf, np.full(3, 0.2))
    problems = [build_problem(nf, FairnessPolicy.utilitarian()),
                build_problem(nf, FairnessPolicy.bargaining(0.5))]
    brute_force_oracle_batch(problems, grid_steps=5)  # 25-point slabs, then the winners alone
    assert calls[0][0] == 1 and {B for B, _, _ in calls} == {1, 25}
    for B, steps_per_point, steps in calls:
        if B == 1:
            assert steps == [("floats", 1)]
            continue
        # a point leaving at step k is live in steps 0..k-1, so step s has this many live points
        live = [int((steps_per_point > s).sum()) for s in range(steps_per_point.max())]
        assert steps == [("tree", b) for b in live]
    assert any(b < B for B, _, steps in calls if B > 1 for _, b in steps)  # batches shrank on the tree path


def test_tree_elimination_reads_the_partials_in_place(monkeypatch):
    # the partials reach the tree step as _flow_partials made them, bus before
    # batch, so the elimination reads its blocks without a layout copy
    made, seen = [], []
    real_partials, real_tree = powerflow._flow_partials, powerflow._tree_solve

    def partials(plan, ends):
        made.append(real_partials(plan, ends))
        return made[-1]

    def tree(plan, d, F):
        seen.append((d.shape, F.shape, d.flags.c_contiguous, np.shares_memory(d, made[-1])))
        return real_tree(plan, d, F)

    monkeypatch.setattr(powerflow, "_flow_partials", partials)
    monkeypatch.setattr(powerflow, "_tree_solve", tree)
    nf = synth_feeder("branched", 3, dg_cap_kw=60.0)  # the oracle_grid benchmark feeder
    n, L = nf.n_bus, nf.n_line
    _solve_batch(nf, _grid_block(build_problem(nf, FairnessPolicy.utilitarian()), 101, 0, 101**2))
    assert seen and seen[0][0][-1] == 101**2
    for d_shape, F_shape, contiguous, shared in seen:
        B = F_shape[-1]
        assert F_shape == (2, n, B) and d_shape == (2, 2, 2, 2 * L, B)
        assert contiguous and shared


# ---------------------------------------------------------------------------
# One point below TREE_MIN_BUSES: _solve_point runs the flows, the mismatch, the
# partials, the elimination and the update in Python floats, and the adjoint too.
# A row of a batch of two or more points is its reference.
# ---------------------------------------------------------------------------

BENCH_FEEDERS = {"lin5": ("linear", 5, 250.0), "lin10": ("linear", 10, 500.0), "br5": ("branched", 5, 100.0)}


def assert_point_matches_batch_row(nf, dg, start=None, skip=()):
    """Each row of ``dg`` through a one-point ``_solve_batch``, and ``solve_power_flow`` where it
    converges from a flat start, against the same row of one batch: equal flags and step counts,
    floats within 1e-10, every field but those named in ``skip``."""
    batch = _solve_batch(nf, dg, start=start)
    for i in range(len(dg)):
        one = _solve_batch(nf, dg[i:i + 1], start=None if start is None else tuple(a[i:i + 1] for a in start))
        for name, want, got in zip(batch._fields, batch, one):
            if name in skip:
                continue
            if want.dtype == float:
                np.testing.assert_allclose(got[0], want[i], rtol=0, atol=1e-10, equal_nan=True, err_msg=name)
            else:
                assert got[0] == want[i], name
        if start is None and batch.converged[i]:
            state = solve_power_flow(nf, dg[i])
            assert state.iterations == batch.iterations[i]
            np.testing.assert_allclose(state.v, batch.v[i], rtol=0, atol=1e-10)
            np.testing.assert_allclose(state.theta, batch.theta[i], rtol=0, atol=1e-10)
    return batch


@pytest.mark.parametrize("seed", range(12))
def test_float_point_matches_its_batch_row_on_random_trees(seed):
    rng = np.random.default_rng(seed)
    nf = random_tree(rng, int(rng.integers(3, TREE_MIN_BUSES)))
    assert nf.n_bus < TREE_MIN_BUSES
    dg = rng.uniform(0.0, 2.0, size=(4, nf.n_loads))
    assert assert_point_matches_batch_row(nf, dg).converged.any()


@pytest.mark.parametrize("name", list(BENCH_FEEDERS))
def test_float_point_matches_its_batch_row_on_the_benchmark_feeders(name):
    layout, n_loads, trunk = BENCH_FEEDERS[name]
    nf = synth_feeder(layout, n_loads, trunk)
    dg = np.random.default_rng(n_loads).uniform(0.0, 30.0, size=(5, n_loads)) / nf.s_base
    assert assert_point_matches_batch_row(nf, dg).converged.all()


def test_float_point_fails_where_its_batch_row_fails():
    """``batch_mix``'s rows hitting PF_MAX_ITER and diverging at steps 12 and 1, each solved
    alone, raise NonConvergence with the step and last finite mismatch of their batch row."""
    nf, dg, start = batch_mix()
    batch = assert_point_matches_batch_row(nf, dg, start)
    for i in (4, 5, 6):
        it, mis = int(batch.iterations[i]), float(batch.mismatch[i])
        what = f"did not converge in {PF_MAX_ITER} iterations" if i == 4 else f"diverged at iteration {it}"
        with pytest.raises(NonConvergence, match=what) as exc:
            solve_power_flow(nf, dg[i])
        assert exc.value.mismatch == pytest.approx(mis, rel=1e-12)
        assert f"{mis:.3e} pu" in str(exc.value)


def test_float_point_singular_like_its_batch_row():
    nf = singular_link()
    res = assert_point_matches_batch_row(nf, np.array([[0.0], [0.1]]))
    assert res.singular.tolist() == [True, False] and res.iterations[0] == 1


@pytest.mark.parametrize("bad", ["theta_inf", "theta_nan", "v_huge", "v_floor"])
def test_float_point_leaves_a_non_finite_start_like_its_batch_row(bad):
    """Where NumPy gives NaN or inf without complaint, Python floats may raise (``math.cos``
    of an infinite angle); the point still leaves as diverged at the step NumPy finds, with the
    same state and last finite mismatch.  Both sum the slack exchange from the slack's own
    flows.  At an infinite angle the float point reports NaN flows and slack sums, which no
    caller reads, so those are left out."""
    rng = np.random.default_rng(3)
    nf = random_tree(rng, 9)
    dg = rng.uniform(0.0, 1.0, size=(2, nf.n_loads))
    v, theta = np.ones((2, nf.n_bus)), np.zeros((2, nf.n_bus))
    bus = int(non_slack(nf)[3])
    if bad == "theta_inf":
        theta[:, bus] = np.inf
    elif bad == "theta_nan":
        theta[:, bus] = np.nan
    elif bad == "v_huge":
        v[:, bus] = 1e200
    else:
        v[:, bus] = 1e-7
    skip = ()
    if bad == "theta_inf":
        skip = ("p_flow", "q_flow", "p_flow_rev", "q_flow_rev", "p_slack", "q_slack")
    res = assert_point_matches_batch_row(nf, dg, (v, theta), skip=skip)
    assert not res.converged.any() and (res.iterations == 0).all()


# ---------------------------------------------------------------------------
# Scalar elimination: a one-point step on a feeder of TREE_MIN_BUSES buses or more
# runs _eliminate in Python floats on NumPy partials, and so does the adjoint.
# Monkeypatching TREE_MIN_BUSES moves a feeder between that path and the one that
# runs the whole step in floats.
# ---------------------------------------------------------------------------

LARGE_FEEDERS = [("linear", 60), ("branched", 30), ("linear", 100), ("branched", 100)]  # 61-201 buses


@pytest.mark.parametrize("layout, n_loads", LARGE_FEEDERS)
@pytest.mark.parametrize("seed", range(3))
def test_scalar_elimination_matches_dense_on_large_feeders(monkeypatch, layout, n_loads, seed):
    """A batch of three against its rows solved alone: by the scalar elimination, by LAPACK on
    the dense Jacobian (``lapack_steps`` in place of ``_chain_step``) and with the whole step in
    floats.  Flags and step counts equal on every row, floats within 1e-10 on the converged ones
    (a diverging row's last state amplifies rounding)."""
    nf = synth_feeder(layout, n_loads)
    assert nf.n_bus >= TREE_MIN_BUSES
    dg = np.random.default_rng(seed).uniform(0.0, 20.0, size=(3, n_loads)) / nf.s_base
    dg[2] *= 500.0
    tree = _solve_batch(nf, dg)
    chain = one_point_calls(nf, dg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(powerflow, "_chain_step", lapack_steps(nf))
        dense = one_point_calls(nf, dg)
    monkeypatch.setattr(powerflow, "TREE_MIN_BUSES", nf.n_bus + 1)
    floats = one_point_calls(nf, dg)
    assert dense.converged.tolist() == [True, True, False] and dense.iterations[2] < PF_MAX_ITER
    for name, want, *got in zip(dense._fields, dense, chain, tree, floats):
        for g in got:
            if want.dtype == float:
                np.testing.assert_allclose(g[:2], want[:2], rtol=0, atol=1e-10, err_msg=name)
            else:
                assert (g == want).all(), name


@pytest.mark.parametrize("seed", range(24))
def test_one_point_answers_hold_the_same_bits_either_side_of_tree_min_buses(monkeypatch, seed):
    """A power flow and its adjoint on a random tree of 48-129 buses, with the NumPy partials
    (TREE_MIN_BUSES at 48) and whole in Python floats (TREE_MIN_BUSES above the bus count):
    every PowerFlowState field and the gradient hold the same bits."""
    rng = np.random.default_rng(seed)
    nf = random_tree(rng, int(rng.integers(48, 130)))
    dg = rng.uniform(0.0, 1.0, nf.n_loads)
    w = rng.normal(size=len(residual_labels(nf)))
    runs = []
    for threshold in (48, nf.n_bus + 1):
        monkeypatch.setattr(powerflow, "TREE_MIN_BUSES", threshold)
        state = solve_power_flow(nf, dg)
        runs.append((state, adjoint_gradient(nf, dg, w, state=state)))
    (numpy_state, numpy_grad), (float_state, float_grad) = runs
    for field in dataclasses.fields(PowerFlowState):
        want, got = (np.asarray(getattr(s, field.name)) for s in (numpy_state, float_state))
        assert got.tobytes() == want.tobytes(), field.name
    assert float_grad.tobytes() == numpy_grad.tobytes()


def tree_case(nf, rng, B=7):
    """Random states, partials and mismatches of a batch of B points on ``nf``."""
    v = rng.uniform(0.9, 1.1, size=(nf.n_bus, B))
    theta = rng.uniform(-0.1, 0.1, size=(nf.n_bus, B))
    d = _flow_partials(nf.plan, _ends(nf.plan, v, theta))
    return d, random_mismatch(nf, rng, B)


def random_mismatch(nf, rng, B):
    """Mismatches (2, n, B) of B points, normal on the non-slack rows and 0.0 on the slack's."""
    ns, F = non_slack(nf), np.zeros((2, nf.n_bus, B))
    F[:, ns] = rng.normal(size=(2 * len(ns), B)).reshape(2, len(ns), B)
    return F


def scalar_steps(plan, d, F, transpose=False):
    """Each point's step (2, n) by _eliminate in Python floats, fed the diagonal blocks the
    row mode sums for the whole batch: the nodal sums round differently at another
    batch size."""
    D = (plan.inc.T @ d[0]).transpose(3, 2, 1, 0)  # (B, bus, P/Q row, theta/V column)
    far = d[1].transpose(3, 2, 1, 0)
    n, out = F.shape[1], []
    for b in range(F.shape[-1]):
        x = _eliminate(plan.chain, D[b].reshape(n, 4).tolist(), far[b].reshape(-1, 4).tolist(),
                       (-F[..., b]).tolist(), transpose)
        out.append(None if x is None else np.array(x))
    return out


def transposed_row_steps(nf, d, F):
    """The steps (2, n, B) solving ``J.T dx = -F`` by one _eliminate over (B,) rows, fed as
    _tree_solve feeds it."""
    plan, ns = nf.plan, non_slack(nf)
    diag, far = (list(zip(a[0, 0], a[1, 0], a[0, 1], a[1, 1])) for a in (plan.inc.T @ d[0], d[1]))
    x = _eliminate(plan.chain, diag, far, [list(r) for r in -F], transpose=True)
    dx = np.zeros_like(F)
    dx[:, ns] = [[z[k] for k in ns] for z in x]
    return dx


def elimination_case(case):
    """``(nf, rng)``: ``random_tree`` of seed k for "tree<k>", else the synthetic
    feeder "<layout>-<n_loads>" and a seeded rng."""
    if case.startswith("tree"):
        rng = np.random.default_rng(int(case[4:]))
        return random_tree(rng), rng
    layout, n_loads = case.split("-")
    return synth_feeder(layout, int(n_loads)), np.random.default_rng(int(n_loads))


@pytest.mark.parametrize("case", [*(f"tree{s}" for s in range(10)), "linear-5", "branched-15",
                                  *(f"{layout}-{n}" for layout, n in LARGE_FEEDERS)])
def test_scalar_elimination_is_bit_identical_to_the_batched_one(case):
    """_eliminate's two modes, (B,) rows and Python floats point by point, give every
    point the same bits, for J and for J.T; _tree_solve is the row mode."""
    nf, rng = elimination_case(case)
    d, F = tree_case(nf, rng)
    dx, singular = _tree_solve(nf.plan, d, F)
    assert not singular.any()
    one, _ = _chain_step(nf.plan, d[..., :1], F[..., :1])
    slack = np.concatenate((dx[:, nf.slack], one[:, nf.slack]), axis=None)
    assert slack.tobytes() == np.zeros_like(slack).tobytes()  # the rows and floats both step it by 0.0
    for b, x in enumerate(scalar_steps(nf.plan, d, F)):
        assert x.tobytes() == dx[..., b].tobytes()
    dx = transposed_row_steps(nf, d, F)
    for b, x in enumerate(scalar_steps(nf.plan, d, F, transpose=True)):
        assert x.tobytes() == dx[..., b].tobytes()


def test_scalar_elimination_flags_the_same_singular_points():
    # the x-only link at theta = 0: V = 0.5 makes the only pivot exactly singular
    nf = mk(2, 0, [(0, 1, 0.0, 0.1)], [1])
    v = np.array([[1.0, 1.0, 1.0], [1.0, 0.5, 0.7]])
    d, F = _flow_partials(nf.plan, _ends(nf.plan, v, np.zeros((2, 3)))), np.ones((2, 2, 3))
    F[:, nf.slack] = 0.0
    with np.errstate(all="ignore"):
        dx, singular = _tree_solve(nf.plan, d, F)
    x = scalar_steps(nf.plan, d, F)
    assert singular.tolist() == [False, True, False] and x[1] is None
    assert x[0].tobytes() == dx[..., 0].tobytes() and x[2].tobytes() == dx[..., 2].tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_row_elimination_flags_exactly_the_singular_points(seed):
    """On a feeder whose leaf hangs off an x-only line, a point with the leaf at half
    its parent's voltage and angle has a pivot with det exactly 0 (2 V cos t = V_parent).
    In a batch of B points the rows flag exactly the points whose float solve meets
    such a pivot, give them dx = 0, and give every other point the bits it gets in a
    batch without them."""
    rng = np.random.default_rng(seed)
    lines = [(0, 1, 0.03, 0.01), (1, 2, 0.02, 0.01), (2, 3, 0.0, 0.1), (1, 4, 0.04, 0.02), (4, 5, 0.0, 0.05)]
    nf = mk(6, 0, lines, [3, 5])
    B = 40
    v, theta = rng.uniform(0.9, 1.1, size=(6, B)), rng.uniform(-0.1, 0.1, size=(6, B))
    v[0], theta[0] = 1.0, 0.0
    at3, at5 = rng.random(B) < 0.3, rng.random(B) < 0.3
    v[3, at3], theta[3, at3] = v[2, at3] / 2, theta[2, at3]
    v[5, at5], theta[5, at5] = v[4, at5] / 2, theta[4, at5]
    d = _flow_partials(nf.plan, _ends(nf.plan, v, theta))
    F = random_mismatch(nf, rng, B)
    with np.errstate(all="ignore"):
        dx, singular = _tree_solve(nf.plan, d, F)
    x = scalar_steps(nf.plan, d, F)
    assert singular.tolist() == [p is None for p in x] == (at3 | at5).tolist()
    assert (dx[..., singular] == 0.0).all()
    regular = ~singular
    alone, none = _tree_solve(nf.plan, np.ascontiguousarray(d[..., regular]), F[..., regular])
    assert not none.any() and dx[..., regular].tobytes() == alone.tobytes()
    assert all(p.tobytes() == dx[..., b].tobytes() for b, p in enumerate(x) if p is not None)


def breadth_first(nf):
    """The buses in breadth-first order from the slack, each visiting its lines in the
    order of their oriented flows (those it starts, then those it ends), and each
    bus's parent."""
    order, parent = [nf.slack], {nf.slack: None}
    for bus in order:
        for nb in [*nf.to_bus[nf.from_bus == bus].tolist(), *nf.from_bus[nf.to_bus == bus].tolist()]:
            if nb not in parent:
                parent[nb] = bus
                order.append(nb)
    return order, parent


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_plan_chain_puts_each_bus_after_its_children(seed, n):
    """Every non-slack bus appears once, after all of its children, with its parent and the
    flows between them; each parent meets its children by height, then in breadth-first
    order; every entry is a Python int."""
    nf = random_tree(np.random.default_rng(seed), n)
    plan = nf.plan
    child, parent, up, down = plan.chain
    assert all(type(x) is int for col in plan.chain for x in col)
    order, par = breadth_first(nf)
    assert sorted(child) == sorted(order[1:]) and len(child) == n - 1
    assert parent == [par[c] for c in child]
    assert plan.at[up].tolist() == child and plan.other[up].tolist() == parent
    assert plan.rev[up].tolist() == down
    place = {bus: i for i, bus in enumerate(child)}
    assert all(place[c] < place[p] for c, p in zip(child, parent) if p != nf.slack)
    height = {bus: 0 for bus in order}
    for bus in reversed(order[1:]):
        height[par[bus]] = max(height[par[bus]], height[bus] + 1)
    for p in set(parent):
        kids = [c for c in child if par[c] == p]
        assert kids == sorted(kids, key=lambda c: (height[c], order.index(c)))


@pytest.mark.parametrize("case", [*(f"tree{s}" for s in range(5)), "branched-30"])
def test_transposed_scalar_elimination_solves_the_transposed_jacobian(case):
    nf, rng = elimination_case(case)
    plan, n, ns = nf.plan, nf.n_bus, non_slack(nf)
    v, theta = rng.uniform(0.9, 1.1, size=(n, 1)), rng.uniform(-0.1, 0.1, size=(n, 1))
    d, F = _flow_partials(plan, _ends(plan, v, theta)), rng.normal(size=(2 * len(ns), 1))
    J = loop_jacobian(nf, v[:, 0], theta[:, 0])
    rhs = np.zeros((2, n))
    rhs[:, ns] = F[:, 0].reshape(2, len(ns))
    diag = (plan.inc.T @ d[0]).transpose(2, 1, 0, 3).reshape(n, 4).tolist()
    x = _eliminate(plan.chain, diag, d[1].transpose(2, 1, 0, 3).reshape(-1, 4).tolist(), rhs.tolist(),
                   transpose=True)
    want = np.linalg.solve(J.T, F[:, 0])
    np.testing.assert_allclose(np.array(x)[:, ns].ravel(), want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("test", [
    test_singular_point_leaves_with_its_state,
    test_singular_jacobian_raises,
    test_mixed_singular_batch_solves_its_regular_point_as_in_a_regular_batch,
    test_adjoint_raises_at_a_singular_state,
])
def test_singular_cases_through_the_scalar_elimination(monkeypatch, test):
    monkeypatch.setattr(powerflow, "TREE_MIN_BUSES", 1)
    test()


def test_one_point_solves_never_call_lapack(monkeypatch):
    """A one-point power flow and adjoint step in Python floats at 7 buses and by the
    scalar elimination at 201: neither calls ``np.linalg.solve``."""
    calls = []
    real = np.linalg.solve

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", spy)
    small, large = synth_feeder("branched", 3, dg_cap_kw=60.0), synth_feeder("branched", 100)
    assert small.n_bus == 7 < TREE_MIN_BUSES <= large.n_bus == 201
    for nf, kw in ((small, 20.0), (large, 10.0)):
        dg = np.full(nf.n_loads, kw) / nf.s_base
        state = solve_power_flow(nf, dg)
        adjoint_gradient(nf, dg, np.ones(len(residual_labels(nf))), state=state)
    np.linalg.solve(np.eye(2), np.ones(2))  # the spy sees a direct call
    assert calls == [(2, 2)]


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

    @pytest.mark.parametrize("make, seed", [
        *(pytest.param(random_chain, s, id=str(s)) for s in range(5)),
        *(pytest.param(random_tree, s, id=f"tree{s}") for s in range(20)),
    ])
    def test_matches_central_differences_by_scalar_elimination(self, monkeypatch, make, seed):
        monkeypatch.setattr(powerflow, "TREE_MIN_BUSES", 1)
        self.test_matches_central_differences(make, seed)

    @pytest.mark.parametrize("n", [TREE_MIN_BUSES - 1, TREE_MIN_BUSES])
    def test_matches_central_differences_at_the_threshold(self, n):
        """Criterion 10's rule on random trees either side of TREE_MIN_BUSES: the whole adjoint
        in floats below it, the scalar elimination on NumPy partials from it."""
        self.test_matches_central_differences(lambda rng: random_tree(rng, n), n)

    @pytest.mark.parametrize("seed", range(8))
    def test_float_adjoint_matches_the_scalar_elimination(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        nf = random_tree(rng, int(rng.integers(3, TREE_MIN_BUSES)))
        dg = rng.uniform(0.0, 1.0, size=nf.n_loads)
        state = solve_power_flow(nf, dg)
        w = rng.normal(size=len(residual_labels(nf)))
        g = adjoint_gradient(nf, dg, w, state=state)
        monkeypatch.setattr(powerflow, "TREE_MIN_BUSES", 1)
        want = adjoint_gradient(nf, dg, w, state=state)
        np.testing.assert_allclose(g, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("layout, n_loads", [("linear", 100), ("branched", 100)])
    def test_large_feeder_matches_central_differences(self, layout, n_loads):
        """Criterion 10's rule at 101 and 201 buses, on six loads spread along the feeder."""
        nf = synth_feeder(layout, n_loads)
        assert nf.n_bus >= TREE_MIN_BUSES
        rng = np.random.default_rng(n_loads)
        dg = rng.uniform(0.0, 20.0, size=n_loads) / nf.s_base
        w = rng.normal(size=len(residual_labels(nf)))
        tol, h = 1e-12, 1e-6
        g = adjoint_gradient(nf, dg, w, tol=tol)
        entries = np.linspace(0, n_loads - 1, 6).astype(int)
        fd = []
        for d in entries:
            e = np.zeros(n_loads)
            e[d] = h
            cp, cm = (constraint_residuals(solve_power_flow(nf, x, tol=tol), nf).as_vector()
                      for x in (dg + e, dg - e))
            fd.append(w @ (cp - cm) / (2.0 * h))
        fd = np.array(fd)
        assert np.max(np.abs(g[entries] - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5

    def test_wrong_weight_shape(self, two_bus):
        with pytest.raises(ValueError):
            adjoint_gradient(two_bus, np.array([0.1]), np.zeros(3))
