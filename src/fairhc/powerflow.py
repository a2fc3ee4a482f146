"""Polar Newton-Raphson AC power flow for radial feeders, plus operational-limit
residuals and adjoint sensitivities of those residuals w.r.t. DG injections.

Each feeder compiles once into a :class:`FeederPlan` (cached as ``nf.plan``):
every line appears as two oriented flows, one measured at each end, and the
plan's index arrays scatter those flows into the nodal sums and the Jacobian.
A Newton step takes cos/sin once per line; the mismatch and the flow partials
both read the terms built from them, and the Jacobian is built by scattering
its structural nonzeros into zeros.  The adjoint shares the partials and the
Jacobian builder.  The Newton core is batched, bus before batch: B injection
vectors are solved together as states (n, B), flows (2, 2L, B) and partials
(2, 2, 2, 2L, B), so gathers select rows and the nodal sums are
``plan.inc.T @ flows``.  Points drop out of the batch as they finish.  A step
solves by :func:`_eliminate`, which eliminates 2x2 bus blocks in the plan's
leaf-first order reading them straight from the flow partials, or by LAPACK on
the dense Jacobian.  :func:`_solve_batch` picks the way once per call, from the
number of points it is given.  A call of two or more points eliminates over (B,)
rows at every step (:func:`_tree_solve`).  A point's results then hold the same
bits whatever its batchmates, except through the steps it takes alone, as far as
NumPy's matmul sums two or more columns alike (measured, not promised).  A
one-point call goes through :func:`_solve_steps`, which eliminates in Python
floats on a feeder of ``TREE_MIN_BUSES`` buses or more and otherwise solves by
LAPACK.  The adjoint's transposed solve is one point and takes the same choice.
The public single-shot API wraps batch size 1.

``_residual_blocks`` is the one place that sets the order of the constraint vector;
:class:`ConstraintResiduals`, the adjoint weights and the labels follow it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonConvergence, SingularJacobian
from .netmodel import NormalizedFeeder

PF_TOL = 1e-8
PF_MAX_ITER = 50
_V_FLOOR = 1e-6  # below this a point is declared diverged
# Buses from which a one-point Newton step, and the adjoint, solve in Python floats
# instead of by LAPACK.  Measured crossover, 2-core Xeon, one BLAS thread: 36-41 buses
# for a power flow and 47-51 for the adjoint.
TREE_MIN_BUSES = 48


@dataclass
class PowerFlowState:
    """Converged operating point in per unit."""

    v: np.ndarray  # (n,) bus voltage magnitudes
    theta: np.ndarray  # (n,) bus angles, rad
    p_flow: np.ndarray  # (L,) sending-end active flow, from-side
    q_flow: np.ndarray  # (L,) sending-end reactive flow, from-side
    p_flow_rev: np.ndarray  # (L,) flow measured at the to-side
    q_flow_rev: np.ndarray
    p_slack: float  # slack active exchange, pu
    q_slack: float
    iterations: int
    max_mismatch: float


@dataclass
class ConstraintResiduals:
    """Limit-minus-value margins; a feasible state has every entry >= 0.

    The fields group the pieces of ``_residual_blocks``, in vector order.
    ``thermal`` and ``angle`` hold both orientations: row 0 is the from-side /
    upper margin, row 1 the to-side / lower margin.
    """

    v_upper: np.ndarray  # (n,)
    v_lower: np.ndarray  # (n,)
    thermal: np.ndarray  # (2, L)
    slack_p: np.ndarray  # (2,) upper, lower exchange margins
    slack_q: np.ndarray  # (2,)
    angle: np.ndarray  # (2, L)

    def as_vector(self) -> np.ndarray:
        return np.concatenate(list(vars(self).values()), axis=None)

    def min(self) -> float:
        return float(self.as_vector().min())


def residual_labels(nf: NormalizedFeeder) -> list[str]:
    """Names matching the order of :meth:`ConstraintResiduals.as_vector`."""
    labels = [f"v_upper[{bid}]" for bid in nf.bus_ids]
    labels += [f"v_lower[{bid}]" for bid in nf.bus_ids]
    lines = [f"{nf.bus_ids[nf.from_bus[l]]}-{nf.bus_ids[nf.to_bus[l]]}" for l in range(nf.n_line)]
    labels += [f"thermal_fwd[{name}]" for name in lines]
    labels += [f"thermal_rev[{name}]" for name in lines]
    labels += ["slack_p_upper", "slack_p_lower", "slack_q_upper", "slack_q_lower"]
    labels += [f"angle_upper[{name}]" for name in lines]
    labels += [f"angle_lower[{name}]" for name in lines]
    return labels


# ---------------------------------------------------------------------------
# Branch flow model.  For a series admittance y = g + jb measured at end m:
#   P_mn = g Vm^2 - Vm Vn (g cos(t) + b sin(t)),  t = theta_m - theta_n
#   Q_mn = -b Vm^2 + Vm Vn (b cos(t) - g sin(t))
# Q is P's expression with (g, b) replaced by (-b, g), so both share one.
# ---------------------------------------------------------------------------

class FeederPlan(NamedTuple):
    """Index arrays of a feeder's power-flow equations, built once per feeder.

    The state is ``(theta[ns], v[ns])`` and the mismatch rows are
    ``(P[ns], Q[ns])``.  Oriented flow ``k < L`` is line ``k`` measured at its
    from-bus; flow ``L + k`` is the same line measured at its to-bus.
    """

    ns: np.ndarray  # (m,) non-slack buses in state order
    pos: np.ndarray  # (n,) state position of each bus, -1 at the slack
    at: np.ndarray  # (2L,) bus where each oriented flow is measured
    other: np.ndarray  # (2L,) bus at the far end
    rev: np.ndarray  # (2L,) the same line measured at the other end, (k + L) % 2L
    g: np.ndarray  # (2, 2L, 1) the conductance in P's row, -b in Q's
    inc: np.ndarray  # (2L, n) 0/1; ``inc.T @ flows`` sums the flows into their measuring bus
    inc_ns: np.ndarray  # (2L, m) the non-slack columns of ``inc``
    off: np.ndarray  # (K,) oriented flows with both ends non-slack
    jac_pos: np.ndarray  # (2, 2, m + K) flat Jacobian position of each value :func:`_jacobian` scatters
    chain: list  # :func:`_eliminate`'s order, four lists of Python ints: the non-slack buses stably
    # sorted by height, so each comes after its children and a parent's children keep breadth-first
    # order; each one's parent; the flow measured at it towards its parent; that flow's reverse


def build_plan(nf: NormalizedFeeder) -> FeederPlan:
    """Plan of ``nf``; read it through the cached ``nf.plan``.

    Assumes a tree: no two lines join the same pair of buses, so each
    off-diagonal Jacobian entry comes from exactly one oriented flow.
    """
    n, L = nf.n_bus, nf.n_line
    ns = np.flatnonzero(np.arange(n) != nf.slack)
    m = len(ns)
    pos = np.full(n, -1)
    pos[ns] = np.arange(m)
    at = np.concatenate([nf.from_bus, nf.to_bus])
    other = np.concatenate([nf.to_bus, nf.from_bus])
    inc = np.zeros((2 * L, n))
    inc[np.arange(2 * L), at] = 1.0
    off = np.flatnonzero((pos[at] >= 0) & (pos[other] >= 0))
    # _jacobian's values per (theta/V column block, P/Q row block): the diagonal
    # (per-bus sums), then one entry per flow in `off`
    rows = np.concatenate([np.arange(m), pos[at[off]]])
    cols = np.concatenate([np.arange(m), pos[other[off]]])
    blk = np.array([0, m])
    jac_pos = (blk[None, :, None] + rows) * (2 * m) + blk[:, None, None] + cols
    rev = (np.arange(2 * L) + L) % (2 * L)
    # breadth first from the slack: the flow measured at each bus towards its parent
    up, order = np.full(n, -1), [nf.slack]
    for bus in order:
        for k in np.flatnonzero(at == bus):
            if other[k] != nf.slack and up[other[k]] < 0:
                up[other[k]] = rev[k]
                order.append(other[k])
    # leaf first: a bus's height, its longest path down to a leaf, exceeds its children's
    parent, height = other[up], np.zeros(n, dtype=int)
    for child in reversed(order[1:]):
        height[parent[child]] = max(height[parent[child]], height[child] + 1)
    kids = np.array(sorted(order[1:], key=height.__getitem__), dtype=int)  # stable: BFS order breaks ties
    chain = [a.tolist() for a in (kids, parent[kids], up[kids], rev[up[kids]])]
    g = np.tile([nf.g, -nf.b], 2)[..., None]
    return FeederPlan(ns, pos, at, other, rev, g, inc, inc[:, ns], off, jac_pos, chain)


def _ends(plan: FeederPlan, v, theta):
    """(Vm, Vn, U) of every oriented flow from states (n, B), with U = g cos t + b sin t
    (2, 2L, B) in P's row and Q's, which the flows and their partials share.  Flow
    ``L + k`` has angle ``-t_k``: as cos is even and sin odd, the forward cos/sin
    give each reverse term bit-identical to its own evaluation."""
    L = len(plan.at) // 2
    t = theta[plan.at[:L]] - theta[plan.other[:L]]
    c, s = np.cos(t), np.sin(t)
    g, nb = plan.g[:, :L]  # g and -b of each line
    gc, nbs, gs, nbc = g * c, nb * s, g * s, nb * c
    u = np.empty((2, 2 * L, *t.shape[1:]))
    np.subtract(gc, nbs, out=u[0, :L])
    np.add(gc, nbs, out=u[0, L:])
    np.add(gs, nbc, out=u[1, :L])
    np.subtract(nbc, gs, out=u[1, L:])
    return v[plan.at], v[plan.other], u


def _flows(plan: FeederPlan, ends):
    """(2, 2L, B): P and Q of every oriented flow."""
    vm, vn, u = ends
    return plan.g * vm**2 - vm * vn * u


def _flow_partials(plan: FeederPlan, ends):
    """(2, 2, 2, 2L, B): partials of every oriented flow w.r.t. its measuring
    end (index 0) and its far end (index 1), then w.r.t. theta and V, then of P and Q."""
    vm, vn, u = ends
    d = np.empty((2, 2, *u.shape))
    vv = vm * vn  # times g sin t - b cos t, which is U[1] in P's row and -U[0] in Q's
    np.multiply(vv, u[1], out=d[0, 0, 0])
    np.multiply(-vv, u[0], out=d[0, 0, 1])
    np.negative(d[0, 0], out=d[1, 0])
    np.subtract(2.0 * plan.g * vm, vn * u, out=d[0, 1])
    np.multiply(-vm, u, out=d[1, 1])
    return d


def _jacobian(plan: FeederPlan, d):
    """Dense (B, 2m, 2m) Jacobian of the non-slack mismatch equations from the flow partials of B states."""
    m = len(plan.ns)
    J = np.zeros((d.shape[-1], 2 * m, 2 * m))
    flat = J.reshape(len(J), -1)
    flat[:, plan.jac_pos[..., :m]] = (plan.inc_ns.T @ d[0]).transpose(3, 0, 1, 2)  # measuring ends, summed per bus
    flat[:, plan.jac_pos[..., m:]] = d[1][..., plan.off, :].transpose(3, 0, 1, 2)  # far ends, one per entry
    return J


def _eliminate(chain, diag, far, rhs, transpose=False):
    """``x`` solving ``J x = rhs``, or ``J.T x = rhs``, for a tree-structured Jacobian: eliminates
    its 2x2 bus blocks leaf first, which creates no fill-in, then substitutes back root first.

    ``diag`` holds a row-major 2x2 block per bus as a 4-sequence and ``far`` one per oriented
    flow; ``rhs`` and ``x`` are a pair of per-bus lists, (theta or P, V or Q).  Every entry is a
    Python float, for one point, or a (B,) row, for B points at once: the arithmetic is the same.
    ``rhs`` and ``diag`` are overwritten, ``diag[k]`` with bus k's pivot factors, its determinant
    last.  A float solve returns None at an exactly singular pivot, as a float divided by zero
    raises; a row gives non-finite entries at its singular points (divide under ``np.errstate``).
    """
    (child, parent, up, down), (r0, r1) = chain, rhs
    if transpose:  # J.T's blocks are J's transposed, with each line's two far-end blocks swapped
        diag[:] = [(a, c, b, d) for a, b, c, d in diag]
        far = [(a, c, b, d) for a, b, c, d in far]
        up, down = down, up
    for k, p, u, w in zip(child, parent, up, down):
        a, b, c, d = diag[k]
        det = a * d - b * c
        try:
            i0, i1, i2, i3 = d / det, -b / det, -c / det, a / det
        except ZeroDivisionError:  # floats only: rows divide under np.errstate
            return None
        e, f, g, h = far[u]
        x0, x1, x2, x3 = i0 * e + i1 * g, i0 * f + i1 * h, i2 * e + i3 * g, i2 * f + i3 * h
        s0, s1 = r0[k], r1[k]
        y0, y1 = i0 * s0 + i1 * s1, i2 * s0 + i3 * s1
        diag[k] = (x0, x1, x2, x3, y0, y1, det)
        e, f, g, h = far[w]
        q0, q1, q2, q3 = diag[p]
        diag[p] = (q0 - (e * x0 + f * x2), q1 - (e * x1 + f * x3),
                   q2 - (g * x0 + h * x2), q3 - (g * x1 + h * x3))
        r0[p] -= e * y0 + f * y1
        r1[p] -= g * y0 + h * y1
    z0, z1 = [0.0] * len(diag), [0.0] * len(diag)  # the slack's entries stay zero
    for k, p in zip(child[::-1], parent[::-1]):
        x0, x1, x2, x3, y0, y1, _ = diag[k]
        s0, s1 = z0[p], z1[p]
        z0[k], z1[k] = y0 - (x0 * s0 + x1 * s1), y1 - (x2 * s0 + x3 * s1)
    return z0, z1


def _tree_solve(plan: FeederPlan, d, F):
    """Newton steps ``dx`` (2m, B) solving ``J dx = -F`` for B states by one :func:`_eliminate`
    over (B,) rows, and which points are singular; those get ``dx = 0``.  The elimination is
    elementwise over the rows; the nodal sums are matmuls, which on the NumPy and OpenBLAS
    builds measured rounded alike for 2 to 300 columns, and otherwise for one."""
    B, n, m = F.shape[-1], len(plan.pos), len(plan.ns)
    # row-major blocks from the partials' entry-first (theta/V column, P/Q row) layout; the
    # slack's diagonal block absorbs its children's updates unread
    diag, far = (list(zip(a[0, 0], a[1, 0], a[0, 1], a[1, 1])) for a in (plan.inc.T @ d[0], d[1]))
    r = np.zeros((2, n, B))
    r[:, plan.ns] = -F.reshape(2, m, B)
    x = _eliminate(plan.chain, diag, far, [list(r[0]), list(r[1])])
    singular = np.any([diag[k][-1] == 0 for k in plan.chain[0]], axis=0)  # a pivot's determinant is 0
    dx = np.array([z[k] for z in x for k in plan.ns.tolist()])
    dx[:, singular] = 0.0
    return dx, singular


def _chain_step(plan: FeederPlan, d, F, transpose=False):
    """The step (2m, 1) solving ``J dx = -F``, or ``J.T dx = -F``, at one point by :func:`_eliminate`
    in Python floats; None where the system is singular."""
    n, m = len(plan.pos), len(plan.ns)
    # entry first (theta/V column, P/Q row) to row-major blocks
    diag, far = (a[..., 0].transpose(2, 1, 0).reshape(-1, 4).tolist() for a in (plan.inc.T @ d[0], d[1]))
    rhs = np.zeros((2, n))
    rhs[:, plan.ns] = -F.reshape(2, m)
    x = _eliminate(plan.chain, diag, far, rhs.tolist(), transpose)
    return None if x is None else np.array(x)[:, plan.ns].reshape(2 * m, 1)


def _solve_steps(plan: FeederPlan, d, F, transpose=False):
    """``(dx, singular)`` at one point: the step ``dx`` (2m, 1) solving ``J dx = -F``, or
    ``J.T dx = -F``, and whether the system is singular; a singular one gets ``dx = 0``.

    By :func:`_chain_step` on a feeder of ``TREE_MIN_BUSES`` buses or more, else by LAPACK on
    the dense Jacobian, whose LU raises exactly where it meets a zero pivot.
    """
    if len(plan.pos) >= TREE_MIN_BUSES:
        dx = _chain_step(plan, d, F, transpose)
    else:
        J = _jacobian(plan, d)[0]
        try:
            dx = np.linalg.solve(J.T if transpose else J, -F)
        except np.linalg.LinAlgError:
            dx = None
    if dx is None:
        return np.zeros_like(F), np.ones(1, dtype=bool)
    return dx, np.zeros(1, dtype=bool)


class _BatchResult(NamedTuple):
    """Raw arrays from a batched Newton solve, shapes leading with batch size (states and flows
    are views of bus-first arrays); the first ten fields are those of :class:`PowerFlowState`."""

    v: np.ndarray
    theta: np.ndarray
    p_flow: np.ndarray
    q_flow: np.ndarray
    p_flow_rev: np.ndarray
    q_flow_rev: np.ndarray
    p_slack: np.ndarray
    q_slack: np.ndarray
    iterations: np.ndarray
    mismatch: np.ndarray
    converged: np.ndarray
    singular: np.ndarray


def _solve_batch(nf: NormalizedFeeder, dg: np.ndarray, tol: float = PF_TOL,
                 start: tuple[np.ndarray, np.ndarray] | None = None) -> _BatchResult:
    """Newton from ``start = (v, theta)``, each ``(B, n)`` with the slack at 1
    and 0, or from a flat start.  Two or more points step by :func:`_tree_solve`
    to the end, one point by :func:`_solve_steps`.

    ``iterations`` holds the step at which each point converged, diverged,
    turned singular or hit ``PF_MAX_ITER``; ``mismatch`` its last finite mismatch.
    """
    plan = nf.plan
    ns = plan.ns
    B, n, L, m = dg.shape[0], nf.n_bus, nf.n_line, len(ns)
    inj = np.zeros((2, n, B))
    inj[0, nf.load_bus] = (dg - nf.p_demand).T
    inj[1, nf.load_bus] -= nf.q_demand[:, None]

    if start is None:
        va, ta = np.ones((n, B)), np.zeros((n, B))
    else:
        va, ta = (np.array(np.transpose(a), dtype=float, order="C") for a in start)
    v, theta = np.empty((2, n, B))
    pq = np.empty((2, 2 * L, B))
    step = _tree_solve if B > 1 else _solve_steps
    converged, singular = np.zeros((2, B), dtype=bool)
    iterations = np.zeros(B, dtype=int)
    mismatch = np.full(B, np.inf)

    # The undecided points, compacted whenever one leaves: when it converges,
    # diverges or hits PF_MAX_ITER, and one step after its Jacobian turned out
    # singular (its state unchanged).  A point's results are written as it leaves.
    idx, inj_a, last, sing = np.arange(B), inj[:, ns].reshape(2 * m, B), mismatch.copy(), singular.copy()
    with np.errstate(all="ignore"):
        for it in range(PF_MAX_ITER + 1):
            ends = _ends(plan, va, ta)
            flows = _flows(plan, ends)
            F = (plan.inc.T @ flows)[:, ns].reshape(2 * m, -1) - inj_a
            # NaN or inf where F is not finite
            mis = np.abs(F).max(axis=0) if m > 0 else np.zeros(len(idx))
            finite = np.isfinite(mis)
            bad = ~finite | (va[ns].min(axis=0) < _V_FLOOR)
            last = np.where(finite, mis, last)
            conv = ~bad & (mis < tol)
            leave = conv | bad | sing | (it == PF_MAX_ITER)
            if leave.any():
                out, keep = idx[leave], ~leave
                v[:, out], theta[:, out], pq[..., out] = va[:, leave], ta[:, leave], flows[..., leave]
                iterations[out] = it - sing[leave]
                mismatch[out], converged[out], singular[out] = last[leave], conv[leave], sing[leave]
                idx, va, ta, inj_a, last, sing, F = (a[..., keep] for a in (idx, va, ta, inj_a, last, sing, F))
                ends = tuple(a[..., keep] for a in ends)
            if len(idx) == 0:
                break
            dx, sing = step(plan, _flow_partials(plan, ends), F)
            ta[ns] += dx[:m]
            va[ns] += dx[m:]

        p_slack, q_slack = (plan.inc.T @ pq)[:, nf.slack]
    p, q = pq.swapaxes(1, 2)
    return _BatchResult(
        v.T, theta.T, p[:, :L], q[:, :L], p[:, L:], q[:, L:],
        p_slack, q_slack, iterations, mismatch, converged, singular,
    )


def solve_power_flow(nf: NormalizedFeeder, dg: np.ndarray, tol: float = PF_TOL) -> PowerFlowState:
    """Newton-Raphson solution of the nodal balances from a flat start.

    ``dg`` holds the per-load active injections in pu (DG runs at unity power factor).
    """
    dg = np.atleast_1d(np.asarray(dg, dtype=float))
    if dg.shape != (nf.n_loads,):
        raise ValueError(f"dg must have shape ({nf.n_loads},)")
    if not np.isfinite(dg).all():
        raise ValueError("dg must be finite")
    res = _solve_batch(nf, dg[None, :], tol=tol)
    if res.singular[0]:
        raise SingularJacobian("power-flow Jacobian became singular")
    if not res.converged[0]:
        it, mis = int(res.iterations[0]), float(res.mismatch[0])
        what = (f"did not converge in {PF_MAX_ITER} iterations" if it == PF_MAX_ITER
                else f"diverged at iteration {it}")
        raise NonConvergence(f"power flow {what} (last finite mismatch {mis:.3e} pu)",
                             mismatch=mis)
    row = (field[0] for field in res[:10])
    return PowerFlowState(*(x if x.ndim else x.item() for x in row))


# ---------------------------------------------------------------------------
# Constraint residuals
# ---------------------------------------------------------------------------

def _residual_blocks(nf: NormalizedFeeder, s):
    """The residuals of a :class:`PowerFlowState` or a :class:`_BatchResult`, one piece at a time
    in vector order: voltage upper and lower, thermal from- and to-side, slack P and Q upper and
    lower, angle upper and lower.  A batch adds its leading axis to every piece."""
    fb, tb = nf.from_bus, nf.to_bus
    s2 = nf.s_rated**2
    yield nf.v_max - s.v
    yield s.v - nf.v_min
    yield s2 - (s.p_flow**2 + s.q_flow**2)
    yield s2 - (s.p_flow_rev**2 + s.q_flow_rev**2)
    yield nf.slack_p_max - s.p_slack
    yield s.p_slack + nf.slack_p_max
    yield nf.slack_q_max - s.q_slack
    yield s.q_slack + nf.slack_q_max
    dth = s.theta[..., fb] - s.theta[..., tb]
    yield nf.dtheta_max[fb] - dth
    yield dth - nf.dtheta_min[fb]


def constraint_residuals(state: PowerFlowState, nf: NormalizedFeeder) -> ConstraintResiduals:
    """Margins of Ohm/Kirchhoff-feasible state against every operational limit."""
    vu, vl, tf, tr, pu, pl, qu, ql, au, al = _residual_blocks(nf, state)
    return ConstraintResiduals(vu, vl, np.array([tf, tr]), np.array([pu, pl]), np.array([qu, ql]),
                               np.array([au, al]))


def residual_min_batch(nf: NormalizedFeeder, res: _BatchResult) -> np.ndarray:
    """Per-point minimum residual for a batched solve (used by the grid oracle); each piece is
    reduced as it is formed, so no stacked copy is made."""
    return functools.reduce(np.minimum, (r.reshape(len(r), -1).min(axis=1) for r in _residual_blocks(nf, res)))


# ---------------------------------------------------------------------------
# Adjoint gradient
# ---------------------------------------------------------------------------

def adjoint_gradient(nf: NormalizedFeeder, dg: np.ndarray, weights: np.ndarray,
                     tol: float = PF_TOL, state: PowerFlowState | None = None) -> np.ndarray:
    """Gradient of weights . residuals w.r.t. the DG active injections.

    One transposed-Jacobian solve at the converged state; ``weights`` follows
    the :meth:`ConstraintResiduals.as_vector` ordering.  A pre-solved ``state``
    at the same ``dg`` may be passed to skip the embedded power flow.
    """
    dg = np.asarray(dg, dtype=float)
    if state is None:
        state = solve_power_flow(nf, dg, tol=tol)
    n, L = nf.n_bus, nf.n_line
    weights = np.asarray(weights, dtype=float)
    expected = 2 * n + 4 * L + 4
    if weights.shape != (expected,):
        raise ValueError(f"weights must have shape ({expected},)")
    o = 2 * (n + L)  # the slack blocks start after v_upper, v_lower and thermal
    w_vu, w_vl, w_th = weights[:n], weights[n:2 * n], weights[2 * n:o]
    w_ps, w_qs, w_ang = weights[o + 1] - weights[o], weights[o + 3] - weights[o + 2], weights[o + 4:]
    plan = nf.plan

    # weight on each oriented flow's P and Q: thermal s^2 - (P^2 + Q^2), and the
    # slack exchange, which is the sum of the flows measured at the slack
    at_slack = plan.at == nf.slack
    c_p = -2.0 * w_th * np.concatenate([state.p_flow, state.p_flow_rev]) + w_ps * at_slack
    c_q = -2.0 * w_th * np.concatenate([state.q_flow, state.q_flow_rev]) + w_qs * at_slack
    d = _flow_partials(plan, _ends(plan, state.v[:, None], state.theta[:, None]))
    dw = c_p * d[:, :, 0, :, 0] + c_q * d[:, :, 1, :, 0]  # (measuring end, far end) x (theta, v)
    # the far end of flow k is the measuring end of its reverse
    per_flow = dw[0] + dw[1].take(plan.rev, axis=1)
    per_flow[0] += w_ang[plan.rev] - w_ang  # angle margins on theta_from - theta_to
    rhs = per_flow @ plan.inc
    rhs[1] += w_vl - w_vu
    lam, singular = _solve_steps(plan, d, -rhs.take(plan.ns, axis=1).reshape(-1, 1), transpose=True)
    if singular[0]:
        raise SingularJacobian("adjoint system is singular")
    return lam.take(plan.pos.take(nf.load_bus))  # lam is one column
