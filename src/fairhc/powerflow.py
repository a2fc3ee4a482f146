"""Polar Newton-Raphson AC power flow for radial feeders, plus operational-limit
residuals and adjoint sensitivities of those residuals w.r.t. DG injections.

Each feeder compiles once into a :class:`FeederPlan` (cached as ``nf.plan``):
every line appears as two oriented flows, one measured at each end.  A Newton
step takes cos/sin once per line; the mismatch and the flow partials both read
the terms built from them, and the adjoint shares the partials.  Every linear
solve is :func:`_eliminate`, which eliminates 2x2 bus blocks in the plan's
leaf-first order, reading the diagonal blocks as per-bus sums of the partials
and the off-diagonal ones straight from them; no Jacobian is ever assembled.

The Newton core is batched, bus before batch: B injection vectors are solved
together as states and mismatches (2, n, B), flows (2, 2L, B) and partials
(2, 2, 2, 2L, B), so gathers select rows.  Every path keeps that one per-bus
layout, with the slack's mismatch and step rows at zero.  A NumPy step sums the
flows into the mismatch by ``plan.inc.T @ flows``, and the partials into the
diagonal blocks the same way for a batch and by ``np.bincount`` for one point;
the slack's P and Q add its own flows.  Points drop out of the batch as they
finish.  :func:`_solve_batch` picks the way once per call, from the number of
points and buses.  Two or more points eliminate over (B,) rows at every step
(:func:`_tree_solve`).  A point's
results then hold the same bits whatever its batchmates, except through the
steps it takes alone, as far as NumPy's matmul sums two or more columns alike
(measured, not promised).  A one-point call on a feeder below
``TREE_MIN_BUSES`` buses runs whole in Python floats (:func:`_solve_point`),
every step from per-line constants in the plan with no NumPy call in the loop.
From ``TREE_MIN_BUSES`` buses the NumPy partials win, and a one-point step
eliminates them in floats (:func:`_chain_step`).  The adjoint chooses alike how
to build its blocks and right-hand side, then runs one transposed elimination.
Both ways add in the same order, so a one-point flow and its adjoint hold the
same bits on either side of ``TREE_MIN_BUSES`` (measured on random trees).  The
public single-shot API wraps batch size 1.

``_residual_blocks`` is the one place that sets the order of the constraint vector;
:class:`ConstraintResiduals`, the adjoint weights and the labels follow it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonConvergence, SingularJacobian
from .netmodel import NormalizedFeeder

PF_TOL = 1e-8
PF_MAX_ITER = 50
_V_FLOOR = 1e-6  # below this a point is declared diverged
# Buses from which a one-point Newton step, and the adjoint, build their flows and
# partials in NumPy rather than in Python floats.  Measured crossover for a power flow
# plus its adjoint, synthetic feeders, 2-core Xeon, one BLAS thread: 41-46 buses at two
# Newton steps per flow, 45-53 at four.  Below it the adjoint builds its right-hand side in
# floats too (in :func:`adjoint_gradient`): from the NumPy partials an adjoint took 77-97 us
# against 37-60 us at 6-11 buses, and the benchmark's policy_mix and frontier_cli ran
# 14-16 % longer end to end.
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

    The state and the mismatch are per bus, ``(theta, V)`` and ``(P, Q)`` of shape (2, n, B)
    with the slack's rows at zero.  Oriented flow ``k < L`` is line ``k`` measured at its
    from-bus; flow ``L + k`` is the same line measured at its to-bus.
    """

    at: np.ndarray  # (2L,) bus where each oriented flow is measured
    other: np.ndarray  # (2L,) bus at the far end
    rev: np.ndarray  # (2L,) the same line measured at the other end, (k + L) % 2L
    g: np.ndarray  # (2, 2L, 1) the conductance in P's row, -b in Q's
    inc: np.ndarray  # (2L, n) 0/1; ``inc.T @ flows`` sums the flows into their measuring bus
    rhs_at: np.ndarray  # (n + 4L,) slots of the adjoint's right-hand side, theta rows then V rows, in the
    # order the float adjoint adds them: the V start values, then each flow's (measuring, far) ends in theta, in V
    chain: list  # :func:`_eliminate`'s order, four lists of Python ints: the non-slack buses stably
    # sorted by height, so each comes after its children and a parent's children keep breadth-first
    # order; each one's parent; the flow measured at it towards its parent; that flow's reverse
    lines: list  # per line (from, to, g, -b, 2g, -2b) as Python ints and floats, for :func:`_point_terms`


def build_plan(nf: NormalizedFeeder) -> FeederPlan:
    """Plan of ``nf``; read it through the cached ``nf.plan``.  Assumes a tree."""
    n, L = nf.n_bus, nf.n_line
    at = np.concatenate([nf.from_bus, nf.to_bus])
    other = np.concatenate([nf.to_bus, nf.from_bus])
    inc = np.zeros((2 * L, n))
    inc[np.arange(2 * L), at] = 1.0
    rev = (np.arange(2 * L) + L) % (2 * L)
    ends = np.column_stack((at, other)).ravel()
    rhs_at = np.concatenate((n + np.arange(n), ends, n + ends))
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
    lines = list(zip(*(a.tolist() for a in (nf.from_bus, nf.to_bus, nf.g, -nf.b, 2.0 * nf.g, -2.0 * nf.b))))
    return FeederPlan(at, other, rev, g, inc, rhs_at, chain, lines)


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


def _point_terms(plan: FeederPlan, v: list, th: list):
    """Flows, flow partials and their nodal sums for one point in Python floats, from per-bus
    lists ``v`` and ``th``, by the expressions of :func:`_flows` and :func:`_flow_partials`.

    Returns ``(p, q, own, far, P, Q, diag)``: per oriented flow its P and Q and its partials
    w.r.t. its measuring end and its far end as row-major 2x2 blocks, as :func:`_eliminate`
    reads them; then per bus the summed P, Q and measuring-end blocks.  The sums run in
    oriented-flow order, the order in which the batch's matmul was measured to add them.
    ``math.cos`` raises ValueError at an infinite angle.
    """
    cos, sin = math.cos, math.sin
    p, q, own, far = [], [], [], []
    pr, qr, own_r, far_r = [], [], [], []  # the reverse flows, appended after the forward ones
    for f, t, g, nb, g2, nb2 in plan.lines:
        vf, vt = v[f], v[t]
        x = th[f] - th[t]
        c, s = cos(x), sin(x)
        gc, nbs, gs, nbc = g * c, nb * s, g * s, nb * c
        u0, u1, w0, w1 = gc - nbs, gs + nbc, gc + nbs, nbc - gs  # U of the forward flow, then the reverse
        vv = vf * vt
        a0, a1, b0, b1 = vv * u0, vv * u1, vv * w0, vv * w1
        p.append(g * (vf * vf) - a0)
        q.append(nb * (vf * vf) - a1)
        own.append((a1, g2 * vf - vt * u0, -a0, nb2 * vf - vt * u1))
        far.append((-a1, -(vf * u0), a0, -(vf * u1)))
        pr.append(g * (vt * vt) - b0)
        qr.append(nb * (vt * vt) - b1)
        own_r.append((b1, g2 * vt - vf * w0, -b0, nb2 * vt - vf * w1))
        far_r.append((-b1, -(vt * w0), b0, -(vt * w1)))
    p, q, own, far = p + pr, q + qr, own + own_r, far + far_r
    P, Q, D0, D1, D2, D3 = ([0.0] * len(v) for _ in range(6))
    for k, pk, qk, (o0, o1, o2, o3) in zip(plan.at.tolist(), p, q, own):
        P[k] += pk
        Q[k] += qk
        D0[k] += o0
        D1[k] += o1
        D2[k] += o2
        D3[k] += o3
    return p, q, own, far, P, Q, list(zip(D0, D1, D2, D3))


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
    """Newton steps ``dx`` (2, n, B) solving ``J dx = -F`` for B states by one :func:`_eliminate`
    over (B,) rows, and which points are singular; those get ``dx = 0``, as the slack's rows do.
    The elimination is elementwise over the rows; the nodal sums are matmuls, which on the NumPy
    and OpenBLAS builds measured rounded alike for 2 to 300 columns, and otherwise for one."""
    # row-major blocks from the partials' entry-first (theta/V column, P/Q row) layout; the
    # slack's diagonal block and right-hand side absorb its children's updates unread
    diag, far = (list(zip(a[0, 0], a[1, 0], a[0, 1], a[1, 1])) for a in (plan.inc.T @ d[0], d[1]))
    x, kids = _eliminate(plan.chain, diag, far, [list(r) for r in -F]), plan.chain[0]
    singular = np.any([diag[k][-1] == 0 for k in kids], axis=0)  # a pivot's determinant is 0
    dx = np.zeros_like(F)
    dx[:, kids] = [[z[k] for k in kids] for z in x]  # (B,) rows; the slack's entries are the float 0.0
    dx[..., singular] = 0.0
    return dx, singular


def _point_blocks(plan: FeederPlan, d):
    """One point's ``(diag, far)`` for :func:`_eliminate` in floats from NumPy partials: per-bus
    sums of the measuring-end partials in flow order, and the far-end ones, as row-major blocks."""
    n = plan.inc.shape[1]
    sums = np.stack([np.bincount(plan.at, x, n) for x in d[0, ..., 0].reshape(4, -1)])
    diag = sums.reshape(2, 2, n).transpose(2, 1, 0).reshape(-1, 4).tolist()
    return diag, d[1, ..., 0].transpose(2, 1, 0).reshape(-1, 4).tolist()


def _chain_step(plan: FeederPlan, d, F):
    """``(dx, singular)`` at one point: the step ``dx`` (2, n, 1) solving ``J dx = -F`` by
    :func:`_eliminate` in Python floats from NumPy partials, and whether the system is singular;
    a singular one gets ``dx = 0``."""
    x = _eliminate(plan.chain, *_point_blocks(plan, d), (-F[..., 0]).tolist())
    if x is None:
        return np.zeros_like(F), np.ones(1, dtype=bool)
    return np.array(x)[..., None], np.zeros(1, dtype=bool)


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
    to the end, one point by :func:`_solve_point` below ``TREE_MIN_BUSES`` buses
    and by :func:`_chain_step` from it.

    ``iterations`` holds the step at which each point converged, diverged,
    turned singular or hit ``PF_MAX_ITER``; ``mismatch`` its last finite mismatch.
    """
    plan = nf.plan
    B, n, L = dg.shape[0], nf.n_bus, nf.n_line
    if B == 1 and n < TREE_MIN_BUSES:
        return _solve_point(nf, dg[0], tol, start)
    inj = np.zeros((2, n, B))
    inj[0, nf.load_bus] = (dg - nf.p_demand).T
    inj[1, nf.load_bus] -= nf.q_demand[:, None]

    if start is None:
        va, ta = np.ones((n, B)), np.zeros((n, B))
    else:
        va, ta = (np.array(np.transpose(a), dtype=float, order="C") for a in start)
    v, theta = np.empty((2, n, B))
    pq = np.empty((2, 2 * L, B))
    step = _tree_solve if B > 1 else _chain_step
    converged, singular = np.zeros((2, B), dtype=bool)
    iterations = np.zeros(B, dtype=int)
    mismatch = np.full(B, np.inf)

    # The undecided points, compacted whenever one leaves: when it converges,
    # diverges or hits PF_MAX_ITER, and one step after its Jacobian turned out
    # singular (its state unchanged).  A point's results are written as it leaves.
    idx, inj_a, last, sing = np.arange(B), inj, mismatch.copy(), singular.copy()
    with np.errstate(all="ignore"):
        for it in range(PF_MAX_ITER + 1):
            ends = _ends(plan, va, ta)
            flows = _flows(plan, ends)
            F = plan.inc.T @ flows - inj_a
            F[:, nf.slack] = 0.0  # the slack's rows are not equations
            mis = np.abs(F).max(axis=(0, 1))  # NaN or inf where F is not finite
            finite = np.isfinite(mis)
            bad = ~finite | (va.min(axis=0) < _V_FLOOR)  # the slack's V is 1
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
            ta += dx[0]
            va += dx[1]

        # the slack's own flows in flow order, as _solve_point adds them
        p_slack, q_slack = sum((pq[:, k] for k in np.flatnonzero(plan.at == nf.slack)), np.zeros((2, B)))
    p, q = pq.swapaxes(1, 2)
    return _BatchResult(
        v.T, theta.T, p[:, :L], q[:, :L], p[:, L:], q[:, L:],
        p_slack, q_slack, iterations, mismatch, converged, singular,
    )


def _solve_point(nf: NormalizedFeeder, dg: np.ndarray, tol: float, start) -> _BatchResult:
    """:func:`_solve_batch` for one point, every step in Python floats: the flows, the mismatch,
    the partials, :func:`_eliminate` and the state update.  It stops where the batch would and
    reports the same fields, except that a step whose angle turned infinite leaves as diverged
    with NaN flows and slack sums: no caller uses the flows of a point that did not converge."""
    plan = nf.plan
    n, kids, slack = nf.n_bus, plan.chain[0], nf.slack
    ip, iq = [0.0] * n, [0.0] * n
    for bus, pg, pd, qd in zip(nf.load_bus.tolist(), dg.tolist(), nf.p_demand.tolist(), nf.q_demand.tolist()):
        ip[bus], iq[bus] = pg - pd, 0.0 - qd
    v, th = ([1.0] * n, [0.0] * n) if start is None else (np.asarray(a, dtype=float)[0].tolist() for a in start)
    last, singular, converged = math.inf, False, False
    for it in range(PF_MAX_ITER + 1):
        try:
            p, q, _, far, P, Q, diag = _point_terms(plan, v, th)
        except ValueError:  # cos of an infinite angle, where NumPy's mismatch is NaN
            p = q = [math.nan] * (2 * nf.n_line)
            P = Q = [math.nan] * n
            break
        r0 = [a - b for a, b in zip(ip, P)]  # -F; the slack's rows are not equations
        r1 = [a - b for a, b in zip(iq, Q)]
        r0[slack] = r1[slack] = 0.0
        size = list(map(abs, r0 + r1))
        mis, total = max(size), sum(size)
        if not (mis < math.inf and total == total):  # an inf or a NaN; max may skip a NaN
            break
        last = mis
        if min(map(v.__getitem__, kids), default=1.0) < _V_FLOOR:
            break
        converged = mis < tol
        if converged or it == PF_MAX_ITER:
            break
        x = _eliminate(plan.chain, diag, far, [r0, r1])
        if x is None:
            singular = True
            break
        z0, z1 = x
        for k in kids:
            th[k] += z0[k]
            v[k] += z1[k]
    L, pq, state = nf.n_line, np.array([p, q]), np.array([v, th])
    p_slack, q_slack, mismatch = np.array([[P[slack]], [Q[slack]], [last]])
    return _BatchResult(state[:1], state[1:], pq[:1, :L], pq[1:, :L], pq[:1, L:], pq[1:, L:], p_slack, q_slack,
                        np.array([it]), mismatch, np.array([converged]), np.array([singular]))


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
    at the same ``dg`` may be passed to skip the embedded power flow.  The blocks and
    right-hand side come in floats from :func:`_point_terms` below ``TREE_MIN_BUSES``
    buses, else from the NumPy partials; then one :func:`_eliminate` solves ``J.T``.
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
    angle = w_ang[plan.rev] - w_ang  # angle margins on theta_from - theta_to
    # the right-hand side, the weighted residuals' gradient w.r.t. the state: each flow's weighted
    # partials land on both its ends, the far end's theta partials the measuring end's negated
    if n < TREE_MIN_BUSES:  # in Python floats
        _, _, own, far, _, _, diag = _point_terms(plan, state.v.tolist(), state.theta.tolist())
        R0, R1 = [0.0] * n, (w_vl - w_vu).tolist()
        for a, o, (o0, o1, o2, o3), (_, f1, _, f3), cp, cq, ang in zip(
                plan.at.tolist(), plan.other.tolist(), own, far, c_p.tolist(), c_q.tolist(), angle.tolist()):
            t0 = cp * o0 + cq * o2
            R0[a] += t0 + ang
            R1[a] += cp * o1 + cq * o3
            R0[o] -= t0
            R1[o] += cp * f1 + cq * f3
        rhs = [R0, R1]
    else:  # from the NumPy partials, summed in the same order
        d = _flow_partials(plan, _ends(plan, state.v[:, None], state.theta[:, None]))
        dw = c_p * d[:, :, 0, :, 0] + c_q * d[:, :, 1, :, 0]  # (measuring end, far end) x (theta, v)
        dw[0, 0] += angle
        terms = np.concatenate((w_vl - w_vu, dw.transpose(1, 2, 0).ravel()))  # in plan.rhs_at's order
        rhs = np.bincount(plan.rhs_at, terms, 2 * n).reshape(2, n).tolist()
        diag, far = _point_blocks(plan, d)
    x = _eliminate(plan.chain, diag, far, rhs, transpose=True)
    if x is None:
        raise SingularJacobian("adjoint system is singular")
    return np.array(x[0])[nf.load_bus]
