"""Polar Newton-Raphson AC power flow for radial feeders, plus operational-limit
residuals and adjoint sensitivities of those residuals w.r.t. DG injections.

Each feeder compiles once into a :class:`FeederPlan` (cached as ``nf.plan``):
every line appears as two oriented flows, one measured at each end, and the
plan's index arrays scatter those flows into the nodal sums and the Jacobian.
Newton and the adjoint share the flow partials and the Jacobian builder.  The
Newton core is batched: a stack of injection vectors is solved simultaneously
with a dense batched linear solve.  The public single-shot API wraps batch size 1.

``_residual_blocks`` is the one place that sets the order of the constraint vector;
:class:`ConstraintResiduals`, the adjoint weights and the labels follow it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonConvergence, SingularJacobian
from .netmodel import NormalizedFeeder

PF_TOL = 1e-8
PF_MAX_ITER = 50
_V_FLOOR = 1e-6  # below this a point is declared diverged


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

    The fields are the blocks of ``_residual_blocks``, in vector order.
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
# ---------------------------------------------------------------------------

class FeederPlan(NamedTuple):
    """Index arrays of a feeder's power-flow equations, built once per feeder.

    The state is ``(theta[ns], v[ns])`` and the mismatch rows are
    ``(P[ns], Q[ns])``.  Oriented flow ``k < L`` is line ``k`` measured at its
    from-bus; flow ``L + k`` is the same line measured at its to-bus, so the
    reverse of flow ``k`` is flow ``(k + L) % 2L``.
    """

    ns: np.ndarray  # (m,) non-slack buses in state order
    pos: np.ndarray  # (n,) state position of each bus, -1 at the slack
    at: np.ndarray  # (2L,) bus where each oriented flow is measured
    other: np.ndarray  # (2L,) bus at the far end
    g: np.ndarray  # (2L,)
    b: np.ndarray  # (2L,)
    inc: np.ndarray  # (2L, n) 0/1; ``flows @ inc`` sums the flows into their measuring bus
    off: np.ndarray  # (K,) oriented flows with both ends non-slack
    jac_src: np.ndarray  # (2m, 2m) column of :func:`_jacobian`'s per-point values each entry reads


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
    # _jacobian lays its values out as (block, 1 + m + K) for the blocks P-theta,
    # P-V, Q-theta, Q-V: a zero, the diagonal (per-bus sums), one entry per flow in `off`
    rows = np.concatenate([np.arange(m), pos[at[off]]]) + np.array([[0], [0], [m], [m]])
    cols = np.concatenate([np.arange(m), pos[other[off]]]) + np.array([[0], [m], [0], [m]])
    jac_src = np.zeros((2 * m, 2 * m), dtype=int)  # structural zeros read column 0
    jac_src[rows, cols] = np.arange(4 * (1 + m + len(off))).reshape(4, -1)[:, 1:]
    return FeederPlan(ns, pos, at, other, np.tile(nf.g, 2), np.tile(nf.b, 2), inc, off, jac_src)


def _ends(plan: FeederPlan, v, theta):
    """(Vm, Vn, cos t, sin t) of every oriented flow."""
    t = theta[..., plan.at] - theta[..., plan.other]
    return v[..., plan.at], v[..., plan.other], np.cos(t), np.sin(t)


def _flows(plan: FeederPlan, v, theta):
    """(2, ..., 2L): P and Q of every oriented flow."""
    vm, vn, c, s = _ends(plan, v, theta)
    g, b = plan.g, plan.b
    return np.array([g * vm**2 - vm * vn * (g * c + b * s), -b * vm**2 + vm * vn * (b * c - g * s)])


def _flow_partials(plan: FeederPlan, v, theta):
    """(4, 2, ..., 2L): d/dtheta P, d/dV P, d/dtheta Q, d/dV Q of every oriented
    flow, each w.r.t. the measuring end (column 0) and the far end (column 1)."""
    vm, vn, c, s = _ends(plan, v, theta)
    g, b = plan.g, plan.b
    dp_dtm = vm * vn * (g * s - b * c)
    dq_dtm = -vm * vn * (b * s + g * c)
    return np.array([
        [dp_dtm, -dp_dtm],
        [2.0 * g * vm - vn * (g * c + b * s), -vm * (g * c + b * s)],
        [dq_dtm, -dq_dtm],
        [-2.0 * b * vm + vn * (b * c - g * s), vm * (b * c - g * s)],
    ])


def _jacobian(plan: FeederPlan, d):
    """Dense (B, 2m, 2m) Jacobian of the non-slack mismatch equations from the
    (4, 2, B, 2L) flow partials of B states."""
    diag = d[:, 0] @ plan.inc[:, plan.ns]  # measuring-end partials summed per bus
    off = d[:, 1][..., plan.off]  # far-end partials, one per off-diagonal entry
    vals = np.zeros((d.shape[2], 4, 1 + diag.shape[-1] + off.shape[-1]))
    vals[..., 1:] = np.moveaxis(np.concatenate([diag, off], axis=-1), 0, 1)
    return np.take(vals.reshape(d.shape[2], -1), plan.jac_src, axis=1)


class _BatchResult(NamedTuple):
    """Raw arrays from a batched Newton solve (shapes lead with batch size);
    the first ten fields are those of :class:`PowerFlowState`."""

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
    and 0, or from a flat start.

    ``iterations`` holds the step at which each point converged, diverged or
    hit ``PF_MAX_ITER``; ``mismatch`` its last finite mismatch.
    """
    plan = nf.plan
    ns = plan.ns
    B, n, L, m = dg.shape[0], nf.n_bus, nf.n_line, len(ns)
    p_inj, q_inj = np.zeros((2, B, n))
    p_inj[:, nf.load_bus] = dg - nf.p_demand
    q_inj[:, nf.load_bus] -= nf.q_demand
    inj = np.concatenate([p_inj[:, ns], q_inj[:, ns]], axis=1)

    if start is None:
        v, theta = np.ones((B, n)), np.zeros((B, n))
    else:
        v, theta = (np.array(a, dtype=float) for a in start)
    converged = np.zeros(B, dtype=bool)
    singular = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=int)
    mismatch = np.full(B, np.inf)

    idx = np.arange(B)  # active (undecided) points; converged, diverged and singular ones drop out
    with np.errstate(all="ignore"):
        for it in range(PF_MAX_ITER + 1):
            p_calc, q_calc = _flows(plan, v[idx], theta[idx]) @ plan.inc
            F = np.concatenate([p_calc[:, ns], q_calc[:, ns]], axis=1) - inj[idx]
            bad = ~np.isfinite(F).all(axis=1) | (v[idx][:, ns].min(axis=1) < _V_FLOOR)
            mis = np.abs(np.where(np.isfinite(F), F, np.inf)).max(axis=1) if m > 0 else np.zeros(len(idx))
            conv = ~bad & (mis < tol)
            iterations[idx] = it
            converged[idx[conv]] = True
            finite = np.isfinite(mis)
            mismatch[idx[finite]] = mis[finite]
            keep = ~conv & ~bad
            idx = idx[keep]
            if len(idx) == 0 or it == PF_MAX_ITER:
                break
            F = F[keep]
            J = _jacobian(plan, _flow_partials(plan, v[idx], theta[idx]))
            try:
                dx = np.linalg.solve(J, -F[..., None])[..., 0]
            except np.linalg.LinAlgError:
                dx = np.zeros_like(F)
                sing_local = np.zeros(len(idx), dtype=bool)
                for i in range(len(idx)):
                    try:
                        dx[i] = np.linalg.solve(J[i], -F[i])
                    except np.linalg.LinAlgError:
                        sing_local[i] = True
                singular[idx[sing_local]] = True
            theta[idx[:, None], ns[None, :]] += dx[:, :m]
            v[idx[:, None], ns[None, :]] += dx[:, m:]
            idx = idx[~singular[idx]]

        pq = _flows(plan, v, theta)
        p_slack, q_slack = (pq @ plan.inc)[..., nf.slack]
    p, q = pq
    return _BatchResult(
        v, theta, p[:, :L], q[:, :L], p[:, L:], q[:, L:],
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
    """The :class:`ConstraintResiduals` fields of a :class:`PowerFlowState` or a
    :class:`_BatchResult`, in vector order; a batch adds its leading axis to every block."""
    fb, tb = nf.from_bus, nf.to_bus
    s2 = nf.s_rated**2
    dth = s.theta[..., fb] - s.theta[..., tb]
    return (
        nf.v_max - s.v,
        s.v - nf.v_min,
        np.stack([s2 - (s.p_flow**2 + s.q_flow**2),
                  s2 - (s.p_flow_rev**2 + s.q_flow_rev**2)], axis=-2),
        np.stack([nf.slack_p_max - s.p_slack, s.p_slack + nf.slack_p_max], axis=-1),
        np.stack([nf.slack_q_max - s.q_slack, s.q_slack + nf.slack_q_max], axis=-1),
        np.stack([nf.dtheta_max[fb] - dth, dth - nf.dtheta_min[fb]], axis=-2),
    )


def constraint_residuals(state: PowerFlowState, nf: NormalizedFeeder) -> ConstraintResiduals:
    """Margins of Ohm/Kirchhoff-feasible state against every operational limit."""
    return ConstraintResiduals(*_residual_blocks(nf, state))


def residual_min_batch(nf: NormalizedFeeder, res: _BatchResult) -> np.ndarray:
    """Per-point minimum residual for a batched solve (used by the grid oracle)."""
    return np.min([blk.reshape(len(blk), -1).min(axis=1) for blk in _residual_blocks(nf, res)], axis=0)


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
    w_vu, w_vl, w_th, w_sp, w_sq, w_ang = np.split(weights, np.cumsum([n, n, 2 * L, 2, 2]))
    w_ps, w_qs = w_sp[1] - w_sp[0], w_sq[1] - w_sq[0]
    w_au, w_al = w_ang[:L], w_ang[L:]
    plan = nf.plan

    # weight on each oriented flow's P and Q: thermal s^2 - (P^2 + Q^2), and the
    # slack exchange, which is the sum of the flows measured at the slack
    at_slack = plan.at == nf.slack
    c_p = -2.0 * w_th * np.concatenate([state.p_flow, state.p_flow_rev]) + w_ps * at_slack
    c_q = -2.0 * w_th * np.concatenate([state.q_flow, state.q_flow_rev]) + w_qs * at_slack
    d = _flow_partials(plan, state.v[None], state.theta[None])
    J = _jacobian(plan, d)[0]
    d = c_p * d[:2, :, 0] + c_q * d[2:, :, 0]  # (theta, v) x (measuring end, far end)
    # the far end of flow k is the measuring end of its reverse, flow k + L
    per_flow = d[:, 0] + np.roll(d[:, 1], L, axis=-1)
    per_flow[0] += np.concatenate([w_al - w_au, w_au - w_al])  # angle margins on theta_from - theta_to
    rhs = per_flow @ plan.inc
    rhs[1] += w_vl - w_vu
    try:
        lam = np.linalg.solve(J.T, rhs[:, plan.ns].ravel())
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian("adjoint system is singular") from exc
    return lam[plan.pos[nf.load_bus]]
