"""Hosting-capacity solvers.

Two routes, and an oracle that checks them.  ``solve_hc`` sends a tied
(egalitarian) problem and bargaining at K = 0 to the first and every other box,
a fixed one included, to the second:

* ``solve_egalitarian_bisection`` -- scalar bisection on the uniform allocation,
  exploiting the monotone voltage bottleneck of radial feeders.
* ``solve_nlp_al`` -- reduced-space augmented Lagrangian: the decision vector is
  the per-load DG injection (power flow embedded as an implicit map), inner
  bound-projected quasi-Newton (L-BFGS-B) driven by adjoint gradients,
  deterministic 3-point multi-start.
* ``brute_force_oracle`` -- exhaustive feasibility grid for desk-scale feeders,
  used as an independent verification oracle.  It sweeps the grid as a
  continuation along the first load: each slab of points sharing one value of
  that load starts Newton from the converged states of the same points in the
  two slabs before it.  It falls back to a flat start where that fails, and
  to a flat-start sweep of the whole grid if a winner does not re-verify from
  a flat start.

``solve_references`` gives the utilitarian/egalitarian pair that the bounded
policy and the frontier sweeps start from.

DG injects active power only (unity power factor); the adjoint gradient is
taken with respect to the active injections.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import Infeasible, NonConvergence, SingularJacobian, TooManyLoads
from .formulation import FairnessPolicy, HCProblem, References, build_problem, disparity
from .netmodel import NormalizedFeeder
from .powerflow import (
    _solve_batch,
    adjoint_gradient,
    constraint_residuals,
    residual_labels,
    residual_min_batch,
    solve_power_flow,
)

FEAS_TOL = 1e-6  # pu; residual >= -FEAS_TOL counts as satisfied
GRID_STEPS = 201  # default oracle resolution per dimension
# Grid points per batched Newton solve, which bounds the oracle's working set besides the grid.
# 101-step oracle_grid call (7 buses), 2-core Xeon, one BLAS thread: 16,384 (every 10,201-point
# slab whole), 4,096 and 2,048 all took 2.0-2.9 s; peak RSS 100, 80 and 73 MB.  The 201-step
# acceptance oracle (criterion 4) took 31, 23 and 21 s.
ORACLE_CHUNK = 2048
_BINDING_TOL = 1e-5
_FAIL_PENALTY = 1e6
_MAX_OUTER = 50  # augmented-Lagrangian passes per start
_MAX_INNER = 120  # L-BFGS-B iterations per outer pass
_PENALTY0 = 10.0
_PENALTY_GROWTH = 10.0
_PENALTY_TRIGGER = 4.0  # grow penalty unless violation shrank by this factor
_PG_TOL = 1e-6  # projected-gradient stationarity target
_COMP_TOL = 1e-8  # complementary-slackness target, max_i |lambda_i c_i|
_BISECT_TOL = 1e-6  # pu bracket width


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call: only the augmented
    Lagrangian needs it, and the import costs more than most commands."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass
class HCSolution:
    allocation: np.ndarray  # kW per load
    hc_total: float  # kW
    policy: FairnessPolicy
    status: str  # optimal | max_iter; an infeasible problem raises Infeasible
    kkt_residual: float
    binding: list[str] = field(default_factory=list)
    iterations: tuple[int, int] = (0, 0)  # (outer, inner)
    disparity: float | None = None  # kW, bargaining only


def _residual_vector(nf: NormalizedFeeder, dg: np.ndarray):
    """(state, residual vector) at ``dg``; None on power-flow failure."""
    try:
        state = solve_power_flow(nf, dg)
    except (NonConvergence, SingularJacobian):
        return None, None
    return state, constraint_residuals(state, nf).as_vector()


def _feasible(c: np.ndarray | None) -> bool:
    """Whether a residual vector meets every limit to within ``FEAS_TOL``;
    None (a failed power flow) does not."""
    return c is not None and bool(c.min() >= -FEAS_TOL)


def _make_solution(nf: NormalizedFeeder, p: np.ndarray, policy: FairnessPolicy, status: str,
                   c: np.ndarray, iterations: tuple[int, int], kkt: float | None = None) -> HCSolution:
    """Solution at ``p`` from its verified residual vector ``c``; ``kkt``
    defaults to the violation of ``c``."""
    sb = nf.s_base
    labels = residual_labels(nf)
    return HCSolution(
        allocation=p * sb,
        hc_total=float(p.sum()) * sb,
        policy=policy,
        status=status,
        kkt_residual=max(0.0, -float(c.min())) if kkt is None else kkt,
        binding=[labels[i] for i in np.flatnonzero(c < _BINDING_TOL)],
        iterations=iterations,
        disparity=float(disparity(p)) * sb if policy.variant == "bargaining" else None,
    )


# ---------------------------------------------------------------------------
# Egalitarian bisection
# ---------------------------------------------------------------------------

def solve_egalitarian_bisection(nf: NormalizedFeeder,
                                policy: FairnessPolicy | None = None) -> HCSolution:
    """Largest uniform per-load injection in [0, dg_cap] keeping all residuals >= -FEAS_TOL.

    Assumes the binding constraint is monotone in the uniform injection.  A
    coarse prescan brackets the answer; where it finds feasibility is not
    monotone, the bisection runs above the highest feasible probe.  The
    reported point is the highest feasible probe, so it is verified by the
    very power flow that accepted it.
    """
    policy = policy or FairnessPolicy.egalitarian()
    n = nf.n_loads

    def residuals(t: float) -> np.ndarray | None:
        return _residual_vector(nf, np.full(n, t))[1]

    c_lo = residuals(0.0)
    if not _feasible(c_lo):
        raise Infeasible("baseline (lowest uniform injection) already violates limits")
    c = residuals(nf.dg_cap)
    if _feasible(c):
        return _make_solution(nf, np.full(n, nf.dg_cap), policy, "optimal", c, (1, 0))

    # prescan; its endpoints are the two probes above
    probes = np.linspace(0.0, nf.dg_cap, 9)
    checks = [c_lo, *(residuals(t) for t in probes[1:-1])]
    k = max(i for i, c in enumerate(checks) if _feasible(c))
    lo, hi, c_lo = probes[k], probes[k + 1], checks[k]

    outer = 0
    while hi - lo > _BISECT_TOL:
        outer += 1
        mid = 0.5 * (lo + hi)
        c = residuals(mid)
        if _feasible(c):
            lo, c_lo = mid, c
        else:
            hi = mid
    return _make_solution(nf, np.full(n, lo), policy, "optimal", c_lo, (outer, 0))


# ---------------------------------------------------------------------------
# Augmented Lagrangian
# ---------------------------------------------------------------------------

def solve_nlp_al(problem: HCProblem) -> HCSolution:
    """Augmented-Lagrangian solve with deterministic multi-start.

    The decision vector is the injections, and for bargaining also the
    disparity ``d``, with two epigraph inequalities per load.  Each start runs
    up to ``_MAX_OUTER`` passes of L-BFGS-B on the augmented Lagrangian.  The
    lower bound and the re-verified egalitarian point are fallback candidates,
    which keeps hc_uti >= hc_egal.

    Raises :class:`Infeasible` when the lower-bound point already violates the
    operational limits (tolerance ``FEAS_TOL``).
    """
    nf = problem.feeder
    n = problem.n_loads
    barg = problem.policy.variant == "bargaining"
    k = problem.policy.k
    lo, hi = problem.lower.astype(float), problem.upper.astype(float)
    if barg:
        lo, hi = np.append(lo, 0.0), np.append(hi, float(nf.dg_cap))
        grad_f = np.append(np.full(n, -k), 1.0 - k)
    else:
        grad_f = np.full(n, -1.0)
    bounds = list(zip(lo.tolist(), hi.tolist()))

    state_low, c_low = _residual_vector(nf, problem.lower)
    if not _feasible(c_low):
        raise Infeasible("lower-bound allocation already violates operational limits")

    def f(z: np.ndarray) -> float:
        """Minimized objective (negated hosting-capacity objective)."""
        if barg:
            return -(k * z[:n].sum() - (1.0 - k) * z[n])
        return -float(z.sum())

    cache: dict[bytes, tuple] = {lo.tobytes(): (state_low, c_low)}

    def pf(z: np.ndarray):
        key = z.tobytes()
        hit = cache.get(key)
        if hit is None:
            hit = _residual_vector(nf, z[:n])
            if len(cache) > 64:
                cache.clear()
            cache[key] = hit
        return hit

    def constraints(z: np.ndarray) -> np.ndarray | None:
        c_net = pf(z)[1]
        if c_net is None or not barg:
            return c_net
        dev = z[:n] - z[:n].mean()
        return np.concatenate([c_net, z[n] - dev, z[n] + dev])

    def weighted_grad(z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """sum_i w_i * grad c_i(z)."""
        state, c_net = pf(z)
        nc = len(c_net)
        out = np.zeros(len(z))
        if np.any(w[:nc] != 0.0):
            out[:n] += adjoint_gradient(nf, z[:n], w[:nc], state=state)
        if barg:
            w1, w2 = w[nc: nc + n], w[nc + n:]
            out[:n] += -w1 + w1.sum() / n
            out[:n] += w2 - w2.sum() / n
            out[n] += w1.sum() + w2.sum()
        return out

    def al_value_grad(z: np.ndarray, lam: np.ndarray, rho: float):
        c = constraints(z)
        if c is None:
            d = z - lo
            return _FAIL_PENALTY * (1.0 + d @ d), 2.0 * _FAIL_PENALTY * d
        w = np.maximum(0.0, lam - rho * c)
        val = f(z) + float(w @ w - lam @ lam) / (2.0 * rho)
        return val, grad_f - weighted_grad(z, w)

    # the lower bound is always a feasible fallback candidate, and so is the
    # egalitarian point once re-verified; their kkt is the violation that the
    # final re-verification reproduces
    best = (f(lo), lo, None)
    egal = problem.reference_egal
    if egal is None:
        try:
            egal = float(solve_egalitarian_bisection(nf).allocation[0] / nf.s_base)
        except Infeasible:
            pass
    starts = [lo.copy()]
    if egal is not None:
        z_egal = np.clip(np.full(n, egal), problem.lower, problem.upper)
        if barg:
            z_egal = np.append(z_egal, disparity(z_egal))
        starts.append(z_egal)
        _, c_egal = _residual_vector(nf, z_egal[:n])
        if _feasible(c_egal) and f(z_egal) < best[0]:
            best = (f(z_egal), z_egal, None)
    starts.append(0.5 * (lo + np.where(np.isfinite(hi), hi, lo + 1.0)))
    unique: dict[bytes, np.ndarray] = {}
    for s in starts:
        unique.setdefault(np.round(s, 12).tobytes(), s)

    outer_total = inner_total = 0
    converged = False
    for z0 in unique.values():
        z = z0.copy()
        lam = np.zeros(len(c_low) + 2 * n if barg else len(c_low))
        rho = _PENALTY0
        prev_measure = np.inf
        for outer in range(1, _MAX_OUTER + 1):
            res = minimize(
                al_value_grad, z, args=(lam, rho), jac=True, method="L-BFGS-B", bounds=bounds,
                options={"maxiter": _MAX_INNER, "ftol": 1e-14, "gtol": 1e-10},
            )
            z = res.x
            inner_total += int(res.get("nit", 0))  # absent when every bound is fixed
            c = constraints(z)
            if c is None:
                rho = min(rho * _PENALTY_GROWTH, 1e10)
                z = z0.copy()
                continue
            viol = max(0.0, -float(c.min()))
            lam = np.maximum(0.0, lam - rho * c)
            # stationarity holds by construction after the inner solve; progress
            # is measured by feasibility plus complementary slackness
            comp = float(np.max(np.abs(lam * c))) if len(c) else 0.0
            measure = max(viol, comp)
            if _feasible(c):
                fval = f(z)
                pg = float(np.max(np.abs(np.clip(z - (grad_f - weighted_grad(z, lam)), lo, hi) - z)))
                if fval < best[0]:
                    best = (fval, z.copy(), max(viol, pg))
                if comp <= _COMP_TOL and pg <= _PG_TOL:
                    converged = True
                    break
            if measure > prev_measure / _PENALTY_TRIGGER:
                rho = min(rho * _PENALTY_GROWTH, 1e10)
            if np.isfinite(measure):
                prev_measure = min(prev_measure, measure)
        outer_total += outer

    _, z, kkt = best
    p = z[:n]
    _, c_net = _residual_vector(nf, p)  # independent re-verification
    if not _feasible(c_net):
        p, c_net, kkt, converged = problem.lower, c_low, np.inf, False
    status = "optimal" if converged else "max_iter"
    return _make_solution(nf, p, problem.policy, status, c_net, (outer_total, inner_total), kkt)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def solve_hc(problem: HCProblem) -> HCSolution:
    """Solve one hosting-capacity problem, dispatching per policy."""
    nf = problem.feeder
    policy = problem.policy
    if problem.tie:
        return solve_egalitarian_bisection(nf, policy)
    if policy.variant == "bargaining" and policy.k == 0.0:
        # K=0 is degenerate (any uniform point zeroes the disparity); report the
        # egalitarian solution as its canonical representative.
        sol = solve_egalitarian_bisection(nf, policy)
        sol.disparity = 0.0
        return sol
    return solve_nlp_al(problem)


def solve_references(nf: NormalizedFeeder) -> tuple[References, HCSolution, HCSolution]:
    """Utilitarian and egalitarian solves, and the :class:`References` the bounded policy needs.

    The egalitarian point is solved first and handed to the utilitarian
    solve as its start, so the pair costs one bisection.
    """
    egal = solve_hc(build_problem(nf, FairnessPolicy.egalitarian()))
    egal_per_load = float(egal.allocation[0]) / nf.s_base
    uti_problem = build_problem(nf, FairnessPolicy.utilitarian())
    uti = solve_hc(replace(uti_problem, reference_egal=egal_per_load))
    refs = References(egal_per_load=egal_per_load, uti_allocation=uti.allocation / nf.s_base)
    return refs, uti, egal


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _grid_points(problem: HCProblem, steps: int) -> np.ndarray:
    n = problem.n_loads
    if problem.tie:
        return np.linspace(problem.lower.max(), problem.upper.min(), steps)[:, None].repeat(n, axis=1)
    # the meshgrid points in "ij" order, written in place: no meshgrid copies
    pts = np.empty((steps,) * n + (n,))
    for d in range(n):
        pts[..., d] = np.linspace(problem.lower[d], problem.upper[d], steps).reshape((-1,) + (1,) * (n - 1 - d))
    return pts.reshape(-1, n)


def _slab_start(history: list[tuple]):
    """Newton start ``(v, theta)`` of a slab after another, and where it is not flat.

    ``history`` holds ``(converged, v, theta)`` of the last two slabs, newest
    last.  A point extrapolates linearly where both earlier points converged,
    repeats the last state where only it did, and starts flat otherwise.
    """
    warm, v1, t1 = history[-1]
    v, theta = np.where(warm[:, None], v1, 1.0), np.where(warm[:, None], t1, 0.0)
    if len(history) == 2:
        c2, v2, t2 = history[-2]
        both = (warm & c2)[:, None]
        with np.errstate(all="ignore"):  # diverged rows hold non-finite states
            v, theta = np.where(both, 2.0 * v1 - v2, v), np.where(both, 2.0 * t1 - t2, theta)
    return v, theta, warm


def _sweep(nf: NormalizedFeeder, objectives: list, pts: np.ndarray,
           n_slabs: int) -> list[np.ndarray | None]:
    """First best feasible point of ``pts`` for each objective (None if there is
    none), sweeping ``n_slabs`` slabs along the first load; one slab is a plain
    flat-start sweep.  A slab without history starts each chunk flat, and a slab
    keeps its states only for a next one."""
    best_val = [-np.inf] * len(objectives)
    best_p: list[np.ndarray | None] = [None] * len(objectives)
    history: list[tuple] = []
    for k, slab in enumerate(pts.reshape(n_slabs, -1, pts.shape[1])):
        v0, t0, warm = _slab_start(history) if history else (None,) * 3
        states = []  # (converged, v, theta) of each chunk
        for lo in range(0, len(slab), ORACLE_CHUNK):
            part = slice(lo, lo + ORACLE_CHUNK)
            block = slab[part]
            res = _solve_batch(nf, block, start=None if warm is None else (v0[part], t0[part]))
            retry = [] if warm is None else np.flatnonzero(~res.converged & warm[part])
            if len(retry):
                flat = _solve_batch(nf, block[retry])
                for field, value in zip(res, flat):
                    field[retry] = value
            if k + 1 < n_slabs:
                states.append((res.converged, res.v, res.theta))
            feas = res.converged & (residual_min_batch(nf, res) >= -FEAS_TOL)
            if not feas.any():
                continue
            for mi, objective in enumerate(objectives):
                vals = np.where(feas, objective(block), -np.inf)
                i = int(np.argmax(vals))
                if vals[i] > best_val[mi]:
                    best_val[mi] = float(vals[i])
                    best_p[mi] = block[i].copy()
        if states:
            history = [*history[-1:], tuple(np.concatenate(a) for a in zip(*states))]
    return best_p


def brute_force_oracle(problem: HCProblem, grid_steps: int = GRID_STEPS) -> HCSolution:
    """Exhaustive grid search over the policy box; feasibility via full power flow.

    Independent of the AL route: batched Newton solves plus direct residual
    evaluation, no adjoints and no penalties.
    """
    return brute_force_oracle_batch([problem], grid_steps)[0]


def brute_force_oracle_batch(problems: list[HCProblem],
                             grid_steps: int = GRID_STEPS) -> list[HCSolution]:
    """Grid-search several policies on one feeder.

    Policies whose search boxes coincide (e.g. utilitarian and bargaining)
    share the power-flow feasibility sweep, which dominates the runtime.

    The sweep is a continuation along the first load.  The grid splits into
    slabs, each holding every point with one value of that load; slab ``k``
    starts Newton at each point from ``2 x[k-1] - x[k-2]`` where both earlier
    states converged, from ``x[k-1]`` where only the last did, and flat
    otherwise, which takes one or two steps instead of three or four.  A point
    that fails from a predicted start is solved again from the flat start, so
    every point a flat start converges stays converged.  A predicted start can
    also converge where a flat start does not, so each winner is re-verified
    from a flat start; if one fails, the group is swept again from flat starts
    only, which picks the same points as a plain flat-start sweep.  A grid
    with one free axis (a tied or a one-load problem) is a single slab from a
    flat start.
    """
    if grid_steps < 1:
        raise ValueError("grid_steps must be >= 1")
    if not problems:
        return []
    nf = problems[0].feeder
    for prob in problems:
        if prob.feeder is not nf:
            raise ValueError("all problems must share one feeder")
        if prob.n_loads > 3:
            raise TooManyLoads(f"oracle limited to 3 loads, got {prob.n_loads}")

    groups: dict[tuple, list[int]] = {}
    for j, prob in enumerate(problems):
        key = (prob.tie, prob.lower.tobytes(), prob.upper.tobytes())
        groups.setdefault(key, []).append(j)

    out: list[HCSolution | None] = [None] * len(problems)
    for members in groups.values():
        first = problems[members[0]]
        pts = _grid_points(first, grid_steps)
        objectives = [problems[j].objective for j in members]
        n_slabs = 1 if first.tie or first.n_loads == 1 else grid_steps
        best = _sweep(nf, objectives, pts, n_slabs)
        checks = [None if p is None else _residual_vector(nf, p)[1] for p in best]
        if n_slabs > 1 and not all(_feasible(c) for c in checks):
            # a predicted start converged where a flat start does not: sweep
            # the group again from flat starts only
            best = _sweep(nf, objectives, pts, 1)
            checks = [None if p is None else _residual_vector(nf, p)[1] for p in best]
        for j, p, c_net in zip(members, best, checks):
            if p is None:
                raise Infeasible("no feasible grid point")
            out[j] = _make_solution(nf, p, problems[j].policy, "optimal", c_net, (0, len(pts)))
    return out  # type: ignore[return-value]
