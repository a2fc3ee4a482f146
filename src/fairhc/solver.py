"""Hosting-capacity solvers.

Three routes:

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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import Infeasible, NonConvergence, SingularJacobian, TooManyLoads
from .formulation import FairnessPolicy, HCProblem, References, build_problem
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
ORACLE_CHUNK = 1 << 14  # grid points per batched Newton solve; keeps its arrays in cache
_BINDING_TOL = 1e-5
_FAIL_PENALTY = 1e6


@dataclass
class SolverOptions:
    tol: float = FEAS_TOL  # constraint-violation tolerance, pu
    pf_tol: float = 1e-8  # Newton mismatch tolerance, pu
    max_outer: int = 50
    max_inner: int = 120  # L-BFGS-B iterations per outer pass
    starts: int = 3
    grid_steps: int = 201  # oracle resolution per dimension
    penalty0: float = 10.0
    penalty_growth: float = 10.0
    penalty_trigger: float = 4.0  # grow penalty unless violation shrank by this factor
    bisect_tol: float = 1e-6  # pu bracket width
    power_factor: float | None = None  # DG power factor; None = unity (no reactive)
    pg_tol: float = 1e-6  # projected-gradient stationarity target
    comp_tol: float = 1e-8  # complementary-slackness target, max_i |lambda_i c_i|


@dataclass
class HCSolution:
    allocation: np.ndarray  # kW per load
    hc_total: float  # kW
    policy: FairnessPolicy
    status: str  # optimal | infeasible | max_iter | failed
    kkt_residual: float
    binding: list[str] = field(default_factory=list)
    iterations: tuple[int, int] = (0, 0)  # (outer, inner)
    disparity: float | None = None  # kW, bargaining only


def _dg_q(dg: np.ndarray, options: SolverOptions) -> np.ndarray:
    pf = options.power_factor
    if pf is None:
        return np.zeros_like(dg)
    return dg * np.sqrt(max(0.0, 1.0 - pf * pf)) / pf


def _residual_vector(nf: NormalizedFeeder, dg: np.ndarray, options: SolverOptions):
    """(state, residual vector) at ``dg``; None on power-flow failure."""
    try:
        state = solve_power_flow(nf, dg, _dg_q(dg, options), tol=options.pf_tol)
    except (NonConvergence, SingularJacobian):
        return None, None
    return state, constraint_residuals(state, nf).as_vector()


def _make_solution(nf: NormalizedFeeder, p: np.ndarray, policy: FairnessPolicy,
                   status: str, kkt: float, c_net: np.ndarray | None,
                   iterations: tuple[int, int]) -> HCSolution:
    sb = nf.s_base
    binding = []
    if c_net is not None:
        labels = residual_labels(nf)
        binding = [labels[i] for i in np.flatnonzero(c_net < _BINDING_TOL)]
    disparity = None
    if policy.variant == "bargaining":
        disparity = float(np.max(np.abs(p - p.mean()))) * sb if len(p) else 0.0
    return HCSolution(
        allocation=p * sb,
        hc_total=float(p.sum()) * sb,
        policy=policy,
        status=status,
        kkt_residual=kkt,
        binding=binding,
        iterations=iterations,
        disparity=disparity,
    )


# ---------------------------------------------------------------------------
# Egalitarian bisection
# ---------------------------------------------------------------------------

def solve_egalitarian_bisection(nf: NormalizedFeeder, options: SolverOptions | None = None,
                                t_min: float = 0.0, t_max: float | None = None,
                                policy: FairnessPolicy | None = None) -> HCSolution:
    """Largest uniform per-load injection keeping all residuals >= -tol.

    Assumes the binding constraint is monotone in the uniform injection; a
    coarse prescan detects non-monotone feasibility and falls back to the
    augmented-Lagrangian route on the tied scalar variable.
    """
    options = options or SolverOptions()
    policy = policy or FairnessPolicy.egalitarian()
    t_hi = nf.dg_cap if t_max is None else t_max
    n = nf.n_loads

    def margin(t: float) -> float:
        _, c = _residual_vector(nf, np.full(n, t), options)
        return -np.inf if c is None else float(c.min())

    outer = 0
    if margin(t_min) < -options.tol:
        raise Infeasible("baseline (lowest uniform injection) already violates limits")
    if margin(t_hi) >= -options.tol:
        p = np.full(n, t_hi)
        _, c = _residual_vector(nf, p, options)
        return _make_solution(nf, p, policy, "optimal", max(0.0, -c.min()), c, (1, 0))

    # monotonicity prescan: feasible probe above an infeasible one => downgrade
    probes = np.linspace(t_min, t_hi, 9)
    flags = [margin(t) >= -options.tol for t in probes]
    first_bad = flags.index(False)
    if any(flags[first_bad:]):
        problem = HCProblem(nf, policy, np.full(n, t_min), np.full(n, t_hi), tie=True)
        return _solve_tie_al(problem, options)
    lo, hi = probes[first_bad - 1], probes[first_bad]

    while hi - lo > options.bisect_tol:
        outer += 1
        mid = 0.5 * (lo + hi)
        if margin(mid) >= -options.tol:
            lo = mid
        else:
            hi = mid
    p = np.full(n, lo)
    _, c = _residual_vector(nf, p, options)  # independent re-verification
    if c is None or c.min() < -options.tol:
        raise NonConvergence("bisection endpoint failed re-verification")
    return _make_solution(nf, p, policy, "optimal", max(0.0, -float(c.min())), c, (outer, 0))


# ---------------------------------------------------------------------------
# Augmented Lagrangian
# ---------------------------------------------------------------------------

class _ALModel:
    """Objective/constraint oracle over the reduced decision vector.

    For bargaining the vector is ``[p_1..p_D, disparity]`` with two epigraph
    inequalities per load; otherwise just the injections.
    """

    def __init__(self, problem: HCProblem, options: SolverOptions, tie: bool = False):
        self.problem = problem
        self.nf = problem.feeder
        self.options = options
        self.tie = tie
        self.n = problem.n_loads
        self.barg = problem.policy.variant == "bargaining" and not tie
        if tie:
            self.dim = 1
            self.bounds = [(float(problem.lower.max()), float(problem.upper.min()))]
        else:
            self.dim = self.n + 1 if self.barg else self.n
            self.bounds = [(float(lo), float(hi)) for lo, hi in zip(problem.lower, problem.upper)]
            if self.barg:
                self.bounds.append((0.0, float(self.nf.dg_cap)))
        self.anchor = np.array([b[0] for b in self.bounds])
        self._cache: dict[bytes, tuple] = {}

    def injections(self, z: np.ndarray) -> np.ndarray:
        if self.tie:
            return np.full(self.n, z[0])
        return z[: self.n]

    def _pf(self, z: np.ndarray):
        key = z.tobytes()
        hit = self._cache.get(key)
        if hit is None:
            p = self.injections(z)
            hit = _residual_vector(self.nf, p, self.options)
            if len(self._cache) > 64:
                self._cache.clear()
            self._cache[key] = hit
        return hit

    def objective(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        """Minimized objective (negated hosting-capacity objective)."""
        grad = np.zeros(self.dim)
        if self.tie:
            return -self.n * z[0], grad - self.n
        if self.barg:
            k = self.problem.policy.k
            grad[: self.n] = -k
            grad[self.n] = 1.0 - k
            return -(k * z[: self.n].sum() - (1.0 - k) * z[self.n]), grad
        grad[:] = -1.0
        return -float(z.sum()), grad

    def constraints(self, z: np.ndarray) -> np.ndarray | None:
        _, c_net = self._pf(z)
        if c_net is None:
            return None
        if not self.barg:
            return c_net
        p, dp = z[: self.n], z[self.n]
        dev = p - p.mean()
        return np.concatenate([c_net, dp - dev, dp + dev])

    def weighted_constraint_grad(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """sum_i w_i * grad c_i(z)."""
        state, c_net = self._pf(z)
        nc = len(c_net)
        out = np.zeros(self.dim)
        w_net = w[:nc]
        if np.any(w_net != 0.0):
            g = adjoint_gradient(self.nf, self.injections(z), w_net,
                                 dg_q=_dg_q(self.injections(z), self.options),
                                 tol=self.options.pf_tol, state=state)
            if self.tie:
                out[0] += g.sum()
            else:
                out[: self.n] += g
        if self.barg:
            w1 = w[nc: nc + self.n]
            w2 = w[nc + self.n:]
            out[: self.n] += -w1 + w1.sum() / self.n
            out[: self.n] += w2 - w2.sum() / self.n
            out[self.n] += w1.sum() + w2.sum()
        return out

    def al_value_grad(self, z: np.ndarray, lam: np.ndarray, rho: float):
        c = self.constraints(z)
        if c is None:
            d = z - self.anchor
            return _FAIL_PENALTY * (1.0 + d @ d), 2.0 * _FAIL_PENALTY * d
        w = np.maximum(0.0, lam - rho * c)
        fval, fgrad = self.objective(z)
        val = fval + float(w @ w - lam @ lam) / (2.0 * rho)
        grad = fgrad - self.weighted_constraint_grad(z, w)
        return val, grad

    def n_constraints(self, z0: np.ndarray) -> int:
        c = self.constraints(z0)
        if c is None:
            raise Infeasible("power flow does not converge at the lower bound")
        return len(c)


def _run_auglag(model: _ALModel, z0: np.ndarray, options: SolverOptions):
    """One AL descent from z0. Returns (best_z, best_obj, kkt, outer, inner, converged)."""
    z = z0.copy()
    nc = model.n_constraints(np.array([b[0] for b in model.bounds]))
    lam = np.zeros(nc)
    rho = options.penalty0
    lo = np.array([b[0] for b in model.bounds])
    hi = np.array([b[1] for b in model.bounds])
    prev_measure = np.inf
    best = None  # (obj_min, z, kkt)
    inner_total = 0
    converged = False
    for outer in range(1, options.max_outer + 1):
        res = minimize(
            model.al_value_grad, z, args=(lam, rho), jac=True, method="L-BFGS-B",
            bounds=model.bounds,
            options={"maxiter": options.max_inner, "ftol": 1e-14, "gtol": 1e-10},
        )
        z = res.x
        inner_total += int(res.nit)
        c = model.constraints(z)
        if c is None:
            rho = min(rho * options.penalty_growth, 1e10)
            z = z0.copy()
            continue
        viol = max(0.0, -float(c.min()))
        lam = np.maximum(0.0, lam - rho * c)
        # stationarity holds by construction after the inner solve; progress is
        # measured by feasibility plus complementary slackness
        comp = float(np.max(np.abs(lam * c))) if nc else 0.0
        measure = max(viol, comp)
        if viol <= options.tol:
            fval, fgrad = model.objective(z)
            grad_l = fgrad - model.weighted_constraint_grad(z, lam)
            pg = float(np.max(np.abs(np.clip(z - grad_l, lo, hi) - z)))
            kkt = max(viol, pg)
            if best is None or fval < best[0]:
                best = (fval, z.copy(), kkt)
            if comp <= options.comp_tol and pg <= options.pg_tol:
                converged = True
                break
        if measure > prev_measure / options.penalty_trigger:
            rho = min(rho * options.penalty_growth, 1e10)
        if np.isfinite(measure):
            prev_measure = min(prev_measure, measure)
    return best, outer, inner_total, converged


def _starts_for(problem: HCProblem, options: SolverOptions, model: _ALModel
                ) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Deterministic multi-start points, and the packed egalitarian point (None
    when the egalitarian reference is unavailable)."""
    lo = np.array([b[0] for b in model.bounds])
    hi = np.array([b[1] for b in model.bounds])
    hi_f = np.where(np.isfinite(hi), hi, lo + 1.0)
    n = problem.n_loads

    def pack(p: np.ndarray) -> np.ndarray:
        p = np.clip(p, problem.lower, problem.upper)
        if model.barg:
            return np.append(p, np.max(np.abs(p - p.mean())) if n else 0.0)
        return p

    starts = [lo.copy()]
    egal = problem.reference_egal
    if egal is None:
        try:
            sol = solve_egalitarian_bisection(problem.feeder, options)
            egal = float(sol.allocation[0] / problem.feeder.s_base)
        except (Infeasible, NonConvergence):
            egal = None
    z_egal = None if egal is None else pack(np.full(n, egal))
    if z_egal is not None:
        starts.append(z_egal)
    starts.append(0.5 * (lo + hi_f))
    # dedupe
    unique, seen = [], set()
    for s in starts[: max(1, options.starts)]:
        key = np.round(s, 12).tobytes()
        if key not in seen:
            seen.add(key)
            unique.append(s)
    return unique, z_egal


def solve_nlp_al(problem: HCProblem, options: SolverOptions | None = None) -> HCSolution:
    """Augmented-Lagrangian solve with deterministic multi-start.

    Raises :class:`Infeasible` when the lower-bound point already violates the
    operational limits (tolerance ``options.tol``).
    """
    options = options or SolverOptions()
    nf = problem.feeder
    model = _ALModel(problem, options)

    _, c_low = _residual_vector(nf, problem.lower, options)
    if c_low is None or c_low.min() < -options.tol:
        raise Infeasible("lower-bound allocation already violates operational limits")

    # the lower bound is always a feasible fallback candidate, and so is the
    # egalitarian point once re-verified, which keeps hc_uti >= hc_egal
    z_low = np.array([b[0] for b in model.bounds])
    best = (model.objective(z_low)[0], z_low, max(0.0, -float(c_low.min())))
    starts, z_egal = _starts_for(problem, options, model)
    if z_egal is not None:
        _, c_egal = _residual_vector(nf, model.injections(z_egal), options)
        f_egal = model.objective(z_egal)[0]
        if c_egal is not None and c_egal.min() >= -options.tol and f_egal < best[0]:
            best = (f_egal, z_egal, max(0.0, -float(c_egal.min())))

    outer_total = inner_total = 0
    any_converged = False
    for z0 in starts:
        cand, outer, inner, conv = _run_auglag(model, z0, options)
        outer_total += outer
        inner_total += inner
        any_converged |= conv
        if cand is not None and cand[0] < best[0]:
            best = cand

    _, z, kkt = best
    p = model.injections(z)
    state, c_net = _residual_vector(nf, p, options)  # independent re-verification
    if c_net is None or c_net.min() < -options.tol:
        p = problem.lower
        _, c_net = _residual_vector(nf, p, options)
        kkt = np.inf
        any_converged = False
    status = "optimal" if any_converged else "max_iter"
    return _make_solution(nf, p, problem.policy, status, kkt, c_net, (outer_total, inner_total))


def _solve_tie_al(problem: HCProblem, options: SolverOptions) -> HCSolution:
    """AL fallback on the tied scalar variable (non-monotone egalitarian case)."""
    model = _ALModel(problem, options, tie=True)
    lo = np.array([model.bounds[0][0]])
    c0 = model.constraints(lo)
    if c0 is None or c0.min() < -options.tol:
        raise Infeasible("baseline (lowest uniform injection) already violates limits")
    best = (model.objective(lo)[0], lo, max(0.0, -float(c0.min())))
    cand, outer, inner, conv = _run_auglag(model, lo.copy(), options)
    if cand is not None and cand[0] < best[0]:
        best = cand
    _, z, kkt = best
    p = model.injections(z)
    _, c_net = _residual_vector(problem.feeder, p, options)
    status = "optimal" if conv else "max_iter"
    return _make_solution(problem.feeder, p, problem.policy, status, kkt, c_net, (outer, inner))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def solve_hc(problem: HCProblem, options: SolverOptions | None = None) -> HCSolution:
    """Solve one hosting-capacity problem, dispatching per policy."""
    options = options or SolverOptions()
    nf = problem.feeder
    policy = problem.policy
    if problem.tie:
        return solve_egalitarian_bisection(
            nf, options, t_min=float(problem.lower.max()),
            t_max=float(problem.upper.min()), policy=policy,
        )
    if policy.variant == "bargaining" and policy.k == 0.0:
        # K=0 is degenerate (any uniform point zeroes the disparity); report the
        # egalitarian solution as its canonical representative.
        sol = solve_egalitarian_bisection(nf, options, policy=policy)
        sol.disparity = 0.0
        return sol
    if np.all(problem.upper - problem.lower <= 1e-12):
        p = problem.lower.copy()
        _, c = _residual_vector(nf, p, options)
        if c is None or c.min() < -options.tol:
            raise Infeasible("degenerate box is infeasible")
        return _make_solution(nf, p, policy, "optimal", max(0.0, -float(c.min())), c, (1, 0))
    return solve_nlp_al(problem, options)


def solve_references(nf: NormalizedFeeder, options: SolverOptions | None = None
                     ) -> tuple[References, HCSolution, HCSolution]:
    """Utilitarian and egalitarian solves, and the :class:`References` the bounded policy needs."""
    uti = solve_hc(build_problem(nf, FairnessPolicy.utilitarian()), options)
    egal = solve_hc(build_problem(nf, FairnessPolicy.egalitarian()), options)
    refs = References(egal_per_load=float(egal.allocation[0]) / nf.s_base,
                      uti_allocation=uti.allocation / nf.s_base)
    return refs, uti, egal


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _grid_points(problem: HCProblem, steps: int) -> np.ndarray:
    n = problem.n_loads
    if problem.tie:
        return np.linspace(problem.lower.max(), problem.upper.min(), steps)[:, None].repeat(n, axis=1)
    axes = [np.linspace(problem.lower[d], problem.upper[d], steps) for d in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([mm.ravel() for mm in mesh], axis=1)


def _slab_start(history: list[tuple], shape: tuple[int, int]):
    """Newton start ``(v, theta)`` of a slab, and where it is not flat.

    ``history`` holds ``(converged, v, theta)`` of the last two slabs, newest
    last.  A point extrapolates linearly where both earlier points converged,
    repeats the last state where only it did, and starts flat otherwise.
    """
    v, theta = np.ones(shape), np.zeros(shape)
    warm = np.zeros(shape[0], dtype=bool)
    if history:
        warm, v1, t1 = history[-1]
        v[warm], theta[warm] = v1[warm], t1[warm]
        if len(history) == 2:
            c2, v2, t2 = history[-2]
            both = warm & c2
            v[both] = 2.0 * v1[both] - v2[both]
            theta[both] = 2.0 * t1[both] - t2[both]
    return v, theta, warm


def _sweep(nf: NormalizedFeeder, objectives: list, pts: np.ndarray, n_slabs: int,
           options: SolverOptions) -> list[np.ndarray | None]:
    """First best feasible point of ``pts`` for each objective (None if there is
    none), sweeping ``n_slabs`` slabs along the first load; one slab is a plain
    flat-start sweep."""
    best_val = [-np.inf] * len(objectives)
    best_p: list[np.ndarray | None] = [None] * len(objectives)
    history: list[tuple] = []
    for slab in pts.reshape(n_slabs, -1, pts.shape[1]):
        v0, t0, warm = _slab_start(history, (len(slab), nf.n_bus))
        converged = np.zeros(len(slab), dtype=bool)
        v, theta = np.empty_like(v0), np.empty_like(t0)
        for lo in range(0, len(slab), ORACLE_CHUNK):
            part = slice(lo, lo + ORACLE_CHUNK)
            block, block_q = slab[part], _dg_q(slab[part], options)
            res = _solve_batch(nf, block, block_q, tol=options.pf_tol, start=(v0[part], t0[part]))
            retry = np.flatnonzero(~res.converged & warm[part])
            if len(retry):
                flat = _solve_batch(nf, block[retry], block_q[retry], tol=options.pf_tol)
                for field, value in zip(res, flat):
                    field[retry] = value
            converged[part], v[part], theta[part] = res.converged, res.v, res.theta
            feas = res.converged & (residual_min_batch(nf, res) >= -options.tol)
            if not feas.any():
                continue
            for mi, objective in enumerate(objectives):
                vals = np.where(feas, objective(block), -np.inf)
                i = int(np.argmax(vals))
                if vals[i] > best_val[mi]:
                    best_val[mi] = float(vals[i])
                    best_p[mi] = block[i].copy()
        history = [*history[-1:], (converged, v, theta)]
    return best_p


def brute_force_oracle(problem: HCProblem, grid_steps: int | None = None,
                       options: SolverOptions | None = None) -> HCSolution:
    """Exhaustive grid search over the policy box; feasibility via full power flow.

    Independent of the AL route: batched Newton solves plus direct residual
    evaluation, no adjoints and no penalties.
    """
    return brute_force_oracle_batch([problem], grid_steps, options)[0]


def brute_force_oracle_batch(problems: list[HCProblem], grid_steps: int | None = None,
                             options: SolverOptions | None = None) -> list[HCSolution]:
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
    options = options or SolverOptions()
    steps = grid_steps or options.grid_steps
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
        pts = _grid_points(first, steps)
        objectives = [problems[j].objective for j in members]
        n_slabs = 1 if first.tie or first.n_loads == 1 else steps
        best = _sweep(nf, objectives, pts, n_slabs, options)
        checks = [None if p is None else _residual_vector(nf, p, options)[1] for p in best]
        if n_slabs > 1 and not all(c is not None and c.min() >= -options.tol for c in checks):
            # a predicted start converged where a flat start does not: sweep
            # the group again from flat starts only
            best = _sweep(nf, objectives, pts, 1, options)
            checks = [None if p is None else _residual_vector(nf, p, options)[1] for p in best]
        for j, p, c_net in zip(members, best, checks):
            if p is None:
                raise Infeasible("no feasible grid point")
            out[j] = _make_solution(nf, p, problems[j].policy, "optimal",
                                    max(0.0, -float(c_net.min())), c_net, (0, len(pts)))
    return out  # type: ignore[return-value]
