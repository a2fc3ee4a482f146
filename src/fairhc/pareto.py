"""Fairness-parameter sweeps, Pareto filtering and knee-point identification.

Each frontier is a PoF-vs-Gini curve for one parameter family, with the
utilitarian and egalitarian solutions as its two extremes.  Lower-bound sweeps
may produce dominated points; they are kept in the frontier (the anomaly is
part of the output) and removed only by :func:`pareto_filter`.
"""
from __future__ import annotations

import io
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrontier, FairHCError
from .formulation import FairnessPolicy, References, build_problem
from .kpi import gini, price_of_fairness
from .netmodel import Feeder, NormalizedFeeder, to_per_unit
from .solver import solve_hc, solve_references

FAMILIES = ("bounded_lower", "bounded_upper", "bargaining")

CSV_HEADER = "family,param,hc_kw,pof,gini,status"


@dataclass(frozen=True)
class ParetoPoint:
    family: str  # bounded_lower | bounded_upper | bargaining | endpoint_uti | endpoint_egal
    param: float  # swept alpha/beta/K; nan for endpoints
    hc_kw: float
    pof: float
    gini: float
    status: str


@dataclass
class Frontier:
    points: list[ParetoPoint]  # sorted by gini ascending, failures last


def _policy_for(family: str, param: float) -> FairnessPolicy:
    if family == "bounded_lower":
        return FairnessPolicy.bounded(alpha=param, beta=1.0)
    if family == "bounded_upper":
        return FairnessPolicy.bounded(alpha=0.0, beta=param)
    if family == "bargaining":
        return FairnessPolicy.bargaining(k=param)
    raise ValueError(f"unknown sweep family {family!r}")


def _solve_point(nf: NormalizedFeeder, family: str, param: float, refs: References,
                 hc_uti: float) -> ParetoPoint:
    policy = _policy_for(family, param)
    try:
        sol = solve_hc(build_problem(nf, policy, refs))
    except FairHCError:
        return ParetoPoint(family, param, math.nan, math.nan, math.nan, "failed")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pof = price_of_fairness(hc_uti, sol.hc_total)
        g = gini(sol.allocation)
    return ParetoPoint(family, param, sol.hc_total, pof, g, sol.status)


def _sort_points(points: list[ParetoPoint]) -> list[ParetoPoint]:
    finite = [p for p in points if math.isfinite(p.gini)]
    failed = [p for p in points if not math.isfinite(p.gini)]
    return sorted(finite, key=lambda p: (p.gini, p.pof)) + failed


def sweep(feeder: Feeder | NormalizedFeeder, family: str, steps: int = 21, jobs: int = 1) -> Frontier:
    """Solve one HC problem per evenly spaced parameter in [0, 1] plus both endpoints.

    Per-point failures are embedded as ``status='failed'`` rows, never dropped.
    Raises :class:`Infeasible` only if the baseline itself is infeasible.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if family not in FAMILIES:
        raise ValueError(f"unknown sweep family {family!r}")
    nf = to_per_unit(feeder) if isinstance(feeder, Feeder) else feeder
    refs, uti, egal = solve_references(nf)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        points = [
            ParetoPoint("endpoint_uti", math.nan, uti.hc_total, 0.0,
                        gini(uti.allocation), uti.status),
            ParetoPoint("endpoint_egal", math.nan, egal.hc_total,
                        price_of_fairness(uti.hc_total, egal.hc_total), 0.0, egal.status),
        ]

    params = np.linspace(0.0, 1.0, steps)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_solve_point, nf, family, float(t), refs, uti.hc_total)
                       for t in params]
            points += [f.result() for f in futures]
    else:
        points += [_solve_point(nf, family, float(t), refs, uti.hc_total) for t in params]

    return Frontier(_sort_points(points))


def pareto_filter(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """Nondominated subset under (minimize gini, minimize pof); stable order, deduplicated."""
    finite = [p for p in points if math.isfinite(p.gini) and math.isfinite(p.pof)]
    out = []
    seen = set()
    for p in finite:
        key = (p.gini, p.pof)
        if key in seen:
            continue
        dominated = any(
            q.gini <= p.gini and q.pof <= p.pof and (q.gini < p.gini or q.pof < p.pof)
            for q in finite
        )
        if not dominated:
            seen.add(key)
            out.append(p)
    return out


def knee_point(frontier: Frontier | list[ParetoPoint]) -> ParetoPoint:
    """Nondominated point of maximum perpendicular distance to the normalized chord.

    Gini and PoF are min-max normalized over the nondominated set; the chord
    joins the two extreme normalized points.  Degenerate chords (two-point or
    collinear frontiers) fall back to the minimum-norm point; ties break toward
    lower PoF.
    """
    points = frontier.points if isinstance(frontier, Frontier) else frontier
    nd = pareto_filter(points)
    if len(nd) < 2:
        raise DegenerateFrontier("need at least two distinct nondominated points")
    g = np.array([p.gini for p in nd])
    f = np.array([p.pof for p in nd])
    g_span = g.max() - g.min()
    f_span = f.max() - f.min()
    gn = (g - g.min()) / g_span if g_span > 0 else np.zeros_like(g)
    fn = (f - f.min()) / f_span if f_span > 0 else np.zeros_like(f)
    if g_span == 0 and f_span == 0:
        raise DegenerateFrontier("all nondominated points coincide")
    order = np.lexsort((fn, gn))
    a = np.array([gn[order[0]], fn[order[0]]])
    b = np.array([gn[order[-1]], fn[order[-1]]])
    chord = b - a
    norm = float(np.hypot(*chord))
    if norm > 1e-12:
        dist = np.abs(chord[0] * (fn - a[1]) - chord[1] * (gn - a[0])) / norm
        if dist.max() > 1e-12:
            best = min(range(len(nd)), key=lambda i: (-dist[i], f[i]))
            return nd[best]
    # chord degenerate or all points on it: minimum normalized norm fallback
    norms = np.hypot(gn, fn)
    best = min(range(len(nd)), key=lambda i: (norms[i], f[i]))
    return nd[best]


# ---------------------------------------------------------------------------
# CSV interface: family,param,hc_kw,pof,gini,status with 6-decimal fixed formatting
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "" if not math.isfinite(x) else f"{x:.6f}"


def frontier_to_csv(frontier: Frontier) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for p in frontier.points:
        buf.write(f"{p.family},{_fmt(p.param)},{_fmt(p.hc_kw)},{_fmt(p.pof)},{_fmt(p.gini)},{p.status}\n")
    return buf.getvalue()


def points_from_csv(text: str) -> list[ParetoPoint]:
    rows = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not rows or rows[0][1] != CSV_HEADER:
        raise ValueError(f"expected header {CSV_HEADER!r}")
    columns = CSV_HEADER.split(",")
    points = []
    for no, ln in rows[1:]:
        cells = ln.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"line {no}: expected {len(columns)} comma-separated fields, got {len(cells)}")
        values = []
        for name, cell in zip(columns[1:-1], cells[1:-1]):
            try:
                values.append(float(cell) if cell else math.nan)
            except ValueError as exc:
                raise ValueError(f"line {no}: column {name!r}: {exc}") from None
        points.append(ParetoPoint(cells[0], *values, cells[-1]))
    return points
