"""Synthetic radial feeder generation for topology-sensitivity experiments.

Two layouts with uniform conductor and loads, so topology is the only varying
factor: ``linear`` chains every load along one trunk; ``branched`` hangs each
load off a short lateral from a trunk junction.
"""
from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ValidationError
from .kpi import gini, price_of_fairness
from .netmodel import NON_NEGATIVE, POSITIVE, Bus, Feeder, GridConnection, Line, Load, check_fields, to_per_unit
from .solver import solve_references

LAYOUTS = ("linear", "branched")
V_BASE_V = 230.0  # also every line's nominal voltage
S_BASE_KVA = 100.0
GRID_P_MAX_KW = 1e5
GRID_Q_MAX_KVAR = 1e5


@dataclass(frozen=True)
class Conductor:
    r_ohm_per_km: float = field(default=0.9, metadata=POSITIVE)
    x_ohm_per_km: float = field(default=0.08, metadata=NON_NEGATIVE)
    i_rated_a: float = field(default=200.0, metadata=POSITIVE)

    def __post_init__(self):
        check_fields(self, "conductor")


@dataclass(frozen=True)
class SynthSpec:
    n_loads: int = field(metadata={"range": (">=", 1)})
    layout: str = field(metadata={"range": ("in", LAYOUTS)})
    trunk_len_m: float = field(metadata=POSITIVE)
    branch_len_m: float = field(default=30.0, metadata=POSITIVE)  # per lateral, branched layout only
    conductor: Conductor = field(default_factory=Conductor)
    load_p_kw: float = 1.0
    load_q_kvar: float = 0.3
    dg_cap_kw: float = 1000.0

    def __post_init__(self):
        check_fields(self, "synth spec")

    @property
    def total_length_m(self) -> float:
        if self.layout == "branched":
            return self.trunk_len_m + self.n_loads * self.branch_len_m
        return self.trunk_len_m


def _line(spec: SynthSpec, frm: str, to: str, length_m: float) -> Line:
    c = spec.conductor
    km = length_m / 1000.0
    return Line(
        from_bus=frm,
        to_bus=to,
        resistance=c.r_ohm_per_km * km,
        reactance=c.x_ohm_per_km * km,
        length=length_m,
        rated_current=c.i_rated_a,
        nominal_voltage=V_BASE_V,
    )


def generate_feeder(spec: SynthSpec) -> Feeder:
    """Deterministic feeder for the spec; always radial and validation-clean."""
    n = spec.n_loads
    seg = spec.trunk_len_m / n
    buses = [Bus(id="slack", kind="slack")]
    lines: list[Line] = []
    loads: list[Load] = []
    if spec.layout == "linear":
        prev = "slack"
        for i in range(1, n + 1):
            bid = f"b{i}"
            buses.append(Bus(id=bid, kind="load"))
            lines.append(_line(spec, prev, bid, seg))
            loads.append(Load(bus=bid, p_demand=spec.load_p_kw, q_demand=spec.load_q_kvar))
            prev = bid
    else:
        prev = "slack"
        for i in range(1, n + 1):
            jid, lid = f"j{i}", f"l{i}"
            buses.append(Bus(id=jid, kind="junction"))
            buses.append(Bus(id=lid, kind="load"))
            lines.append(_line(spec, prev, jid, seg))
            lines.append(_line(spec, jid, lid, spec.branch_len_m))
            loads.append(Load(bus=lid, p_demand=spec.load_p_kw, q_demand=spec.load_q_kvar))
            prev = jid
    return Feeder(
        buses=tuple(buses),
        lines=tuple(lines),
        loads=tuple(loads),
        connection=GridConnection(bus="slack", p_max=GRID_P_MAX_KW, q_max=GRID_Q_MAX_KVAR),
        s_base=S_BASE_KVA,
        v_base=V_BASE_V,
        dg_cap=spec.dg_cap_kw,
    )


@dataclass(frozen=True)
class FeederReport:
    layout: str
    hc_uti_kw: float
    hc_egal_kw: float
    pof_egal: float
    gini_uti: float


@dataclass(frozen=True)
class TopologyReport:
    linear: FeederReport
    branched: FeederReport
    pof_gap: float  # pof_egal(linear) - pof_egal(branched)

    @property
    def linear_loses_more(self) -> bool:
        return self.pof_gap > 0

    def to_dict(self) -> dict:
        d = {"linear": asdict(self.linear), "branched": asdict(self.branched)}
        d["pof_gap"] = self.pof_gap
        d["linear_loses_more"] = self.linear_loses_more
        return d


def _evaluate(spec: SynthSpec) -> FeederReport:
    nf = to_per_unit(generate_feeder(spec))
    _, uti, egal = solve_references(nf)
    return FeederReport(
        layout=spec.layout,
        hc_uti_kw=uti.hc_total,
        hc_egal_kw=egal.hc_total,
        pof_egal=price_of_fairness(uti.hc_total, egal.hc_total),
        gini_uti=gini(uti.allocation),
    )


def topology_experiment(linear_spec: SynthSpec, branched_spec: SynthSpec) -> TopologyReport:
    """Utilitarian vs egalitarian HC on a matched linear/branched feeder pair."""
    if linear_spec.layout != "linear" or branched_spec.layout != "branched":
        raise ValidationError("specs must be (linear, branched) in that order")
    if linear_spec.n_loads != branched_spec.n_loads:
        raise ValidationError("specs must have equal n_loads")
    if abs(linear_spec.total_length_m - branched_spec.total_length_m) > 1e-6:
        raise ValidationError("specs must have equal total conductor length")
    lin = _evaluate(linear_spec)
    bra = _evaluate(branched_spec)
    return TopologyReport(linear=lin, branched=bra, pof_gap=lin.pof_egal - bra.pof_egal)
