"""Radial LV feeder model: domain types, JSON parser/serializer, per-unit conversion, statistics.

All feeders are trees rooted at a single slack (substation) bus.  SI quantities
live in :class:`Feeder`; the solvers operate on :class:`NormalizedFeeder`, where
impedances, powers and ratings have been scaled to the feeder bases.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParseError, SchemaError, UnknownBus, ValidationError

DEFAULT_V_MIN = 0.90
DEFAULT_V_MAX = 1.10
DEFAULT_DTHETA = math.radians(10.0)

BUS_KINDS = ("slack", "junction", "load")


@dataclass(frozen=True)
class Bus:
    """Network node with voltage-magnitude and angle-difference limits (per unit / rad)."""

    id: str
    kind: str
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX
    dtheta_min: float = -DEFAULT_DTHETA
    dtheta_max: float = DEFAULT_DTHETA

    def __post_init__(self):
        if self.kind not in BUS_KINDS:
            raise ValidationError(f"bus {self.id!r}: unknown kind {self.kind!r}")
        if not 0.0 < self.v_min < self.v_max:
            raise ValidationError(f"bus {self.id!r}: require 0 < v_min < v_max")
        if not self.dtheta_min < 0.0 < self.dtheta_max:
            raise ValidationError(f"bus {self.id!r}: require dtheta_min < 0 < dtheta_max")


@dataclass(frozen=True)
class Line:
    """Series branch. Impedance in ohms, thermal rating as a current at nominal voltage."""

    from_bus: str
    to_bus: str
    resistance: float  # ohm
    reactance: float  # ohm
    length: float  # meters
    rated_current: float  # ampere
    nominal_voltage: float  # volt

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValidationError(f"line {self.from_bus!r}-{self.to_bus!r}: self loop")
        if self.resistance <= 0:
            raise ValidationError(f"line {self.from_bus!r}-{self.to_bus!r}: resistance must be > 0")
        if self.reactance < 0:
            raise ValidationError(f"line {self.from_bus!r}-{self.to_bus!r}: reactance must be >= 0")
        if self.rated_current <= 0:
            raise ValidationError(f"line {self.from_bus!r}-{self.to_bus!r}: rated_current must be > 0")
        if self.nominal_voltage <= 0:
            raise ValidationError(f"line {self.from_bus!r}-{self.to_bus!r}: nominal_voltage must be > 0")

    @property
    def impedance_abs(self) -> float:
        return math.hypot(self.resistance, self.reactance)


@dataclass(frozen=True)
class GridConnection:
    """Transformer exchange limits at the slack bus (kW / kvar)."""

    bus: str
    p_max: float
    q_max: float

    def __post_init__(self):
        if self.p_max <= 0 or self.q_max <= 0:
            raise ValidationError("grid connection: p_max and q_max must be > 0")


@dataclass(frozen=True)
class Load:
    """Demand record attached to one load bus (kW / kvar)."""

    bus: str
    p_demand: float
    q_demand: float

    def __post_init__(self):
        if self.p_demand < 0:
            raise ValidationError(f"load at {self.bus!r}: p_demand must be >= 0")


@dataclass(frozen=True)
class Feeder:
    """Immutable radial feeder in SI units."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    loads: tuple[Load, ...]
    connection: GridConnection
    s_base: float  # kVA
    v_base: float  # volt
    dg_cap: float  # kW, global per-load ceiling

    def __post_init__(self):
        if self.s_base <= 0 or self.v_base <= 0:
            raise ValidationError("feeder bases must be > 0")
        if self.dg_cap <= 0:
            raise ValidationError("dg_cap must be > 0")
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate bus ids")
        by_id = {b.id: b for b in self.buses}
        slacks = [b for b in self.buses if b.kind == "slack"]
        if len(slacks) != 1:
            raise ValidationError(f"feeder must have exactly one slack bus, found {len(slacks)}")
        if self.connection.bus != slacks[0].id:
            raise ValidationError("grid connection must attach to the slack bus")
        for ln in self.lines:
            for end in (ln.from_bus, ln.to_bus):
                if end not in by_id:
                    raise ValidationError(f"line references unknown bus {end!r}")
        # radiality: |lines| = |buses| - 1 and connected (union-find)
        if len(self.lines) != len(self.buses) - 1:
            raise ValidationError("not radial: |lines| != |buses| - 1")
        parent = {b.id: b.id for b in self.buses}

        def find(u):
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            return u

        for ln in self.lines:
            ru, rv = find(ln.from_bus), find(ln.to_bus)
            if ru == rv:
                raise ValidationError("not radial: line graph contains a cycle")
            parent[ru] = rv
        roots = {find(b.id) for b in self.buses}
        if len(roots) != 1:
            raise ValidationError("feeder is disconnected")
        # loads: bijection with load-kind buses
        load_buses = {b.id for b in self.buses if b.kind == "load"}
        seen = set()
        for ld in self.loads:
            if ld.bus not in by_id:
                raise ValidationError(f"load references unknown bus {ld.bus!r}")
            if by_id[ld.bus].kind != "load":
                raise ValidationError(f"load attached to non-load bus {ld.bus!r}")
            if ld.bus in seen:
                raise ValidationError(f"duplicate load at bus {ld.bus!r}")
            seen.add(ld.bus)
        missing = load_buses - seen
        if missing:
            raise ValidationError(f"load buses without a load record: {sorted(missing)}")

    @property
    def slack_id(self) -> str:
        return next(b.id for b in self.buses if b.kind == "slack")

    def bus(self, bus_id: str) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise UnknownBus(bus_id)


@dataclass(frozen=True)
class FeederStats:
    """Table-style aggregate feeder characteristics."""

    total_length: float  # km
    total_resistance: float  # ohm
    total_reactance: float  # ohm
    r_over_x: float
    impedance: float  # ohm, sqrt(R^2 + X^2) of the summed values
    n_loads: int
    n_buses: int


@dataclass(frozen=True)
class NormalizedFeeder:
    """Per-unit view of a feeder, indexed by position. Array fields are read-only by convention.

    Line direction is from ``from_bus[l]`` toward ``to_bus[l]``; angle-difference
    limits applied per line come from the from-bus.
    """

    bus_ids: tuple[str, ...]
    slack: int  # bus index
    from_bus: np.ndarray  # (L,) int
    to_bus: np.ndarray  # (L,) int
    g: np.ndarray  # (L,) series conductance, pu
    b: np.ndarray  # (L,) series susceptance, pu (<= 0)
    s_rated: np.ndarray  # (L,) apparent-power limit, pu
    v_min: np.ndarray  # (n,) pu
    v_max: np.ndarray  # (n,) pu
    dtheta_min: np.ndarray  # (n,) rad
    dtheta_max: np.ndarray  # (n,) rad
    load_bus: np.ndarray  # (D,) int, bus index of each load
    p_demand: np.ndarray  # (D,) pu
    q_demand: np.ndarray  # (D,) pu
    slack_p_max: float  # pu
    slack_q_max: float  # pu
    dg_cap: float  # pu, per-load ceiling
    s_base: float  # kVA
    v_base: float  # volt

    @property
    def n_bus(self) -> int:
        return len(self.bus_ids)

    @property
    def n_line(self) -> int:
        return len(self.from_bus)

    @property
    def n_loads(self) -> int:
        return len(self.load_bus)

    @cached_property
    def plan(self):
        """Index plan of the power-flow equations (:class:`fairhc.powerflow.FeederPlan`)."""
        from .powerflow import build_plan

        return build_plan(self)


def z_base_ohm(s_base_kva: float, v_base_v: float) -> float:
    """Impedance base V^2 / S."""
    return v_base_v**2 / (s_base_kva * 1000.0)


def to_per_unit(feeder: Feeder) -> NormalizedFeeder:
    """Scale a feeder to its own (s_base, v_base) bases.

    Thermal ratings become apparent-power limits S = U_nom * I_rated / S_base.
    """
    zb = z_base_ohm(feeder.s_base, feeder.v_base)
    sb_w = feeder.s_base * 1000.0
    idx = {b.id: i for i, b in enumerate(feeder.buses)}
    slack = idx[feeder.slack_id]
    from_bus = np.array([idx[ln.from_bus] for ln in feeder.lines], dtype=int)
    to_bus = np.array([idx[ln.to_bus] for ln in feeder.lines], dtype=int)
    r_pu = np.array([ln.resistance for ln in feeder.lines]) / zb
    x_pu = np.array([ln.reactance for ln in feeder.lines]) / zb
    z2 = r_pu**2 + x_pu**2
    g = r_pu / z2
    b = -x_pu / z2
    s_rated = np.array([ln.nominal_voltage * ln.rated_current for ln in feeder.lines]) / sb_w
    loads = feeder.loads
    return NormalizedFeeder(
        bus_ids=tuple(b_.id for b_ in feeder.buses),
        slack=slack,
        from_bus=from_bus,
        to_bus=to_bus,
        g=g,
        b=b,
        s_rated=s_rated,
        v_min=np.array([b_.v_min for b_ in feeder.buses]),
        v_max=np.array([b_.v_max for b_ in feeder.buses]),
        dtheta_min=np.array([b_.dtheta_min for b_ in feeder.buses]),
        dtheta_max=np.array([b_.dtheta_max for b_ in feeder.buses]),
        load_bus=np.array([idx[ld.bus] for ld in loads], dtype=int),
        p_demand=np.array([ld.p_demand for ld in loads]) / feeder.s_base,
        q_demand=np.array([ld.q_demand for ld in loads]) / feeder.s_base,
        slack_p_max=feeder.connection.p_max / feeder.s_base,
        slack_q_max=feeder.connection.q_max / feeder.s_base,
        dg_cap=feeder.dg_cap / feeder.s_base,
        s_base=feeder.s_base,
        v_base=feeder.v_base,
    )


# ---------------------------------------------------------------------------
# JSON feeder file format
# ---------------------------------------------------------------------------

_TOP_KEYS = {"s_base_kva", "v_base_v", "dg_cap_kw", "buses", "lines", "loads", "connection"}
_BUS_REQ = {"id", "kind"}
_BUS_OPT = {"v_min", "v_max", "dtheta_min", "dtheta_max"}
_LINE_KEYS = {"from", "to", "r_ohm", "x_ohm", "length_m", "i_rated_a", "u_nom_v"}
_LOAD_KEYS = {"bus", "p_kw", "q_kvar"}
_CONN_KEYS = {"bus", "p_max_kw", "q_max_kvar"}


def _require_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise SchemaError(f"{where}: missing field(s) {sorted(missing)}")
    extra = keys - required - optional
    if extra:
        raise SchemaError(f"{where}: unknown field(s) {sorted(extra)}")


def _num(obj, key, where):
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}: field {key!r} must be a number")
    return float(v)


def _str(obj, key, where):
    v = obj[key]
    if not isinstance(v, str):
        raise SchemaError(f"{where}: field {key!r} must be a string")
    return v


def parse_feeder(text: str) -> Feeder:
    """Parse and fully validate a feeder JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    _require_keys(doc, _TOP_KEYS, set(), "feeder")
    for key in ("buses", "lines", "loads"):
        if not isinstance(doc[key], list):
            raise SchemaError(f"feeder: {key!r} must be an array")
    buses = []
    for i, raw in enumerate(doc["buses"]):
        where = f"buses[{i}]"
        _require_keys(raw, _BUS_REQ, _BUS_OPT, where)
        kw = {"id": _str(raw, "id", where), "kind": _str(raw, "kind", where)}
        for opt in _BUS_OPT:
            if opt in raw:
                kw[opt] = _num(raw, opt, where)
        buses.append(Bus(**kw))
    lines = []
    for i, raw in enumerate(doc["lines"]):
        where = f"lines[{i}]"
        _require_keys(raw, _LINE_KEYS, set(), where)
        lines.append(
            Line(
                from_bus=_str(raw, "from", where),
                to_bus=_str(raw, "to", where),
                resistance=_num(raw, "r_ohm", where),
                reactance=_num(raw, "x_ohm", where),
                length=_num(raw, "length_m", where),
                rated_current=_num(raw, "i_rated_a", where),
                nominal_voltage=_num(raw, "u_nom_v", where),
            )
        )
    loads = []
    for i, raw in enumerate(doc["loads"]):
        where = f"loads[{i}]"
        _require_keys(raw, _LOAD_KEYS, set(), where)
        loads.append(
            Load(
                bus=_str(raw, "bus", where),
                p_demand=_num(raw, "p_kw", where),
                q_demand=_num(raw, "q_kvar", where),
            )
        )
    _require_keys(doc["connection"], _CONN_KEYS, set(), "connection")
    conn = GridConnection(
        bus=_str(doc["connection"], "bus", "connection"),
        p_max=_num(doc["connection"], "p_max_kw", "connection"),
        q_max=_num(doc["connection"], "q_max_kvar", "connection"),
    )
    return Feeder(
        buses=tuple(buses),
        lines=tuple(lines),
        loads=tuple(loads),
        connection=conn,
        s_base=_num(doc, "s_base_kva", "feeder"),
        v_base=_num(doc, "v_base_v", "feeder"),
        dg_cap=_num(doc, "dg_cap_kw", "feeder"),
    )


def feeder_to_dict(feeder: Feeder) -> dict:
    buses = []
    for b in feeder.buses:
        raw = {"id": b.id, "kind": b.kind, "v_min": b.v_min, "v_max": b.v_max}
        if b.dtheta_min != -DEFAULT_DTHETA:
            raw["dtheta_min"] = b.dtheta_min
        if b.dtheta_max != DEFAULT_DTHETA:
            raw["dtheta_max"] = b.dtheta_max
        buses.append(raw)
    return {
        "s_base_kva": feeder.s_base,
        "v_base_v": feeder.v_base,
        "dg_cap_kw": feeder.dg_cap,
        "buses": buses,
        "lines": [
            {
                "from": ln.from_bus,
                "to": ln.to_bus,
                "r_ohm": ln.resistance,
                "x_ohm": ln.reactance,
                "length_m": ln.length,
                "i_rated_a": ln.rated_current,
                "u_nom_v": ln.nominal_voltage,
            }
            for ln in feeder.lines
        ],
        "loads": [
            {"bus": ld.bus, "p_kw": ld.p_demand, "q_kvar": ld.q_demand} for ld in feeder.loads
        ],
        "connection": {
            "bus": feeder.connection.bus,
            "p_max_kw": feeder.connection.p_max,
            "q_max_kvar": feeder.connection.q_max,
        },
    }


def serialize_feeder(feeder: Feeder, indent: int = 2) -> str:
    return json.dumps(feeder_to_dict(feeder), indent=indent)


# ---------------------------------------------------------------------------
# Statistics and distances
# ---------------------------------------------------------------------------

def feeder_stats(feeder: Feeder) -> FeederStats:
    """Aggregate length/impedance statistics over all line segments."""
    total_r = sum(ln.resistance for ln in feeder.lines)
    total_x = sum(ln.reactance for ln in feeder.lines)
    total_len = sum(ln.length for ln in feeder.lines) / 1000.0
    r_over_x = total_r / total_x if total_x > 0 else math.inf
    return FeederStats(
        total_length=total_len,
        total_resistance=total_r,
        total_reactance=total_x,
        r_over_x=r_over_x,
        impedance=math.hypot(total_r, total_x),
        n_loads=len(feeder.loads),
        n_buses=len(feeder.buses),
    )


def electrical_distance(feeder: Feeder, bus: str) -> float:
    """Sum of |z| in ohms along the unique slack-to-bus path."""
    ids = {b.id for b in feeder.buses}
    if bus not in ids:
        raise UnknownBus(bus)
    adj: dict[str, list[tuple[str, float]]] = {b.id: [] for b in feeder.buses}
    for ln in feeder.lines:
        adj[ln.from_bus].append((ln.to_bus, ln.impedance_abs))
        adj[ln.to_bus].append((ln.from_bus, ln.impedance_abs))
    dist = {feeder.slack_id: 0.0}
    queue = deque([feeder.slack_id])
    while queue:
        u = queue.popleft()
        for v, z in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + z
                queue.append(v)
    return dist[bus]
