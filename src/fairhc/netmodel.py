"""Radial LV feeder model: domain types, JSON parser/serializer, per-unit conversion, statistics.

All feeders are trees rooted at a single slack (substation) bus.  SI quantities
live in :class:`Feeder`; the solvers operate on :class:`NormalizedFeeder`, where
impedances, powers and ratings have been scaled to the feeder bases.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields
from functools import cache, cached_property

import numpy as np

from .errors import ParseError, SchemaError, UnknownBus, ValidationError

DEFAULT_V_MIN = 0.90
DEFAULT_V_MAX = 1.10
DEFAULT_DTHETA = math.radians(10.0)

BUS_KINDS = ("slack", "junction", "load")

# Field metadata that declares a range, which check_fields enforces: (op, bound) with
# op ">" or ">=", or ("in", choices)
POSITIVE = {"range": (">", 0.0)}
NON_NEGATIVE = {"range": (">=", 0.0)}


@cache
def _rules(cls) -> tuple[tuple[str, str, object], ...]:
    """(name, type, op, bound) of each field of a record class that declares a range, and
    (name, type, ">", -inf) of every other field annotated ``float`` or ``int``."""
    return tuple((f.name, f.type, *f.metadata.get("range", (">", -math.inf))) for f in fields(cls)
                 if "range" in f.metadata or f.type in ("float", "int"))


def check_fields(record, where: str) -> None:
    """Reject a NaN or infinite number field of ``record``, a non-integer ``int`` one and a field outside
    its declared range; ``where``, formatted with the record (``"bus {0.id!r}"``), starts the message."""
    values = vars(record)
    for name, kind, op, bound in _rules(type(record)):
        value = values[name]
        if kind == "int":
            try:
                operator.index(value)  # NumPy integers pass, 2.0 does not
            except TypeError:
                raise ValidationError(f"{where.format(record)}: {name} must be an integer") from None
        if op == "in":
            if value not in bound:
                raise ValidationError(f"{where.format(record)}: unknown {name} {value!r}")
        elif not (bound < value < math.inf if op == ">" else bound <= value < math.inf):
            rule = f"{op} {bound:g}" if math.isfinite(value) else "finite"
            raise ValidationError(f"{where.format(record)}: {name} must be {rule}")


@dataclass(frozen=True)
class Bus:
    """Network node with voltage-magnitude and angle-difference limits (per unit / rad)."""

    id: str
    kind: str = field(metadata={"range": ("in", BUS_KINDS)})
    v_min: float = DEFAULT_V_MIN
    v_max: float = DEFAULT_V_MAX
    dtheta_min: float = -DEFAULT_DTHETA
    dtheta_max: float = DEFAULT_DTHETA

    def __post_init__(self):
        check_fields(self, "bus {0.id!r}")
        if not 0.0 < self.v_min < self.v_max:
            raise ValidationError(f"bus {self.id!r}: require 0 < v_min < v_max")
        if not self.dtheta_min < 0.0 < self.dtheta_max:
            raise ValidationError(f"bus {self.id!r}: require dtheta_min < 0 < dtheta_max")


@dataclass(frozen=True)
class Line:
    """Series branch. Impedance in ohms, thermal rating as a current at nominal voltage."""

    from_bus: str
    to_bus: str
    resistance: float = field(metadata=POSITIVE)  # ohm
    reactance: float = field(metadata=NON_NEGATIVE)  # ohm
    length: float = field(metadata=POSITIVE)  # meters
    rated_current: float = field(metadata=POSITIVE)  # ampere
    nominal_voltage: float = field(metadata=POSITIVE)  # volt

    def __post_init__(self):
        check_fields(self, "line {0.from_bus!r}-{0.to_bus!r}")
        if self.from_bus == self.to_bus:
            raise ValidationError(f"line {self.from_bus!r}-{self.to_bus!r}: self loop")

    @property
    def impedance_abs(self) -> float:
        return math.hypot(self.resistance, self.reactance)


@dataclass(frozen=True)
class GridConnection:
    """Transformer exchange limits at the slack bus (kW / kvar)."""

    bus: str
    p_max: float = field(metadata=POSITIVE)
    q_max: float = field(metadata=POSITIVE)

    def __post_init__(self):
        check_fields(self, "grid connection")


@dataclass(frozen=True)
class Load:
    """Demand record attached to one load bus (kW / kvar)."""

    bus: str
    p_demand: float = field(metadata=NON_NEGATIVE)
    q_demand: float

    def __post_init__(self):
        check_fields(self, "load at {0.bus!r}")


@dataclass(frozen=True)
class Feeder:
    """Immutable radial feeder in SI units."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    loads: tuple[Load, ...]
    connection: GridConnection
    s_base: float = field(metadata=POSITIVE)  # kVA
    v_base: float = field(metadata=POSITIVE)  # volt
    dg_cap: float = field(metadata=POSITIVE)  # kW, global per-load ceiling

    def __post_init__(self):
        check_fields(self, "feeder")
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
        # radiality: |lines| = |buses| - 1, so a walk from the slack that misses
        # a bus has met a cycle
        if len(self.lines) != len(self.buses) - 1:
            raise ValidationError("not radial: |lines| != |buses| - 1")
        if len(self.walk) != len(self.buses):
            raise ValidationError("not radial: line graph contains a cycle")
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
        if not self.loads:
            raise ValidationError("feeder must have at least one load")

    @property
    def slack_id(self) -> str:
        return next(b.id for b in self.buses if b.kind == "slack")

    @cached_property
    def walk(self) -> list[tuple[str, str | None, Line | None]]:
        """Breadth-first walk of the lines from the slack: each bus it reaches, with
        its parent and the line between them (None at the slack), in walk order."""
        adj: dict[str, list[tuple[str, Line]]] = {b.id: [] for b in self.buses}
        for ln in self.lines:
            adj[ln.from_bus].append((ln.to_bus, ln))
            adj[ln.to_bus].append((ln.from_bus, ln))
        walk = [(self.slack_id, None, None)]
        seen = {self.slack_id}
        for bus, _, _ in walk:
            for nxt, ln in adj[bus]:
                if nxt not in seen:
                    seen.add(nxt)
                    walk.append((nxt, bus, ln))
        return walk


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
    )


# ---------------------------------------------------------------------------
# JSON feeder file format
# ---------------------------------------------------------------------------

# One ordered table per record: JSON key -> (constructor field, kind).  A kind is
# "string", "number", "number?" (a number that may be left out, so the field keeps
# its default), a record class (a nested object) or a one-class tuple (an array of
# those records).  Records are read, checked and written in table order.
_FORMAT: dict[type, dict[str, tuple[str, object]]] = {
    Feeder: {"s_base_kva": ("s_base", "number"), "v_base_v": ("v_base", "number"),
             "dg_cap_kw": ("dg_cap", "number"), "buses": ("buses", (Bus,)),
             "lines": ("lines", (Line,)), "loads": ("loads", (Load,)),
             "connection": ("connection", GridConnection)},
    Bus: {"id": ("id", "string"), "kind": ("kind", "string"),
          "v_min": ("v_min", "number?"), "v_max": ("v_max", "number?"),
          "dtheta_min": ("dtheta_min", "number?"), "dtheta_max": ("dtheta_max", "number?")},
    Line: {"from": ("from_bus", "string"), "to": ("to_bus", "string"),
           "r_ohm": ("resistance", "number"), "x_ohm": ("reactance", "number"),
           "length_m": ("length", "number"), "i_rated_a": ("rated_current", "number"),
           "u_nom_v": ("nominal_voltage", "number")},
    Load: {"bus": ("bus", "string"), "p_kw": ("p_demand", "number"), "q_kvar": ("q_demand", "number")},
    GridConnection: {"bus": ("bus", "string"), "p_max_kw": ("p_max", "number"),
                     "q_max_kvar": ("q_max", "number")},
}


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


def _record(cls, raw, where):
    """Check ``raw`` against the table of ``cls`` and build it: the keys, then
    every array, then the nested records, then the plain fields."""
    table = _FORMAT[cls]
    optional = {key for key, (_, kind) in table.items() if kind == "number?"}
    _require_keys(raw, set(table) - optional, optional, where)
    for key, (_, kind) in table.items():
        if isinstance(kind, tuple) and not isinstance(raw[key], list):
            raise SchemaError(f"{where}: {key!r} must be an array")
    kw = {}
    for key, (name, kind) in table.items():
        if isinstance(kind, tuple):
            kw[name] = tuple(_record(kind[0], item, f"{key}[{i}]") for i, item in enumerate(raw[key]))
        elif kind in _FORMAT:
            kw[name] = _record(kind, raw[key], key)
    for key, (name, kind) in table.items():
        if isinstance(kind, str) and key in raw:
            v, kind = raw[key], kind.rstrip("?")
            if kind == "string" and not isinstance(v, str) or kind == "number" and (
                    isinstance(v, bool) or not isinstance(v, (int, float))):
                raise SchemaError(f"{where}: field {key!r} must be a {kind}")
            kw[name] = float(v) if kind == "number" else v
    return cls(**kw)


def parse_feeder(text: str) -> Feeder:
    """Parse and fully validate a feeder JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    return _record(Feeder, doc, "feeder")


def feeder_to_dict(record) -> dict:
    """JSON object of a feeder (or of any record in it), keys in table order.

    A bus's angle limits are written only where they differ from the defaults.
    """
    raw = {}
    for key, (name, kind) in _FORMAT[type(record)].items():
        value = getattr(record, name)
        if isinstance(kind, tuple):
            value = [feeder_to_dict(item) for item in value]
        elif kind in _FORMAT:
            value = feeder_to_dict(value)
        elif key in ("dtheta_min", "dtheta_max") and value == getattr(Bus, name):
            continue
        raw[key] = value
    return raw


def serialize_feeder(feeder: Feeder) -> str:
    return json.dumps(feeder_to_dict(feeder), indent=2)


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
    dist = {}
    for b, parent, ln in feeder.walk:
        dist[b] = 0.0 if ln is None else dist[parent] + ln.impedance_abs
    if bus not in dist:
        raise UnknownBus(bus)
    return dist[bus]
