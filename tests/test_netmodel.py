import dataclasses
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairhc.errors import ParseError, SchemaError, UnknownBus, ValidationError
from fairhc.netmodel import (
    _FORMAT,
    Bus,
    Feeder,
    GridConnection,
    Line,
    Load,
    electrical_distance,
    feeder_stats,
    parse_feeder,
    serialize_feeder,
    to_per_unit,
    z_base_ohm,
)
from fairhc.synth import Conductor, SynthSpec, generate_feeder

from conftest import feeder_dict


def _line(frm, to, r=0.03, x=0.005, length=50.0, i=400.0, u=230.0):
    return Line(from_bus=frm, to_bus=to, resistance=r, reactance=x,
                length=length, rated_current=i, nominal_voltage=u)


def _feeder(buses, lines, loads, **kw):
    kw.setdefault("connection", GridConnection(bus="slack", p_max=1e5, q_max=1e5))
    kw.setdefault("s_base", 100.0)
    kw.setdefault("v_base", 230.0)
    kw.setdefault("dg_cap", 500.0)
    return Feeder(buses=tuple(buses), lines=tuple(lines), loads=tuple(loads), **kw)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class TestParseFeeder:
    def test_minimal_two_bus(self):
        doc = feeder_dict()
        doc["buses"] = doc["buses"][:2]
        doc["lines"] = doc["lines"][:1]
        doc["loads"] = doc["loads"][:1]
        feeder = parse_feeder(json.dumps(doc))
        assert len(feeder.buses) == 2
        assert len(feeder.loads) == 1

    def test_full_document(self):
        feeder = parse_feeder(json.dumps(feeder_dict()))
        assert feeder.slack_id == "slack"
        assert feeder.s_base == 100.0
        assert {b.id: b for b in feeder.buses}["a"].v_max == 1.05

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_feeder("{not json")

    def test_missing_top_key(self):
        doc = feeder_dict()
        del doc["dg_cap_kw"]
        with pytest.raises(SchemaError):
            parse_feeder(json.dumps(doc))

    def test_extra_key_rejected(self):
        doc = feeder_dict()
        doc["buses"][0]["color"] = "red"
        with pytest.raises(SchemaError):
            parse_feeder(json.dumps(doc))

    def test_wrong_type(self):
        doc = feeder_dict()
        doc["lines"][0]["r_ohm"] = "high"
        with pytest.raises(SchemaError):
            parse_feeder(json.dumps(doc))

    def test_bool_is_not_a_number(self):
        doc = feeder_dict()
        doc["s_base_kva"] = True
        with pytest.raises(SchemaError):
            parse_feeder(json.dumps(doc))

    def test_cycle_rejected(self):
        doc = feeder_dict()
        doc["buses"].append({"id": "c", "kind": "junction"})
        doc["lines"].append({"from": "b", "to": "c", "r_ohm": 0.03, "x_ohm": 0.005,
                             "length_m": 50.0, "i_rated_a": 400.0, "u_nom_v": 230.0})
        doc["lines"].append({"from": "c", "to": "slack", "r_ohm": 0.03, "x_ohm": 0.005,
                             "length_m": 50.0, "i_rated_a": 400.0, "u_nom_v": 230.0})
        with pytest.raises(ValidationError, match="not radial"):
            parse_feeder(json.dumps(doc))

    def test_round_trip_identity(self):
        feeder = parse_feeder(json.dumps(feeder_dict()))
        again = parse_feeder(serialize_feeder(feeder))
        assert again == feeder


# ---------------------------------------------------------------------------
# the file format, held to fixed bytes and fixed messages
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "branched_feeder.json"


def golden_feeder():
    """Branched 3-load synth feeder with non-default limits on two buses."""
    feeder = generate_feeder(SynthSpec(n_loads=3, layout="branched", trunk_len_m=120.0))
    buses = list(feeder.buses)
    buses[2] = Bus("l1", "load", v_min=0.94, v_max=1.06, dtheta_min=-0.2, dtheta_max=0.25)
    buses[3] = Bus("j2", "junction", dtheta_max=0.3)
    return replace(feeder, buses=tuple(buses))


def _set(*path, value):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _drop(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _both(*edits):
    def edit(doc):
        for e in edits:
            e(doc)
    return edit


# (edit of feeder_dict(), exact message); every one raises SchemaError
SCHEMA_FAULTS = {
    "top-missing": (_drop("dg_cap_kw"), "feeder: missing field(s) ['dg_cap_kw']"),
    "top-unknown": (_set("extra", value=1), "feeder: unknown field(s) ['extra']"),
    "top-mistyped": (_set("s_base_kva", value=True), "feeder: field 's_base_kva' must be a number"),
    "bus-missing": (_drop("buses", 1, "kind"), "buses[1]: missing field(s) ['kind']"),
    "bus-unknown": (_set("buses", 0, "color", value="red"), "buses[0]: unknown field(s) ['color']"),
    "bus-mistyped-id": (_set("buses", 1, "id", value=3), "buses[1]: field 'id' must be a string"),
    "bus-mistyped-optional": (_set("buses", 1, "dtheta_max", value=None),
                              "buses[1]: field 'dtheta_max' must be a number"),
    "bus-not-object": (_set("buses", 1, value=[]), "buses[1]: expected an object"),
    "line-missing": (_drop("lines", 0, "x_ohm"), "lines[0]: missing field(s) ['x_ohm']"),
    "line-unknown": (_set("lines", 1, "color", value="red"), "lines[1]: unknown field(s) ['color']"),
    "line-mistyped": (_set("lines", 0, "r_ohm", value="high"), "lines[0]: field 'r_ohm' must be a number"),
    "line-mistyped-from": (_set("lines", 1, "from", value=1), "lines[1]: field 'from' must be a string"),
    "line-not-object": (_set("lines", 0, value="x"), "lines[0]: expected an object"),
    "load-missing": (_drop("loads", 0, "p_kw"), "loads[0]: missing field(s) ['p_kw']"),
    "load-unknown": (_set("loads", 1, "color", value="red"), "loads[1]: unknown field(s) ['color']"),
    "load-mistyped": (_set("loads", 0, "q_kvar", value="1"), "loads[0]: field 'q_kvar' must be a number"),
    "load-mistyped-bus": (_set("loads", 1, "bus", value=None), "loads[1]: field 'bus' must be a string"),
    "load-not-object": (_set("loads", 0, value=5), "loads[0]: expected an object"),
    "connection-missing": (_drop("connection", "q_max_kvar"),
                           "connection: missing field(s) ['q_max_kvar']"),
    "connection-unknown": (_set("connection", "color", value="red"),
                           "connection: unknown field(s) ['color']"),
    "connection-mistyped": (_set("connection", "p_max_kw", value="big"),
                            "connection: field 'p_max_kw' must be a number"),
    "connection-not-object": (_set("connection", value=[]), "connection: expected an object"),
    "buses-not-array": (_set("buses", value={}), "feeder: 'buses' must be an array"),
    "lines-not-array": (_set("lines", value="x"), "feeder: 'lines' must be an array"),
    "loads-not-array": (_set("loads", value=None), "feeder: 'loads' must be an array"),
    # two faults: arrays are checked first, then the records, then the top-level numbers
    "record-before-top-number": (_both(_set("s_base_kva", value=True), _drop("buses", 0, "kind")),
                                 "buses[0]: missing field(s) ['kind']"),
    "array-before-record": (_both(_set("buses", 1, "id", value=3), _set("lines", value="x")),
                            "feeder: 'lines' must be an array"),
    "loads-before-connection": (_both(_set("connection", "p_max_kw", value="big"),
                                      _set("loads", 0, "p_kw", value="1")),
                                "loads[0]: field 'p_kw' must be a number"),
}


class TestFileFormat:
    def test_serialized_bytes_are_pinned(self):
        assert serialize_feeder(golden_feeder()) == GOLDEN.read_text()

    def test_golden_file_round_trips(self):
        assert parse_feeder(GOLDEN.read_text()) == golden_feeder()

    @pytest.mark.parametrize("edit,message", SCHEMA_FAULTS.values(), ids=SCHEMA_FAULTS.keys())
    def test_schema_messages(self, edit, message):
        doc = feeder_dict()
        edit(doc)
        with pytest.raises(SchemaError) as exc:
            parse_feeder(json.dumps(doc))
        assert str(exc.value) == message

    def test_non_object_document(self):
        with pytest.raises(SchemaError) as exc:
            parse_feeder("[]")
        assert str(exc.value) == "feeder: expected an object"

    def test_bus_checked_before_next_record(self):
        doc = feeder_dict()
        doc["buses"][1]["v_min"] = 1.2
        doc["lines"][0]["r_ohm"] = "high"
        with pytest.raises(ValidationError) as exc:
            parse_feeder(json.dumps(doc))
        assert str(exc.value) == "bus 'a': require 0 < v_min < v_max"

    def test_optional_bus_keys_checked_in_table_order(self):
        doc = feeder_dict()
        for key in ("dtheta_max", "dtheta_min", "v_max", "v_min"):
            doc["buses"][1][key] = "x"
        with pytest.raises(SchemaError, match="field 'v_min' must be a number"):
            parse_feeder(json.dumps(doc))


# every number key of the format: its path into feeder_dict() and its field name
NUMBER_FIELDS = [((*where, key), name)
                 for cls, where in ((Feeder, ()), (Bus, ("buses", 1)), (Line, ("lines", 0)),
                                    (Load, ("loads", 0)), (GridConnection, ("connection",)))
                 for key, (name, kind) in _FORMAT[cls].items() if kind in ("number", "number?")]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("path, name", NUMBER_FIELDS, ids=["/".join(map(str, p)) for p, _ in NUMBER_FIELDS])
def test_non_finite_numbers_rejected(path, name, bad):
    """json.loads reads NaN and +-Infinity, and a range check such as ``r > 0`` lets NaN
    through, so each record rejects a number that is not finite by its field name."""
    doc = feeder_dict()
    _set(*path, value=bad)(doc)
    with pytest.raises(ValidationError, match=f": {name} must be finite$"):
        parse_feeder(json.dumps(doc))


# a valid record of every class whose fields may declare a range, and the name its messages start with
RECORDS = {
    Bus: (Bus("a", "load"), "bus 'a'"),
    Line: (_line("a", "b"), "line 'a'-'b'"),
    GridConnection: (GridConnection("slack", 1e5, 1e5), "grid connection"),
    Load: (Load("a", 2.0, 0.5), "load at 'a'"),
    Feeder: (parse_feeder(json.dumps(feeder_dict())), "feeder"),
    Conductor: (Conductor(), "conductor"),
    SynthSpec: (SynthSpec(3, "branched", 100.0), "synth spec"),
}
# every declared range: (class, field, op, bound)
RANGES = [(cls, f.name, *f.metadata["range"]) for cls in RECORDS for f in dataclasses.fields(cls)
          if "range" in f.metadata]


def test_every_record_of_the_format_has_a_valid_example():
    assert set(_FORMAT) <= set(RECORDS)


def test_every_example_record_declares_a_range():
    assert {cls for cls, *_ in RANGES} == set(RECORDS)


def next_value(cls, name, bound, direction):
    """The value of field ``name`` next to ``bound`` in ``direction`` (+1 or -1): the next
    float, or the next integer for a field annotated ``int``."""
    if {f.name: f.type for f in dataclasses.fields(cls)}[name] == "int":
        return bound + direction
    return math.nextafter(bound, direction * math.inf)


@pytest.mark.parametrize("cls, name, op, bound", RANGES, ids=[f"{c.__name__}.{n}" for c, n, *_ in RANGES])
def test_value_just_outside_a_declared_range_is_rejected(cls, name, op, bound):
    record, where = RECORDS[cls]
    if op == "in":
        value, message = "no_such_choice", f"{where}: unknown {name} 'no_such_choice'"
    else:
        value = bound if op == ">" else next_value(cls, name, bound, -1)
        message = f"{where}: {name} must be {op} {bound:g}"
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(record, **{name: value})
    assert str(err.value) == message


@pytest.mark.parametrize("cls, name, op, bound", RANGES, ids=[f"{c.__name__}.{n}" for c, n, *_ in RANGES])
def test_value_at_or_just_inside_a_declared_range_is_accepted(cls, name, op, bound):
    record, _ = RECORDS[cls]
    if op == "in":
        values = bound
    else:
        values = (next_value(cls, name, bound, 1),) if op == ">" else (bound, next_value(cls, name, bound, 1))
    for value in values:
        assert getattr(dataclasses.replace(record, **{name: value}), name) == value


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------

class TestFeederValidation:
    def test_two_slacks(self):
        with pytest.raises(ValidationError, match="slack"):
            _feeder(
                [Bus("slack", "slack"), Bus("x", "slack")],
                [_line("slack", "x")],
                [],
            )

    def test_disconnected(self):
        with pytest.raises(ValidationError):
            _feeder(
                [Bus("slack", "slack"), Bus("a", "load"), Bus("b", "junction"),
                 Bus("c", "junction")],
                [_line("slack", "a"), _line("slack", "a", r=0.01)],
                [Load("a", 1.0, 0.0)],
            )

    def test_cycle_with_a_spanning_line_count(self):
        # two parallel slack-a lines and an isolated bus pass the line-count check
        with pytest.raises(ValidationError, match="^not radial: line graph contains a cycle$"):
            _feeder(
                [Bus("slack", "slack"), Bus("a", "load"), Bus("b", "junction")],
                [_line("slack", "a"), _line("slack", "a", r=0.01)],
                [Load("a", 1.0, 0.0)],
            )

    def test_load_on_junction(self):
        with pytest.raises(ValidationError, match="non-load"):
            _feeder(
                [Bus("slack", "slack"), Bus("a", "junction")],
                [_line("slack", "a")],
                [Load("a", 1.0, 0.0)],
            )

    def test_load_bus_without_record(self):
        with pytest.raises(ValidationError, match="without a load"):
            _feeder(
                [Bus("slack", "slack"), Bus("a", "load")],
                [_line("slack", "a")],
                [],
            )

    def test_connection_must_sit_on_slack(self):
        with pytest.raises(ValidationError, match="slack"):
            _feeder(
                [Bus("slack", "slack"), Bus("a", "load")],
                [_line("slack", "a")],
                [Load("a", 1.0, 0.0)],
                connection=GridConnection(bus="a", p_max=1e5, q_max=1e5),
            )

    def test_bad_bus_kind(self):
        with pytest.raises(ValidationError):
            Bus("x", "generator")

    def test_nonpositive_resistance(self):
        with pytest.raises(ValidationError):
            _line("a", "b", r=0.0)

    @pytest.mark.parametrize("length", [0.0, -500.0])
    def test_nonpositive_length(self, length):
        with pytest.raises(ValidationError, match="length must be > 0"):
            _line("a", "b", length=length)

    @pytest.mark.parametrize("length", [0.0, -500.0])
    def test_nonpositive_length_in_a_file(self, length):
        doc = feeder_dict()
        doc["lines"][0]["length_m"] = length
        with pytest.raises(ValidationError, match="length must be > 0"):
            parse_feeder(json.dumps(doc))

    def test_slack_only_feeder_has_no_load(self):
        with pytest.raises(ValidationError, match="^feeder must have at least one load$"):
            _feeder([Bus("slack", "slack")], [], [])

    def test_feeder_without_loads(self):
        with pytest.raises(ValidationError, match="^feeder must have at least one load$"):
            _feeder([Bus("slack", "slack"), Bus("a", "junction")], [_line("slack", "a")], [])

    def test_duplicate_bus_ids(self):
        with pytest.raises(ValidationError, match="^duplicate bus ids$"):
            _feeder([Bus("slack", "slack"), Bus("a", "load"), Bus("a", "junction")],
                    [_line("slack", "a"), _line("slack", "a", r=0.01)], [Load("a", 1.0, 0.0)])

    def test_line_to_an_unknown_bus(self):
        with pytest.raises(ValidationError, match="^line references unknown bus 'ghost'$"):
            _feeder([Bus("slack", "slack"), Bus("a", "load")], [_line("slack", "ghost")],
                    [Load("a", 1.0, 0.0)])

    def test_load_at_an_unknown_bus(self):
        with pytest.raises(ValidationError, match="^load references unknown bus 'ghost'$"):
            _feeder([Bus("slack", "slack"), Bus("a", "load")], [_line("slack", "a")],
                    [Load("a", 1.0, 0.0), Load("ghost", 1.0, 0.0)])

    def test_duplicate_load(self):
        with pytest.raises(ValidationError, match="^duplicate load at bus 'a'$"):
            _feeder([Bus("slack", "slack"), Bus("a", "load")], [_line("slack", "a")],
                    [Load("a", 1.0, 0.0), Load("a", 2.0, 0.0)])

    @pytest.mark.parametrize("dtheta_min", [0.0, 0.1])
    def test_nonnegative_dtheta_min(self, dtheta_min):
        with pytest.raises(ValidationError, match=r"^bus 'a': require dtheta_min < 0 < dtheta_max$"):
            Bus("a", "load", dtheta_min=dtheta_min)

    def test_self_loop(self):
        with pytest.raises(ValidationError):
            _line("a", "a")


# ---------------------------------------------------------------------------
# per-unit conversion
# ---------------------------------------------------------------------------

class TestPerUnit:
    def test_z_base(self):
        assert z_base_ohm(1000.0, 230.0) == pytest.approx(0.0529)

    def test_resistance_scaling(self):
        feeder = _feeder(
            [Bus("slack", "slack"), Bus("a", "load")],
            [_line("slack", "a", r=0.0529, x=0.005)],
            [Load("a", 1.0, 0.0)],
            s_base=1000.0,
        )
        nf = to_per_unit(feeder)
        r_pu = nf.g / (nf.g**2 + nf.b**2)
        assert r_pu[0] == pytest.approx(1.0, rel=1e-12)

    def test_thermal_rating(self):
        nf = to_per_unit(parse_feeder(json.dumps(feeder_dict())))
        # 230 V * 400 A = 92 kVA on a 100 kVA base
        assert nf.s_rated == pytest.approx([0.92, 0.92])

    def test_power_scaling(self):
        nf = to_per_unit(parse_feeder(json.dumps(feeder_dict())))
        assert nf.p_demand == pytest.approx([0.02, 0.02])
        assert nf.dg_cap == pytest.approx(5.0)

    @staticmethod
    def _assert_scales_back(feeder, rel):
        """The per-unit values times their bases give the SI inputs back."""
        nf = to_per_unit(feeder)
        zb = z_base_ohm(feeder.s_base, feeder.v_base)
        z2 = nf.g**2 + nf.b**2
        for l, ln in enumerate(feeder.lines):
            assert nf.g[l] / z2[l] * zb == pytest.approx(ln.resistance, rel=rel)
            assert -nf.b[l] / z2[l] * zb == pytest.approx(ln.reactance, rel=rel, abs=1e-12)
            assert nf.s_rated[l] * feeder.s_base * 1000.0 / ln.nominal_voltage == pytest.approx(
                ln.rated_current, rel=1e-12)
        for d, ld in enumerate(feeder.loads):
            assert nf.p_demand[d] * nf.s_base == pytest.approx(ld.p_demand, rel=1e-12)
            assert nf.q_demand[d] * nf.s_base == pytest.approx(ld.q_demand, rel=1e-12)
        assert nf.dg_cap * nf.s_base == pytest.approx(feeder.dg_cap, rel=1e-12)

    def test_round_trip(self):
        self._assert_scales_back(parse_feeder(json.dumps(feeder_dict())), rel=1e-12)

    @given(
        r=st.floats(0.001, 10.0),
        x=st.floats(0.0, 10.0),
        s_base=st.floats(1.0, 10000.0),
        v_base=st.floats(100.0, 20000.0),
    )
    def test_round_trip_property(self, r, x, s_base, v_base):
        self._assert_scales_back(_feeder(
            [Bus("slack", "slack"), Bus("a", "load")],
            [_line("slack", "a", r=r, x=x, u=v_base)],
            [Load("a", 1.0, 0.2)],
            s_base=s_base, v_base=v_base,
        ), rel=1e-9)


# ---------------------------------------------------------------------------
# statistics and distances
# ---------------------------------------------------------------------------

class TestStats:
    def test_single_line(self):
        feeder = _feeder(
            [Bus("slack", "slack"), Bus("a", "load")],
            [_line("slack", "a", r=0.219, x=0.014, length=164.0)],
            [Load("a", 1.0, 0.0)],
        )
        stats = feeder_stats(feeder)
        assert stats.total_length == pytest.approx(0.164)
        assert stats.r_over_x == pytest.approx(0.219 / 0.014)
        assert stats.impedance == pytest.approx(math.hypot(0.219, 0.014))
        assert stats.n_loads == 1
        assert stats.n_buses == 2

    def test_additivity(self):
        feeder = _feeder(
            [Bus("slack", "slack"), Bus("a", "junction"), Bus("b", "load")],
            [_line("slack", "a", r=1.0, x=1.0), _line("a", "b", r=1.0, x=1.0)],
            [Load("b", 1.0, 0.0)],
        )
        stats = feeder_stats(feeder)
        assert stats.total_resistance == pytest.approx(2.0)
        assert stats.total_reactance == pytest.approx(2.0)
        assert stats.impedance == pytest.approx(2.0 * math.sqrt(2.0))

    def test_zero_reactance_ratio(self):
        feeder = _feeder(
            [Bus("slack", "slack"), Bus("a", "load")],
            [_line("slack", "a", r=1.0, x=0.0)],
            [Load("a", 1.0, 0.0)],
        )
        assert feeder_stats(feeder).r_over_x == math.inf


class TestElectricalDistance:
    def test_slack_is_zero(self):
        feeder = parse_feeder(json.dumps(feeder_dict()))
        assert electrical_distance(feeder, "slack") == 0.0

    def test_three_four_five(self):
        feeder = _feeder(
            [Bus("slack", "slack"), Bus("a", "load")],
            [_line("slack", "a", r=3.0, x=4.0)],
            [Load("a", 1.0, 0.0)],
        )
        assert electrical_distance(feeder, "a") == pytest.approx(5.0)

    def test_monotone_along_chain(self):
        feeder = parse_feeder(json.dumps(feeder_dict()))
        d = [electrical_distance(feeder, b) for b in ("slack", "a", "b")]
        assert d == sorted(d)
        assert d[2] == pytest.approx(2.0 * d[1])

    def test_unknown_bus(self):
        feeder = parse_feeder(json.dumps(feeder_dict()))
        with pytest.raises(UnknownBus):
            electrical_distance(feeder, "ghost")


# SHA-256 of the float64 bytes of every bus's electrical distance, in bus order, on
# SynthSpec(n, layout, 500.0); any change to the summation along a path moves them
DISTANCE_PINS = {
    ("linear", 1): "d66a6fbcb3cfbe9c20b0af8062fa91dad964aae8fa43dca15e0dd7600fc727c8",
    ("linear", 3): "58f220f9c86ce49824b3d4a0cd2b01832988395f17464e5ec3772978ed77573c",
    ("linear", 10): "f5bafe51c58491516ad6609e60c2b9a600705b50d616b0297aa96038a5ae2c89",
    ("linear", 30): "8bf2e8c330b32c5b3fb46aa42553101c9b1a123233499397b6f08ef84b5bb2c2",
    ("branched", 1): "ee8d1421ba92e29493ca0253b4b5c75fde3c2bc082e7748fd41f64e02b7b9fda",
    ("branched", 3): "5936068b6e9d3a75f33f15ea4113d5e49e7ab66b2396685aabc73a69875bb4ab",
    ("branched", 10): "4000576fbfa3231678fd016c6c88245aeea18110e15353322a7dde4dcc7edc1b",
    ("branched", 30): "b9e06ae88ec5f3b24292cf7b682d5feb8b10d6dc05db858caa95cd81295c423e",
}


@pytest.mark.parametrize("layout, n_loads", list(DISTANCE_PINS))
def test_electrical_distance_pinned(layout, n_loads):
    feeder = generate_feeder(SynthSpec(n_loads, layout, 500.0))
    dist = np.array([electrical_distance(feeder, b.id) for b in feeder.buses])
    assert hashlib.sha256(dist.tobytes()).hexdigest() == DISTANCE_PINS[layout, n_loads]
