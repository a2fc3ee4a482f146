import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairhc.errors import ParseError, SchemaError, UnknownBus, ValidationError
from fairhc.netmodel import (
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
        assert feeder.bus("a").v_max == 1.05

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

    def test_self_loop(self):
        with pytest.raises(ValidationError):
            _line("a", "a")

    def test_unknown_bus_lookup(self):
        feeder = parse_feeder(json.dumps(feeder_dict()))
        with pytest.raises(UnknownBus):
            feeder.bus("nope")


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
