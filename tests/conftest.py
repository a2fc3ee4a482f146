"""Shared feeder builders for the test suite.

``mk`` assembles a NormalizedFeeder directly in per unit (s_base = 1 kVA so kW
and pu coincide numerically); the JSON helpers build small SI feeders for the
parser and CLI tests.
"""
import json
import math

import numpy as np
import pytest

from fairhc.netmodel import NormalizedFeeder


def mk(n, slack, lines, load_buses, v_max=1.05, dg_cap=1.2, s_rated=5.0,
       p_demand=0.05, q_demand=0.01, v_min=0.90, dtheta=math.radians(10.0),
       slack_p_max=100.0, slack_q_max=100.0):
    """Hand-built per-unit feeder; ``lines`` are (from, to, r_pu, x_pu) tuples."""
    L = len(lines)
    frm = np.array([l[0] for l in lines], dtype=int)
    to = np.array([l[1] for l in lines], dtype=int)
    r = np.array([l[2] for l in lines], dtype=float)
    x = np.array([l[3] for l in lines], dtype=float)
    z2 = r * r + x * x
    lb = np.asarray(load_buses, dtype=int)
    return NormalizedFeeder(
        bus_ids=tuple(f"b{i}" for i in range(n)),
        slack=slack,
        from_bus=frm, to_bus=to, g=r / z2, b=-x / z2,
        s_rated=np.full(L, float(s_rated)),
        v_min=np.full(n, v_min), v_max=np.full(n, v_max),
        dtheta_min=np.full(n, -dtheta), dtheta_max=np.full(n, dtheta),
        load_bus=lb,
        p_demand=np.full(len(lb), p_demand),
        q_demand=np.full(len(lb), q_demand),
        slack_p_max=slack_p_max, slack_q_max=slack_q_max,
        dg_cap=dg_cap, s_base=1.0, v_base=230.0,
    )


def make_two_bus(v_max=1.05, dg_cap=2.0):
    """Lossy two-bus link (r=0.05 pu, x=0, no demand); closed-form solvable."""
    return mk(2, 0, [(0, 1, 0.05, 0.0)], [1], v_max=v_max, dg_cap=dg_cap,
              p_demand=0.0, q_demand=0.0)


def make_lin3():
    """Slack plus a two-segment chain, loads at both chain buses."""
    return mk(3, 0, [(0, 1, 0.05, 0.01), (1, 2, 0.05, 0.01)], [1, 2])


def make_star3():
    """Two loads on separate spokes off the slack."""
    return mk(3, 0, [(0, 1, 0.05, 0.01), (0, 2, 0.05, 0.01)], [1, 2])


def make_br4():
    """Slack, one junction load, and two laterals; three loads."""
    return mk(4, 0, [(0, 1, 0.05, 0.01), (1, 2, 0.05, 0.01), (1, 3, 0.05, 0.01)],
              [1, 2, 3])


@pytest.fixture
def two_bus():
    return make_two_bus()


@pytest.fixture
def lin3():
    return make_lin3()


@pytest.fixture
def star3():
    return make_star3()


@pytest.fixture
def br4():
    return make_br4()


def feeder_dict():
    """Minimal valid SI feeder document: slack + 2 chained load buses."""
    return {
        "s_base_kva": 100.0,
        "v_base_v": 230.0,
        "dg_cap_kw": 500.0,
        "buses": [
            {"id": "slack", "kind": "slack"},
            {"id": "a", "kind": "load", "v_max": 1.05},
            {"id": "b", "kind": "load", "v_max": 1.05},
        ],
        "lines": [
            {"from": "slack", "to": "a", "r_ohm": 0.03, "x_ohm": 0.005,
             "length_m": 50.0, "i_rated_a": 400.0, "u_nom_v": 230.0},
            {"from": "a", "to": "b", "r_ohm": 0.03, "x_ohm": 0.005,
             "length_m": 50.0, "i_rated_a": 400.0, "u_nom_v": 230.0},
        ],
        "loads": [
            {"bus": "a", "p_kw": 2.0, "q_kvar": 0.5},
            {"bus": "b", "p_kw": 2.0, "q_kvar": 0.5},
        ],
        "connection": {"bus": "slack", "p_max_kw": 1e5, "q_max_kvar": 1e5},
    }


def write_feeder(tmp_path, doc, name="feeder.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)
