import math

import numpy as np
import pytest

from fairhc.errors import DegenerateFrontier
from fairhc.pareto import (
    CSV_HEADER,
    Frontier,
    ParetoPoint,
    frontier_to_csv,
    knee_point,
    pareto_filter,
    points_from_csv,
    sweep,
)


def pt(gini, pof, family="bargaining", param=0.5, hc=100.0, status="optimal"):
    return ParetoPoint(family, param, hc, pof, gini, status)


@pytest.fixture(scope="module")
def lin3_bargaining_frontier():
    from conftest import make_lin3
    return sweep(make_lin3(), "bargaining", steps=5)


class TestSweep:
    def test_point_count_and_families(self, lin3_bargaining_frontier):
        frontier = lin3_bargaining_frontier
        assert len(frontier.points) == 5 + 2
        families = {p.family for p in frontier.points}
        assert {"endpoint_uti", "endpoint_egal", "bargaining"} <= families

    def test_endpoints_exact(self, lin3_bargaining_frontier):
        by_family = {p.family: p for p in lin3_bargaining_frontier.points}
        assert by_family["endpoint_uti"].pof == 0.0
        assert by_family["endpoint_egal"].gini == 0.0

    def test_sorted_by_gini(self, lin3_bargaining_frontier):
        ginis = [p.gini for p in lin3_bargaining_frontier.points
                 if math.isfinite(p.gini)]
        assert ginis == sorted(ginis)

    def test_two_step_sweep_recovers_extremes(self):
        from conftest import make_lin3
        frontier = sweep(make_lin3(), "bargaining", steps=2)
        by_family = {p.family: p for p in frontier.points}
        k0 = next(p for p in frontier.points
                  if p.family == "bargaining" and p.param == 0.0)
        k1 = next(p for p in frontier.points
                  if p.family == "bargaining" and p.param == 1.0)
        assert k0.hc_kw == pytest.approx(by_family["endpoint_egal"].hc_kw, rel=0.005)
        assert k1.hc_kw == pytest.approx(by_family["endpoint_uti"].hc_kw, rel=0.005)

    def test_bounded_lower_alpha_one_near_egalitarian(self):
        from conftest import make_lin3
        frontier = sweep(make_lin3(), "bounded_lower", steps=3)
        p1 = next(p for p in frontier.points
                  if p.family == "bounded_lower" and p.param == 1.0)
        egal = next(p for p in frontier.points if p.family == "endpoint_egal")
        assert p1.hc_kw >= egal.hc_kw - 0.005 * abs(egal.hc_kw)

    def test_rejects_bad_arguments(self, lin3):
        with pytest.raises(ValueError):
            sweep(lin3, "bargaining", steps=1)
        with pytest.raises(ValueError):
            sweep(lin3, "bogus", steps=5)


class TestParetoFilter:
    def test_mutually_nondominated(self):
        pts = [pt(0.0, 1.0), pt(1.0, 0.0), pt(0.2, 0.2)]
        assert pareto_filter(pts) == pts

    def test_strict_dominance(self):
        keep, drop = pt(0.2, 0.2), pt(0.3, 0.3)
        assert pareto_filter([keep, drop]) == [keep]

    def test_duplicate_kept_once(self):
        a = pt(0.1, 0.5)
        assert len(pareto_filter([a, pt(0.1, 0.5)])) == 1

    def test_failures_excluded(self):
        good = pt(0.1, 0.1)
        bad = ParetoPoint("bargaining", 0.3, math.nan, math.nan, math.nan, "failed")
        assert pareto_filter([good, bad]) == [good]

    def test_stable_order(self):
        pts = [pt(0.5, 0.1), pt(0.1, 0.5), pt(0.3, 0.3)]
        assert pareto_filter(pts) == pts


class TestKneePoint:
    def test_max_chord_distance(self):
        pts = [pt(0.0, 1.0), pt(1.0, 0.0), pt(0.1, 0.1)]
        assert knee_point(pts) == pts[2]

    def test_two_point_fallback_min_norm(self):
        a, b = pt(0.0, 0.6), pt(0.6, 0.0)
        got = knee_point([a, b])
        assert got in (a, b)

    def test_degenerate_identical_points(self):
        with pytest.raises(DegenerateFrontier):
            knee_point([pt(0.2, 0.2), pt(0.2, 0.2)])

    def test_single_point(self):
        with pytest.raises(DegenerateFrontier):
            knee_point([pt(0.2, 0.2)])

    def test_knee_is_nondominated(self, lin3_bargaining_frontier):
        knee = knee_point(lin3_bargaining_frontier)
        assert knee in pareto_filter(lin3_bargaining_frontier.points)

    def test_affine_rescaling_invariance(self):
        pts = [pt(0.0, 1.0), pt(1.0, 0.0), pt(0.1, 0.1), pt(0.6, 0.05)]
        base = knee_point(pts)
        scaled = [pt(p.gini * 3.0 + 1.0, p.pof * 0.1, param=p.param) for p in pts]
        assert knee_point(scaled).param == base.param

    def test_tie_breaks_toward_lower_pof(self):
        pts = [pt(0.0, 1.0, param=0.0), pt(1.0, 0.0, param=1.0),
               pt(0.1, 0.1, param=0.3), pt(0.1, 0.1, param=0.7)]
        assert knee_point(pts).param == 0.3


class TestCsv:
    def test_header_and_row_count(self, lin3_bargaining_frontier):
        text = frontier_to_csv(lin3_bargaining_frontier)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(lin3_bargaining_frontier.points)

    def test_six_decimal_formatting(self, lin3_bargaining_frontier):
        text = frontier_to_csv(lin3_bargaining_frontier)
        row = text.strip().splitlines()[1].split(",")
        for cell in row[1:5]:
            if cell:
                assert len(cell.split(".")[1]) == 6

    def test_endpoint_param_empty(self, lin3_bargaining_frontier):
        text = frontier_to_csv(lin3_bargaining_frontier)
        for ln in text.strip().splitlines()[1:]:
            family, param = ln.split(",")[:2]
            if family.startswith("endpoint"):
                assert param == ""

    def test_round_trip(self, lin3_bargaining_frontier):
        text = frontier_to_csv(lin3_bargaining_frontier)
        points = points_from_csv(text)
        assert len(points) == len(lin3_bargaining_frontier.points)
        for got, orig in zip(points, lin3_bargaining_frontier.points):
            assert got.family == orig.family
            assert got.status == orig.status
            assert got.hc_kw == pytest.approx(orig.hc_kw, abs=5e-7)
            assert got.gini == pytest.approx(orig.gini, abs=5e-7)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            points_from_csv("nope\n1,2,3,4,5,6\n")

    def test_short_row_names_its_line(self):
        text = CSV_HEADER + "\nbargaining,0.5,1,0,0,optimal\n\nbogus\n"
        with pytest.raises(ValueError, match="line 4: expected 6 comma-separated fields, got 1"):
            points_from_csv(text)
        text = CSV_HEADER + "\nbargaining,0.5,1,0,0,optimal\nbargaining,0.6,1,0,g,optimal\n"
        with pytest.raises(ValueError, match="line 3: column 'gini': could not convert"):
            points_from_csv(text)
