import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairhc.errors import MissingReference, ParameterOutOfRange
from conftest import make_lin3
from fairhc.formulation import (
    FairnessPolicy,
    References,
    build_problem,
    parse_policy,
    policy_string,
)


class TestFairnessPolicy:
    def test_constructors(self):
        assert FairnessPolicy.utilitarian().variant == "utilitarian"
        assert FairnessPolicy.egalitarian().variant == "egalitarian"
        assert FairnessPolicy.bounded(0.2, 0.8).alpha == 0.2
        assert FairnessPolicy.bargaining(0.7).k == 0.7

    def test_missing_parameter(self):
        with pytest.raises(ParameterOutOfRange):
            FairnessPolicy("bounded", alpha=0.5)
        with pytest.raises(ParameterOutOfRange):
            FairnessPolicy("bargaining")

    def test_unexpected_parameter(self):
        with pytest.raises(ParameterOutOfRange):
            FairnessPolicy("utilitarian", k=0.5)

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_out_of_range(self, value):
        with pytest.raises(ParameterOutOfRange):
            FairnessPolicy.bargaining(value)

    def test_unknown_variant(self):
        with pytest.raises(ParameterOutOfRange):
            FairnessPolicy("proportional")


class TestPolicyGrammar:
    @pytest.mark.parametrize("text,variant", [
        ("utilitarian", "utilitarian"),
        ("egalitarian", "egalitarian"),
        ("bounded:alpha=0.5,beta=0.3", "bounded"),
        ("bargaining:k=0.7", "bargaining"),
    ])
    def test_parse(self, text, variant):
        assert parse_policy(text).variant == variant

    def test_parse_values(self):
        p = parse_policy("bounded:alpha=0.25,beta=0.75")
        assert (p.alpha, p.beta) == (0.25, 0.75)

    def test_round_trip(self):
        for text in ("utilitarian", "egalitarian",
                     "bounded:alpha=0.5,beta=0.3", "bargaining:k=0.7"):
            assert parse_policy(policy_string(parse_policy(text))) == parse_policy(text)

    @pytest.mark.parametrize("text", ["bounded:alpha", "bargaining:k=x", "bounded:0.5",
                                      "bounded:alpha=0.5,gamma=1", "bargaining:k=0.5,k=0.7"])
    def test_bad_grammar(self, text):
        with pytest.raises(ParameterOutOfRange):
            parse_policy(text)


class TestBuildProblem:
    def test_utilitarian_box(self, lin3):
        prob = build_problem(lin3, FairnessPolicy.utilitarian())
        assert prob.lower == pytest.approx([0.0, 0.0])
        assert prob.upper == pytest.approx([lin3.dg_cap] * 2)
        assert not prob.tie

    def test_egalitarian_ties(self, lin3):
        assert build_problem(lin3, FairnessPolicy.egalitarian()).tie

    def test_bounded_requires_references(self, lin3):
        with pytest.raises(MissingReference):
            build_problem(lin3, FairnessPolicy.bounded(0.5, 0.5))

    def test_bounded_box(self, lin3):
        refs = References(egal_per_load=0.4, uti_allocation=np.array([1.0, 0.2]))
        prob = build_problem(lin3, FairnessPolicy.bounded(0.5, 0.5), refs)
        assert prob.lower == pytest.approx([0.2, 0.2])
        assert prob.upper == pytest.approx([0.4 + 0.5 * 0.6] * 2)

    def test_bounded_collapse_to_egalitarian(self, lin3):
        refs = References(egal_per_load=0.4, uti_allocation=np.array([1.0, 0.2]))
        prob = build_problem(lin3, FairnessPolicy.bounded(1.0, 0.0), refs)
        assert prob.lower == pytest.approx(prob.upper)
        assert prob.lower == pytest.approx([0.4, 0.4])

    def test_bounded_loosest_keeps_utilitarian_feasible(self, lin3):
        refs = References(egal_per_load=0.4, uti_allocation=np.array([1.0, 0.2]))
        prob = build_problem(lin3, FairnessPolicy.bounded(0.0, 1.0), refs)
        assert prob.lower == pytest.approx([0.0, 0.0])
        assert prob.upper == pytest.approx([1.0, 1.0])
        assert np.all(refs.uti_allocation <= prob.upper + 1e-12)

    def test_bounded_negative_span_clamped(self, lin3):
        # egalitarian reference above the largest utilitarian share
        refs = References(egal_per_load=0.5, uti_allocation=np.array([0.3, 0.3]))
        prob = build_problem(lin3, FairnessPolicy.bounded(0.0, 1.0), refs)
        assert np.all(prob.upper >= prob.lower)

    def test_bargaining_objective(self, lin3):
        prob = build_problem(lin3, FairnessPolicy.bargaining(0.5))
        p = np.array([1.0, 0.0])
        assert prob.objective(p) == pytest.approx(0.5 * 1.0 - 0.5 * 0.5)

    def test_bargaining_k1_is_pure_sum(self, lin3):
        prob = build_problem(lin3, FairnessPolicy.bargaining(1.0))
        p = np.array([0.9, 0.1])
        assert prob.objective(p) == pytest.approx(1.0)

    @given(a=st.floats(0, 1), b=st.floats(0, 1),
           a2=st.floats(0, 1), b2=st.floats(0, 1))
    def test_feasible_set_nesting(self, a, b, a2, b2):
        """Looser (smaller alpha, larger beta) boxes contain tighter ones."""
        lin3 = make_lin3()
        lo_a, hi_a = sorted((a, a2))
        lo_b, hi_b = sorted((b, b2))
        refs = References(egal_per_load=0.4, uti_allocation=np.array([1.0, 0.2]))
        tight = build_problem(lin3, FairnessPolicy.bounded(hi_a, lo_b), refs)
        loose = build_problem(lin3, FairnessPolicy.bounded(lo_a, hi_b), refs)
        assert np.all(loose.lower <= tight.lower + 1e-12)
        assert np.all(tight.upper <= loose.upper + 1e-12)

    @given(a=st.floats(0, 1), b=st.floats(0, 1))
    def test_egalitarian_point_always_feasible(self, a, b):
        lin3 = make_lin3()
        refs = References(egal_per_load=0.4, uti_allocation=np.array([1.0, 0.2]))
        prob = build_problem(lin3, FairnessPolicy.bounded(a, b), refs)
        tied = np.full(2, refs.egal_per_load)
        assert np.all(prob.lower <= tied + 1e-12)
        assert np.all(tied <= prob.upper + 1e-12)
