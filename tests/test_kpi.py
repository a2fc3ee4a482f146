from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairhc.errors import ZeroUtilitarianHC
from fairhc.kpi import gini, price_of_fairness


class TestPriceOfFairness:
    @pytest.mark.parametrize("uti,fair,expected", [
        (658.0, 520.0, 0.21),
        (1575.0, 937.0, 0.41),
        (922.0, 325.0, 0.65),
        (699.0, 442.0, 0.37),
    ])
    def test_reference_pairs(self, uti, fair, expected):
        assert price_of_fairness(uti, fair) == pytest.approx(expected, abs=0.005)

    def test_equal_is_zero(self):
        assert price_of_fairness(123.4, 123.4) == 0.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroUtilitarianHC):
            price_of_fairness(0.0, 10.0)

    def test_negative_reported_with_warning(self):
        with pytest.warns(UserWarning):
            pof = price_of_fairness(100.0, 101.0)
        assert pof == pytest.approx(-0.01)


class TestGini:
    def test_perfect_equality(self):
        assert gini([2.0, 2.0, 2.0]) == 0.0

    def test_two_point(self):
        assert gini([0.0, 4.0]) == 0.5

    def test_three_point(self):
        assert gini([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 9.0, abs=1e-9)

    def test_all_zero_convention(self):
        with pytest.warns(UserWarning):
            assert gini([0.0, 0.0]) == 0.0

    def test_subnormal_allocation_is_not_all_zero(self):
        # its mean underflows to 0; the Gini of one nonzero share in two is 1/2
        assert gini([0.0, 5e-324]) == 0.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([1.0, -0.1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini([])

    def test_single_holder_upper_bound(self):
        n = 5
        p = np.zeros(n)
        p[0] = 3.0
        assert gini(p) == pytest.approx((n - 1) / n)

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20),
           st.floats(1e-3, 1e3))
    def test_scale_invariance(self, values, c):
        p = np.array(values)
        if p.sum() == 0:
            return
        q = c * p
        if not q.any():  # every share underflowed
            with pytest.warns(UserWarning):
                assert gini(q) == 0.0
            return
        # c * p rounds each share by a relative error of at most delta (2**-53 for
        # normal shares, up to 1 for subnormal ones), which moves the Gini by at
        # most 2 delta / (1 - delta)
        delta = max(abs(Fraction(qi) - Fraction(c) * Fraction(pi)) / (Fraction(c) * Fraction(pi))
                    for pi, qi in zip(values, q) if pi > 0)
        if delta < 1:
            assert abs(gini(q) - gini(p)) <= 1e-9 + float(2 * delta / (1 - delta))

    @given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=20),
           st.randoms())
    def test_permutation_invariance(self, values, rnd):
        p = list(values)
        if sum(p) == 0:
            return
        shuffled = list(p)
        rnd.shuffle(shuffled)
        assert gini(shuffled) == pytest.approx(gini(p), rel=1e-12, abs=1e-12)

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20))
    def test_bounds(self, values):
        p = np.array(values)
        if p.sum() == 0:
            return
        g = gini(p)
        n = len(p)
        assert -1e-12 <= g <= (n - 1) / n + 1e-12
