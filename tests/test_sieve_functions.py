import math

import pytest

from sievelab.errors import DomainError, UnsupportedKappaError
from sievelab.numerics import EULER_GAMMA, derivative_central
from sievelab.sieve_functions import (BETA, TWO_E_GAMMA, F_lin,
                                      _F1, _F2, _F3, _f1, _f2, _f3, f_lin,
                                      hr_upper)
from sievelab.numerics import QuadratureSpec

from test_numerics import LOG_INTEGRAL_2_3

SPEC = QuadratureSpec(1e-11, 1e-11)


class TestUpperFunction:
    def test_closed_form_region(self):
        assert F_lin(2.0) == pytest.approx(math.exp(EULER_GAMMA), abs=1e-12)
        assert F_lin(0.5) == pytest.approx(2.0 * TWO_E_GAMMA, abs=1e-12)

    def test_second_window_against_oracle(self):
        # F(4) = (2e^g/4)(1 + int_2^3 log(t-1)/t dt), inner integral frozen
        # from the independent Simpson oracle
        expected = TWO_E_GAMMA / 4.0 * (1.0 + LOG_INTEGRAL_2_3)
        assert F_lin(4.0) == pytest.approx(expected, abs=1e-6)

    def test_right_endpoint_window(self):
        assert 1.0 <= F_lin(7.0) <= 1.0000050

    def test_domain(self):
        for s in (0.0, -1.0, 7.0001):
            with pytest.raises(DomainError):
                F_lin(s)

    def test_at_least_one(self):
        for s in (0.5, 1.0, 2.5, 3.0, 4.4, 5.0, 6.3, 7.0):
            assert F_lin(s) >= 1.0 - 1e-12


class TestLowerFunction:
    def test_vanishes_up_to_two(self):
        assert f_lin(2.0) == 0.0
        assert f_lin(0.3) == 0.0

    def test_first_window_closed_form(self):
        assert f_lin(4.0) == pytest.approx(TWO_E_GAMMA / 4.0 * math.log(3.0),
                                           abs=1e-12)

    def test_right_endpoint_window(self):
        assert 0.9999648 <= f_lin(8.0) <= 1.0

    def test_scale_factors(self):
        assert 3.56214 < TWO_E_GAMMA / f_lin(6.6) < 3.5623
        assert 3.56214 < TWO_E_GAMMA / f_lin(7.0) < 3.5622

    def test_domain(self):
        for s in (0.0, -2.0, 8.0001):
            with pytest.raises(DomainError):
                f_lin(s)

    def test_at_most_one(self):
        for s in (2.5, 3.9, 4.0, 5.5, 6.0, 7.7, 8.0):
            assert f_lin(s) <= 1.0 + 1e-12


class TestContinuity:
    def test_upper_breakpoints(self):
        assert abs(_F1(3.0, SPEC) - _F2(3.0, SPEC)) <= 1e-8
        assert abs(_F2(5.0, SPEC) - _F3(5.0, SPEC)) <= 1e-8

    def test_lower_breakpoints(self):
        assert abs(_f1(4.0, SPEC) - _f2(4.0, SPEC)) <= 1e-8
        assert abs(_f2(6.0, SPEC) - _f3(6.0, SPEC)) <= 1e-8
        assert abs(_f1(2.0, SPEC) - 0.0) <= 1e-12


class TestMonotonicity:
    def test_sampled_ordering(self):
        # coarse grid here; the acceptance suite runs the 0.01-step sweep
        fs = [F_lin(1.0 + 0.25 * k) for k in range(25)]
        assert all(a > b for a, b in zip(fs, fs[1:]))
        gs = [f_lin(2.0 + 0.25 * k) for k in range(25)]
        assert all(a <= b + 1e-12 for a, b in zip(gs, gs[1:]))
        for F, g in zip(fs, gs):
            assert F >= 1.0 - 1e-12 >= g - 1e-9


class TestRecursionResiduals:
    def test_upper_relation_sample(self):
        # (u F(u))' = f(u-1) on (3, 7]
        for u in (3.21, 4.11, 5.31, 6.41, 6.99):
            lhs = derivative_central(lambda s: s * F_lin(s), u, 1e-4)
            assert abs(lhs - f_lin(u - 1.0)) <= 1e-3

    def test_lower_relation_sample(self):
        # (u f(u))' = F(u-1) on (2, 8]
        for u in (2.21, 3.11, 4.51, 5.61, 6.71, 7.91):
            lhs = derivative_central(lambda s: s * f_lin(s), u, 1e-4)
            assert abs(lhs - F_lin(u - 1.0)) <= 1e-3

    def test_cross_module_derivative_example(self):
        lhs = derivative_central(lambda s: s * F_lin(s), 4.0, 1e-4)
        assert lhs == pytest.approx(f_lin(3.0), abs=1e-6)


class TestHalberstamRichertBound:
    def test_values(self):
        # frozen from direct evaluation; consistent with the minimized
        # two-dimensional thresholds reproduced in test_thresholds
        assert hr_upper(2, 0.19214) == pytest.approx(4.886390570447249, abs=1e-12)
        assert hr_upper(2, 0.23556) == pytest.approx(4.585884233244685, abs=1e-12)

    def test_vanishes_at_sifting_limit(self):
        beta2 = BETA[2]
        assert abs(hr_upper(2, beta2 * (1.0 - 1e-12))) <= 1e-9

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedKappaError):
            hr_upper(1, 0.5)
        with pytest.raises(UnsupportedKappaError):
            hr_upper(3, 0.5)

    def test_zeta_domain(self):
        with pytest.raises(DomainError):
            hr_upper(2, 0.0)
        with pytest.raises(DomainError):
            hr_upper(2, BETA[2])


class TestConstants:
    def test_table(self):
        assert BETA[1] == 2.0
        assert BETA[2] == pytest.approx(4.266450, abs=1e-9)
