import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from sievelab import sieve_functions, thresholds
from sievelab.errors import DomainError
from sievelab.numerics import derivative_central
from sievelab.sieve_functions import (EULER_GAMMA, TWO_E_GAMMA, F_lin, _E, _G, _li2,
                                      _phi, _psi, _W, f_lin)
from sievelab.thresholds import BETA_2, m_zeta

from test_numerics import LOG_INTEGRAL_2_3

# Oracles for the closed forms and the series: Phi and Psi by direct
# quadrature, W and E by quadrature nested in quadrature, all by QUADPACK's
# adaptive rule, which shares no node with the Chebyshev series.
ORACLE_TOL = 1e-14


def oracle_quad(fn, lo, hi):
    # QUADPACK warns of roundoff at this tolerance, and of bad behaviour on
    # intervals a few ulps long; the comparisons with the closed forms are
    # the check
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(fn, lo, hi, epsabs=ORACLE_TOL, epsrel=ORACLE_TOL)[0]


def phi_oracle(x):
    if x <= 2.0:
        return 0.0
    return oracle_quad(lambda t: math.log(t - 1.0) / t, 2.0, x)


def ring_oracle(t, s):
    return oracle_quad(lambda u: math.log((u - 1.0) / (t + 1.0)) / u,
                     t + 2.0, s - 1.0)


def W_oracle(s):
    if s <= 5.0:
        return 0.0
    return oracle_quad(lambda t: math.log(t - 1.0) / t * ring_oracle(t, s),
                     2.0, s - 3.0)


def psi_oracle(s):
    if s <= 4.0:
        return 0.0
    return oracle_quad(lambda t: _phi(t - 1.0) / t, 3.0, s - 1.0)


def E_oracle(s):
    if s <= 6.0:
        return 0.0

    def outer(t):
        def inner(u):
            return (math.log((u - 1.0) / (t + 1.0)) / u
                    * math.log((s - 1.0) / (u + 1.0)))

        return math.log(t - 1.0) / t * oracle_quad(inner, t + 2.0, s - 2.0)

    return oracle_quad(outer, 2.0, s - 4.0)


def use_oracle(monkeypatch):
    """Route F, f and the thresholds through the nested-quadrature oracles."""
    for module in (sieve_functions, thresholds):
        monkeypatch.setattr(module, "_phi", phi_oracle)
        monkeypatch.setattr(module, "_W", W_oracle)
    monkeypatch.setattr(sieve_functions, "_psi", psi_oracle)
    monkeypatch.setattr(sieve_functions, "_E", E_oracle)


CLOSED_FORM_TOL = 1e-13


class TestDilogarithm:
    def test_known_values(self):
        assert _li2(0.0) == 0.0
        expected = math.pi ** 2 / 12.0 - 0.5 * math.log(2.0) ** 2
        assert _li2(0.5) == pytest.approx(expected, abs=2e-16)

    def test_against_power_series(self):
        for z in (1e-9, 0.01, 0.1, 0.25, 1.0 / 3.0, 0.4, 0.49):
            series = math.fsum(z ** k / (k * k) for k in range(1, 90))
            assert _li2(z) == pytest.approx(series, rel=4e-16, abs=0.0)

    def test_negative_branch_against_landen(self):
        # Li2(z) + Li2(z/(z-1)) = -(1/2) log^2(1-z), with z/(z-1) in (0, 1/3]
        for k in range(1, 51):
            z = -0.01 * k
            lhs = _li2(z) + _li2(z / (z - 1.0))
            assert abs(lhs + 0.5 * math.log1p(-z) ** 2) <= 2e-16

    def test_domain(self):
        for z in (-0.5000001, -1.0, 0.5000001, 1.0, float("nan")):
            with pytest.raises(DomainError):
                _li2(z)


class TestClosedForms:
    def test_phi_at_two_vanishes(self):
        assert _phi(2.0) == 0.0
        assert abs(_G(2.0) - math.pi ** 2 / 12.0) <= 2e-16

    def test_phi_on_grid(self):
        for k in range(51):
            x = 2.0 + 0.1 * k
            assert abs(_phi(x) - phi_oracle(x)) <= CLOSED_FORM_TOL

    def test_W_against_nested_quadrature(self):
        for s in (5.0, 5.3, 6.0, 6.6, 7.0):
            assert abs(_W(s) - W_oracle(s)) <= CLOSED_FORM_TOL

    def test_psi_and_E_against_quadrature(self):
        for s in (4.0, 4.7, 5.9, 6.0, 6.1, 6.6, 7.0, 7.5, 8.0):
            assert abs(_psi(s) - psi_oracle(s)) <= CLOSED_FORM_TOL
            assert abs(_E(s) - E_oracle(s)) <= CLOSED_FORM_TOL

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(min_value=2.0, max_value=7.0))
    def test_property_phi(self, x):
        assert abs(_phi(x) - phi_oracle(x)) <= CLOSED_FORM_TOL

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(min_value=5.0, max_value=7.0, exclude_min=True))
    def test_property_W(self, s):
        assert abs(_W(s) - W_oracle(s)) <= CLOSED_FORM_TOL

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(min_value=4.0, max_value=8.0, exclude_min=True))
    def test_property_psi(self, s):
        assert abs(_psi(s) - psi_oracle(s)) <= CLOSED_FORM_TOL

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(min_value=6.0, max_value=8.0, exclude_min=True))
    def test_property_E(self, s):
        assert abs(_E(s) - E_oracle(s)) <= CLOSED_FORM_TOL

    def test_F_and_f_against_nested_quadrature(self, monkeypatch):
        grid_F = [0.05 * k for k in range(1, 141)]  # (0, 7]
        grid_f = [0.05 * k for k in range(1, 161)]  # (0, 8]
        closed = [F_lin(s) for s in grid_F] + [f_lin(s) for s in grid_f]
        use_oracle(monkeypatch)
        nested = [F_lin(s) for s in grid_F] + [f_lin(s) for s in grid_f]
        assert max(abs(a - b) for a, b in zip(closed, nested)) <= CLOSED_FORM_TOL


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
    # one formula covers every window, so the next window's closed form,
    # evaluated just past its joint, must vanish there
    def test_upper_breakpoints(self):
        for joint in (3.0, 5.0):
            assert abs(F_lin(joint + 1e-12) - F_lin(joint)) <= 1e-8

    def test_lower_breakpoints(self):
        for joint in (4.0, 6.0):
            assert abs(f_lin(joint + 1e-12) - f_lin(joint)) <= 1e-8
        assert abs(f_lin(2.0 + 1e-12)) <= 2e-12  # e^gamma log(1 + 1e-12)


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

    # The central difference with step H is exact to ~1e-9 where s F(s) and
    # s f(s) are smooth; within 2H of a joint where (s F)' has a kink (s = 3)
    # it errs by up to H e^gamma / 4.  (s f)' jumps at s = 2, where the
    # relation starts, so f is probed from s = 2 + H on.
    H = 1e-4

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.floats(min_value=3.0, max_value=7.0 - H, exclude_min=True))
    def test_property_upper_relation(self, u):
        residual = abs(derivative_central(lambda s: s * F_lin(s), u, self.H)
                       - f_lin(u - 1.0))
        assert residual <= 1e-3
        if abs(u - 3.0) >= 2 * self.H:
            assert residual <= 1e-6

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.floats(min_value=2.0 + H, max_value=8.0 - H))
    def test_property_lower_relation(self, u):
        residual = abs(derivative_central(lambda s: s * f_lin(s), u, self.H)
                       - F_lin(u - 1.0))
        assert residual <= 1e-3
        if u - 2.0 >= 2 * self.H:
            assert residual <= 1e-6


def _hr_term(mu: float, zeta: float) -> float:
    """The Halberstam-Richert term of m(zeta): m less its linear part."""
    return m_zeta(mu, zeta) - (mu * (1.0 + zeta) - mu * zeta / BETA_2 - 1.0)


class TestHalberstamRichertBound:
    def test_values(self):
        # frozen from direct evaluation; consistent with the minimized
        # two-dimensional thresholds reproduced in test_thresholds
        assert _hr_term(10.24, 0.19214) == pytest.approx(4.886390570447249, abs=1e-12)
        assert _hr_term(8.0, 0.23556) == pytest.approx(4.585884233244685, abs=1e-12)

    def test_vanishes_at_sifting_limit(self):
        assert abs(_hr_term(10.0, BETA_2 * (1.0 - 1e-12))) <= 1e-9

    def test_zeta_domain(self):
        with pytest.raises(DomainError):
            m_zeta(10.0, 0.0)
        with pytest.raises(DomainError):
            m_zeta(10.0, BETA_2)


class TestConstants:
    def test_table(self):
        # beta_1 = 2: the lower linear function vanishes up to s = 2 only
        assert f_lin(2.0) == 0.0 < f_lin(2.0 + 1e-6)
        assert BETA_2 == pytest.approx(4.266450, abs=1e-9)
