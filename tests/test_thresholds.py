import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from sievebench.jobs import job_list
from sievelab import numerics, sieve_functions, thresholds
from sievelab.errors import DomainError
from sievelab.sieve_functions import TWO_E_GAMMA, F_lin, f_lin
from sievelab.thresholds import (BETA_2, THETA_SELBERG, THETA_UNCONDITIONAL,
                                 ThresholdReport, admissible_r, dh_threshold_linear,
                                 linear_threshold, m_zeta, minimize_m,
                                 reproduce_constants, tau_from_theta,
                                 threshold_components)

from test_sieve_functions import CLOSED_FORM_TOL, oracle_quad, use_oracle


NON_FINITE = (math.nan, math.inf, -math.inf)


class TestTau:
    def test_published_levels(self):
        assert tau_from_theta(Fraction(7, 64)) == Fraction(25, 128)
        assert tau_from_theta(0) == Fraction(1, 4)
        assert tau_from_theta(Fraction(1, 4)) == Fraction(1, 8)

    def test_string_and_float_inputs(self):
        assert tau_from_theta("7/64") == Fraction(25, 128)
        assert tau_from_theta(0.25) == Fraction(1, 8)

    def test_domain(self):
        with pytest.raises(DomainError):
            tau_from_theta(Fraction(1, 2))
        with pytest.raises(DomainError):
            tau_from_theta(-1)
        for x in NON_FINITE:
            with pytest.raises(DomainError, match="theta must"):
                tau_from_theta(x)
            with pytest.raises(DomainError, match="tau must"):
                linear_threshold(1.0, 6.6, x)
            with pytest.raises(DomainError, match="tau must"):
                dh_threshold_linear(x, 33.0, 33.0)


class TestComponents:
    def test_first_pair(self):
        i1, i2, i3 = threshold_components(1.0, 6.6)
        assert 0.21435 <= i1 <= 0.21442
        assert abs(i1 - Fraction(115, 924) * math.log(28.0 / 5.0)) <= 1e-8
        assert 0.0550 <= i2 <= 0.05558
        assert 0.0 < i3 <= 1e-5

    def test_second_pair(self):
        i1, i2, i3 = threshold_components(1.0, 7.0)
        assert 0.21325 <= i1 <= 0.21331
        assert abs(i1 - Fraction(5, 42) * math.log(6.0)) <= 1e-8
        assert 0.0695 <= i2 <= 0.07015
        assert 0.0 < i3 <= 3e-5

    def test_nearly_empty_third_window(self):
        _, _, i3 = threshold_components(1.0, 6.01)
        assert 0.0 <= i3 < 1e-6

    def test_domain(self):
        for a, b in ((0.5, 7.0), (3.0, 8.0), (1.0, 5.9), (1.0, 8.1), (2.9, 7.5)):
            with pytest.raises(DomainError):
                threshold_components(a, b)


class TestLinearThreshold:
    def test_published_cutoffs(self):
        thr = linear_threshold(1.0, 6.6, Fraction(25, 128))
        assert 5.95 <= thr <= 5.997
        assert admissible_r(thr) == 6
        thr = linear_threshold(1.0, 7.0, Fraction(1, 4))
        assert 4.65 <= thr <= 4.677
        assert admissible_r(thr) == 5

    def test_larger_level_helps(self):
        thr = linear_threshold(1.0, 6.6, Fraction(1, 4))
        assert thr < 5.996

    def test_monotone_decreasing_in_tau(self):
        taus = (0.15, float(Fraction(25, 128)), 0.22, 0.25)
        vals = [linear_threshold(1.0, 6.6, t) for t in taus]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestGeneralLinearRoute:
    @pytest.mark.parametrize("a,b,tau", [(1.0, 6.6, Fraction(25, 128)),
                                         (1.0, 7.0, Fraction(1, 4))])
    def test_specialization_matches(self, a, b, tau):
        u = b / ((b - a) * float(tau))
        v = b / float(tau)
        assert dh_threshold_linear(tau, u, v) == pytest.approx(
            linear_threshold(a, b, tau), abs=1e-6)

    def test_closed_forms_against_nested_quadrature(self, monkeypatch):
        def run():
            out = []
            for a, b in ((1.0, 6.6), (1.0, 7.0), (1.5, 7.2), (2.5, 8.0)):
                out.extend(threshold_components(a, b))
                for tau in (Fraction(25, 128), Fraction(1, 4)):
                    out.append(dh_threshold_linear(tau, b / ((b - a) * float(tau)),
                                                   b / float(tau)))
            return out

        closed = run()
        use_oracle(monkeypatch)
        nested = run()
        assert max(abs(x - y) for x, y in zip(closed, nested)) <= CLOSED_FORM_TOL

    def test_empty_integral(self):
        # u = v makes v/u = 1: the integral vanishes and the bound is u - 1
        assert dh_threshold_linear(0.5, 10.0, 10.0) == pytest.approx(9.0, abs=1e-12)

    def test_named_constraint_violations(self):
        with pytest.raises(DomainError, match="tau\\*v <= 8"):
            dh_threshold_linear(0.25, 34.0, 34.0)
        with pytest.raises(DomainError, match="u > 1/tau"):
            dh_threshold_linear(0.25, 3.0, 30.0)
        with pytest.raises(DomainError, match="u <= v"):
            dh_threshold_linear(0.5, 12.0, 11.0)
        with pytest.raises(DomainError, match="tau\\*v > 2"):
            dh_threshold_linear(0.3, 4.0, 4.0)


class TestProofIdentities:
    @pytest.mark.parametrize("a,b", [(1.0, 6.6), (1.0, 7.0), (1.5, 7.2)])
    def test_component_split_equals_direct_integral(self, a, b):
        i1, i2, i3 = threshold_components(a, b)

        def integrand(s):
            return F_lin(b - s) * (1.0 / s - 1.0 / (b - a))

        cuts = sorted({1.0, b - a} | {b - c for c in (3.0, 5.0) if 1.0 < b - c < b - a})
        direct = sum(oracle_quad(integrand, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
        assert TWO_E_GAMMA * (i1 + i2 + i3) == pytest.approx(direct, abs=1e-6)

    def test_elementary_integral_closed_form(self):
        rng = random.Random(31337)
        for _ in range(5):
            a = rng.uniform(1.0, 2.9)
            b = rng.uniform(a + 5.0 + 0.01, 8.0)
            direct = oracle_quad(
                lambda s: (1.0 / (b - s)) * (1.0 / s - 1.0 / (b - a)), 1.0, b - a)
            closed = (math.log((b - 1.0) * (b - a) / a) / b
                      - math.log((b - 1.0) / a) / (b - a))
            assert direct == pytest.approx(closed, abs=1e-8)


class TestTwoDimensionalRoute:
    def test_minima(self):
        zeta, m_star = minimize_m(10.24)
        assert zeta == pytest.approx(0.19214, abs=0.001)
        assert m_star == pytest.approx(15.6327, abs=0.002)
        zeta, m_star = minimize_m(8.0)
        assert zeta == pytest.approx(0.23556, abs=0.001)
        assert m_star == pytest.approx(13.0287, abs=0.002)

    @pytest.mark.parametrize("theta", [THETA_UNCONDITIONAL, THETA_SELBERG])
    def test_root_against_lambert_w(self, theta):
        # m'(zeta) = 0 solves as zeta* = 2 / (-W_{-1}(-(2/beta_2) e^C)),
        # C = 1 - 2/beta_2 - mu (1 - 1/beta_2)
        mu = 2.0 / float(tau_from_theta(theta))
        with mpmath.workdps(30):
            beta2 = mpmath.mpf(BETA_2)
            c = 1 - 2 / beta2 - mu * (1 - 1 / beta2)
            oracle = 2 / -mpmath.lambertw(-(2 / beta2) * mpmath.exp(c), -1)
        zeta, m_star = minimize_m(mu)
        assert abs(zeta - oracle) <= 1e-12
        assert m_star == m_zeta(mu, zeta)

    def test_exponent_from_level(self):
        assert 2.0 / float(tau_from_theta(Fraction(7, 64))) == 10.24

    def test_stationarity(self):
        zeta, _ = minimize_m(10.24)
        h = 1e-4
        slope = (m_zeta(10.24, zeta + h) - m_zeta(10.24, zeta - h)) / (2 * h)
        assert abs(slope) <= 1e-3

    def test_log_term_vanishes_at_sifting_limit(self):
        z = BETA_2 * (1.0 - 1e-12)
        expected = 10.0 * (1.0 + z) - 10.0 * z / BETA_2 - 1.0
        assert m_zeta(10.0, z) == pytest.approx(expected, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            m_zeta(10.0, 0.0)
        with pytest.raises(DomainError):
            m_zeta(10.0, BETA_2)
        with pytest.raises(DomainError):
            m_zeta(10.0, BETA_2 + 0.1)
        with pytest.raises(DomainError):
            minimize_m(2.0)
        for x in NON_FINITE:
            with pytest.raises(DomainError, match="mu must"):
                m_zeta(x, 0.2)
            with pytest.raises(DomainError, match="mu must"):
                minimize_m(x)
            with pytest.raises(DomainError, match="zeta must"):
                m_zeta(10.0, x)


def _hr_term(mu: float, zeta: float) -> float:
    """The Halberstam-Richert term of m(zeta): m less its linear part."""
    return m_zeta(mu, zeta) - (mu * (1.0 + zeta) - mu * zeta / BETA_2 - 1.0)


class TestHalberstamRichertBound:
    def test_values(self):
        # frozen from direct evaluation; consistent with the minimized
        # two-dimensional thresholds of TestTwoDimensionalRoute
        assert _hr_term(10.24, 0.19214) == pytest.approx(4.886390570447249, abs=1e-12)
        assert _hr_term(8.0, 0.23556) == pytest.approx(4.585884233244685, abs=1e-12)


class TestAdmissibleR:
    def test_regular(self):
        assert admissible_r(5.996) == 6
        assert admissible_r(4.676) == 5

    def test_near_integer_is_flagged(self):
        assert admissible_r(6.0 + 5e-10) is None


class TestReproduceConstants:
    @pytest.mark.parametrize("mode,r_lin,r_quad", [("unconditional", "6", "16"),
                                                   ("selberg", "5", "14")])
    def test_modes(self, mode, r_lin, r_quad):
        report = reproduce_constants(mode)
        assert report.all_pass
        by_name = {row.name: row for row in report.rows}
        assert by_name["r (one coordinate)"].computed == r_lin
        assert by_name["r (coordinate product)"].computed == r_quad

    def test_tau_row_matches_function(self):
        report = reproduce_constants("unconditional")
        assert report.tau == tau_from_theta(report.theta)
        assert report.rows[0].passed

    def test_json_round_trip(self):
        # the pinned `constants --mode selberg --output json` output
        golden = Path(__file__).resolve().parent / "golden" / "constants_selberg_json.txt"
        payload = json.loads(golden.read_text())
        report = reproduce_constants("selberg")
        assert payload["all_pass"] is True is report.all_pass
        assert payload["tau"] == "1/4" == str(report.tau)
        assert len(payload["rows"]) == 10
        assert payload["rows"] == [
            {"name": r.name, "computed": r.computed, "expected": r.expected,
             "pass": r.passed} for r in report.rows]

    @pytest.mark.parametrize("mode", ["unconditional", "selberg"])
    def test_quadrature_work(self, mode, monkeypatch):
        # integrand evaluations per `integrate` call: I2 and I3, 32 each
        calls = []

        def counted(fn, lo, hi):
            calls.append(0)

            def evaluated(t):
                calls[-1] += 1
                return fn(t)

            return numerics.integrate(evaluated, lo, hi)

        monkeypatch.setattr(thresholds, "integrate", counted)
        reproduce_constants(mode)
        assert calls == [32, 32]

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            reproduce_constants("hybrid")

    def test_reports_share_no_rows(self):
        one = ThresholdReport("selberg", Fraction(0), Fraction(1, 4))
        two = ThresholdReport("selberg", Fraction(0), Fraction(1, 4))
        one.add_exact("tau", Fraction(1, 4), Fraction(1, 4))
        assert len(one.rows) == 1 and two.rows == []


def test_fixed_rule_against_quad_oracle(monkeypatch):
    # the `constants` pair grid of seeds 1-40, by both threshold routes
    grid = [(job["a"], job["b"], Fraction(job["tau"])) for seed in range(1, 41)
            for job in job_list("constants", seed) if job["kind"] == "pair"]

    def values():
        return [(*threshold_components(a, b), linear_threshold(a, b, tau),
                 dh_threshold_linear(tau, b / ((b - a) * float(tau)), b / float(tau)))
                for a, b, tau in grid]

    fixed = values()
    monkeypatch.setattr(thresholds, "integrate", oracle_quad)
    quadpack = values()
    assert len(grid) == 240
    assert max(abs(x - y) for row, old in zip(fixed, quadpack)
               for x, y in zip(row, old)) <= 1e-14


class TestQuadratureNesting:
    """`integrate` calls, each recorded with its nesting depth, counted
    through every module's binding of the name."""

    @pytest.fixture
    def depths(self, monkeypatch):
        depths, open_calls = [], []
        real = numerics.integrate

        def counted(*args):
            open_calls.append(None)
            depths.append(len(open_calls))
            try:
                return real(*args)
            finally:
                open_calls.pop()

        for module in (numerics, sieve_functions, thresholds):
            if hasattr(module, "integrate"):
                monkeypatch.setattr(module, "integrate", counted)
        return depths

    def test_F_and_f_make_no_call(self, depths):
        for k in range(1, 801):
            if k <= 700:
                F_lin(0.01 * k)
            f_lin(0.01 * k)
        assert depths == []

    def test_thresholds_never_nest(self, depths):
        for a, b, tau in ((1.0, 6.6, Fraction(25, 128)), (1.0, 7.0, Fraction(1, 4)),
                          (2.5, 8.0, Fraction(25, 128))):
            linear_threshold(a, b, tau)
            dh_threshold_linear(tau, b / ((b - a) * float(tau)), b / float(tau))
        reproduce_constants("unconditional")
        reproduce_constants("selberg")
        assert depths and max(depths) == 1

    def test_first_calls_build_no_series(self):
        # a fresh process: the first F_lin(6.5) evaluates only its own
        # Phi(5.5), and f_lin(7.5) no Phi at all; Psi, W and E are tables
        src = Path(sieve_functions.__file__).resolve().parent.parent
        code = ("from sievelab import sieve_functions as sf\n"
                "calls, li2 = [], sf._li2\n"
                "sf._li2 = lambda z: calls.append(z) or li2(z)\n"
                "sf.F_lin(6.5)\n"
                "first = len(calls)\n"
                "sf.f_lin(7.5)\n"
                "print(first, len(calls) - first)\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "0"]
