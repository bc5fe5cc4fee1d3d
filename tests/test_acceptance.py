"""Acceptance suite: every criterion at its stated tolerance.

Run as `pytest -v -s tests/test_acceptance.py` to see one pass/fail line
per criterion.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from sievelab.arith import legendre_raw, primes_up_to
from sievelab.lattice_points import (census, enumerate_points, find_automorphs,
                                     residual_Rd)
from sievelab.localdata import BAD_SET, build_local_table
from sievelab.numerics import derivative_central, integrate
from sievelab.quadforms import TernaryForm, transform
from sievelab.sieve_functions import TWO_E_GAMMA, F_lin, f_lin
from sievelab.thresholds import (BETA_2, admissible_r, dh_threshold_linear,
                                 linear_threshold, minimize_m, tau_from_theta,
                                 threshold_components)

from test_lattice_points import (A0_T1000, CENSUS_R0_T2000, CENSUS_R6_T2000,
                                 R3_POINTS, RD_BASELINES_T1000, TEN_FORMS,
                                 X_T1000, enumeration_oracle)

DIAG113 = TernaryForm(1, 1, -3)

# a0 bound constant: frozen at the T=250 reference run with a fixed 1.5x
# safety factor (the bound is an order constant, not a sharp value)
A0_T250 = 18.29303299721061
C_A0 = 1.5 * A0_T250 / math.log(500.0)

# census(6) >= C_CENSUS * X / log X on the reference run; frozen just below
# the observed ratio 9.299
C_CENSUS = 9.0


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {description}")
        raise
    else:
        print(f"criterion {num:2d} PASS  {description}")


def test_criterion_01_level_reproduction():
    with criterion(1, "tau = 1/4 - theta/2 reproduces 25/128 and 1/4 exactly"):
        assert tau_from_theta(Fraction(7, 64)) == Fraction(25, 128)
        assert tau_from_theta(0) == Fraction(1, 4)


def test_criterion_02_sieve_function_endpoints():
    with criterion(2, "F(7), f(8) and 2e^gamma/f(b) land in published windows"):
        start = time.perf_counter()
        assert 1.0 <= F_lin(7.0) <= 1.0000050
        assert 0.9999648 <= f_lin(8.0) <= 1.0
        assert 3.56214 < TWO_E_GAMMA / f_lin(6.6) < 3.5623
        assert 3.56214 < TWO_E_GAMMA / f_lin(7.0) < 3.5622
        assert time.perf_counter() - start < 10.0


def test_criterion_03_threshold_components():
    with criterion(3, "I1, I2, I3 within windows and closed forms to 1e-8"):
        i1, i2, i3 = threshold_components(1.0, 6.6)
        assert 0.21435 <= i1 <= 0.21442
        assert abs(i1 - float(Fraction(115, 924)) * math.log(28.0 / 5.0)) <= 1e-8
        assert 0.0550 <= i2 <= 0.05558
        assert 0.0 < i3 <= 1e-5
        i1, i2, i3 = threshold_components(1.0, 7.0)
        assert 0.21325 <= i1 <= 0.21331
        assert abs(i1 - float(Fraction(5, 42)) * math.log(6.0)) <= 1e-8
        assert 0.0695 <= i2 <= 0.07015
        assert 0.0 < i3 <= 3e-5


def test_criterion_04_linear_thresholds():
    with criterion(4, "linear thresholds give r = 6 and r = 5"):
        thr = linear_threshold(1.0, 6.6, Fraction(25, 128))
        assert 5.95 <= thr <= 5.997
        assert admissible_r(thr) == 6
        thr = linear_threshold(1.0, 7.0, Fraction(1, 4))
        assert 4.65 <= thr <= 4.677
        assert admissible_r(thr) == 5


def test_criterion_05_two_dimensional_minimization():
    with criterion(5, "m(zeta) minima give r = 16 and r = 14"):
        assert BETA_2 == 4.266450
        zeta, m_star = minimize_m(10.24)
        assert abs(zeta - 0.19214) <= 0.001
        assert abs(m_star - 15.6327) <= 0.002
        assert admissible_r(m_star) == 16
        zeta, m_star = minimize_m(8.0)
        assert abs(zeta - 0.23556) <= 0.001
        assert abs(m_star - 13.0287) <= 0.002
        assert admissible_r(m_star) == 14


def test_criterion_06_proof_identities():
    with criterion(6, "component split and general-route cross-checks to 1e-6"):
        for a, b, tau in ((1.0, 6.6, Fraction(25, 128)), (1.0, 7.0, Fraction(1, 4))):
            i1, i2, i3 = threshold_components(a, b)

            def integrand(s):
                return F_lin(b - s) * (1.0 / s - 1.0 / (b - a))

            cuts = sorted({1.0, b - a}
                          | {b - c for c in (3.0, 5.0) if 1.0 < b - c < b - a})
            direct = sum(integrate(integrand, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
            assert abs(TWO_E_GAMMA * (i1 + i2 + i3) - direct) <= 1e-6

            u = b / ((b - a) * float(tau))
            v = b / float(tau)
            assert abs(dh_threshold_linear(tau, u, v)
                       - linear_threshold(a, b, tau)) <= 1e-6


def test_criterion_07_recursion_residuals():
    with criterion(7, "differential-difference residuals <= 1e-3 at 100 points"):
        h = 1e-4

        def sample(lo, hi, breaks, count=100):
            pts = []
            k = 1
            while len(pts) < count:
                u = lo + k * (hi - lo) / (count + 2)
                k += 1
                if any(abs(u - b) <= 0.01 for b in breaks):
                    continue
                pts.append(u)
            return pts

        for u in sample(3.0, 7.0 - h, (3.0, 5.0)):
            lhs = derivative_central(lambda s: s * F_lin(s), u, h)
            assert abs(lhs - f_lin(u - 1.0)) <= 1e-3, u
        for u in sample(2.0, 8.0 - h, (2.0, 4.0, 6.0)):
            lhs = derivative_central(lambda s: s * f_lin(s), u, h)
            assert abs(lhs - F_lin(u - 1.0)) <= 1e-3, u


def test_criterion_08_local_counts():
    with criterion(8, "Cassels counts, conic shape and bad-prime containment"):
        start = time.perf_counter()
        entries = build_local_table(DIAG113, 1, "x1", 97).entries
        for p in primes_up_to(97):
            if p < 5 or p == 3:
                continue
            assert entries[p].count_V == p * p + legendre_raw(3, p) * p, p
            assert entries[p].count_V0 in (p - 1, p + 1), p
        assert build_local_table(DIAG113, 1, "x1x2x3", 100).bad_primes <= BAD_SET
        assert time.perf_counter() - start < 30.0


def test_criterion_09_enumeration_and_growth(seq_cache):
    with criterion(9, "enumeration exactness, X = O(T) band, a0 log bound"):
        assert enumerate_points(DIAG113, 1, 3) == R3_POINTS
        for f in TEN_FORMS:
            assert enumerate_points(f, 1, 30) == enumeration_oracle(f, 1, 30)
        ratios = []
        for T in (250.0, 500.0, 1000.0, 2000.0, 4000.0):
            seq = seq_cache(T)
            ratios.append(seq.X / T)
            assert seq.a0 <= C_A0 * math.log(2.0 * T), T
        assert max(ratios) / min(ratios) <= 4.0


def test_criterion_10_equidistribution_residuals(seq_cache, ref_table):
    with criterion(10, "R_1 = 0, frozen R_d baselines, no residual growth"):
        seq1000 = seq_cache(1000)
        r1000 = {d: r for d, *_, r in residual_Rd(seq1000, ref_table, 143)}
        assert r1000[1] == 0.0
        for d, expected in RD_BASELINES_T1000.items():
            assert abs(r1000[d] - expected) <= 1e-9, d
        assert abs(seq1000.X - X_T1000) <= 1e-9
        assert abs(seq1000.a0 - A0_T1000) <= 1e-9
        seq500 = seq_cache(500)
        r500 = {d: r for d, *_, r in residual_Rd(seq500, ref_table, 17)}
        probe = (11, 13, 17)
        mean500 = sum(abs(r500[d]) for d in probe) / (3 * seq500.X)
        mean1000 = sum(abs(r1000[d]) for d in probe) / (3 * seq1000.X)
        assert mean1000 <= 2.0 * mean500


def test_criterion_11_almost_prime_census(seq_cache):
    with criterion(11, "census monotone, exhausts to X, positive at r = 6"):
        seq = seq_cache(2000)
        previous = -1.0
        for r in (0, 1, 2, 4, 6, 16, 64):
            weighted, _ = census(seq, r)
            assert weighted >= previous - 1e-12
            previous = weighted
        assert census(seq, 64)[0] == seq.X
        w6, raw6 = census(seq, 6)
        assert w6 > 0
        assert w6 >= C_CENSUS * seq.X / math.log(seq.X)
        w0, raw0 = census(seq, 0)
        assert abs(w0 - CENSUS_R0_T2000[0]) <= 1e-9 and raw0 == CENSUS_R0_T2000[1]
        assert abs(w6 - CENSUS_R6_T2000[0]) <= 1e-9 and raw6 == CENSUS_R6_T2000[1]


def test_criterion_12_automorphs():
    with criterion(12, "automorph search finds flips and a Pell automorph"):
        gens = set(find_automorphs(DIAG113, 3))
        assert ((1, 0, 0), (0, 1, 0), (0, 0, 1)) in gens
        assert ((-1, 0, 0), (0, -1, 0), (0, 0, 1)) in gens
        assert ((-1, 0, 0), (0, 1, 0), (0, 0, -1)) in gens
        assert ((1, 0, 0), (0, -1, 0), (0, 0, -1)) in gens
        assert any((m[0][0], m[1][0], m[2][0]) == (1, 0, 0)
                   and max(abs(e) for row in m for e in row) >= 2
                   for m in gens)
        for m in gens:
            u = [list(row) for row in m]
            assert transform(DIAG113, u) == DIAG113
            det = (u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
                   - u[0][1] * (u[1][0] * u[2][2] - u[1][2] * u[2][0])
                   + u[0][2] * (u[1][0] * u[2][1] - u[1][1] * u[2][0]))
            assert det == 1
