import math
import random

import numpy as np
import pytest

from sievelab import numerics
from sievelab.errors import ConvergenceError, DomainError, EvaluationError
from sievelab.numerics import derivative_central, integrate, minimize_scalar


def simpson_oracle(fn, lo, hi, panels=10 ** 6):
    """Fixed composite Simpson rule; independent of the adaptive path."""
    xs = np.linspace(lo, hi, panels + 1)
    ys = np.array([fn(x) for x in xs]) if panels < 10 ** 4 else fn(xs)
    h = (hi - lo) / panels
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


# frozen from the 10^6-panel Simpson oracle (and checked to 30 digits
# against an independent transform of the integrand)
LOG_INTEGRAL_2_3 = 0.14722067695924124


def test_gauss_literals_match_numpy():
    # the 10-point Gauss nodes and weights nested in the Kronrod rule are
    # numpy's, bit for bit
    gauss = [(x, wg) for x, _, wg in numerics._GK21 if wg != 0.0]
    nodes = sorted([-x for x, _ in gauss] + [x for x, _ in gauss])
    weights = [w for _, w in gauss] + [w for _, w in reversed(gauss)]
    x, w = np.polynomial.legendre.leggauss(10)
    assert [v.hex() for v in nodes] == [v.hex() for v in x.tolist()]
    assert [v.hex() for v in weights] == [v.hex() for v in w.tolist()]


@pytest.mark.parametrize("rule, degree", [("K21", 31), ("G10", 19)])
def test_rule_degree(rule, degree):
    # x^k on [-1, 1] to rounding level up to the rule's degree, not beyond
    column = 1 if rule == "K21" else 2
    centre = numerics._K21_CENTRE if rule == "K21" else 0.0

    def error(k):
        total = centre * 0.0 ** k
        for row in numerics._GK21:
            total += row[column] * (row[0] ** k + (-row[0]) ** k)
        return abs(total - (1.0 + (-1.0) ** k) / (k + 1))

    assert max(error(k) for k in range(degree + 1)) <= 1e-15
    assert error(degree + 1) > 1e-13  # 4e-12 for K21


class TestIntegrate:
    def test_linear_polynomial(self):
        assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_log_integrand_against_simpson_oracle(self):
        oracle = simpson_oracle(lambda t: np.log(t - 1.0) / t, 2.0, 3.0)
        assert oracle == pytest.approx(LOG_INTEGRAL_2_3, abs=1e-12)
        value = integrate(lambda t: math.log(t - 1.0) / t, 2.0, 3.0)
        assert value == pytest.approx(oracle, abs=1e-6)

    def test_single_panel_evaluates_once(self):
        # the 21 Kronrod nodes of the root panel, nothing more
        calls = []
        integrate(lambda x: calls.append(x) or x, 0.0, 1.0)
        assert len(calls) == len(set(calls)) == 21

    def test_each_panel_evaluated_once(self, monkeypatch):
        panels = []
        panel = numerics._panel

        def recorded(fn, a, b):
            panels.append((a, b))
            return panel(fn, a, b)

        monkeypatch.setattr(numerics, "_panel", recorded)
        integrate(math.sqrt, 0.0, 1.0)
        assert len(panels) > 1  # the endpoint singularity forces bisection
        assert len(set(panels)) == len(panels)

    def test_empty_interval_exact_zero(self):
        assert integrate(lambda x: 1e9 * x * x, 1.0, 1.0) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_linearity_on_random_polynomials(self):
        rng = random.Random(20240811)
        for _ in range(10):
            cf = [rng.uniform(-3, 3) for _ in range(5)]
            cg = [rng.uniform(-3, 3) for _ in range(5)]
            a, b = rng.uniform(1, 2), rng.uniform(-2, 0)
            f = lambda x, cf=cf: sum(c * x ** i for i, c in enumerate(cf))
            g = lambda x, cg=cg: sum(c * x ** i for i, c in enumerate(cg))
            lhs = integrate(lambda x: a * f(x) + b * g(x), -1.0, 2.0)
            rhs = a * integrate(f, -1.0, 2.0) + b * integrate(g, -1.0, 2.0)
            assert abs(lhs - rhs) <= 10 * 1e-10

    def test_interval_additivity(self):
        fn = lambda x: math.exp(-x) * math.sin(3 * x)
        whole = integrate(fn, 0.0, 2.0)
        split = integrate(fn, 0.0, 0.7) + integrate(fn, 0.7, 2.0)
        assert abs(whole - split) <= 10 * 1e-10

    def test_non_finite_integrand_reports_abscissa(self):
        with pytest.raises(EvaluationError) as err:
            integrate(lambda x: float("nan"), 0.0, 1.0)
        assert 0.0 <= err.value.abscissa <= 1.0

    def test_depth_exhaustion_carries_best_estimate(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_DEPTH", 8)
        step = lambda x: 1.0 if x > 1.0 / math.pi else 0.0
        with pytest.raises(ConvergenceError) as err:
            integrate(step, 0.0, 1.0, 1e-14)
        assert math.isfinite(err.value.best_estimate)

    def test_determinism(self):
        fn = lambda x: math.sin(x) / (1.0 + x * x)
        assert integrate(fn, 0.0, 3.0) == integrate(fn, 0.0, 3.0)

    def test_tolerance_validation(self):
        for tol in (0.0, -1e-10, float("nan")):
            with pytest.raises(DomainError, match="tolerance must be positive"):
                integrate(lambda x: x, 0.0, 1.0, tol)


class TestMinimizeScalar:
    def test_shifted_quadratic(self):
        res = minimize_scalar(lambda x: (x - 0.2) ** 2 + 1.0, 0.0, 1.0, tol=1e-6)
        assert res.argmin == pytest.approx(0.2, abs=1e-6)
        assert res.min_value == pytest.approx(1.0, abs=1e-10)
        assert 0.0 <= res.argmin <= 1.0
        assert res.iterations > 0

    def test_kink_at_zero(self):
        res = minimize_scalar(abs, -1.0, 2.0, tol=1e-7)
        assert res.argmin == pytest.approx(0.0, abs=1e-6)

    def test_random_convex_quadratics_hit_vertex(self):
        rng = random.Random(7)
        for _ in range(25):
            v = rng.uniform(-0.9, 0.9)
            a = rng.uniform(0.5, 4.0)
            res = minimize_scalar(lambda x: a * (x - v) ** 2, -1.0, 1.0, tol=1e-7)
            assert abs(res.argmin - v) <= 1e-6

    def test_empty_bracket(self):
        with pytest.raises(DomainError):
            minimize_scalar(lambda x: x, 1.0, 1.0)

    def test_non_finite_objective(self):
        with pytest.raises(EvaluationError):
            minimize_scalar(lambda x: float("inf"), 0.0, 1.0)


class TestDerivativeCentral:
    def test_square(self):
        assert derivative_central(lambda x: x * x, 3.0, 1e-4) == pytest.approx(
            6.0, abs=1e-7)

    def test_constant(self):
        assert derivative_central(lambda x: 42.0, 1.234, 1e-3) == 0.0

    def test_bad_step(self):
        with pytest.raises(DomainError):
            derivative_central(lambda x: x, 0.0, 0.0)

    def test_non_finite(self):
        with pytest.raises(EvaluationError):
            derivative_central(lambda x: float("nan"), 0.0, 1e-4)
