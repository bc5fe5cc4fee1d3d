import math
import random

import numpy as np
import pytest

from sievelab import numerics
from sievelab.errors import DomainError, EvaluationError
from sievelab.numerics import derivative_central, integrate


def simpson_oracle(fn, lo, hi, panels=10 ** 6):
    """Fixed composite Simpson rule; independent of the Chebyshev rule."""
    xs = np.linspace(lo, hi, panels + 1)
    ys = np.array([fn(x) for x in xs]) if panels < 10 ** 4 else fn(xs)
    h = (hi - lo) / panels
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


# frozen from the 10^6-panel Simpson oracle (and checked to 30 digits
# against an independent transform of the integrand)
LOG_INTEGRAL_2_3 = 0.14722067695924124


def test_nodes_match_numpy():
    # the rule samples numpy's Chebyshev-Gauss points, bit for bit
    x, _ = np.polynomial.chebyshev.chebgauss(numerics._CHEB_N)
    assert [v.hex() for v in sorted(numerics._NODES)] == [v.hex() for v in sorted(x.tolist())]


def test_fejer_rule_degree():
    # x^k on [-1, 1] to rounding level up to degree 31, not beyond; 32
    # nodes and 32 exact moments determine the weights
    def error(k):
        total = sum(w * x ** k for x, w in zip(numerics._NODES, numerics._WEIGHTS))
        return abs(total - (1.0 + (-1.0) ** k) / (k + 1))

    assert max(error(k) for k in range(32)) <= 1e-15
    assert error(32) > 1e-13  # 9e-13


class TestIntegrate:
    def test_linear_polynomial(self):
        assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_log_integrand_against_simpson_oracle(self):
        oracle = simpson_oracle(lambda t: np.log(t - 1.0) / t, 2.0, 3.0)
        assert oracle == pytest.approx(LOG_INTEGRAL_2_3, abs=1e-12)
        value = integrate(lambda t: math.log(t - 1.0) / t, 2.0, 3.0)
        assert value == pytest.approx(oracle, abs=1e-6)

    def test_single_panel_evaluates_once(self):
        # the 32 Chebyshev points, each once, nothing more
        calls = []
        integrate(lambda x: calls.append(x) or x, 0.0, 1.0)
        assert len(calls) == len(set(calls)) == 32

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

    def test_determinism(self):
        fn = lambda x: math.sin(x) / (1.0 + x * x)
        assert integrate(fn, 0.0, 3.0) == integrate(fn, 0.0, 3.0)


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
