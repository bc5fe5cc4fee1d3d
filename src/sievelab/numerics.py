"""Deterministic real-analysis engine: two Chebyshev rules and derivatives.

Both rules sample a function at the _CHEB_N first-kind Chebyshev points
mid + half cos(_ANGLES[j]) of an interval (L. N. Trefethen, Approximation
Theory and Approximation Practice, 2013, ch. 3 and 19):

* `integrate` is Fejer's first rule (L. Fejer, 1933; J. Waldvogel, BIT 46
  (2006) 195-202), the integral of the interpolant through those points:
  a fixed weighted sum of 32 values, exact for polynomials of degree up
  to 31.  On a function analytic in the Bernstein ellipse of parameter
  rho about the interval, its error is O(rho^(-32)).  Every integrand of
  `thresholds` is singular no nearer than one unit outside an interval at
  most 4 long (the pieces of the general route are cut at the joints of
  F), so rho >= 2.6; on the `constants` pair grid each integral agrees
  with QUADPACK at 1e-14 to within 1e-14 (tests/test_thresholds.py).
* `_chebyshev_primitive` is the interpolant's primitive, a Chebyshev
  series that `sieve_functions` evaluates anywhere on the interval.

The weights are computed once, at import, so every run evaluates the same
abscissae in the same order and results are bit-identical across runs.
No caller nests one `integrate` call inside another.
"""

import math
from typing import Callable

from .errors import DomainError, EvaluationError

# Chebyshev samples per rule.
_CHEB_N = 32
_ANGLES = [math.pi * (j + 0.5) / _CHEB_N for j in range(_CHEB_N)]
_NODES = [math.cos(a) for a in _ANGLES]
# Fejer's weights on [-1, 1]: int T_k = 2/(1 - k^2) for even k, 0 for odd k.
_WEIGHTS = [2.0 / _CHEB_N * (1.0 - 2.0 * sum(math.cos(2 * k * a) / (4 * k * k - 1)
                                            for k in range(1, _CHEB_N // 2)))
            for a in _ANGLES]


def integrate(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Integral of `fn` over [lo, hi] by Fejer's first rule on 32 points.

    Raises `EvaluationError` if the integrand produces a non-finite value.
    """
    if lo > hi:
        raise DomainError(f"integration bounds out of order: {lo} > {hi}")
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    total = 0.0
    for x, w in zip(_NODES, _WEIGHTS):
        t = mid + half * x
        v = fn(t)
        if not math.isfinite(v):
            raise EvaluationError("integrand returned a non-finite value", t)
        total += w * v
    return half * total


def _chebyshev_primitive(fn, lo: float, hi: float):
    """x -> int_lo^x fn on [lo, hi], as a Chebyshev series.

    fn's coefficients come from a DCT of its values at the _CHEB_N
    Chebyshev points; the primitive's from int T_k = T_(k+1)/(2(k+1)) -
    T_(k-1)/(2(k-1)), and the returned function sums them by Clenshaw.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    values = [fn(mid + half * x) for x in _NODES]
    c = [2.0 / _CHEB_N * sum(v * math.cos(k * a) for v, a in zip(values, _ANGLES))
         for k in range(_CHEB_N)] + [0.0, 0.0]
    b = [half * (c[k - 1] - c[k + 1]) / (2 * k) for k in range(_CHEB_N, 0, -1)]
    b0 = sum(bk if k % 2 else -bk for k, bk in zip(range(_CHEB_N, 0, -1), b))

    def primitive(x: float) -> float:
        y = (x - mid) / half
        y2, b1, b2 = 2.0 * y, 0.0, 0.0
        for bk in b:
            b1, b2 = bk + y2 * b1 - b2, b1
        return b0 + y * b1 - b2

    return primitive


def derivative_central(fn: Callable[[float], float], x: float, h: float) -> float:
    """Central difference (fn(x+h) - fn(x-h)) / (2h)."""
    if h <= 0:
        raise DomainError("step h must be positive")
    hi, lo = fn(x + h), fn(x - h)
    if not math.isfinite(hi):
        raise EvaluationError("function returned a non-finite value", x + h)
    if not math.isfinite(lo):
        raise EvaluationError("function returned a non-finite value", x - h)
    return (hi - lo) / (2.0 * h)
