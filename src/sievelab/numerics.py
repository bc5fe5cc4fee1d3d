"""Deterministic real-analysis engine: quadrature, minimization, derivatives.

Quadrature is adaptive Gauss-Kronrod quadrature with interval bisection:
each panel costs the 21 evaluations of QUADPACK's Kronrod rule (Piessens
et al., 1983), whose nested 10-point Gauss rule reuses every other node,
and |K21 - G10| is its error estimate.  The nodes and weights are float
literals, so every run evaluates the same abscissae in the same order and
results are bit-identical across runs.

Closed forms in the dilogarithm and Chebyshev primitives (see
`sieve_functions`) make F and f quadrature-free, so no caller nests one
`integrate` call inside another.

All functions here are pure and hold no mutable state.
"""

import math
from typing import Callable, NamedTuple

from .errors import ConvergenceError, DomainError, EvaluationError

# Euler-Mascheroni constant, full double precision.
EULER_GAMMA = 0.5772156649015329

# (x, Kronrod weight, Gauss weight) for the nodes +-x > 0 of the 21-point
# rule; every other row's x is a 10-point Gauss node, with numpy's weight.
_GK21 = ((0.9956571630258081, 0.011694638867371874, 0.0),
         (0.9739065285171717, 0.032558162307964725, 0.06667134430868814),
         (0.9301574913557082, 0.054755896574351995, 0.0),
         (0.8650633666889845, 0.07503967481091996, 0.1494513491505804),
         (0.7808177265864169, 0.0931254545836976, 0.0),
         (0.6794095682990244, 0.10938715880229764, 0.219086362515982),
         (0.5627571346686047, 0.12349197626206584, 0.0),
         (0.4333953941292472, 0.13470921731147334, 0.2692667193099965),
         (0.2943928627014602, 0.14277593857706009, 0.0),
         (0.14887433898163122, 0.14773910490133849, 0.2955242247147528))
_K21_CENTRE = 0.1494455540029169  # Kronrod weight of the node 0

# Most bisections on the way from [lo, hi] down to an accepted panel.
_MAX_DEPTH = 60


class MinimizeResult(NamedTuple):
    argmin: float
    min_value: float
    iterations: int


def _panel(fn, lo: float, hi: float):
    """(21-point Kronrod estimate, error estimate vs nested 10-point Gauss)."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    k21 = _K21_CENTRE * _value(fn, mid)
    g10 = 0.0
    for x, wk, wg in _GK21:
        pair = _value(fn, mid - half * x) + _value(fn, mid + half * x)
        k21 += wk * pair
        g10 += wg * pair
    return half * k21, half * abs(k21 - g10)


def _value(fn, t: float) -> float:
    v = fn(t)
    if not math.isfinite(v):
        raise EvaluationError("integrand returned a non-finite value", t)
    return v


def integrate(fn: Callable[[float], float], lo: float, hi: float,
              tol: float = 1e-10) -> float:
    """Integral of `fn` over [lo, hi] to within tol * max(1, |integral|).

    Empty intervals return 0.0 exactly.  Raises `EvaluationError` if the
    integrand produces a non-finite value, `ConvergenceError` (carrying the
    best estimate) if a panel needs more than _MAX_DEPTH bisections.
    """
    if not tol > 0:
        raise DomainError(f"quadrature tolerance must be positive, got {tol}")
    if lo > hi:
        raise DomainError(f"integration bounds out of order: {lo} > {hi}")
    if lo == hi:
        return 0.0

    est, err = _panel(fn, lo, hi)

    # The root panel is judged first; then (lo, hi, local tolerance,
    # remaining depth) work items, whose children split the parent's
    # tolerance so the accepted panels sum within it.
    a, b, t, depth = lo, hi, tol * max(1.0, abs(est)), _MAX_DEPTH
    stack = []
    total = 0.0
    while True:
        if err <= t or b - a <= abs(a) * 1e-15 + 1e-300:
            total += est
        elif depth <= 0:
            raise ConvergenceError(
                f"quadrature depth exhausted on [{a}, {b}]", total + est)
        else:
            m = 0.5 * (a + b)
            stack.append((a, m, 0.5 * t, depth - 1))
            stack.append((m, b, 0.5 * t, depth - 1))
        if not stack:
            return total
        a, b, t, depth = stack.pop()
        est, err = _panel(fn, a, b)


def minimize_scalar(fn: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-8) -> MinimizeResult:
    """Golden-section minimum of a unimodal `fn` on [lo, hi].

    Unimodality is the caller's responsibility; on a unimodal objective the
    returned argmin is within `tol` of the true minimizer.
    """
    if lo >= hi:
        raise DomainError(f"empty search bracket: [{lo}, {hi}]")
    if tol <= 0:
        raise DomainError("tol must be positive")

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)

    def _eval(x):
        v = fn(x)
        if not math.isfinite(v):
            raise EvaluationError("objective returned a non-finite value", x)
        return v

    fc, fd = _eval(c), _eval(d)
    iterations = 0
    while b - a > tol:
        iterations += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _eval(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _eval(d)
        if iterations > 500:  # bracket shrinks by ~0.618/step; 500 is unreachable
            break
    x = 0.5 * (a + b)
    return MinimizeResult(argmin=x, min_value=_eval(x), iterations=iterations)


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
