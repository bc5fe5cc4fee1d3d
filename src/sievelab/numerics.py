"""Deterministic real-analysis engine: quadrature, minimization, derivatives.

Quadrature is adaptive Gauss quadrature with interval bisection: each panel
is estimated with an embedded 7/15-point Gauss-Legendre pair, the difference
serving as the local error estimate.  Nodes and weights are float literals
of the 7- and 15-point Gauss-Legendre rules (a test checks them bit for bit
against a reference implementation), so every run evaluates the same
abscissae in the same order and results are bit-identical across runs.

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

_NODES7 = [-0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
           0.4058451513773972, 0.7415311855993945, 0.9491079123427586]
_WEIGHTS7 = [0.12948496616886973, 0.27970539148927687, 0.3818300505051187,
             0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
             0.12948496616886973]
_NODES15 = [-0.9879925180204854, -0.9372733924007058, -0.8482065834104272,
            -0.7244177313601701, -0.5709721726085388, -0.3941513470775634,
            -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
            0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
            0.9372733924007058, 0.9879925180204854]
_WEIGHTS15 = [0.030753241996117203, 0.0703660474881084, 0.10715922046717141,
              0.13957067792615444, 0.16626920581699398, 0.1861610000155622,
              0.1984314853271116, 0.2025782419255613, 0.1984314853271116,
              0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
              0.10715922046717141, 0.0703660474881084, 0.030753241996117203]


class _Tolerances(NamedTuple):
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 60


class QuadratureSpec(_Tolerances):
    """Error control for `integrate`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise DomainError("max_depth must be >= 1")
        return self

    @classmethod
    def _make(cls, iterable):
        """Build through the checks; `_replace` calls this too."""
        return cls(*iterable)


class MinimizeResult(NamedTuple):
    argmin: float
    min_value: float
    iterations: int


def _panel(fn, lo: float, hi: float):
    """(15-point estimate, error estimate vs embedded 7-point) on [lo, hi]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    i15 = _rule(fn, mid, half, _NODES15, _WEIGHTS15)
    i7 = _rule(fn, mid, half, _NODES7, _WEIGHTS7)
    return half * i15, half * abs(i15 - i7)


def _rule(fn, mid: float, half: float, nodes, weights) -> float:
    """sum of w fn(mid + half x) over the rule's nodes x and weights w, in order."""
    total = 0.0
    for x, w in zip(nodes, weights):
        t = mid + half * x
        v = fn(t)
        if not math.isfinite(v):
            raise EvaluationError("integrand returned a non-finite value", t)
        total += w * v
    return total


def integrate(fn: Callable[[float], float], lo: float, hi: float,
              spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Integral of `fn` over [lo, hi] to the tolerances in `spec`.

    Empty intervals return 0.0 exactly.  Raises `EvaluationError` if the
    integrand produces a non-finite value, `ConvergenceError` (carrying the
    best estimate) if bisection exhausts ``spec.max_depth``.
    """
    if lo > hi:
        raise DomainError(f"integration bounds out of order: {lo} > {hi}")
    if lo == hi:
        return 0.0

    est, err = _panel(fn, lo, hi)
    tol = max(spec.abs_tol, spec.rel_tol * abs(est))

    # The root panel is judged first; then (lo, hi, local tolerance,
    # remaining depth) work items, whose children split the parent's
    # tolerance so the accepted panels sum within `tol`.
    a, b, t, depth = lo, hi, tol, spec.max_depth
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
