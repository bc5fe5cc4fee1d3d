"""Upper and lower functions of the one-dimensional (linear) sieve.

The linear-sieve pair F, f is the continuous solution of the
differential-difference system

    F(s) = 2 e^gamma / s                     for s <= 3  (and below 1),
    f(s) = 0                                 for s <= 2,
    (s F(s))' = f(s - 1)                     for s > 2  (trivial on (2, 3]),
    (s f(s))' = F(s - 1)                     for s > 2,

with F decreasing to 1 and f increasing to 1.  Integrating the system piece
by piece gives closed expressions on consecutive unit-two windows; each
window's term vanishes at its left end, so one formula covers all three:

    F(s) = (2 e^g / s)                                          on (0, 3]
    F(s) = (2 e^g / s) * (1 + Phi(s-1))                         on [3, 5]
    F(s) = (2 e^g / s) * (1 + Phi(s-1) + W(s))                  on [5, 7]

    f(s) = (2 e^g / s) * log(s-1)                               on [2, 4]
    f(s) = (2 e^g / s) * (log(s-1) + Psi(s))                    on [4, 6]
    f(s) = (2 e^g / s) * (log(s-1) + Psi(s) + E(s))             on [6, 8]

where

    Phi(x) = int_2^x log(t-1)/t dt,
    Psi(s) = int_4^s Phi(t-2)/(t-1) dt,
    W(s)   = int_5^s Psi(t-1)/(t-1) dt,
    E(s)   = int_6^s W(t-1)/(t-1) dt.

Each later window term is the primitive of the one before it: the
recursion (s F(s))' = f(s-1), applied to F on [5, 7], gives W'(s) =
Psi(s-1)/(s-1), and (s f(s))' = F(s-1) gives Psi'(s) = Phi(s-2)/(s-1) on
[4, 6] and E'(s) = W(s-1)/(s-1) on [6, 8].

Phi is a closed form in the dilogarithm Li2 (L. Lewin, Polylogarithms and
Associated Functions, 1981, ch. 1): G(x) = (1/2) log^2 x + Li2(1/x) has G'
= log(x-1)/x for x >= 2 and G(2) = pi^2/12, so Phi(x) = G(x) - pi^2/12.
Psi, W and E are Chebyshev series (`numerics._chebyshev_primitive`),
built on first use from 32 samples of their integrands, in chain order:
Psi on [4, 6] and on [6, 8], W on [5, 7] from the first, E on [6, 8] from
W.  Phi continues analytically to x > 1, so each integrand's nearest
singularity lies one unit left of its length-2 interval: the integrand is
analytic in the Bernstein ellipse of parameter 2 + sqrt(3) about it, and
its coefficients fall to rounding level (~1e-16) before the 28th.  No
evaluation of F or f calls `integrate`.

`_li2` evaluates Li2 on [-1/2, 1/2] by the Bernoulli series
Li2(z) = w - w^2/4 + sum_{k>=1} B_2k w^(2k+1)/(2k+1)! in w = -log(1-z),
|w| <= log 2, summed to k = 8 (the terms left out add up to under 5e-19).

Written out as a double integral over 2 <= t, t + 2 <= u <= s - 2,

    E(s) = int int (log(t-1)/t) (1/u) log((u-1)/(t+1)) log((s-1)/(u+1)) du dt,

E has the kernel log((s-1)/(u+1)) that (s f(s))' = F(s-1) forces; a
variant with log(s/(u+2)) appears in some tabulations and is a strict
pointwise lower bound of it (harmless for lower-bound sieving, but it leaves
a ~2e-4 residual in the recursion, so it is not used here).

Evaluation keeps iteration inside s <= 7 for F and s <= 8 for f: beyond
that both functions are within a few 1e-6 of their limit 1 and further
windows would not change any downstream constant.
"""

import functools
import math

from .errors import DomainError
from .numerics import _chebyshev_primitive

# Euler-Mascheroni constant, full double precision.
EULER_GAMMA = 0.5772156649015329
TWO_E_GAMMA = 2.0 * math.exp(EULER_GAMMA)

# B_2k / (2k+1)! for k = 1..8, the coefficients of Li2's series in w.
_LI2_SERIES = (0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06,
               -9.185773074661964e-08, 1.8978869988971e-09, -4.0647616451442256e-11,
               8.921691020456452e-13, -1.9939295860721074e-14)
_PI2_12 = math.pi ** 2 / 12.0


def _li2(z: float) -> float:
    """Dilogarithm Li2(z) for -1/2 <= z <= 1/2."""
    if not -0.5 <= z <= 0.5:
        raise DomainError(f"_li2 domain is -1/2 <= z <= 1/2, got {z}")
    w = -math.log1p(-z)
    v = w * w
    acc = 0.0
    for c in reversed(_LI2_SERIES):
        acc = acc * v + c
    return w - 0.25 * v + w * v * acc


def _G(x: float) -> float:
    """(1/2) log^2 x + Li2(1/x), an antiderivative of log(x-1)/x on x >= 2."""
    lx = math.log(x)
    return 0.5 * lx * lx + _li2(1.0 / x)


def _phi(x: float) -> float:
    """int_2^x log(t-1)/t dt, zero for x <= 2."""
    if x <= 2.0:
        return 0.0
    return _G(x) - _PI2_12


@functools.cache
def _primitives() -> tuple:
    """(Psi on [4, 6], Psi - Psi(6) on [6, 8], W, E), built once on first use,
    each series from the one before it (module docstring).

    They depend on no input: a table like _LI2_SERIES, not a memo.
    """
    def psi_rate(t):
        return _phi(t - 2.0) / (t - 1.0)

    psi_lo = _chebyshev_primitive(psi_rate, 4.0, 6.0)
    psi_hi = _chebyshev_primitive(psi_rate, 6.0, 8.0)
    w = _chebyshev_primitive(lambda t: psi_lo(t - 1.0) / (t - 1.0), 5.0, 7.0)
    e = _chebyshev_primitive(lambda t: w(t - 1.0) / (t - 1.0), 6.0, 8.0)
    return psi_lo, psi_hi, w, e


def _W(s: float) -> float:
    """int_5^s Psi(t-1)/(t-1) dt, the term of F's third window; zero for s <= 5."""
    return _primitives()[2](s) if s > 5.0 else 0.0


def _psi(s: float) -> float:
    """int_4^s Phi(t-2)/(t-1) dt, the term of f's second window; zero for s <= 4."""
    if s <= 4.0:
        return 0.0
    psi_lo, psi_hi, _, _ = _primitives()
    return psi_lo(s) if s <= 6.0 else psi_lo(6.0) + psi_hi(s)


def _E(s: float) -> float:
    """int_6^s W(t-1)/(t-1) dt, the term of f's third window; zero for s <= 6."""
    return _primitives()[3](s) if s > 6.0 else 0.0


def F_lin(s: float) -> float:
    """Upper linear-sieve function F(s) on 0 < s <= 7.

    The closed form 2 e^gamma / s extends F below s = 1; in-contract
    sieve evaluations never reach that range, but the extension keeps
    composed integrands total.
    """
    if not 0.0 < s <= 7.0:
        raise DomainError(f"F_lin domain is 0 < s <= 7, got {s}")
    return TWO_E_GAMMA / s * (1.0 + _phi(s - 1.0) + _W(s))


def f_lin(s: float) -> float:
    """Lower linear-sieve function f(s) on 0 < s <= 8 (zero up to s = 2)."""
    if not 0.0 < s <= 8.0:
        raise DomainError(f"f_lin domain is 0 < s <= 8, got {s}")
    if s <= 2.0:
        return 0.0
    return TWO_E_GAMMA / s * (math.log(s - 1.0) + _psi(s) + _E(s))

