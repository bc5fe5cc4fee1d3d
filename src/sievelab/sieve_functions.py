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

    Phi(x) = int_2^x log(t-1)/t dt
    W(s)   = int_2^{s-3} (log(t-1)/t) int_{t+2}^{s-1} (1/u) log((u-1)/(t+1)) du dt
    Psi(s) = int_3^{s-1} (1/t) Phi(t-1) dt
    E(s)   = int_2^{s-4} (log(t-1)/t)
                 int_{t+2}^{s-2} (1/u) log((u-1)/(t+1)) log((s-1)/(u+1)) du dt.

Each of these is a closed form in the dilogarithm Li2 (L. Lewin,
Polylogarithms and Associated Functions, 1981, ch. 1) and a few
one-variable primitives.  With k(t) = log(t-1)/t and

    G(x) = (1/2) log^2 x + Li2(1/x),     G' = k   for x >= 2,   G(2) = pi^2/12,
    H(u) = (1/2) log^2 u + Li2(-1/u),    H'(u) = log(u+1)/u,

Phi(x) = G(x) - pi^2/12, and the variables of W and E separate:

    W(s) = G(s-1) Phi(x) - L J(x) - P1(x) + P3(x)        x = s-3, L = log(s-1),
    E(s) = L [G(S) Phi(x) - P1(x)] - [J2(S) Phi(x) - P2(x)]
           - L [log S J(x) - P3(x)] + H(S) J(x) - P4(x)   x = s-4, S = s-2,

where J, P1, P2, P3 and P4 are the primitives over [2, x] of k(t) times
log(t+1), G(t+2), J2(t+2), log(t+1) log(t+2) and log(t+1) H(t+2), and
J2 is a primitive of log(u-1) log(u+1)/u on [4, 6].  Psi is a primitive
itself, split at t = 5.  Each primitive is a Chebyshev series on its
fixed interval (L. N. Trefethen, Approximation Theory and Approximation
Practice, 2013, ch. 3 and 19), built on first use from 32 samples of its
integrand: J2 first, as P2 samples it, then the other seven in one pass
that shares each DCT cosine row.  No evaluation of F or f calls `integrate`.

`_li2` evaluates Li2 on [-1/2, 1/2] by the Bernoulli series
Li2(z) = w - w^2/4 + sum_{k>=1} B_2k w^(2k+1)/(2k+1)! in w = -log(1-z),
|w| <= log 2, summed to k = 8 (the terms left out add up to under 5e-19).

The E kernel log((s-1)/(u+1)) is the one forced by (s f(s))' = F(s-1); a
variant with log(s/(u+2)) appears in some tabulations and is a strict
pointwise lower bound of it (harmless for lower-bound sieving, but it leaves
a ~2e-4 residual in the recursion, so it is not used here).

Evaluation keeps iteration inside s <= 7 for F and s <= 8 for f: beyond
that both functions are within a few 1e-6 of their limit 1 and further
windows would not change any downstream constant.
"""

import functools
import math
import operator

from .errors import DomainError, UnsupportedKappaError
from .numerics import EULER_GAMMA

TWO_E_GAMMA = 2.0 * math.exp(EULER_GAMMA)

# Sifting limits: below beta_kappa the lower function vanishes.  beta_1 = 2
# is exact; beta_2 is the tabulated two-dimensional value.
BETA = {1: 2.0, 2: 4.266450}

# B_2k / (2k+1)! for k = 1..8, the coefficients of Li2's series in w.
_LI2_SERIES = (0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06,
               -9.185773074661964e-08, 1.8978869988971e-09, -4.0647616451442256e-11,
               8.921691020456452e-13, -1.9939295860721074e-14)
_PI2_12 = math.pi ** 2 / 12.0

# Chebyshev samples per primitive.  Every integrand is analytic in a
# Bernstein ellipse of parameter >= 2 + sqrt(3) about its interval, so its
# coefficients fall to rounding level (~1e-16) before the 28th.
_CHEB_N = 32


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


def _H(u: float) -> float:
    """(1/2) log^2 u + Li2(-1/u), an antiderivative of log(u+1)/u on u >= 2."""
    lu = math.log(u)
    return 0.5 * lu * lu + _li2(-1.0 / u)


def _phi(x: float) -> float:
    """int_2^x log(t-1)/t dt, zero for x <= 2."""
    if x <= 2.0:
        return 0.0
    return _G(x) - _PI2_12


def _chebyshev_primitives(*integrands):
    """x -> int_lo^x fn on [lo, hi] as a Chebyshev series, for each (fn, lo, hi).

    fn's coefficients come from a DCT of its values at the _CHEB_N
    Chebyshev points, each cosine row cos(k a_j) computed once for all the
    integrands; the primitive's from int T_k = T_(k+1)/(2(k+1)) -
    T_(k-1)/(2(k-1)), and the returned functions sum them by Clenshaw.
    """
    angles = [math.pi * (j + 0.5) / _CHEB_N for j in range(_CHEB_N)]
    samples = [[fn(0.5 * (lo + hi) + 0.5 * (hi - lo) * math.cos(a)) for a in angles]
               for fn, lo, hi in integrands]
    coeffs = [[] for _ in integrands]
    for k in range(_CHEB_N):
        row = [math.cos(k * a) for a in angles]
        for c, values in zip(coeffs, samples):
            c.append(2.0 / _CHEB_N * sum(map(operator.mul, values, row)))
    return [_primitive(c + [0.0, 0.0], lo, hi) for c, (_, lo, hi) in zip(coeffs, integrands)]


def _primitive(c: list, lo: float, hi: float):
    """The Chebyshev primitive on [lo, hi] of the series with coefficients c."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    b = [half * (c[k - 1] - c[k + 1]) / (2 * k) for k in range(_CHEB_N, 0, -1)]
    b0 = sum(bk if k % 2 else -bk for k, bk in zip(range(_CHEB_N, 0, -1), b))

    def primitive(x: float) -> float:
        y = (x - mid) / half
        b1 = b2 = 0.0
        for bk in b:
            b1, b2 = bk + 2.0 * y * b1 - b2, b1
        return b0 + y * b1 - b2

    return primitive


@functools.cache
def _primitives() -> dict:
    """The primitives of the module docstring, built once on first use.

    They depend on no input: a table like _LI2_SERIES, not a memo.
    """
    def k(t):
        return math.log(t - 1.0) / t

    # Psi's integrand is singular at t = 2: one series on [3, 7] would converge slowly
    def psi(t):
        return _phi(t - 1.0) / t

    j2, = _chebyshev_primitives(
        (lambda u: math.log(u - 1.0) * math.log(u + 1.0) / u, 4.0, 6.0))
    integrands = {
        "J": (lambda t: k(t) * math.log(t + 1.0), 2.0, 4.0),
        "P1": (lambda t: k(t) * _G(t + 2.0), 2.0, 4.0),
        "P2": (lambda t: k(t) * j2(t + 2.0), 2.0, 4.0),
        "P3": (lambda t: k(t) * math.log(t + 1.0) * math.log(t + 2.0), 2.0, 4.0),
        "P4": (lambda t: k(t) * math.log(t + 1.0) * _H(t + 2.0), 2.0, 4.0),
        "psi_lo": (psi, 3.0, 5.0),
        "psi_hi": (psi, 5.0, 7.0),
    }
    return dict(zip(integrands, _chebyshev_primitives(*integrands.values())), J2=j2)


def _W(s: float) -> float:
    """The ring integral W(s) of F's third window, zero for s <= 5."""
    if s <= 5.0:
        return 0.0
    p = _primitives()
    x = s - 3.0
    return (_G(s - 1.0) * _phi(x) - math.log(s - 1.0) * p["J"](x)
            - p["P1"](x) + p["P3"](x))


def _psi(s: float) -> float:
    """int_3^{s-1} Phi(t-1)/t dt, zero for s <= 4."""
    if s <= 4.0:
        return 0.0
    p = _primitives()
    if s <= 6.0:
        return p["psi_lo"](s - 1.0)
    return p["psi_lo"](5.0) + p["psi_hi"](s - 1.0)


def _E(s: float) -> float:
    """The double integral E(s) of f's third window, zero for s <= 6."""
    if s <= 6.0:
        return 0.0
    p = _primitives()
    x, S, L = s - 4.0, s - 2.0, math.log(s - 1.0)
    phi, J = _phi(x), p["J"](x)
    return (L * (_G(S) * phi - p["P1"](x)) - (p["J2"](S) * phi - p["P2"](x))
            - L * (math.log(S) * J - p["P3"](x)) + _H(S) * J - p["P4"](x))


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


def hr_upper(kappa: float, zeta: float) -> float:
    """Halberstam-Richert closed upper bound for the weighted-sieve integral.

    Returns (kappa + zeta) log(beta_kappa / zeta) - kappa + zeta kappa / beta_kappa,
    valid for tabulated nonlinear dimensions (kappa = 2) and 0 < zeta < beta_kappa.
    """
    beta = BETA.get(kappa)
    if beta is None or kappa <= 1:
        raise UnsupportedKappaError(
            f"no tabulated sifting limit for dimension kappa={kappa}")
    if not 0.0 < zeta < beta:
        raise DomainError(f"zeta must lie in (0, {beta}), got {zeta}")
    return (kappa + zeta) * math.log(beta / zeta) - kappa + zeta * kappa / beta
