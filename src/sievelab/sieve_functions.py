"""Upper and lower functions of the one-dimensional (linear) sieve.

The linear-sieve pair F, f is the continuous solution of the
differential-difference system

    F(s) = 2 e^gamma / s                     for s <= 3  (and below 1),
    f(s) = 0                                 for s <= 2,
    (s F(s))' = f(s - 1)                     for s > 2  (trivial on (2, 3]),
    (s f(s))' = F(s - 1)                     for s > 2,

with F decreasing to 1 and f increasing to 1.  Integrating the system piece
by piece gives closed expressions on consecutive unit-two windows; this
module evaluates them by closed forms and quadrature:

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

Two of these integrals have closed forms in the dilogarithm Li2 (L. Lewin,
Polylogarithms and Associated Functions, 1981, ch. 1).  With

    G(x) = (1/2) log^2 x + Li2(1/x),     G'(x) = log(x-1)/x   for x >= 2,

and G(2) = pi^2/12, they are

    Phi(x) = G(x) - pi^2/12,
    int_{t+2}^{s-1} (1/u) log((u-1)/(t+1)) du
           = G(s-1) - G(t+2) - log(t+1) log((s-1)/(t+2))      (the W ring).

`_li2` evaluates Li2 on [0, 1/2], where every argument 1/x lies, by the
Bernoulli series Li2(z) = w - w^2/4 + sum_{k>=1} B_2k w^(2k+1)/(2k+1)! in
w = -log(1-z) <= log 2, summed to k = 8 (the terms left out add up to under
5e-19).  W and Psi are then single quadratures; E's inner integral would
need Li3, so E stays a double one.

The E kernel log((s-1)/(u+1)) is the one forced by (s f(s))' = F(s-1); a
variant with log(s/(u+2)) appears in some tabulations and is a strict
pointwise lower bound of it (harmless for lower-bound sieving, but it leaves
a ~2e-4 residual in the recursion, so it is not used here).

Evaluation keeps iteration inside s <= 7 for F and s <= 8 for f: beyond
that both functions are within a few 1e-6 of their limit 1 and further
windows would not change any downstream constant.
"""

import math

from .errors import DomainError, UnsupportedKappaError
from .numerics import EULER_GAMMA, QuadratureSpec, integrate

TWO_E_GAMMA = 2.0 * math.exp(EULER_GAMMA)

# Sifting limits: below beta_kappa the lower function vanishes.  beta_1 = 2
# is exact; beta_2 is the tabulated two-dimensional value.
BETA = {1: 2.0, 2: 4.266450}

_DEFAULT_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11)


# B_2k / (2k+1)! for k = 1..8, the coefficients of Li2's series in w.
_LI2_SERIES = (0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06,
               -9.185773074661964e-08, 1.8978869988971e-09, -4.0647616451442256e-11,
               8.921691020456452e-13, -1.9939295860721074e-14)
_PI2_12 = math.pi ** 2 / 12.0


def _li2(z: float) -> float:
    """Dilogarithm Li2(z) for 0 <= z <= 1/2."""
    if not 0.0 <= z <= 0.5:
        raise DomainError(f"_li2 domain is 0 <= z <= 1/2, got {z}")
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


def _F1(s: float) -> float:
    return TWO_E_GAMMA / s


def _F2(s: float) -> float:
    return TWO_E_GAMMA / s * (1.0 + _phi(s - 1.0))


def _W(s: float, spec: QuadratureSpec) -> float:
    """The ring integral W(s) of F's third window, zero for s <= 5.

    The ring is closed-form; the outer integral runs at spec tightened once.
    """
    if s <= 5.0:
        return 0.0
    g_top = _G(s - 1.0)

    def outer(t):
        ring = g_top - _G(t + 2.0) - math.log(t + 1.0) * math.log((s - 1.0) / (t + 2.0))
        return math.log(t - 1.0) / t * ring

    return integrate(outer, 2.0, s - 3.0, spec.tightened())


def _F3(s: float, spec: QuadratureSpec) -> float:
    return TWO_E_GAMMA / s * (1.0 + _phi(s - 1.0) + _W(s, spec))


def _f1(s: float) -> float:
    return TWO_E_GAMMA / s * math.log(s - 1.0)


def _psi(s: float, spec: QuadratureSpec) -> float:
    """int_3^{s-1} Phi(t-1)/t dt, zero for s <= 4."""
    if s <= 4.0:
        return 0.0
    return integrate(lambda t: _phi(t - 1.0) / t, 3.0, s - 1.0, spec.tightened())


def _f2(s: float, spec: QuadratureSpec) -> float:
    return TWO_E_GAMMA / s * (math.log(s - 1.0) + _psi(s, spec))


def _f3(s: float, spec: QuadratureSpec) -> float:
    inner_spec = spec.tightened().tightened()

    def outer(t):
        def inner(u):
            return (math.log((u - 1.0) / (t + 1.0)) / u
                    * math.log((s - 1.0) / (u + 1.0)))

        return math.log(t - 1.0) / t * integrate(inner, t + 2.0, s - 2.0, inner_spec)

    extra = integrate(outer, 2.0, s - 4.0, spec.tightened()) if s > 6.0 else 0.0
    return TWO_E_GAMMA / s * (math.log(s - 1.0) + _psi(s, spec) + extra)


def F_lin(s: float, spec: QuadratureSpec = _DEFAULT_SPEC) -> float:
    """Upper linear-sieve function F(s) on 0 < s <= 7.

    The closed form 2 e^gamma / s extends F below s = 1; in-contract
    sieve evaluations never reach that range, but the extension keeps
    composed integrands total.
    """
    if not 0.0 < s <= 7.0:
        raise DomainError(f"F_lin domain is 0 < s <= 7, got {s}")
    if s < 3.0:
        return _F1(s)
    if s < 5.0:
        return _F2(s)
    return _F3(s, spec)


def f_lin(s: float, spec: QuadratureSpec = _DEFAULT_SPEC) -> float:
    """Lower linear-sieve function f(s) on 0 < s <= 8 (zero up to s = 2)."""
    if not 0.0 < s <= 8.0:
        raise DomainError(f"f_lin domain is 0 < s <= 8, got {s}")
    if s <= 2.0:
        return 0.0
    if s < 4.0:
        return _f1(s)
    if s < 6.0:
        return _f2(s, spec)
    return _f3(s, spec)


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
