"""Almost-prime thresholds of the weighted sieve.

Two routes to an admissible almost-prime order r are implemented, plus the
equidistribution level they both consume:

* level: tau = 1/4 - theta/2, where theta is the spectral-gap exponent
  (7/64 unconditionally, 0 under the Selberg eigenvalue conjecture).

* linear route (sieve dimension 1), parametrized by a window pair (a, b)
  with 1 <= a < 3 < a + 5 < b <= 8:

      r > b / ((b-a) tau) - 1 + (2 e^gamma / f(b)) (I1 + I2 + I3)

  where I1 has the closed form
      I1 = (1/b) log((b-1)(b-a)/a) - (1/(b-a)) log((b-1)/a)
  and I2, I3 are the double and triple integrals picking up the second and
  third windows of F (see `threshold_components`).  The same number comes
  out of the general Diamond-Halberstam bound `dh_threshold_linear` with
  u = b/((b-a) tau), v = b/tau; the pair of routes cross-checks both.

* two-dimensional route: the Halberstam-Richert closed bound turns the
  Diamond-Halberstam condition into the one-parameter function

      m(zeta) = (1+zeta) mu - 1 + (2+zeta) log(beta_2/zeta) - 2
                + zeta (2-mu)/beta_2,      0 < zeta < beta_2,

  with mu = 2/tau, minimized at the one root zeta* of m'(zeta) in (0, 2).

`reproduce_constants` evaluates the whole chain for either theta mode and
reports each constant next to its expected window.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .numerics import integrate
from .sieve_functions import TWO_E_GAMMA, F_lin, _phi, _W, f_lin

# Spectral-gap exponent admissible without hypotheses, and the conjectural one.
THETA_UNCONDITIONAL = Fraction(7, 64)
THETA_SELBERG = Fraction(0)

# Sifting limit of the two-dimensional sieve (tabulated): below it the lower
# function vanishes.  The linear limit beta_1 = 2 is exact and lives in f_lin.
BETA_2 = 4.266450


def tau_from_theta(theta) -> Fraction:
    """Equidistribution level 1/4 - theta/2, exactly, for 0 <= theta < 1/2."""
    try:
        theta = Fraction(theta)  # exact for ints, strings, floats and Rationals
    except (ValueError, OverflowError) as exc:  # nan, inf or a malformed string
        raise DomainError(f"theta must be a finite rational, got {theta!r}") from exc
    if not 0 <= theta < Fraction(1, 2):
        raise DomainError(f"theta must lie in [0, 1/2), got {theta}")
    return Fraction(1, 4) - theta / 2


def _validate_ab(a: float, b: float) -> None:
    if not (1.0 <= a < 3.0 < a + 5.0 < b <= 8.0):
        raise DomainError(
            f"window pair must satisfy 1 <= a < 3 < a+5 < b <= 8, got ({a}, {b})")


def threshold_components(a: float, b: float) -> tuple[float, float, float]:
    """(I1, I2, I3) of the linear threshold for the window pair (a, b).

    I1 is closed-form; I2 and I3 integrate the weight
    (1/t)(1/(b-t) - 1/(b-a)) against Phi(t-1) and W(t) of `sieve_functions`,
    both closed forms.
    """
    _validate_ab(a, b)

    i1 = (math.log((b - 1.0) * (b - a) / a) / b
          - math.log((b - 1.0) / a) / (b - a))

    def weight(t):
        return (1.0 / t) * (1.0 / (b - t) - 1.0 / (b - a))

    i2 = integrate(lambda t: weight(t) * _phi(t - 1.0), 3.0, b - 1.0)
    i3 = integrate(lambda t: weight(t) * _W(t), 5.0, b - 1.0)
    return i1, i2, i3


def linear_threshold(a: float, b: float, tau) -> float:
    """Linear-sieve almost-prime threshold for window pair (a, b) at level tau.

    Any r strictly above the returned value is admissible; see
    `admissible_r` for the integer choice.
    """
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise DomainError(f"tau must be positive and finite, got {tau}")
    i1, i2, i3 = threshold_components(a, b)
    return b / ((b - a) * tau) - 1.0 + TWO_E_GAMMA / f_lin(b) * (i1 + i2 + i3)


def dh_threshold_linear(tau, u: float, v: float) -> float:
    """Diamond-Halberstam threshold in the linear case, general (u, v).

    Evaluates u - 1 + (1/f(tau v)) * int_1^{v/u} F(tau v - s)(1 - (u/v)s) ds/s,
    splitting the integral where tau*v - s crosses the window joints of F.
    """
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise DomainError(f"tau must be positive and finite, got {tau}")
    if not u > 1.0 / tau:
        raise DomainError(f"violated: u > 1/tau (u={u}, 1/tau={1.0 / tau})")
    if not u <= v:
        raise DomainError(f"violated: u <= v (u={u}, v={v})")
    tv = tau * v
    if not tv > 2.0:
        raise DomainError(f"violated: tau*v > 2 (tau*v={tv})")
    if not tv <= 8.0:
        raise DomainError(f"violated: tau*v <= 8 (tau*v={tv})")

    hi = v / u
    if hi <= 1.0:
        return u - 1.0

    cuts = sorted({1.0, hi} | {tv - brk for brk in (3.0, 5.0) if 1.0 < tv - brk < hi})

    def integrand(s):
        return F_lin(tv - s) * (1.0 - (u / v) * s) / s

    total = sum(integrate(integrand, lo, hi_) for lo, hi_ in zip(cuts, cuts[1:]))
    return u - 1.0 + total / f_lin(tv)


def m_zeta(mu: float, zeta: float) -> float:
    """Two-dimensional threshold function m(zeta) for exponent mu.

    m(zeta) = tau*mu*u - 1 + HR(zeta), with tau*u = 1 + zeta - zeta/beta_2
    folded in; HR(zeta) = (2 + zeta) log(beta_2/zeta) - 2 + 2 zeta/beta_2 is
    the Halberstam-Richert closed bound of the weighted-sieve integral.
    """
    if not 0.0 < mu < math.inf:
        raise DomainError(f"mu must be positive and finite, got {mu}")
    if not 0.0 < zeta < BETA_2:
        raise DomainError(f"zeta must lie in (0, {BETA_2}), got {zeta}")
    return (mu * (1.0 + zeta) - mu * zeta / BETA_2 - 1.0
            + ((2 + zeta) * math.log(BETA_2 / zeta) - 2 + zeta * 2 / BETA_2))


def minimize_m(mu: float) -> tuple[float, float]:
    """(zeta*, m(zeta*)): the minimum of m(zeta) over (0, beta_2), for mu > 2.

    m'(zeta) = mu (1 - 1/beta_2) + 2/beta_2 - 1 + log(beta_2/zeta) - 2/zeta
    rises on (0, 2), since m''(zeta) = (2 - zeta)/zeta^2, from -inf to more
    than log(beta_2/2) > 0 when mu > 2, and it stays above mu (1 - 1/beta_2)
    - 1 > 0 on [2, beta_2).  So zeta* is its one root, found by bisection on
    (0, 2) down to adjacent doubles.
    """
    if not 2.0 < mu < math.inf:
        raise DomainError(f"mu must be finite and exceed 2 for an interior minimum, got {mu}")
    slope = mu * (1.0 - 1.0 / BETA_2) + 2.0 / BETA_2 - 1.0
    lo, hi = 0.0, 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if slope + math.log(BETA_2 / mid) - 2.0 / mid < 0.0:
            lo = mid
        else:
            hi = mid
    return mid, m_zeta(mu, mid)


def admissible_r(threshold: float) -> int | None:
    """Smallest admissible integer r > threshold.

    When the threshold sits within 1e-9 of an integer the choice is
    ambiguous at working precision: the result is None, leaving the call
    to the reader.
    """
    if abs(threshold - round(threshold)) < 1e-9:
        return None
    return math.floor(threshold) + 1


class ReportRow(NamedTuple):
    name: str
    computed: str
    expected: str
    passed: bool


class ThresholdReport:
    """Computed constants side by side with their expected windows."""

    def __init__(self, mode: str, theta: Fraction, tau: Fraction):
        self.mode, self.theta, self.tau = mode, theta, tau
        self.rows: list[ReportRow] = []

    @property
    def all_pass(self) -> bool:
        return all(row.passed for row in self.rows)

    def add_interval(self, name: str, value: float, lo: float, hi: float):
        self.rows.append(ReportRow(
            name=name, computed=f"{value:.10g}",
            expected=f"[{lo:.10g}, {hi:.10g}]", passed=lo <= value <= hi))

    def add_exact(self, name: str, value, expected):
        self.rows.append(ReportRow(
            name=name, computed=str(value), expected=str(expected),
            passed=value == expected))


# Expected windows for the reproduced constants.  I-component windows allow
# a 5e-4 slack below the published rounded-up bound; threshold windows allow
# [-0.05, +0.001] around the published cutoff.
_EXPECTED = {
    "unconditional": {
        "theta": THETA_UNCONDITIONAL,
        "tau": Fraction(25, 128),
        "ab": (1.0, 6.6),
        "I1": (0.21435, 0.21442),
        "I2": (0.0550, 0.05558),
        "I3": (0.0, 1e-5),
        "scale": (3.56214, 3.5623),     # 2 e^gamma / f(b)
        "threshold": (5.95, 5.997),
        "r_linear": 6,
        "zeta_star": (0.19214 - 0.001, 0.19214 + 0.001),
        "m_star": (15.6327 - 0.002, 15.6327 + 0.002),
        "r_quadratic": 16,
    },
    "selberg": {
        "theta": THETA_SELBERG,
        "tau": Fraction(1, 4),
        "ab": (1.0, 7.0),
        "I1": (0.21325, 0.21331),
        "I2": (0.0695, 0.07015),
        "I3": (0.0, 3e-5),
        "scale": (3.56214, 3.5622),
        "threshold": (4.65, 4.677),
        "r_linear": 5,
        "zeta_star": (0.23556 - 0.001, 0.23556 + 0.001),
        "m_star": (13.0287 - 0.002, 13.0287 + 0.002),
        "r_quadratic": 14,
    },
}


def reproduce_constants(mode: str = "unconditional") -> ThresholdReport:
    """Recompute every constant of both threshold routes for the given mode.

    mode "unconditional" uses theta = 7/64; mode "selberg" uses theta = 0.
    Failures appear as failing rows, never as exceptions.
    """
    if mode not in _EXPECTED:
        raise DomainError(f"mode must be one of {sorted(_EXPECTED)}, got {mode!r}")
    exp = _EXPECTED[mode]
    theta = exp["theta"]
    tau = tau_from_theta(theta)
    report = ThresholdReport(mode=mode, theta=theta, tau=tau)

    report.add_exact("tau = 1/4 - theta/2", tau, exp["tau"])

    a, b = exp["ab"]
    i1, i2, i3 = threshold_components(a, b)
    report.add_interval(f"I1(a={a}, b={b})", i1, *exp["I1"])
    report.add_interval(f"I2(a={a}, b={b})", i2, *exp["I2"])
    report.add_interval(f"I3(a={a}, b={b})", i3, *exp["I3"])

    scale = TWO_E_GAMMA / f_lin(b)
    report.add_interval(f"2e^gamma/f({b})", scale, *exp["scale"])

    threshold = b / ((b - a) * float(tau)) - 1.0 + scale * (i1 + i2 + i3)
    report.add_interval("linear threshold", threshold, *exp["threshold"])

    r_lin = admissible_r(threshold)
    report.add_exact("r (one coordinate)", "ambiguous" if r_lin is None else r_lin,
                     exp["r_linear"])

    mu = 2.0 / float(tau)
    zeta, m_star = minimize_m(mu)
    report.add_interval(f"zeta* (mu={mu:.10g})", zeta, *exp["zeta_star"])
    report.add_interval("m(zeta*)", m_star, *exp["m_star"])

    r_quad = admissible_r(m_star)
    report.add_exact("r (coordinate product)", "ambiguous" if r_quad is None else r_quad,
                     exp["r_quadratic"])
    return report
