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
Psi, W and E are Chebyshev series, constant tables summed by Clenshaw's
rule (`_clenshaw`).  Each is the primitive of the interpolant through its
integrand at the 32 Chebyshev points of `numerics`, built in chain order:
Psi on [4, 6] and on [6, 8], W on [5, 7] from the first, E on [6, 8] from
W.  Phi continues analytically to x > 1, so each integrand's nearest
singularity lies one unit left of its length-2 interval: the integrand is
analytic in the Bernstein ellipse of parameter 2 + sqrt(3) about it, and
its coefficients fall to rounding level (~1e-16) before the 28th; all 32
are kept, so the tables are the build's to the last bit.  The build is
their oracle in tests/test_sieve_functions.py, which prints them in this
file's layout by

    PYTHONPATH=src:tests python -c "import test_sieve_functions as t; t.print_tables()"

No evaluation of F or f calls `integrate`.

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

import math

from .errors import DomainError

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


# Psi on [4, 6], Psi - Psi(6) on [6, 8], W and E, each b0 + sum_k b_k T_k(y) at
# y = (x - mid)/half as (mid, half, b0, b), b listing b_32 .. b_1 for `_clenshaw`.
_PSI_LO_SERIES = (5.0, 1.0, 0.026381275441921995, (
    -4.8065135718809365e-19, 5.636624544715933e-19, 1.1233797796346604e-18,
    -1.3412606524836836e-19, -6.621963374520292e-19, -2.1071170015710058e-19,
    -7.216826534049427e-19, 2.4273459565413437e-19, -6.139290700261965e-18,
    2.5973298901873755e-17, -1.0868817072406084e-16, 4.807312794995091e-16,
    -2.139060978695394e-15, 9.625695031303417e-15, -4.38686159745472e-14,
    2.0283500746907277e-13, -9.529457589931366e-13, 4.556370196026082e-12,
    -2.2203452012662123e-11, 1.1039697617043944e-10, -5.603606297254497e-10,
    2.902759274839207e-09, -1.5321294985215847e-08, 8.211662141966748e-08,
    -4.4412435584876254e-07, 2.3971162659496276e-06, -1.2641968794356418e-05,
    6.21543961776239e-05, -0.0002467124873803337, 0.0002016961449814299,
    0.011260428853836069, 0.037115557018397374))
_PSI_HI_SERIES = (7.0, 1.0, 0.10539630568470078, (
    -2.335269835580106e-18, 3.9083739604921005e-18, 3.5082975298010115e-18,
    -3.904997135038308e-18, 9.0801931945661e-19, 7.228014483236697e-19,
    -3.1692063503422436e-18, -3.968179951296946e-18, 4.87890977618477e-19,
    3.507158331866154e-18, -5.913830031739115e-19, -1.466254366599444e-18,
    4.445228907190568e-19, 8.559490835411877e-19, -8.1917497476682555e-19,
    6.887872625202028e-18, -4.03594258707729e-17, 3.9375331698880224e-16,
    -3.787815175602751e-15, 3.6461318739885365e-14, -3.498712459794791e-13,
    3.331288567284061e-12, -3.126595479914507e-11, 2.859281739327202e-10,
    -2.492438338293386e-09, 1.9707675958110177e-08, -1.209219569279126e-07,
    7.476130030065892e-08, 1.6358591874771587e-05, -0.0004157900126193592,
    0.006871145321571834, 0.11269938140647924))
_W_SERIES = (6.0, 1.0, 0.002505253643032359, (
    -6.385707841847425e-20, 5.732269901711024e-20, 1.3347569947760335e-19,
    7.125341055793042e-21, -8.113436799477477e-20, -6.341573741935059e-20,
    -1.679650818015172e-20, -1.5692205897974235e-19, 1.5963731268292652e-19,
    -7.335896085750108e-19, 3.994882460525634e-18, -1.8542301183615247e-17,
    8.877275184814888e-17, -4.3237582717171233e-16, 2.1474548006735075e-15,
    -1.088952922075482e-14, 5.6467821331486994e-14, -2.9974608124386346e-13,
    1.629137295387056e-12, -9.057109454897102e-12, 5.137159361769552e-11,
    -2.9586241061560087e-10, 1.7167471686882031e-09, -9.911818690211025e-09,
    5.576164369653523e-08, -2.938179261390428e-07, 1.320552873609559e-06,
    -3.4838334043847957e-06, -1.6950541402099315e-05, 0.0002783275239698994,
    0.0016125588938639122, 0.003827700424228008))
_E_SERIES = (7.0, 1.0, 0.00016220591852787074, (
    -5.812699018389332e-21, 2.6067870884405154e-21, 1.0555809565218525e-20,
    2.8637564345284626e-21, -5.083118450750233e-21, -4.935365018878779e-21,
    -1.811131767631564e-21, -6.892102396495665e-21, -6.4685749302346795e-21,
    3.0590540217296317e-20, -1.112451656775328e-19, 5.895858143985841e-19,
    -3.068097851136951e-18, 1.633897291785367e-17, -8.915371209217713e-17,
    4.993535503895058e-16, -2.871459756157752e-15, 1.6931684063576866e-14,
    -1.020778572320947e-13, 6.25980092300787e-13, -3.873445707300581e-12,
    2.3893921730878003e-11, -1.442140745386137e-10, 8.252110583985849e-10,
    -4.2044696291828906e-09, 1.6042296775425567e-08, -8.187657031466619e-09,
    -5.42560049881606e-07, 3.5829086648439757e-06, 3.751484723706032e-05,
    0.00013232165003623192, 0.00026110875767736174))


def _clenshaw(series: tuple, x: float) -> float:
    """The Chebyshev series (mid, half, b0, b) summed at x by Clenshaw's rule."""
    mid, half, b0, b = series
    y = (x - mid) / half
    y2, b1, b2 = 2.0 * y, 0.0, 0.0
    for bk in b:
        b1, b2 = bk + y2 * b1 - b2, b1
    return b0 + y * b1 - b2


def _W(s: float) -> float:
    """int_5^s Psi(t-1)/(t-1) dt, the term of F's third window; zero for s <= 5."""
    return _clenshaw(_W_SERIES, s) if s > 5.0 else 0.0


def _psi(s: float) -> float:
    """int_4^s Phi(t-2)/(t-1) dt, the term of f's second window; zero for s <= 4."""
    if s <= 4.0:
        return 0.0
    if s <= 6.0:
        return _clenshaw(_PSI_LO_SERIES, s)
    return _clenshaw(_PSI_LO_SERIES, 6.0) + _clenshaw(_PSI_HI_SERIES, s)


def _E(s: float) -> float:
    """int_6^s W(t-1)/(t-1) dt, the term of f's third window; zero for s <= 6."""
    return _clenshaw(_E_SERIES, s) if s > 6.0 else 0.0


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

