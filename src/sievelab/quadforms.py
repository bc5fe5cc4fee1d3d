"""Exact arithmetic of integral ternary quadratic forms.

A form f(x) = a11 x1^2 + a22 x2^2 + a33 x3^2 + a12 x1 x2 + a13 x1 x3
+ a23 x2 x3 is carried by its six integer coefficients; its Gram matrix G
(half-integral off the diagonal) satisfies f(x) = x^T G x exactly.  Changes
of variables and the determinant use the integer polar matrix 2G - no
floating point enters this module.

The slice frame of `lattice_points` is integer arithmetic on f too:
`_slice_frame` finds a unimodular U with f(Uy) definite and Gauss-reduced
in (y1, y2), and `_sign_flips` lists the sign changes of x that keep f.
On that frame the leading minors of the Gram matrix are nonzero, so
Jacobi's diagonalization gives the square classes <c1, c2, c3> of a
diagonalization of f as three integers, with no pivot search.

Rational isotropy (existence of a nontrivial zero) is decided locally: a
nondegenerate ternary form <c1, c2, c3> has a nontrivial zero over the
v-adic field iff

    (-1, -d)_v = (c1, c2)_v (c1, c3)_v (c2, c3)_v,     d = c1 c2 c3,

where (.,.)_v is the Hilbert symbol, and by Hasse-Minkowski it has a
rational zero iff it has one at every place.  Only v in {infinity, 2} and
odd primes dividing d can obstruct, so those flags decide the verdict and
no search for a zero is made.
"""

import math
from fractions import Fraction
from itertools import count, product
from typing import NamedTuple

from .arith import factorint, is_prime, legendre_raw, squarefree_part
from .errors import DomainError

INF = math.inf


class _Coefficients(NamedTuple):
    a11: int
    a22: int
    a33: int
    a12: int = 0
    a13: int = 0
    a23: int = 0


class TernaryForm(_Coefficients):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, c in zip(self._fields, self):
            if not isinstance(c, int):
                raise DomainError(f"coefficient {name} must be an integer")
        return self

    @classmethod
    def _make(cls, iterable):
        """Build through the checks; `_replace` calls this too."""
        return cls(*iterable)

    @classmethod
    def from_string(cls, text: str) -> "TernaryForm":
        """Parse 'a11,a22,a33,a12,a13,a23' (comma separated integers)."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 6:
            raise DomainError(f"expected 6 comma-separated integers, got {text!r}")
        try:
            return cls(*(int(p) for p in parts))
        except ValueError as exc:
            raise DomainError(f"non-integer coefficient in {text!r}") from exc

    def to_string(self) -> str:
        return ",".join(map(str, self))


def eval_form(f: TernaryForm, x) -> int:
    """f(x1, x2, x3) exactly, unbounded integer arithmetic."""
    a11, a22, a33, a12, a13, a23 = f
    x1, x2, x3 = x
    return (a11 * x1 * x1 + a22 * x2 * x2 + a33 * x3 * x3
            + a12 * x1 * x2 + a13 * x1 * x3 + a23 * x2 * x3)


def _polar(f: TernaryForm, u, v) -> int:
    """u^T (2G) v: the integer polar form of f, so _polar(f, x, x) = 2 f(x)."""
    a11, a22, a33, a12, a13, a23 = f
    return (2 * a11 * u[0] * v[0] + 2 * a22 * u[1] * v[1] + 2 * a33 * u[2] * v[2]
            + a12 * (u[0] * v[1] + u[1] * v[0])
            + a13 * (u[0] * v[2] + u[2] * v[0])
            + a23 * (u[1] * v[2] + u[2] * v[1]))


def det_form(f: TernaryForm) -> Fraction:
    """Determinant of the Gram matrix G, as an exact rational: det(2G) / 8."""
    a11, a22, a33, a12, a13, a23 = f
    return Fraction(_det3((2 * a11, a12, a13), (a12, 2 * a22, a23), (a13, a23, 2 * a33)), 8)


def _square_classes(f: TernaryForm) -> tuple[int, int, int]:
    """Integers in the square classes of a diagonalization <c1, c2, c3> of f.

    On the slice frame g = f(Uy) the plane y3 = 0 is definite, so the leading
    minors g11, disc/4 (disc = 4 g11 g22 - g12^2 > 0) and det G of g's Gram
    matrix are nonzero, and Jacobi's diagonalization <D1, D2/D1, D3/D2> has
    the classes of g11, g11 disc and 2 disc det(2G).  det U = 1 keeps det(2G).
    """
    g = transform(f, _slice_frame(f))
    disc = 4 * g.a11 * g.a22 - g.a12 * g.a12
    return g.a11, g.a11 * disc, 2 * disc * int(8 * det_form(f))


def signature(f: TernaryForm) -> tuple[int, int]:
    """(number of positive, number of negative) squares after diagonalization."""
    c1, _, c3 = _square_classes(f)
    positive = 2 * (c1 > 0) + (c3 > 0)
    return positive, 3 - positive


def transform(f: TernaryForm, u: list[list[int]]) -> TernaryForm:
    """The form f(Ux) for an integer change of variables U (columns = new basis):
    its Gram matrix is U^T G U, so a_jj = f(u_j) and a_ij = u_i^T (2G) u_j."""
    u1, u2, u3 = zip(*u)
    return TernaryForm(eval_form(f, u1), eval_form(f, u2), eval_form(f, u3),
                       _polar(f, u1, u2), _polar(f, u1, u3), _polar(f, u2, u3))


def _square_class(q) -> int:
    """Square-free integer representing q modulo nonzero rational squares."""
    q = Fraction(q)
    if q == 0:
        raise DomainError("0 has no square class")
    return squarefree_part(q.numerator * q.denominator)


def hilbert_symbol(a, b, place) -> int:
    """Classical Hilbert symbol (a, b)_v over the rationals.

    `place` is a prime integer or infinity (math.inf / float('inf')).
    """
    if a == 0 or b == 0:
        raise DomainError("Hilbert symbol requires nonzero arguments")
    a, b = _square_class(a), _square_class(b)

    if place == INF:
        return -1 if (a < 0 and b < 0) else 1
    if not isinstance(place, int) or not is_prime(place):
        raise DomainError(f"place must be a prime or infinity, got {place!r}")
    p = place

    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    beta = 0
    while b % p == 0:
        b //= p
        beta += 1

    if p == 2:
        eps = ((a - 1) // 2) * ((b - 1) // 2)
        omega = alpha * ((b * b - 1) // 8) + beta * ((a * a - 1) // 8)
        return -1 if (eps + omega) % 2 else 1
    exponent = alpha * beta * ((p - 1) // 2)
    sign = -1 if exponent % 2 else 1
    if beta % 2:
        sign *= legendre_raw(a, p)
    if alpha % 2:
        sign *= legendre_raw(b, p)
    return sign


class IsotropyCertificate(NamedTuple):
    """Outcome of the rational isotropy test.

    verdict is "anisotropic" when at least one place is obstructed and
    "isotropic" otherwise (Hasse-Minkowski: the local flags decide).
    local_data lists (place, flag) with flag +1 when the form has a
    nontrivial local zero at that place and -1 when obstructed.
    """

    verdict: str
    local_data: list

    def is_anisotropic(self) -> bool:
        return self.verdict == "anisotropic"


def _locally_isotropic(c1: int, c2: int, c3: int, place) -> bool:
    d = c1 * c2 * c3
    eps = (hilbert_symbol(c1, c2, place) * hilbert_symbol(c1, c3, place)
           * hilbert_symbol(c2, c3, place))
    return hilbert_symbol(-1, -d, place) == eps


def is_isotropic_Q(f: TernaryForm) -> IsotropyCertificate:
    """Certified isotropy/anisotropy of f over the rationals."""
    c = [_square_class(q) for q in _square_classes(f)]
    d = c[0] * c[1] * c[2]

    places = [INF, 2] + [p for p in sorted(factorint(abs(d))) if p != 2]
    local_data = [(v, 1 if _locally_isotropic(*c, v) else -1) for v in places]
    obstructed = any(flag < 0 for _, flag in local_data)
    return IsotropyCertificate("anisotropic" if obstructed else "isotropic", local_data)


def _slice_normal(f: TernaryForm) -> tuple[int, int, int]:
    """A short primitive n such that f is definite on the plane n.x = 0.

    f restricted to that plane has discriminant -n^T adj(2G) n, so the plane
    is definite exactly when the cofactor form of 2G is positive at n.  That
    set is an open cone, nonempty for every nondegenerate ternary form, so
    the search over shells of growing height ends; the coordinate normals
    e3, e2, e1 are tried first.
    """
    cof = TernaryForm(4 * f.a22 * f.a33 - f.a23 * f.a23,
                      4 * f.a11 * f.a33 - f.a13 * f.a13,
                      4 * f.a11 * f.a22 - f.a12 * f.a12,
                      2 * (f.a13 * f.a23 - 2 * f.a12 * f.a33),
                      2 * (f.a12 * f.a23 - 2 * f.a22 * f.a13),
                      2 * (f.a12 * f.a13 - 2 * f.a11 * f.a23))
    for h in count(1):
        shell = [(x, y, z) for x in range(0, h + 1) for y in range(-h, h + 1)
                 for z in (range(-h, h + 1) if h in (x, abs(y)) else (-h, h))
                 if (x, y, z) > (0, 0, 0) and math.gcd(x, y, z) == 1]
        shell.sort(key=lambda n: (n[0] * n[0] + n[1] * n[1] + n[2] * n[2], n))
        for n in shell:
            if eval_form(cof, n) > 0:
                return n


def _frame_from_normal(n) -> list[list[int]]:
    """U with det U = 1, n.u1 = n.u2 = 0 and n.u3 = 1 (u_j the columns of U).

    Column operations reduce the row n U to (0, 0, 1) as in Euclid's
    algorithm, so the last row of U^-1 is n.
    """
    r, cols = list(n), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    while sum(1 for v in r if v) > 1:
        i = min((j for j in range(3) if r[j]), key=lambda j: abs(r[j]))
        for j in range(3):
            if j != i and r[j]:
                q = r[j] // r[i]
                r[j] -= q * r[i]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
    i = next(j for j in range(3) if r[j])
    cols[i], cols[2], r[i], r[2] = cols[2], cols[i], r[2], r[i]
    if r[2] < 0:
        cols[2] = [-a for a in cols[2]]
    u = [[cols[j][i] for j in range(3)] for i in range(3)]
    if _det3(*cols) < 0:
        for row in u:
            row[0] = -row[0]
    return u


def _reduce_binary(a: int, b: int, c: int) -> list[list[int]]:
    """V with det V = 1 taking a x^2 + b x y + c y^2 (a > 0, b^2 < 4ac) to a
    Gauss-reduced form: |b| <= a <= c."""
    v = [[1, 0], [0, 1]]
    while True:
        m = (a - b) // (2 * a)  # x -> x + m y leaves -a < b <= a
        b, c = b + 2 * a * m, a * m * m + b * m + c
        v = [[row[0], row[0] * m + row[1]] for row in v]
        if a <= c:
            return v
        a, b, c = c, -b, a  # (x, y) -> (-y, x)
        v = [[row[1], -row[0]] for row in v]


def _slice_frame(f: TernaryForm) -> list[list[int]]:
    """Unimodular U: f(Uy) is definite and Gauss-reduced in (y1, y2) and the
    last row of U^-1 is a short slice normal.  Raises on degenerate forms,
    whose cofactor form need not be positive anywhere."""
    if det_form(f) == 0:
        raise DomainError("form is degenerate")
    u = _frame_from_normal(_slice_normal(f))
    g = transform(f, u)
    sign = 1 if g.a11 > 0 else -1
    v = _reduce_binary(sign * g.a11, sign * g.a12, sign * g.a22)
    return [[row[0] * v[0][0] + row[1] * v[1][0], row[0] * v[0][1] + row[1] * v[1][1],
             row[2]] for row in u]


def _sign_flips(f: TernaryForm) -> list[tuple[int, int, int]]:
    """The sign changes e with f(e1 x1, e2 x2, e3 x3) = f(x), (1, 1, 1) first:
    each nonzero cross term a_ij asks e_i = e_j."""
    return [e for e in product((1, -1), repeat=3)
            if (not f.a12 or e[0] == e[1]) and (not f.a13 or e[0] == e[2])
            and (not f.a23 or e[1] == e[2])]


def _det3(c1, c2, c3) -> int:
    return (c1[0] * (c2[1] * c3[2] - c2[2] * c3[1])
            - c2[0] * (c1[1] * c3[2] - c1[2] * c3[1])
            + c3[0] * (c1[1] * c2[2] - c1[2] * c2[1]))


def _mat_inverse_unimodular(m):
    """Inverse of an integer matrix with det +1 (the adjugate)."""
    a, b, c = m[0]
    d, e, g = m[1]
    h, i, j = m[2]
    return ((e * j - g * i, c * i - b * j, b * g - c * e),
            (g * h - d * j, a * j - c * h, c * d - a * g),
            (d * i - e * h, b * h - a * i, a * e - b * d))
