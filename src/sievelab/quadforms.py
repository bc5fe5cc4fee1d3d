"""Exact arithmetic of integral ternary quadratic forms.

A form f(x) = a11 x1^2 + a22 x2^2 + a33 x3^2 + a12 x1 x2 + a13 x1 x3
+ a23 x2 x3 is carried by its six integer coefficients; its Gram matrix G
(half-integral off the diagonal) satisfies f(x) = x^T G x exactly.  All
linear algebra here is over exact rationals - no floating point enters this
module.

Rational isotropy (existence of a nontrivial zero) is decided locally: a
nondegenerate ternary form with diagonalization <c1, c2, c3> has a
nontrivial zero over the v-adic field iff

    (-1, -d)_v = (c1, c2)_v (c1, c3)_v (c2, c3)_v,     d = c1 c2 c3,

where (.,.)_v is the Hilbert symbol, and it has a rational zero iff it has
one at every place (only v in {infinity, 2} and odd primes dividing d can
obstruct).  An isotropic verdict is always certified by an explicit integer
witness found by bounded search.

The slice frame of `lattice_points` is integer arithmetic on f too:
`_slice_frame` finds a unimodular U with f(Uy) definite and Gauss-reduced
in (y1, y2), and `_sign_flips` lists the sign changes of x that keep f.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product

from .arith import factorint, is_prime, legendre_raw, squarefree_part
from .errors import DomainError, StructureError

INF = math.inf


@dataclass(frozen=True)
class TernaryForm:
    a11: int
    a22: int
    a33: int
    a12: int = 0
    a13: int = 0
    a23: int = 0

    def __post_init__(self):
        for name in ("a11", "a22", "a33", "a12", "a13", "a23"):
            if not isinstance(getattr(self, name), int):
                raise DomainError(f"coefficient {name} must be an integer")

    @classmethod
    def diagonal(cls, d1: int, d2: int, d3: int) -> "TernaryForm":
        return cls(d1, d2, d3)

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
        return ",".join(str(c) for c in
                        (self.a11, self.a22, self.a33, self.a12, self.a13, self.a23))

    def gram(self) -> list[list[Fraction]]:
        h = Fraction(1, 2)
        return [[Fraction(self.a11), h * self.a12, h * self.a13],
                [h * self.a12, Fraction(self.a22), h * self.a23],
                [h * self.a13, h * self.a23, Fraction(self.a33)]]


def eval_form(f: TernaryForm, x) -> int:
    """f(x1, x2, x3) exactly, unbounded integer arithmetic."""
    x1, x2, x3 = x
    return (f.a11 * x1 * x1 + f.a22 * x2 * x2 + f.a33 * x3 * x3
            + f.a12 * x1 * x2 + f.a13 * x1 * x3 + f.a23 * x2 * x3)


def det_form(f: TernaryForm) -> Fraction:
    """Determinant of the Gram matrix, as an exact rational."""
    g = f.gram()
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))


def diagonalize(f: TernaryForm) -> tuple[tuple[Fraction, Fraction, Fraction],
                                         list[list[Fraction]]]:
    """Rational congruence diagonalization: basis^T G basis = diag(d1,d2,d3).

    Completion of squares with pivot search; exact throughout.  Raises on
    degenerate forms.
    """
    if det_form(f) == 0:
        raise DomainError("form is degenerate")
    m = f.gram()
    basis = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        m[i], m[j] = m[j], m[i]
        for row in basis:
            row[i], row[j] = row[j], row[i]

    def add_col(dst, src, c):
        # column operation x_dst stays, contribution c of column src folded in:
        # col_dst += c * col_src applied congruently (columns then rows of m).
        for row in m:
            row[dst] += c * row[src]
        for j in range(3):
            m[dst][j] += c * m[src][j]
        for row in basis:
            row[dst] += c * row[src]

    for k in range(3):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, 3) if m[i][i] != 0), None)
            if pivot is not None:
                swap_cols(k, pivot)
            else:
                pair = next(((i, j) for i in range(k, 3) for j in range(i + 1, 3)
                             if m[i][j] != 0), None)
                if pair is None:
                    raise StructureError("no pivot available; form is degenerate")
                i, j = pair
                add_col(i, j, Fraction(1))
                if i != k:
                    swap_cols(k, i)
        for i in range(k + 1, 3):
            if m[k][i] != 0:
                add_col(i, k, -m[k][i] / m[k][k])

    diag = (m[0][0], m[1][1], m[2][2])
    if any(d == 0 for d in diag):
        raise DomainError("form is degenerate")
    return diag, basis


def signature(f: TernaryForm) -> tuple[int, int]:
    """(number of positive, number of negative) squares after diagonalization."""
    diag, _ = diagonalize(f)
    return sum(1 for d in diag if d > 0), sum(1 for d in diag if d < 0)


def transform(f: TernaryForm, u: list[list[int]]) -> TernaryForm:
    """The form f(Ux) for an integer change of variables U (columns = new basis)."""
    g = f.gram()
    gu = [[sum(g[i][k] * u[k][j] for k in range(3)) for j in range(3)]
          for i in range(3)]
    gp = [[sum(u[k][i] * gu[k][j] for k in range(3)) for j in range(3)]
          for i in range(3)]
    coeffs = [gp[0][0], gp[1][1], gp[2][2],
              2 * gp[0][1], 2 * gp[0][2], 2 * gp[1][2]]
    if any(c.denominator != 1 for c in map(Fraction, coeffs)):
        raise StructureError("transform produced non-integral coefficients")
    return TernaryForm(*(int(c) for c in coeffs))


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


@dataclass(frozen=True)
class IsotropyCertificate:
    """Outcome of the rational isotropy test.

    verdict is "isotropic" (with a nonzero integer witness), "anisotropic"
    (with at least one obstructed place), or "inconclusive" (all local tests
    pass but the bounded witness search came back empty - never a guess).
    local_data lists (place, flag) with flag +1 when the form has a
    nontrivial local zero at that place and -1 when obstructed.
    """

    verdict: str
    witness: tuple[int, int, int] | None
    local_data: list

    def is_anisotropic(self) -> bool:
        return self.verdict == "anisotropic"


def _locally_isotropic(c1: int, c2: int, c3: int, place) -> bool:
    d = c1 * c2 * c3
    eps = (hilbert_symbol(c1, c2, place) * hilbert_symbol(c1, c3, place)
           * hilbert_symbol(c2, c3, place))
    return hilbert_symbol(-1, -d, place) == eps


def _witness_search(f: TernaryForm, height: int):
    """First nonzero integer zero of f with max-norm <= height, by shells."""
    for h in range(1, height + 1):
        for x in product(range(-h, h + 1), repeat=3):
            if max(abs(c) for c in x) != h:
                continue
            if eval_form(f, x) == 0:
                return x
    return None


def is_isotropic_Q(f: TernaryForm, search_height: int = 50) -> IsotropyCertificate:
    """Certified isotropy/anisotropy of f over the rationals."""
    diag, _ = diagonalize(f)
    c = [_square_class(d) for d in diag]
    d = c[0] * c[1] * c[2]

    places = [INF, 2] + [p for p in sorted(factorint(abs(d))) if p != 2]
    local_data = []
    obstructed = False
    for v in places:
        ok = _locally_isotropic(*c, v)
        local_data.append((v, 1 if ok else -1))
        if not ok:
            obstructed = True

    if obstructed:
        return IsotropyCertificate("anisotropic", None, local_data)

    witness = _witness_search(f, search_height)
    if witness is not None:
        return IsotropyCertificate("isotropic", witness, local_data)
    return IsotropyCertificate("inconclusive", None, local_data)


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
    last row of U^-1 is a short slice normal."""
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
