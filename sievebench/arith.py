"""Exact integer arithmetic of the benchmark itself.

The benchmark chooses and checks its inputs with this module only, never
with sievelab, so a change to sievelab cannot change its own inputs or
its own oracles.
"""

from fractions import Fraction

BAD_SET = frozenset({2, 3, 5, 7})


def factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| >= 1 by trial division (small inputs)."""
    n = abs(n)
    if n < 1:
        raise ValueError("factor needs n != 0")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in factor(n).values())


def eval_form(c, x) -> int:
    """f(x) for coefficients c = (a11, a22, a33, a12, a13, a23)."""
    a11, a22, a33, a12, a13, a23 = c
    x1, x2, x3 = x
    return (a11 * x1 * x1 + a22 * x2 * x2 + a33 * x3 * x3
            + a12 * x1 * x2 + a13 * x1 * x3 + a23 * x2 * x3)


def gram(c) -> list[list[Fraction]]:
    a11, a22, a33, a12, a13, a23 = (Fraction(v) for v in c)
    return [[a11, a12 / 2, a13 / 2], [a12 / 2, a22, a23 / 2], [a13 / 2, a23 / 2, a33]]


def det(c) -> Fraction:
    """Determinant of the Gram matrix, by cofactor expansion."""
    g = gram(c)
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))


def diagonal_entries(c) -> tuple[Fraction, Fraction, Fraction]:
    """Successive leading-minor ratios D1, D2/D1, D3/D2 of the Gram matrix.

    Raises ValueError when a leading minor vanishes; pool forms are chosen
    so that none does.
    """
    g = gram(c)
    d1 = g[0][0]
    d2 = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    d3 = det(c)
    if d1 == 0 or d2 == 0 or d3 == 0:
        raise ValueError(f"form {c} has a vanishing leading minor")
    return d1, d2 / d1, d3 / d2


def _square_free_int(q: Fraction) -> int:
    """Square-free integer in the square class of the nonzero rational q."""
    n = q.numerator * q.denominator
    out = -1 if n < 0 else 1
    for p, e in factor(n).items():
        if e % 2:
            out *= p
    return out


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, by Euler's criterion."""
    a %= p
    return 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def hilbert(a: int, b: int, p) -> int:
    """Hilbert symbol (a, b)_p of nonzero integers; p a prime or 0 for infinity."""
    if p == 0:
        return -1 if a < 0 and b < 0 else 1
    alpha = beta = 0
    while a % p == 0:
        a //= p
        alpha += 1
    while b % p == 0:
        b //= p
        beta += 1
    if p == 2:
        e = ((a - 1) // 2) * ((b - 1) // 2) + alpha * ((b * b - 1) // 8) + beta * ((a * a - 1) // 8)
        return -1 if e % 2 else 1
    sign = -1 if (alpha * beta * (p - 1) // 2) % 2 else 1
    if alpha % 2:
        sign *= legendre(b, p)
    if beta % 2:
        sign *= legendre(a, p)
    return sign


def obstructed_places(c) -> list:
    """Places (0 = infinity) where f has no nontrivial zero.

    <d1, d2, d3> is isotropic over Q_v iff (-d1 d3, -d2 d3)_v = 1.  A form
    is anisotropic over Q iff this list is non-empty.
    """
    d1, d2, d3 = (_square_free_int(d) for d in diagonal_entries(c))
    places = [0, 2] + sorted(p for p in factor(d1 * d2 * d3) if p != 2)
    return [v for v in places if hilbert(-d1 * d3, -d2 * d3, v) == -1]


def count_mod_p(c, t: int, p: int, projection: str | None = None) -> int:
    """O(p^3) count of x mod p with f(x) = t, and sieved product 0 if given."""
    idx = {None: None, "x1": 1, "x1x2": 2, "x1x2x3": 3}[projection]
    total = 0
    for x1 in range(p):
        for x2 in range(p):
            for x3 in range(p):
                if (eval_form(c, (x1, x2, x3)) - t) % p:
                    continue
                if idx is None or (x1, x1 * x2, x1 * x2 * x3)[idx - 1] % p == 0:
                    total += 1
    return total


def points_in_ball(c, t: int, R: float) -> list[tuple[int, int, int]]:
    """O(R^3) brute force: integer x with f(x) = t and |x| <= R, sorted."""
    m = int(R)
    r2 = R * R
    span = range(-m, m + 1)
    return [(x1, x2, x3) for x1 in span for x2 in span for x3 in span
            if x1 * x1 + x2 * x2 + x3 * x3 <= r2 and eval_form(c, (x1, x2, x3)) == t]
