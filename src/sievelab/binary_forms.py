"""The binary quadratic forms on the slices of `lattice_points`.

On slice k the quadric becomes a z1^2 + b z1 z2 + c z2^2 = n_k (a > 0,
b^2 - 4ac < 0, n_k = n0 - k^2 m0).  `_factor_slices` is the one place that
decides whether a slice can have a point: one sieve over k factors every
n_k and looks up each sieve prime's local verdict once, for every slice it
divides.  `_representations` solves each slice that passed, in the norm
form of the order of discriminant b^2 - 4ac (Cohen, A Course in
Computational Algebraic Number Theory, 5.2): Cornacchia's algorithm for each
g^2 | a n_k and each root of the norm form modulo a n_k / g^2
(`_local_roots`, kept per prime power for the whole enumeration).  As each
vector is found it restores one sign image of it per orbit of the slice's
sign changes (`_restored`).
"""

import math
from itertools import product

from .arith import _sqrt_mod_prime_power, crt_roots, factorint, legendre_raw, primes_up_to

# The slice sieve's primes stop at this many times its slice count, about as
# many primes as slices; more would cost more than the factorizations saved.
_SIEVE_PER_SLICE = 8


def _factor_slices(n0: int, m0: int, ks: list[int], a: int, b: int, c: int,
                   roots: dict) -> dict[int, dict[int, int]]:
    """{k: factorization of n_k / g} for the k of ks (all >= 0, n_k = n0 -
    k^2 m0 >= 1) at which a z1^2 + b z1 z2 + c z2^2 = n_k passes every local
    test; g = gcd(a, b, c).

    One sieve over k: p | n_k exactly when k^2 m0 = n0 (mod p), which for
    p prime to m0 (2 included) is the classes k = r of the roots r of r^2 =
    n0/m0 modulo p and for p | m0 is every k or none.
    Each prime up to B = min(sqrt(max n_k / g), _SIEVE_PER_SLICE |slices|)
    is divided out in full wherever it hits.  A cofactor left <= B^2 is 1 or
    a prime; a larger one goes to factorint.  Either way its primes go into
    the slice's own factor dict.

    Write (a, b, c) / g as N(X, Y) / a, as in `_representations`, with
    D = b^2 - 4ac.  A slice is dropped, and not divided further, unless
    * g | n_k and a n_k / g is a value of N modulo 8;
    * a n_k / g is a square modulo each odd sieve prime p | D, as
      4N = (2X + beta Y)^2 (mod p);
    * each prime inert for D divides n_k / g to an even power.  Such a
      prime does not divide a (D is a square modulo 4a; Cox, Primes of the
      Form x^2 + ny^2, Lemma 2.5).  `_local_roots(p, 1)` gives the verdict,
      looked up once per sieve prime at its first odd power, and keeps the
      roots in `roots` for the solver.
    """
    g = math.gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    beta, disc = b % 2, b * b - 4 * a * c
    gamma = (beta - disc) // 4
    norms = {(x * x + beta * x * y + gamma * y * y) % 8 for x in range(8) for y in range(8)}
    rest = {}
    for k in ks:
        n, rem = divmod(n0 - k * k * m0, g)
        if rem == 0 and a * n % 8 in norms:
            rest[k] = n
    factors = {k: {} for k in rest}
    top = max(rest, default=0)
    bound = min(math.isqrt(max(rest.values(), default=0)), _SIEVE_PER_SLICE * len(rest))
    for p in primes_up_to(bound):
        if p > 2 and disc % p == 0:
            for k in [k for k in rest if legendre_raw(a * ((n0 - k * k * m0) // g), p) < 0]:
                del rest[k], factors[k]
        if m0 % p == 0:
            classes, step = [0] if n0 % p == 0 else [], 1
        else:
            classes, step = _sqrt_mod_prime_power(n0 * pow(m0, -1, p), p, 1), p
        split = None  # _local_roots(p, 1), looked up at p's first odd power
        for r in classes:
            for k in range(r, top + 1, step):
                v = rest.get(k)
                if v is None:
                    continue
                e = 0
                while v % p == 0:
                    v, e = v // p, e + 1
                if e % 2 and split is None:
                    split = _local_roots(p, 1, beta, disc, roots)
                if e % 2 and not split:
                    del rest[k], factors[k]
                elif e:
                    rest[k], factors[k][p] = v, e
    for k, v in rest.items():
        for p, e in factorint(v).items() if v > bound * bound else ((v, 1),) if v > 1 else ():
            if e % 2 and not _local_roots(p, 1, beta, disc, roots):
                del factors[k]
                break
            factors[k][p] = e
    return factors


# The images of a vector (X, Y) that `_representations` found: itself, its
# negative, its mirror and the mirror's negative, as the sign changes of z
# they are when b = 0.
_IMAGES = ((1, 1), (-1, -1), (1, -1), (-1, 1))


def _restored(flips: set[tuple[int, int]]) -> tuple[int, ...]:
    """The index into _IMAGES of the first image in each orbit of `flips`,
    sign changes of z that keep the binary form (if b != 0, only +-1)."""
    out, covered = [], set()
    for i, (s1, s2) in enumerate(_IMAGES):
        if (s1, s2) not in covered:
            out.append(i)
            for f1, f2 in flips:
                covered.add((s1 * f1, s2 * f2))
    return tuple(out)


def _representations(a: int, b: int, c: int, n: int, n_factors: dict[int, int],
                     inflation: dict[int, int], roots: dict,
                     restore: tuple[int, ...]) -> set[tuple[int, int]]:
    """The z with a z1^2 + b z1 z2 + c z2^2 = n >= 1 (a > 0, D = b^2 - 4ac < 0),
    at least one per orbit of the sign changes that gave `restore`.

    a q(z) = N(X, Y) = X^2 + beta X Y + gamma Y^2 for X = a z1 + ((b -
    beta)/2) z2, Y = z2; `n_factors` and `inflation` factor n and a, and
    `roots` is the enumeration's memo of `_local_roots`.  Each solution is
    g (X', Y') with g^2 | m = a n and X' = r Y' modulo m / g^2 for a root r
    (a g leaving a prime power with no root is skipped, and a prime power
    that no g leaves with a root ends the search: no solution); root
    -beta - r gives the mirror (X + beta Y, -Y), so only 2r + beta <= m / g^2
    is solved, and each vector found has the images `restore` names
    restored at once.  Neither factorization is written to.
    """
    beta = b % 2
    disc = b * b - 4 * a * c
    gamma, shift = (beta - disc) // 4, (b - beta) // 2
    factors = n_factors if not inflation else {
        p: inflation.get(p, 0) + n_factors.get(p, 0) for p in inflation | n_factors}
    choices = []  # per p^e: (p^j, (p^(e - 2j), its roots)) for each j with roots
    for p, e in factors.items():
        options = []
        for j in range(e // 2 + 1):
            local = _local_roots(p, e - 2 * j, beta, disc, roots) if e > 2 * j else [0]
            if local:
                options.append((p ** j, (p ** (e - 2 * j), local)))
        if not options:
            return set()
        choices.append(options)
    m = a * n
    out = set()
    for combo in product(*choices):
        g, local = 1, []
        for gp, option in combo:
            g *= gp
            if option[0] > 1:
                local.append(option)
        mg = m // (g * g)
        for r in crt_roots(local):
            if 2 * r + beta <= mg:
                for x, y in _shortest_vectors(mg, r, beta, gamma):
                    x, y = g * x, g * y
                    images = ((x, y), (-x, -y), (x + beta * y, -y), (-x - beta * y, y))
                    for i in restore:
                        sx, sy = images[i]
                        if (sx - shift * sy) % a == 0:
                            out.add(((sx - shift * sy) // a, sy))
    return out


def _local_roots(p: int, e: int, beta: int, disc: int, memo: dict) -> list[int]:
    """The roots of r^2 + beta r + gamma modulo p^e (4 gamma = beta - disc),
    memoized per (p, e): r = (s - beta)/2 for s^2 = disc modulo p^e, or for
    p = 2 modulo 2^(e+2) with s < 2^(e+1)."""
    local = memo.get((p, e))
    if local is None:
        q = p ** e
        if p == 2:
            local = [(s - beta) // 2 for s in _sqrt_mod_prime_power(disc, 2, e + 2) if s < 2 * q]
        else:
            local = [(s - beta) * (q + 1) // 2 % q for s in _sqrt_mod_prime_power(disc, p, e)]
        memo[p, e] = local
    return local


def _shortest_vectors(m: int, r: int, beta: int, gamma: int) -> list[tuple[int, int]]:
    """The vectors of norm m = X^2 + beta X Y + gamma Y^2 in the lattice X = r Y
    (mod m), up to sign, by Cornacchia's algorithm (Cohen, A Course in
    Computational Algebraic Number Theory, 1.5.2-1.5.3).  For U = 2X + beta Y
    and D = beta^2 - 4 gamma the norm is m exactly when U^2 + |D| Y^2 = 4m,
    and the lattice is U = (2r + beta) Y (mod 2m).  Euclid's remainders U on
    (2m, 2r + beta), each with its cofactor Y, stay in the lattice; a vector
    of norm m, if any, is the first one with U <= 2 sqrt(m) ((2m, 0) for m =
    1).  Only D = -4 and -3 (gamma = 1) have more: its images under the
    units, (-Y, X), or (-Y, X + Y) and (-X - Y, X)."""
    u, y, w, z = 2 * r + beta, 1, 2 * m, 0  # (2m, 0) first; q = 0 then brings (2r + beta, 1)
    while w * w > 4 * m:
        q = u // w
        u, y, w, z = w, z, u - q * w, y - q * z
    x = (w - beta * z) // 2
    if x * x + beta * x * z + gamma * z * z != m:
        return []
    if gamma != 1:
        return [(x, z)]
    return [(x, z), (-z, x)] if beta == 0 else [(x, z), (-z, x + z), (-x - z, x)]
