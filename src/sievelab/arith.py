"""Elementary integer arithmetic: primality, factorization, square-free tools.

Factorization is fully deterministic: trial division by a fixed wheel,
deterministic Miller-Rabin for primality (valid far beyond any integer this
package produces), and Brent's cycle variant of Pollard rho with a fixed
parameter schedule for the composite residue.  It serves single integers of
any size (moduli, discriminants); numbers that come in bulk are factored by
sieves instead: `primes_up_to` feeds the slice sieve of `binary_forms`,
and `smallest_prime_factors` tabulates every integer up to a bound for the
census.  Square roots modulo a prime power p^e have one source,
`_sqrt_mod_prime_power`, which serves both the slice sieve and the norm-form
solver of `binary_forms`: one power, Atkin's formula or Tonelli-Shanks
modulo p, and Newton lifting to p^e.  `crt_roots` combines roots modulo
pairwise coprime prime powers by the Chinese remainder theorem (the roots
of the quadratic norm forms that `binary_forms` memoizes per enumeration).
"""

import math

# Witnesses proving primality: the first k primes suffice for every n below
# the bound paired with k (Jaeschke; Sorenson-Webster, OEIS A014233).  Past
# the last bound all 13 are used.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
              (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
              (3825123056546413051, 9), (318665857834031151167461, 12))

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    k = next((k for bound, k in _MR_BOUNDS if n < bound), len(_MR_BASES))
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def smallest_prime_factors(n: int) -> list[int]:
    """spf[m] = the least prime factor of m for 2 <= m <= n (spf[0], spf[1] = 0, 1).

    Each prime p <= sqrt(n) marks its multiples from p^2 on, largest p first,
    so the smallest prime factor of every composite is written last.
    """
    spf = list(range(n + 1))
    for p in reversed(primes_up_to(math.isqrt(n))):
        spf[p * p :: p] = [p] * len(range(p * p, n + 1, p))
    return spf


def _pollard_brent(n: int) -> int:
    """One nontrivial factor of composite n (Brent's rho, fixed schedule)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable in practice


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}."""
    if n < 1:
        raise ValueError("factorint requires n >= 1")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(factors.items()))


def squarefree_part(n: int) -> int:
    """The square-free integer equal to n modulo nonzero rational squares."""
    if n == 0:
        raise ValueError("0 has no square-free part")
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factorint(abs(n)).items():
        if e % 2:
            out *= p
    return out


def legendre_raw(n: int, p: int) -> int:
    """Legendre symbol (n|p) by Euler's criterion; assumes p an odd prime."""
    n %= p
    if n == 0:
        return 0
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


def crt_roots(local: list[tuple[int, list[int]]]) -> list[int]:
    """Every x in [0, prod q) with x mod q in `residues` for each (q, residues)
    of `local`, whose moduli q are pairwise coprime (none at all gives [0])."""
    roots, n = [0], 1
    for q, residues in local:
        if not residues:
            return []
        inv = pow(n, -1, q)
        roots = [r + n * ((s - r) * inv % q) for r in roots for s in residues]
        n *= q
    return roots


def _sqrt_mod_prime_power(a: int, p: int, e: int) -> list[int]:
    """The roots in [0, p^e) of x^2 = a modulo p^e, in no fixed order."""
    q = p ** e
    a %= q
    if a % p:
        return _sqrt_unit(a, p, e)
    if a == 0:
        return list(range(0, q, p ** ((e + 1) // 2)))
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    if v % 2:
        return []
    # x = p^(v/2) y with y^2 = a (mod p^(e-v)); y is free modulo p^(e-v/2)
    half, step = p ** (v // 2), p ** (e - v)
    return [half * (y + j * step) for y in _sqrt_unit(a, p, e - v)
            for j in range(half)]


def _sqrt_unit(u: int, p: int, m: int) -> list[int]:
    """Roots of y^2 = u modulo p^m for u prime to p."""
    pm = p ** m
    if p == 2:
        if m <= 2:
            return [y for y in (1, 3)[: m] if (y * y - u) % pm == 0]
        if u % 8 != 1:
            return []
        y = 1
        for j in range(3, m):  # keep y^2 = u (mod 2^(j+1))
            if (y * y - u) % (1 << (j + 1)):
                y += 1 << (j - 1)
        return [y, pm // 2 - y, pm // 2 + y, pm - y]
    y = _sqrt_mod_p(u % p, p)
    if y is None:
        return []
    k = 1
    while k < m:  # Newton's step doubles the precision
        k = min(2 * k, m)
        pk = p ** k
        y = (y - (y * y - u) * pow(2 * y, -1, pk)) % pk
    return [y, pm - y]


def _sqrt_mod_p(a: int, p: int) -> int | None:
    """A square root of 0 < a < p modulo the odd prime p, or None (one power
    for p = 3 mod 4, Atkin's formula for p = 5 mod 8, else Tonelli-Shanks on
    p - 1 = q 2^s from one power w = a^((q-1)/2): y = a w and t = y w = a^q)."""
    if p % 4 == 3:
        y = pow(a, (p + 1) // 4, p)
    elif p % 8 == 5:
        v = pow(2 * a, (p - 5) // 8, p)
        y = a * v * (2 * a * v * v - 1) % p
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        w = pow(a, (q - 1) // 2, p)
        y = a * w % p
        t = y * w % p
        c, z = 0, 1  # c = z^q for the least non-residue z, found when first needed
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
                if i == s:  # t^(2^(s-1)) = a^((p-1)/2) = -1
                    return None
            while not c:  # z^q squared s - 1 times is z^((p-1)/2), -1 for a non-residue
                z += 1
                c = x = pow(z, q, p)
                for _ in range(s - 1):
                    x = x * x % p
                if x != p - 1:
                    c = 0
            b = pow(c, 1 << (s - i - 1), p)
            s, c, t, y = i, b * b % p, t * b * b % p, y * b % p
    return y if y * y % p == a else None
