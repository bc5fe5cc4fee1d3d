import random

import pytest

from sievelab.arith import (_sqrt_mod_prime_power, crt_roots, factorint, is_prime,
                            legendre_raw, primes_up_to, smallest_prime_factors,
                            squarefree_part)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-5, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2 ** 61 - 1)          # Mersenne prime
    assert not is_prime(2 ** 61 + 1)
    assert not is_prime(3215031751)       # strong pseudoprime to 2,3,5,7


def test_is_prime_at_every_base_bound():
    # each bound is the least strong pseudoprime to the bases below it
    for bound in (2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051,
                  318665857834031151167461):
        assert not is_prime(bound), bound
    assert factorint(318665857834031151167461) == {399165290221: 1,
                                                   798330580441: 1}
    sieve = set(primes_up_to(10 ** 5))
    assert all(is_prime(n) == (n in sieve) for n in range(10 ** 5))


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10 ** 4)) == 1229


def test_smallest_prime_factors():
    assert smallest_prime_factors(0) == [0]
    assert smallest_prime_factors(1) == [0, 1]
    spf = smallest_prime_factors(5000)
    assert all(spf[m] == min(factorint(m)) for m in range(2, 5001))


def test_factorint_round_trip():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 10 ** 9)
        factors = factorint(n)
        prod = 1
        for p, e in factors.items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n


def test_factorint_semiprime():
    p, q = 1000003, 1000033
    assert factorint(p * q) == {p: 1, q: 1}


def test_factorint_domain():
    with pytest.raises(ValueError):
        factorint(0)


def test_squarefree_tools():
    assert squarefree_part(30) == 30
    assert squarefree_part(-30) == -30
    assert squarefree_part(1) == 1
    assert squarefree_part(12) == 3
    assert squarefree_part(-18) == -2
    assert squarefree_part(7) == 7
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_legendre_raw_euler():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for n in range(1, p):
            assert legendre_raw(n, p) == (1 if n in squares else -1)
        assert legendre_raw(p, p) == 0


def test_crt_roots():
    local = [(8, [1, 3]), (9, [2]), (5, [0, 4])]
    assert sorted(crt_roots(local)) == [x for x in range(360) if x % 8 in (1, 3)
                                        and x % 9 == 2 and x % 5 in (0, 4)]
    assert crt_roots([]) == [0]
    assert crt_roots([(9, [2]), (7, [])]) == []


def test_sqrt_mod_prime_power_against_brute_force():
    for p in primes_up_to(23):
        e, q = 1, p
        while q <= 3000:
            roots = {}  # x^2 mod q -> every x in [0, q)
            for x in range(q):
                roots.setdefault(x * x % q, []).append(x)
            for a in range(-q, 2 * q):  # a is reduced modulo q first
                assert sorted(_sqrt_mod_prime_power(a, p, e)) == roots.get(a % q, []), (a, q)
            e, q = e + 1, q * p
    p = 7681  # p - 1 = 2^9 * 15 takes Tonelli-Shanks through nine squarings
    for a in range(1, 400):
        roots = _sqrt_mod_prime_power(a, p, 2)
        assert len(roots) == (2 if legendre_raw(a, p) == 1 else 0)
        assert all(x * x % p ** 2 == a for x in roots)
