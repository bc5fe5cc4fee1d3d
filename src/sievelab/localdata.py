"""Finite local data of a quadric: point counts and densities mod p.

For the surface f(x) = t let

    N(p)  = #{x in (Z/pZ)^3 : f(x) = t mod p}
    N0(p) = #{x as above with the sieved coordinate product = 0 mod p}

where the sieved product is x1, x1*x2 or x1*x2*x3 depending on the chosen
projection.  The local density entering the sieve is omega(p)/p = N0/N,
extended multiplicatively to square-free moduli, and forced to 0 on the
exceptional prime set B = {2, 3, 5, 7} and at bad primes (a prime is bad
when N0 = N, which makes sieving at p impossible; for square-free d(f)t the
bad primes all lie in B).

For odd p both counts are closed forms (Cassels, Rational Quadratic Forms,
ch. 2; Lidl-Niederreiter, Finite Fields, Thms 6.26-6.27).  A form in n
variables of rank r mod p, whose nondegenerate part has discriminant D,
takes the value t at p^(n-r) N_r points, where

    N_r = [t = 0]                                            (r = 0)
    N_r = p^(r-1) + p^((r-1)/2) legendre((-1)^((r-1)/2) t D, p)  (r odd)
    N_r = p^(r-1) + v(t) p^((r-2)/2) legendre((-1)^(r/2) D, p)   (r even)

with v(t) = p - 1 if t = 0 mod p and -1 otherwise.  N(p) is this count for
the ternary form; N0(p) is inclusion-exclusion over the coordinate
subspaces on which a sieved coordinate vanishes.  Either costs O(log p);
p = 2 is counted over its 8 points.  One private routine, `_count`, gives
both; a table computes the principal minors of f once and calls it twice
per prime.

When p does not divide d(f) t, d(f) is an integer and |d(f) t| is
square-free, the rank-3 case is the Cassels count

    N(p) = p^2 + legendre(-d(f) t, p) * p,

which local tables report beside N(p).  The O(p^2) residue-table sweep and
the O(p^3) exhaustive count are kept as oracles in tests/test_localdata.py.

`build_local_table` is the one path from counts to densities: its
entries hold omega(p)/p, and `LocalDensityTable.omega_d` extends them to
square-free d.  A prime with no points mod p has N0 = N = 0, so it is a
bad entry of density 0.

Densities here are computed on the whole variety mod p.  The variety is a
finite disjoint union of orbits of the integral automorph group, so these
are aggregates over orbits; per-orbit ratios are not resolved by this
module (see LocalDensityTable.caveat).
"""

from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from .arith import factorint, legendre_raw, primes_up_to, squarefree_part
from .errors import DomainError, ResourceError
from .quadforms import TernaryForm, det_form, eval_form

BAD_SET = frozenset({2, 3, 5, 7})

# Indices of the coordinates whose product each variant (projection)
# sieves; their number is the sieve dimension kappa.
SIEVED = {"x1": (0,), "x1x2": (0, 1), "x1x2x3": (0, 1, 2)}
VARIANTS = tuple(SIEVED)


def _nondegenerate_count(r: int, disc: int, t: int, p: int) -> int:
    """#{y in F_p^r : Q(y) = t} for Q of rank r >= 1 and discriminant disc, p odd."""
    if r % 2:
        return p ** (r - 1) + p ** ((r - 1) // 2) * legendre_raw(
            (-1) ** ((r - 1) // 2) * t * disc, p)
    v = p - 1 if t % p == 0 else -1
    return p ** (r - 1) + v * p ** ((r - 2) // 2) * legendre_raw(
        (-1) ** (r // 2) * disc, p)


def _principal_minors(f: TernaryForm) -> dict[tuple, int]:
    """Principal minors of M = 2 * Gram(f), keyed by their sorted indices."""
    a, b, c = 2 * f.a11, 2 * f.a22, 2 * f.a33
    u, v, w = f.a23, f.a13, f.a12  # M[1][2], M[0][2], M[0][1]
    return {(0,): a, (1,): b, (2,): c,
            (0, 1): a * b - w * w, (0, 2): a * c - v * v, (1, 2): b * c - u * u,
            (0, 1, 2): a * b * c + 2 * u * v * w - a * u * u - b * v * v - c * w * w}


def _subspace_count(minors: dict, coords: tuple, t: int, p: int) -> int:
    """#{x mod p : f(x) = t, x supported on coords}, p odd.

    The rank r of the restriction is the size of its largest principal minor
    that is nonzero mod p; that minor times 2^r is its discriminant modulo
    squares, and the other len(coords) - r variables are free.
    """
    for r in range(len(coords), 0, -1):
        for sub in combinations(coords, r):
            minor = minors[sub] % p
            if minor:
                return p ** (len(coords) - r) * _nondegenerate_count(
                    r, minor * 2 ** r, t, p)
    return p ** len(coords) if t % p == 0 else 0


def _count_mod_2(f: TernaryForm, t: int, sieved: tuple | None = None) -> int:
    """Exhaustive count of the 8 points mod 2, or of those with even sieved product."""
    return sum(1 for x in product(range(2), repeat=3)
               if eval_form(f, x) % 2 == t % 2
               and (sieved is None or not all(x[i] for i in sieved)))


def _count(f: TernaryForm, minors: dict, t: int, p: int,
           sieved: tuple | None = None) -> int:
    """N(p), or N0(p) for the sieved coordinates; p prime, minors of f.

    For odd p, N0 is inclusion-exclusion over the coordinate subspaces on
    which some sieved coordinate vanishes.
    """
    if p == 2:
        return _count_mod_2(f, t, sieved)
    if sieved is None:
        return _subspace_count(minors, (0, 1, 2), t, p)
    total = 0
    for k in range(1, len(sieved) + 1):
        for zero in combinations(sieved, k):
            free = tuple(i for i in range(3) if i not in zero)
            total += (-1) ** (k + 1) * _subspace_count(minors, free, t, p)
    return total


def _density(p: int, n: int, n0: int) -> Fraction:
    """omega(p)/p from the counts: 0 on the exceptional set and where N0 = N."""
    return Fraction(0) if p in BAD_SET or n0 == n else Fraction(n0, n)


def squarefree_primes(d: int, bad_set: frozenset = frozenset()) -> tuple[int, ...] | None:
    """The primes of d >= 1 if d is square-free and coprime to bad_set, else None."""
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    factors = factorint(d)
    if any(e > 1 for e in factors.values()) or not bad_set.isdisjoint(factors):
        return None
    return tuple(factors)


class LocalEntry(NamedTuple):
    p: int
    count_V: int
    count_V0: int
    omega_over_p: Fraction   # after the exceptional-set convention
    is_bad: bool
    cassels_agree: bool | None  # None where Cassels' hypotheses fail


class LocalDensityTable:
    """Per-prime local counts and densities for one (form, t, variant)."""

    caveat = ("densities are aggregates over the whole variety mod p; "
              "per-orbit ratios are not resolved")

    def __init__(self, form: TernaryForm, t: int, variant: str):
        self.form, self.t, self.variant = form, t, variant
        self.entries: dict[int, LocalEntry] = {}
        self.findings: list[str] = []

    @property
    def bad_primes(self) -> set[int]:
        return {p for p, e in self.entries.items() if e.is_bad}

    def omega_d(self, d: int) -> Fraction:
        """Multiplicative omega(d)/d from the tabulated primes."""
        primes = squarefree_primes(d)
        if primes is None:
            raise DomainError(f"d must be square-free, got {d}")
        out = Fraction(1)
        for p in primes:
            if p not in self.entries:
                raise DomainError(f"prime {p} not tabulated (p_max too small)")
            out *= self.entries[p].omega_over_p
        return out


def build_local_table(f: TernaryForm, t: int, variant: str,
                      p_max: int) -> LocalDensityTable:
    """Tabulate counts, densities and bad primes for all p <= p_max."""
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if p_max < 7:
        raise DomainError(f"p_max must be >= 7, got {p_max}")
    if p_max > 10 ** 4:
        raise ResourceError(f"p_max={p_max} exceeds the 10^4 table guard")

    # Cassels' hypotheses on d(f) t, checked once for the whole table.
    d = det_form(f)
    dt = int(d) * t if d.denominator == 1 else 0  # 0: no Cassels column
    dt_squarefree = dt != 0 and squarefree_part(dt) == dt

    minors = _principal_minors(f)
    sieved = SIEVED[variant]
    table = LocalDensityTable(form=f, t=t, variant=variant)
    for p in primes_up_to(p_max):
        n = _count(f, minors, t, p)
        n0 = _count(f, minors, t, p, sieved)
        is_bad = n0 == n
        agree = None
        if dt_squarefree and p != 2 and dt % p != 0:
            cass = p * p + legendre_raw(-dt, p) * p
            agree = cass == n
            if not agree:
                table.findings.append(
                    f"closed-form count disagrees at p={p}: {cass} vs {n}")
        table.entries[p] = LocalEntry(p, n, n0, _density(p, n, n0),
                                      is_bad, agree)
        if is_bad and dt_squarefree and p not in BAD_SET:
            table.findings.append(
                f"bad prime {p} outside the expected exceptional set {sorted(BAD_SET)}")
    return table
