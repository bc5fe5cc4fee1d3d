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
per prime, and the public counts validate p and call it the same way.  When p does not divide d(f) t, d(f) is
an integer and |d(f) t| is square-free, the rank-3 case is the Cassels count

    N(p) = p^2 + legendre(-d(f) t, p) * p,

which local tables report beside N(p).  The O(p^2) residue-table sweep and
the O(p^3) exhaustive count are kept as oracles in tests/test_localdata.py.

Densities here are computed on the whole variety mod p.  The variety is a
finite disjoint union of orbits of the integral automorph group, so these
are aggregates over orbits; per-orbit ratios are not resolved by this
module (see LocalDensityTable.caveat).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .arith import factorint, is_prime, is_squarefree, legendre_raw, primes_up_to
from .errors import DegenerateLocalError, DomainError, ResourceError
from .quadforms import TernaryForm, det_form, eval_form, transform

BAD_SET = frozenset({2, 3, 5, 7})

VARIANTS = ("x1", "x1x2", "x1x2x3")

# Indices of the coordinates whose product each variant sieves.
_SIEVED = {"x1": (0,), "x1x2": (0, 1), "x1x2x3": (0, 1, 2)}

# Work guards for solvable_mod: modulus cap per prime power, then per-path
# caps (O(q^2) completed-square sweep, O(q^3) full scan) beyond which an
# exhaustive no-witness verdict is not affordable.
_MAX_PRIME_POWER = 10 ** 6
_MAX_PIVOT_SWEEP = 2000
_MAX_FULL_SCAN = 270
_PROBE_BOX = 16


def legendre(n: int, p: int) -> int:
    """Legendre symbol (n|p) for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise DomainError(f"p must be an odd prime, got {p}")
    return legendre_raw(n, p)


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")


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


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")


def count_Vt_mod_p(f: TernaryForm, t: int, p: int) -> int:
    """#{x in (Z/pZ)^3 : f(x) = t mod p}, exact."""
    _check_prime(p)
    return _count(f, _principal_minors(f), t, p)


def count_V0_mod_p(f: TernaryForm, t: int, p: int, variant: str) -> int:
    """Count of points of f = t mod p whose sieved coordinate product is 0 mod p."""
    _check_variant(variant)
    _check_prime(p)
    return _count(f, _principal_minors(f), t, p, _SIEVED[variant])


def cassels_count(f: TernaryForm, t: int, p: int) -> int:
    """Closed-form count p^2 + (-d(f)t | p) p for good odd primes.

    Requires: p odd prime, d(f) integral, p coprime to d(f) t, and |d(f) t|
    square-free.
    """
    if p == 2 or not is_prime(p):
        raise DomainError(f"violated: p must be an odd prime (p={p})")
    d = det_form(f)
    if d.denominator != 1:
        raise DomainError(f"violated: d(f) must be an integer (d(f)={d})")
    d = int(d)
    if t == 0:
        raise DomainError("violated: t must be nonzero")
    if (d * t) % p == 0:
        raise DomainError(f"violated: p must not divide d(f)*t (p={p}, d*t={d * t})")
    if not is_squarefree(d * t):
        raise DomainError(f"violated: |d(f)*t| must be square-free (got {abs(d * t)})")
    return p * p + legendre(-d * t, p) * p


def _local_counts(f: TernaryForm, t: int, p: int, variant: str) -> tuple[int, int]:
    """(N, N0) mod p; no points at all leaves the density undefined."""
    _check_variant(variant)
    _check_prime(p)
    minors = _principal_minors(f)
    n = _count(f, minors, t, p)
    if n == 0:
        raise DegenerateLocalError(f"no points mod {p}; density undefined")
    return n, _count(f, minors, t, p, _SIEVED[variant])


def _density(p: int, n: int, n0: int, bad_set: frozenset) -> Fraction:
    """omega(p)/p from the counts: 0 on the exceptional set and where N0 = N."""
    return Fraction(0) if p in bad_set or n0 == n else Fraction(n0, n)


def raw_omega_over_p(f: TernaryForm, t: int, p: int, variant: str) -> Fraction:
    """N0/N mod p as an exact rational, no exceptional-set convention."""
    n, n0 = _local_counts(f, t, p, variant)
    return Fraction(n0, n)


def omega_over_p(f: TernaryForm, t: int, p: int, variant: str,
                 bad_set: frozenset = BAD_SET) -> Fraction:
    """Sieve density omega(p)/p: N0/N, forced to 0 on the exceptional set and
    at bad primes (N0 = N), as in LocalDensityTable."""
    return _density(p, *_local_counts(f, t, p, variant), bad_set)


def squarefree_primes(d: int, bad_set: frozenset = frozenset()) -> tuple[int, ...] | None:
    """The primes of d >= 1 if d is square-free and coprime to bad_set, else None."""
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    factors = factorint(d)
    if any(e > 1 for e in factors.values()) or not bad_set.isdisjoint(factors):
        return None
    return tuple(factors)


def omega_d(f: TernaryForm, t: int, d: int, variant: str,
            bad_set: frozenset = BAD_SET) -> Fraction:
    """Multiplicative extension of omega(p)/p over square-free d >= 1."""
    primes = squarefree_primes(d)
    if primes is None:
        raise DomainError(f"d must be square-free, got {d}")
    out = Fraction(1)
    for p in primes:
        out *= omega_over_p(f, t, p, variant, bad_set)
        if out == 0:
            return out
    return out


def bad_primes(f: TernaryForm, t: int, variant: str, p_max: int) -> set[int]:
    """Primes p <= p_max at which every local point has sieved product 0."""
    return build_local_table(f, t, variant, p_max).bad_primes


def _solvable_prime_power(f: TernaryForm, t: int, p: int, k: int) -> bool:
    q = p ** k
    if q > _MAX_PRIME_POWER:
        raise ResourceError(
            f"prime power {p}^{k} = {q} exceeds the {_MAX_PRIME_POWER} guard")

    # Cheap deterministic witness probe; settles the common solvable case.
    box = min(q, _PROBE_BOX)
    tt = t % q
    for x1 in range(box):
        for x2 in range(box):
            for x3 in range(box):
                if eval_form(f, (x1, x2, x3)) % q == tt:
                    return True

    if k == 1 and q > 2:
        return count_Vt_mod_p(f, t, p) > 0

    if p != 2:
        pivoted = _pivot_form(f, p)
        if pivoted is not None:
            if q > _MAX_PIVOT_SWEEP:
                raise ResourceError(
                    f"modulus {q} too large for the completed-square sweep "
                    f"(limit {_MAX_PIVOT_SWEEP})")
            return _solvable_quadratic_pivot(pivoted, t, q)

    # Full scan with early exit; affordable only for small moduli.
    if q > _MAX_FULL_SCAN:
        raise ResourceError(
            f"modulus {q} too large for exhaustive solvability scan "
            f"(limit {_MAX_FULL_SCAN})")
    for x1 in range(q):
        for x2 in range(q):
            for x3 in range(q):
                if eval_form(f, (x1, x2, x3)) % q == tt:
                    return True
    return False


def _pivot_form(f: TernaryForm, p: int) -> TernaryForm | None:
    """A unimodular equivalent of f whose a33 is a unit mod p, if one exists."""
    if f.a33 % p != 0:
        return f
    if f.a11 % p != 0:
        u = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]  # swap x1 <-> x3
        return transform(f, u)
    if f.a22 % p != 0:
        u = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]  # swap x2 <-> x3
        return transform(f, u)
    # all diagonal entries divisible by p: try e3 <- e3 + e_i / e_i - e_j mixes
    candidates = ([[1, 0, 0], [0, 1, 0], [1, 0, 1]],    # x3 += x1 direction
                  [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
                  [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
                  [[1, 0, 0], [0, 1, -1], [0, 0, 1]],
                  [[1, 0, -1], [0, 1, 0], [0, 0, 1]],
                  [[1, 0, 0], [0, 1, 0], [-1, 0, 1]])
    for u in candidates:
        g = transform(f, u)
        if g.a33 % p != 0:
            return g
    return None


def _solvable_quadratic_pivot(f: TernaryForm, t: int, q: int) -> bool:
    """Solvability mod odd prime power q when a33 is a unit mod q.

    Completing the square maps the x3-equation to y^2 = b^2 - 4 a33 c mod q,
    so each (x1, x2) cell is a table lookup in the set of squares mod q.
    """
    squares = {y * y % q for y in range(q)}
    a = f.a33
    for x1 in range(q):
        for x2 in range(q):
            b = (f.a13 * x1 + f.a23 * x2) % q
            c = (f.a11 * x1 * x1 + f.a22 * x2 * x2 + f.a12 * x1 * x2 - t) % q
            if (b * b - 4 * a * c) % q in squares:
                return True
    return False


def solvable_mod(f: TernaryForm, t: int, d: int) -> bool:
    """Whether f(x) = t mod d has a solution, via CRT over prime powers."""
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if d == 1:
        return True
    return all(_solvable_prime_power(f, t, p, k) for p, k in factorint(d).items())


@dataclass(frozen=True)
class LocalEntry:
    p: int
    count_V: int
    count_V0: int
    omega_over_p: Fraction   # after the exceptional-set convention
    is_bad: bool
    cassels_agree: bool | None  # None where Cassels' hypotheses fail


@dataclass
class LocalDensityTable:
    """Per-prime local counts and densities for one (form, t, variant)."""

    form: TernaryForm
    t: int
    variant: str
    bad_set: frozenset
    entries: dict[int, LocalEntry] = field(default_factory=dict)
    findings: list[str] = field(default_factory=list)
    caveat: str = ("densities are aggregates over the whole variety mod p; "
                   "per-orbit ratios are not resolved")

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


def build_local_table(f: TernaryForm, t: int, variant: str, p_max: int,
                      bad_set: frozenset = BAD_SET) -> LocalDensityTable:
    """Tabulate counts, densities and bad primes for all p <= p_max."""
    _check_variant(variant)
    if p_max < 7:
        raise DomainError(f"p_max must be >= 7, got {p_max}")
    if p_max > 10 ** 4:
        raise ResourceError(f"p_max={p_max} exceeds the 10^4 table guard")

    # Cassels' hypotheses on d(f) t, checked once for the whole table.
    d = det_form(f)
    dt = int(d) * t if d.denominator == 1 else 0  # 0: no Cassels column
    dt_squarefree = is_squarefree(dt)

    minors = _principal_minors(f)
    sieved = _SIEVED[variant]
    table = LocalDensityTable(form=f, t=t, variant=variant, bad_set=bad_set)
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
        table.entries[p] = LocalEntry(p, n, n0, _density(p, n, n0, bad_set),
                                      is_bad, agree)
        if is_bad and dt_squarefree and p not in bad_set:
            table.findings.append(
                f"bad prime {p} outside the expected exceptional set {sorted(bad_set)}")
    return table
