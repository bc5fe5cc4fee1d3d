"""Integer points on a quadric, smooth-weighted sequences, and their statistics.

For a nondegenerate ternary form f and nonzero t, the integer points of
f(x) = t inside a Euclidean ball are enumerated exactly: for each (x1, x2)
in the projected box the equation is a quadratic (or linear) in x3, solved
by integer discriminant and perfect-square test.  The hot path is a
vectorized row sweep; a pure-Python sweep covers forms without a usable
quadratic pivot and coefficient ranges outside the int64 safety margin.

On top of the enumeration sits the weighted sequence

    a_n = sum of F_T(x) over points with |proj(x)| = n,

where proj is x1, x1*x2 or x1*x2*x3 and F_T is a radial C^2 cutoff: 1 inside
radius T/c0, 0 outside c0*T, quintic smoothstep in between.  X = sum_{n>=1} a_n
is the sequence mass; a_0 collects the points with vanishing projection.

Sieve-facing statistics:

    R_d   = sum_{d | n} a_n - (omega(d)/d) X        (equidistribution residual)
    level = sum_{d < D, squarefree, (d,B)=1} 4^{nu(d)} |R_d|
    census(r) = sum of a_n over n with at most r prime factors outside B

where d runs over the square-free moduli prime to B, the set that
`localdata.squarefree_primes` tests, plus a search for integral automorphs
(M^T G M = G, det M = 1) with a union-find partition of point sets under
their action.  This module only computes; `sievelab.cli` renders points,
sequences and statistics as text, JSON or CSV.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .arith import factorint
from .errors import DomainError, ResourceError, StructureError
from .localdata import BAD_SET, LocalDensityTable, squarefree_primes
from .quadforms import TernaryForm, det_form, eval_form, transform

PROJECTIONS = ("x1", "x1x2", "x1x2x3")

_DEFAULT_CELL_BUDGET = 10 ** 9
_INT64_SAFE = 2 ** 62


def weight_FT(x, T: float, c0: float) -> float:
    """Radial C^2 bump: 1 for |x| <= T/c0, 0 for |x| >= c0*T, smooth between."""
    if T < 10:
        raise DomainError(f"T must be >= 10, got {T}")
    if c0 <= 1:
        raise DomainError(f"c0 must exceed 1, got {c0}")
    r = math.sqrt(float(x[0]) ** 2 + float(x[1]) ** 2 + float(x[2]) ** 2)
    return _weight_radial(r, T, c0)


def _weight_radial(r: float, T: float, c0: float) -> float:
    lo, hi = T / c0, c0 * T
    if r <= lo:
        return 1.0
    if r >= hi:
        return 0.0
    s = (r - lo) / (hi - lo)
    return 1.0 - (6.0 * s ** 5 - 15.0 * s ** 4 + 10.0 * s ** 3)


def _pivot_frame(f: TernaryForm):
    """(form with a33 != 0, permutation matrix) or (None, None) if no pivot."""
    if f.a33 != 0:
        return f, None
    if f.a11 != 0:
        p = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        return transform(f, p), p
    if f.a22 != 0:
        p = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        return transform(f, p), p
    return None, None


def _isqrt_array(d: np.ndarray) -> np.ndarray:
    """Exact integer sqrt floor for a nonnegative int64 array."""
    s = np.sqrt(d.astype(np.float64)).astype(np.int64)
    s = np.maximum(s - 2, 0)
    for _ in range(4):  # float sqrt is off by at most 1 ulp here
        bump = (s + 1) * (s + 1) <= d
        if not bump.any():
            break
        s = s + bump
    return s


def _enumerate_rows(g: TernaryForm, t: int, R: float) -> list[tuple[int, int, int]]:
    """Vectorized sweep over (x1, x2) rows; g.a33 != 0; int64-safe ranges."""
    m = math.floor(R)
    r2 = R * R
    a, out = g.a33, []
    x2_full = np.arange(-m, m + 1, dtype=np.int64)
    for x1 in range(-m, m + 1):
        lim2 = r2 - x1 * x1
        if lim2 < 0:
            continue
        half = math.floor(math.sqrt(lim2) + 1e-9)
        x2 = x2_full[m - half: m + half + 1]
        b = g.a13 * x1 + g.a23 * x2
        c = g.a11 * x1 * x1 + g.a22 * x2 * x2 + g.a12 * x1 * x2 - t
        disc = b * b - 4 * a * c
        ok = disc >= 0
        if not ok.any():
            continue
        s = np.zeros_like(disc)
        s[ok] = _isqrt_array(disc[ok])
        square = ok & (s * s == disc)
        for sign in (1, -1):
            num = -b + sign * s
            cand = square & (num % (2 * a) == 0)
            if sign == -1:
                cand &= s > 0  # avoid double-reporting the double root
            if not cand.any():
                continue
            x3 = num[cand] // (2 * a)
            x2c = x2[cand]
            keep = x1 * x1 + x2c * x2c + x3 * x3 <= r2
            out.extend((x1, int(u), int(v))
                       for u, v in zip(x2c[keep], x3[keep]))
    return out


def _enumerate_python(f: TernaryForm, t: int, R: float) -> list[tuple[int, int, int]]:
    """Exact-integer sweep; handles zero quadratic coefficient cells."""
    m = math.floor(R)
    r2 = R * R
    a = f.a33
    out = []
    for x1 in range(-m, m + 1):
        lim2 = r2 - x1 * x1
        if lim2 < 0:
            continue
        half = math.floor(math.sqrt(lim2) + 1e-9)
        for x2 in range(-half, half + 1):
            b = f.a13 * x1 + f.a23 * x2
            c = f.a11 * x1 * x1 + f.a22 * x2 * x2 + f.a12 * x1 * x2 - t
            lim3 = lim2 - x2 * x2
            if a == 0:
                if b == 0:
                    if c == 0:
                        top = math.floor(math.sqrt(lim3) + 1e-9)
                        out.extend((x1, x2, x3) for x3 in range(-top, top + 1))
                    continue
                if c % b == 0:
                    x3 = -c // b
                    if x3 * x3 <= lim3:
                        out.append((x1, x2, x3))
                continue
            disc = b * b - 4 * a * c
            if disc < 0:
                continue
            s = math.isqrt(disc)
            if s * s != disc:
                continue
            roots = {(-b + s), (-b - s)}
            for num in roots:
                if num % (2 * a) == 0:
                    x3 = num // (2 * a)
                    if x3 * x3 <= lim3:
                        out.append((x1, x2, x3))
    return out


def enumerate_points(f: TernaryForm, t: int, R: float) -> list[tuple[int, int, int]]:
    """All integer solutions of f(x) = t with Euclidean norm <= R, sorted.

    Each point appears exactly once, in lexicographic order.
    """
    if t == 0:
        raise DomainError("t must be a nonzero integer")
    if det_form(f) == 0:
        raise StructureError("form is degenerate; the solution set is not a quadric")
    if R < 0:
        raise DomainError(f"radius must be nonnegative, got {R}")

    g, perm = _pivot_frame(f)
    if g is None:
        points = _enumerate_python(f, t, R)
        return sorted(set(points))

    maxc = max(abs(c) for c in (g.a11, g.a22, g.a33, g.a12, g.a13, g.a23))
    safe = (2 * maxc * (R + 1)) ** 2 + 8 * maxc * (3 * maxc * (R + 1) ** 2 + abs(t))
    if safe < _INT64_SAFE:
        points = _enumerate_rows(g, t, R)
    else:
        points = _enumerate_python(g, t, R)

    if perm is not None:
        points = [(x[perm[0].index(1)], x[perm[1].index(1)], x[perm[2].index(1)])
                  for x in points]
    points = sorted(set(points))
    for x in points:
        if eval_form(f, x) != t:
            raise ArithmeticError(f"enumeration produced a non-solution {x}")
    return points


def _projection_value(x, projection: str) -> int:
    if projection == "x1":
        return abs(x[0])
    if projection == "x1x2":
        return abs(x[0] * x[1])
    return abs(x[0] * x[1] * x[2])


@dataclass
class WeightedSequence:
    """Smooth-weighted counts a_n of quadric points by projection value."""

    form: TernaryForm
    t: int
    T: float
    c0: float
    projection: str
    values: dict[int, float]          # n >= 0 -> a_n (sparse; missing = 0)
    counts: dict[int, int]            # n >= 1 -> number of weight>0 points
    X: float                          # sum_{n>=1} a_n
    a0: float
    point_total: int

    def a(self, n: int) -> float:
        return self.values.get(n, 0.0)

    def mass_in_progression(self, d: int) -> float:
        """sum of a_n over n >= 1 with d | n."""
        return math.fsum(self.values[n] for n in sorted(self.values)
                         if n >= 1 and n % d == 0)


def build_sequence(f: TernaryForm, t: int, T: float, c0: float = 2.0,
                   projection: str = "x1",
                   cell_budget: int = _DEFAULT_CELL_BUDGET) -> WeightedSequence:
    """Enumerate the ball |x| <= c0*T and assemble the weighted sequence."""
    if projection not in PROJECTIONS:
        raise DomainError(f"projection must be one of {PROJECTIONS}, got {projection!r}")
    if T < 10:
        raise DomainError(f"T must be >= 10, got {T}")
    if c0 <= 1:
        raise DomainError(f"c0 must exceed 1, got {c0}")
    radius = c0 * T
    cells = (2 * math.floor(radius) + 1) ** 2
    if cells > cell_budget:
        raise ResourceError(
            f"enumeration needs {cells} cells, budget is {cell_budget}; "
            f"raise cell_budget to at least {cells}")

    points = enumerate_points(f, t, radius)
    weights: dict[int, list[float]] = {}
    counts: dict[int, int] = {}
    a0_parts: list[float] = []
    total = 0
    for x in points:
        w = weight_FT(x, T, c0)
        if w <= 0.0:
            continue
        total += 1
        n = _projection_value(x, projection)
        if n == 0:
            a0_parts.append(w)
        else:
            weights.setdefault(n, []).append(w)
            counts[n] = counts.get(n, 0) + 1

    values = {n: math.fsum(ws) for n, ws in sorted(weights.items())}
    a0 = math.fsum(a0_parts)
    x_mass = math.fsum(values[n] for n in sorted(values))
    values[0] = a0
    return WeightedSequence(form=f, t=t, T=T, c0=c0, projection=projection,
                            values=values, counts=counts, X=x_mass, a0=a0,
                            point_total=total)


def residual_Rd(seq: WeightedSequence, omega: LocalDensityTable, d: int) -> float:
    """Equidistribution residual R_d = |A_d| - (omega(d)/d) X."""
    if squarefree_primes(d, omega.bad_set) is None:
        raise DomainError(f"d={d} must be square-free and prime to the "
                          f"exceptional set {sorted(omega.bad_set)}")
    _check_table_match(seq, omega)
    return seq.mass_in_progression(d) - float(omega.omega_d(d)) * seq.X


def _check_table_match(seq: WeightedSequence, omega: LocalDensityTable) -> None:
    if omega.form != seq.form or omega.t != seq.t or omega.variant != seq.projection:
        raise DomainError("density table does not match the sequence "
                          f"(table: {omega.form.to_string()}, t={omega.t}, "
                          f"{omega.variant}; sequence: {seq.form.to_string()}, "
                          f"t={seq.t}, {seq.projection})")


def level_statistic(seq: WeightedSequence, omega: LocalDensityTable,
                    D: float) -> float:
    """sum over square-free d < D coprime to the exceptional set of 4^nu(d) |R_d|.

    The canonical cutoff in the level condition is X^tau log^-A X; callers
    fold the log power into D.
    """
    if D <= 1:
        raise DomainError(f"D must exceed 1, got {D}")
    total = []
    for d in range(2, math.ceil(D)):
        primes = squarefree_primes(d, omega.bad_set)
        if primes is not None:
            total.append(4 ** len(primes) * abs(residual_Rd(seq, omega, d)))
    return math.fsum(total)


def omega_B_count(n: int, bad_set: frozenset = BAD_SET,
                  with_multiplicity: bool = True) -> int:
    """Number of prime factors of n outside the exceptional set.

    Counted with multiplicity by default (the weighted-sieve convention);
    set with_multiplicity=False to count distinct primes instead.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    factors = factorint(n)
    if with_multiplicity:
        return sum(e for p, e in factors.items() if p not in bad_set)
    return sum(1 for p in factors if p not in bad_set)


def census(seq: WeightedSequence, r: int, bad_set: frozenset = BAD_SET,
           with_multiplicity: bool = True) -> tuple[float, int]:
    """(weighted mass, point count) of sequence entries that are almost prime.

    An index n qualifies when it has at most r prime factors outside the
    exceptional set.
    """
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    qualifying = [n for n in sorted(seq.values)
                  if n >= 1 and omega_B_count(n, bad_set, with_multiplicity) <= r]
    weighted = math.fsum(seq.values[n] for n in qualifying)
    raw = sum(seq.counts.get(n, 0) for n in qualifying)
    return weighted, raw


@dataclass(frozen=True)
class AutomorphSet:
    """Integral automorphs of a form found by bounded entry search."""

    generators: tuple
    search_height: int


def _polar(f: TernaryForm, u, v) -> int:
    """u^T (2G) v: the integer polar form of f."""
    return (2 * f.a11 * u[0] * v[0] + 2 * f.a22 * u[1] * v[1]
            + 2 * f.a33 * u[2] * v[2]
            + f.a12 * (u[0] * v[1] + u[1] * v[0])
            + f.a13 * (u[0] * v[2] + u[2] * v[0])
            + f.a23 * (u[1] * v[2] + u[2] * v[1]))


def _det3(c1, c2, c3) -> int:
    return (c1[0] * (c2[1] * c3[2] - c2[2] * c3[1])
            - c2[0] * (c1[1] * c3[2] - c1[2] * c3[1])
            + c3[0] * (c1[1] * c2[2] - c1[2] * c2[1]))


def find_automorphs(f: TernaryForm, H: int) -> AutomorphSet:
    """All M with entries in [-H, H], M^T G M = G and det M = +1.

    The identity is always included.  Columns are searched independently
    against the diagonal and polar constraints, so the cost is governed by
    the number of vectors representing each diagonal value, not (2H+1)^9.
    """
    if H < 0:
        raise DomainError(f"H must be >= 0, got {H}")
    diag = (f.a11, f.a22, f.a33)
    cross = {(0, 1): f.a12, (0, 2): f.a13, (1, 2): f.a23}

    box = list(product(range(-H, H + 1), repeat=3))
    columns = [[v for v in box if eval_form(f, v) == diag[j]] for j in range(3)]

    found = set()
    for c1 in columns[0]:
        for c2 in columns[1]:
            if _polar(f, c1, c2) != cross[(0, 1)]:
                continue
            for c3 in columns[2]:
                if (_polar(f, c1, c3) == cross[(0, 2)]
                        and _polar(f, c2, c3) == cross[(1, 2)]
                        and _det3(c1, c2, c3) == 1):
                    rows = tuple((c1[i], c2[i], c3[i]) for i in range(3))
                    found.add(rows)
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    found.add(identity)
    return AutomorphSet(generators=tuple(sorted(found)), search_height=H)


def _mat_apply(m, x):
    return tuple(m[i][0] * x[0] + m[i][1] * x[1] + m[i][2] * x[2] for i in range(3))


def _mat_inverse_unimodular(m):
    """Inverse of an integer matrix with det +1 (the adjugate)."""
    a, b, c = m[0]
    d, e, g = m[1]
    h, i, j = m[2]
    return ((e * j - g * i, c * i - b * j, b * g - c * e),
            (g * h - d * j, a * j - c * h, c * d - a * g),
            (d * i - e * h, b * h - a * i, a * e - b * d))


def orbit_partition(points, autos: AutomorphSet) -> list[list[tuple[int, int, int]]]:
    """Partition of `points` under the generator action, restricted to the set.

    Union-find closure under each generator and its inverse; class count is
    an upper bound for the number of full orbits meeting the point set.
    Output is deterministic: classes sorted by least element.
    """
    pts = sorted(set(tuple(p) for p in points))
    index = {p: i for i, p in enumerate(pts)}
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    mats = []
    for m in autos.generators:
        mats.append(m)
        mats.append(_mat_inverse_unimodular(m))
    for p in pts:
        for m in mats:
            q = _mat_apply(m, p)
            if q in index:
                union(index[p], index[q])

    classes: dict[int, list] = {}
    for p, i in index.items():
        classes.setdefault(find(i), []).append(p)
    return sorted((sorted(cls) for cls in classes.values()), key=lambda c: c[0])
