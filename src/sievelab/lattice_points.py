"""Integer points on a quadric, smooth-weighted sequences, and their statistics.

For a nondegenerate ternary form f and nonzero t, the integer points of
f(x) = t inside a Euclidean ball of radius R are enumerated exactly, in
work that grows with the slices rather than with the ~pi R^2 cells of a
disc:

* Frame.  A unimodular U (`quadforms._slice_frame`) is chosen so that g(y)
  = f(Uy) is definite on the (y1, y2) plane.  The plane n.x = 0 is definite
  exactly when the cofactor form of 2G is positive at n; the coordinate
  normals are tried first (every form of the benchmark pool has one), then
  shells of growing height, which end because that set is a nonempty open
  cone.  The binary part is Gauss-reduced, so |b| <= a <= c.
* Slices.  On y3 = k the equation becomes q(z) = n_k for z = delta (y1, y2)
  + k H, where delta is the least denominator of the ellipse centre;
  |k| <= |n| R, and a slice whose ellipse stays outside the ball by a
  float-safe margin is skipped.  Points are found up to E_U, the sign
  changes of x that keep f and change only the signs of y: -I maps slice k
  to -k, so only k >= 0 is solved, and those keeping y3 let a slice's row
  scan take y2 >= 0 or one root and its solver one z per orbit.  An orbit
  is kept as its largest point and its size m.
* Representations.  A slice whose ellipse spans few rows (at most
  max(32, n_k^(1/4)), below the cost of a factorization) is scanned row by
  row.  The others go to `binary_forms`: one sieve over k factors them and
  drops each slice that fails a local test, and the rest are solved in the
  norm form of the order of discriminant b^2 - 4ac.  Each point is checked
  with eval_form.

The former O(R^2) sweep of the (x1, x2) disc is kept in the tests as the
oracle (tests/test_lattice_points.py, `sweep_oracle`).

On top of the enumeration sits the weighted sequence

    a_n = sum of F_T(x) over points with |proj(x)| = n,

where proj is x1, x1*x2 or x1*x2*x3 and F_T is a radial C^2 cutoff: 1 inside
radius T/c0, 0 outside c0*T, quintic smoothstep in between.  X = sum_{n>=1} a_n
is the sequence mass; a_0 collects the points with vanishing projection.  One
point per orbit is weighed, counting m, and sequences at several T
(equidist's T and 2T) share one enumeration.

Sieve-facing statistics:

    R_d   = sum_{d | n} a_n - (omega(d)/d) X        (equidistribution residual)
    level = sum_{d < D, squarefree, (d,B)=1} 4^{nu(d)} |R_d|
    census(r) = sum of a_n over n with at most r prime factors outside B

The census adds up the prime factors of the coordinates of one point per
n, read from one smallest-prime-factor table up to max |x_i| <= R, so it
factors no value on its own.  `residual_Rd` computes each |A_d| once, one
row per square-free d prime to B (the set `localdata.squarefree_primes`
tests), and `level_statistic` only reduces those rows.  The module also
searches for integral automorphs (M^T G M = G, det M = 1).  It only
computes; `sievelab.cli` renders points, sequences and statistics as
text, JSON or CSV.
"""

import math
from dataclasses import dataclass
from itertools import product

from .arith import factorint, smallest_prime_factors
from .binary_forms import _factor_slices, _representations, _restored
from .errors import DomainError, ResourceError, StructureError
from .localdata import BAD_SET, LocalDensityTable, squarefree_primes
from .quadforms import (TernaryForm, _det3, _mat_inverse_unimodular, _sign_flips, _slice_frame,
                        det_form, eval_form, transform)

PROJECTIONS = ("x1", "x1x2", "x1x2x3")

# build_sequence refuses a ball whose (x1, x2) disc spans more than
# _MAX_CELLS cells, that is c0*T >= _MAX_RADIUS = 15,811.  _MAX_SLICES, the
# most slices one enumeration may solve or scan, admits every radius below
# that for every slice normal of length up to 63 (coordinate normals have
# length 1).  _MAX_POINTS, the most pairs +-x one enumeration keeps (~0.4
# KB each in `enumerate`), is over 5 times what any pool form keeps below it.
_MAX_CELLS = 10 ** 9
_MAX_RADIUS = (math.isqrt(_MAX_CELLS) - 1) // 2 + 1
_MAX_SLICES = 10 ** 6
_MAX_POINTS = 250_000
# find_automorphs builds its box of (2H+1)^3 vectors, ~2 us and 70 bytes
# each; _MAX_BOX admits H <= 62 (~4 s, 140 MB).
_MAX_BOX = 2 * 10 ** 6


def weight_FT(x, T: float, c0: float) -> float:
    """Radial C^2 bump: 1 for |x| <= T/c0, 0 for |x| >= c0*T, smooth between."""
    _check_weight(T, c0)
    return _weight_radial(x, T, c0)


def _check_weight(T: float, c0: float) -> None:
    """Reject T < 10, c0 <= 1, NaN (it fails both comparisons) and an
    infinite c0*T, the radius of the weight's support."""
    if not T >= 10:
        raise DomainError(f"T must be >= 10, got {T}")
    if not c0 > 1:
        raise DomainError(f"c0 must exceed 1, got {c0}")
    if c0 * T == math.inf:
        raise DomainError(f"c0*T must be finite, got c0={c0}, T={T}")


def _weight_radial(x, T: float, c0: float) -> float:
    """weight_FT without the checks of T and c0."""
    r = math.sqrt(float(x[0]) ** 2 + float(x[1]) ** 2 + float(x[2]) ** 2)
    lo, hi = T / c0, c0 * T
    if r <= lo:
        return 1.0
    if r >= hi:
        return 0.0
    s = (r - lo) / (hi - lo)
    return 1.0 - (6.0 * s ** 5 - 15.0 * s ** 4 + 10.0 * s ** 3)


# A slice whose ellipse spans at most this many rows is scanned row by row:
# fewer rows cost less than one factorization.
_SCAN_ROWS = 32


def enumerate_points(f: TernaryForm, t: int, R: float) -> list[tuple[int, int, int]]:
    """All integer solutions of f(x) = t with Euclidean norm <= R, sorted:
    the images of the `enumerate_orbits` points under f's sign changes, as
    their lexicographically positive half and its mirrors -x."""
    orbits = enumerate_orbits(f, t, R)
    half = set(orbits)  # -I is in E_U, so an orbit's largest point is > 0
    for e1, e2, e3 in _sign_flips(f)[1:]:  # after (1, 1, 1)
        if e1 == 1:  # one of each pair +-e
            for x1, x2, x3 in orbits:
                y = (x1, e2 * x2, e3 * x3)
                half.add(y if y > (0, 0, 0) else (-x1, -y[1], -y[2]))
    half = sorted(half)
    return [(-x1, -x2, -x3) for x1, x2, x3 in reversed(half)] + half


def enumerate_orbits(f: TernaryForm, t: int, R: float) -> dict[tuple[int, int, int], int]:
    """The orbits under E_U of the solutions of f(x) = t with Euclidean norm
    <= R, as {x: m}: x is the orbit's lexicographically largest point and
    m = |E_U| / |Stab(x)| its size.  E_U holds the `_sign_flips` eps with
    U^-1 eps U diagonal, -I among them.
    """
    if t == 0:
        raise DomainError("t must be a nonzero integer")
    if det_form(f) == 0:
        raise StructureError("form is degenerate; the solution set is not a quadric")
    if not math.isfinite(R):
        raise DomainError(f"radius must be finite, got {R}")
    if R < 0:
        raise DomainError(f"radius must be nonnegative, got {R}")

    u = _slice_frame(f)
    w = _mat_inverse_unimodular(u)
    g = transform(f, u)
    sign = 1 if g.a11 > 0 else -1
    a, b, c = sign * g.a11, sign * g.a12, sign * g.a22
    disc = 4 * a * c - b * b
    # The slice y3 = k is q(y + k h) = t - g33 k^2 + k^2 q(h) with
    # 2Q h = (g13, g23); z = delta (y + k h) = delta y + k H is integral.
    h1 = sign * (2 * c * g.a13 - b * g.a23)
    h2 = sign * (2 * a * g.a23 - b * g.a13)
    common = math.gcd(disc, h1, h2)
    delta, H1, H2 = disc // common, h1 // common, h2 // common
    m0 = delta * delta * sign * g.a33 - (a * H1 * H1 + b * H1 * H2 + c * H2 * H2)
    n0 = delta * delta * sign * t
    content = math.gcd(a, b, c)
    primitive = (a // content, b // content, c // content)
    inflation = factorint(primitive[0])

    # E_U: the flips e with e u_j = s_j u_j, s_j = +-1, for each column u_j
    # of U.  Those with s3 = 1 keep each slice; a flipped y_i has H_i = 0
    # (and b = 0 if flipped alone), so they flip z alike.
    flips, in_slice = [], set()
    for e in _sign_flips(f):
        s = []
        for j in range(3):
            col = (u[0][j], u[1][j], u[2][j])
            image = (e[0] * col[0], e[1] * col[1], e[2] * col[2])
            s.append(1 if image == col else -1 if image == (-col[0], -col[1], -col[2]) else 0)
        if 0 not in s:
            flips.append(e)
            if s[2] == 1:
                in_slice.add((s[0], s[1]))
    half_rows = (1, -1) in in_slice or (-1, -1) in in_slice  # row -y2 mirrors row y2
    one_root = (-1, 1) in in_slice  # b = 0 and H1 = 0: root -s mirrors root s
    restore = _restored(in_slice)
    # E_U is generated by -I and the x_i it flips alone (n_i = 1), so an
    # orbit's largest point takes |x_i| there and makes the other coordinates
    # lexicographically positive; with none, it is x or -x.
    n1 = 1 if (-1, 1, 1) in flips else -1
    n2 = 1 if (1, -1, 1) in flips else -1
    n3 = 1 if (1, 1, -1) in flips else -1
    alone = max(n1, n2, n3) > 0
    full = len(flips)  # the size of every orbit without a zero coordinate

    nn = sum(e * e for e in w[2])  # w[2] is the slice normal: y3 = w[2].x
    slices = R * math.sqrt(nn) + 2  # kmax + 1 below, in floats
    if slices > _MAX_SLICES:
        raise ResourceError(f"radius {R:g} needs about {slices:.3g} slices, "
                            f"more than the limit of {_MAX_SLICES}")
    r2 = R * R
    kmax = math.isqrt(int(r2 * nn)) + 1
    ymax = math.isqrt(int(r2 * sum(e * e for e in w[1]))) + 1
    orbits, short = {}, {}  # orbits of |E_U| points, and the shorter ones: x -> m
    counted = plane = 0  # the points of the orbits found, and of those on y3 = 0

    (u11, u12, u13), (u21, u22, u23), (u31, u32, u33) = u
    # On slice k, x = k v + U12 z / delta with v = u3 - U12 h, and v.n = 1, so
    # |x|^2 >= k^2/|n|^2 + (sqrt(mu n_k)/delta - |k| |v - n/|n|^2|)^2 whenever
    # the bracket is positive; mu is the least eigenvalue of U12^T U12
    # relative to Q.  A slice whose bound exceeds R^2 is skipped.
    p11 = u11 * u11 + u21 * u21 + u31 * u31
    p22 = u12 * u12 + u22 * u22 + u32 * u32
    p12 = u11 * u12 + u21 * u22 + u31 * u32
    detp, tr = p11 * p22 - p12 * p12, p11 * c + p22 * a - p12 * b
    try:
        mu = 2 * detp / (tr + math.sqrt(tr * tr - disc * detp))
        v = [row[2] - (row[0] * H1 + row[1] * H2) / delta for row in u]
        drift = math.sqrt(max(0.0, sum(e * e for e in v) - 1 / nn))
    except OverflowError:  # coefficients beyond float range: bound by |k| only
        mu = drift = 0.0
    if mu < 1e-290:  # keep mu a normal float, or drop its term
        mu = 0.0
    limit = (1 + 1e-9) * r2 + 1e-9  # margin for float rounding

    def keep(y1, y2, k):  # the orbit of x, under its largest point
        x1 = u11 * y1 + u12 * y2 + u13 * k
        x2 = u21 * y1 + u22 * y2 + u23 * k
        x3 = u31 * y1 + u32 * y2 + u33 * k
        if x1 * x1 + x2 * x2 + x3 * x3 <= r2:
            if alone:
                x = (abs(x1) if n1 > 0 else x1, abs(x2) if n2 > 0 else x2,
                     abs(x3) if n3 > 0 else x3)
                y = (n1 * x[0], n2 * x[1], n3 * x[2])
                if y > x:
                    x = y
            else:
                x = (x1, x2, x3) if (x1, x2, x3) > (0, 0, 0) else (-x1, -x2, -x3)
            if x1 and x2 and x3:
                orbits[x] = full
            else:
                short[x] = len({(e1 * x1, e2 * x2, e3 * x3) for e1, e2, e3 in flips})

    def check_points(k):  # once per slice; the pairs +-x, twice on y3 = 0
        nonlocal counted, plane
        total = full * len(orbits) + sum(short.values())
        if k == 0:
            plane = total - counted
        counted = total
        if (total + plane) // 2 > _MAX_POINTS:
            raise ResourceError(f"radius {R:g} holds more than {_MAX_POINTS} pairs "
                                "of points, the limit of one enumeration")

    solved = []
    for k in range(kmax + 1):
        n = n0 - k * k * m0
        if n < 0:
            continue
        try:
            gap = max(0.0, math.sqrt(mu * (n / (delta * delta))) - k * drift)
        except OverflowError:  # n_k beyond float range: keep the slice
            gap = 0.0
        if k * k / nn + gap * gap > limit:
            continue
        top = math.isqrt(4 * a * n // disc)  # |z2| <= top on the ellipse
        rows = min(2 * top // delta + 1, 2 * ymax + 1)
        if rows > max(_SCAN_ROWS, math.isqrt(math.isqrt(n // content))):
            solved.append(k)
            continue
        # 4a q(z) = (2a z1 + b z2)^2 + disc z2^2
        lo = max(-ymax, -((top + k * H2) // delta))
        hi = min(ymax, (top - k * H2) // delta)
        for y2 in range(max(lo, 0) if half_rows else lo, hi + 1):
            z2 = delta * y2 + k * H2
            rad = 4 * a * n - disc * z2 * z2
            s = math.isqrt(rad)
            if s * s != rad:
                continue
            for root in (s,) if one_root else {s, -s}:
                z1, rem = divmod(root - b * z2, 2 * a)
                if rem == 0 and (z1 - k * H1) % delta == 0:
                    keep((z1 - k * H1) // delta, y2, k)
        check_points(k)

    roots: dict = {}
    for k, n_factors in _factor_slices(n0, m0, solved, a, b, c, roots).items():
        n = (n0 - k * k * m0) // content
        for z1, z2 in _representations(*primitive, n, n_factors, inflation, roots, restore):
            y1, y2 = z1 - k * H1, z2 - k * H2
            if y1 % delta == 0 and y2 % delta == 0:
                keep(y1 // delta, y2 // delta, k)
        check_points(k)

    orbits.update(short)
    for x in orbits:  # each eps in E_U keeps f, so x checks its whole orbit
        if eval_form(f, x) != t:
            raise ArithmeticError(f"enumeration produced a non-solution {x}")
    return orbits


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
    values: dict[int, float]          # n >= 1 -> a_n (sparse; missing = 0)
    counts: dict[int, int]            # n >= 1 -> number of weight>0 points
    witnesses: dict[int, tuple]       # n >= 1 -> one of those points
    X: float                          # sum_{n>=1} a_n
    a0: float
    point_total: int


def build_sequence(f: TernaryForm, t: int, Ts: list[float], c0: float = 2.0,
                   projection: str = "x1") -> list[WeightedSequence]:
    """The weighted sequence at each T of Ts from one enumeration of |x| <=
    c0 max(Ts), cut by the enumerator's own test |x|^2 <= (c0 T)^2.

    Sign changes keep |x| and |proj(x)|, so each orbit of `enumerate_orbits`
    is weighed once at its representative x and counts m: its weight w
    enters as w m, exactly, since m is a power of 2.
    """
    if projection not in PROJECTIONS:
        raise DomainError(f"projection must be one of {PROJECTIONS}, got {projection!r}")
    for T in Ts:
        _check_weight(T, c0)
        if (2 * math.floor(c0 * T) + 1) ** 2 > _MAX_CELLS:
            raise ResourceError(f"c0*T = {c0 * T:g} is too large: the enumeration "
                                f"needs c0*T below {_MAX_RADIUS}")

    radius = max(c0 * T for T in Ts)
    orbits = enumerate_orbits(f, t, radius)
    seqs = []
    for T in Ts:
        r2, cut = (c0 * T) * (c0 * T), c0 * T < radius
        weights, counts, witnesses, a0_parts, total = {}, {}, {}, [], 0
        for x, m in orbits.items():
            if cut and x[0] * x[0] + x[1] * x[1] + x[2] * x[2] > r2:
                continue
            w = _weight_radial(x, T, c0)  # T and c0 were checked above
            if w <= 0.0:
                continue
            total += m
            n = _projection_value(x, projection)
            if n == 0:
                a0_parts.append(w * m)
            elif n in weights:
                weights[n].append(w * m)
                counts[n] += m
            else:
                weights[n], counts[n], witnesses[n] = [w * m], m, x

        values = {n: math.fsum(ws) for n, ws in sorted(weights.items())}
        seqs.append(WeightedSequence(form=f, t=t, T=T, c0=c0, projection=projection,
                                     values=values, counts=counts, witnesses=witnesses,
                                     X=math.fsum(values.values()),
                                     a0=math.fsum(a0_parts), point_total=total))
    return seqs


def residual_Rd(seq: WeightedSequence, omega: LocalDensityTable, dmax: int) -> list[tuple]:
    """(d, nu(d), |A_d|, omega(d)/d X, R_d) for each square-free d <= dmax
    prime to the exceptional set, in increasing d.

    |A_d| is the fsum of a_n over d | n; fsum is correctly rounded, so the
    order of the values does not matter.  R_d = |A_d| - (omega(d)/d) X.
    """
    if omega.form != seq.form or omega.t != seq.t or omega.variant != seq.projection:
        raise DomainError("density table does not match the sequence "
                          f"(table: {omega.form.to_string()}, t={omega.t}, "
                          f"{omega.variant}; sequence: {seq.form.to_string()}, "
                          f"t={seq.t}, {seq.projection})")
    rows = []
    for d in range(1, dmax + 1):
        primes = squarefree_primes(d, BAD_SET)
        if primes is not None:
            mass = math.fsum(a for n, a in seq.values.items() if n % d == 0)
            expect = float(omega.omega_d(d)) * seq.X
            rows.append((d, len(primes), mass, expect, mass - expect))
    return rows


def level_statistic(rows: list[tuple], D: float) -> float:
    """sum of 4^nu(d) |R_d| over the `residual_Rd` rows with 1 < d < D.

    The rows must reach D - 1.  The canonical cutoff in the level condition
    is X^tau log^-A X; callers fold the log power into D.
    """
    if D <= 1:
        raise DomainError(f"D must exceed 1, got {D}")
    return math.fsum(4 ** nu * abs(r) for d, nu, _, _, r in rows if 1 < d < D)


def census(seq: WeightedSequence, r: int) -> tuple[float, int]:
    """(weighted mass, point count) of sequence entries that are almost prime.

    An index n qualifies when it has at most r prime factors outside the
    exceptional set, counted with multiplicity (the weighted-sieve
    convention).  n is the product of |x_i| over the projection's
    coordinates of its witness point, so that count is the sum of theirs,
    read from one smallest-prime-factor table up to the largest |x_i|.
    """
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    width = PROJECTIONS.index(seq.projection) + 1  # coordinates multiplied
    top = max((abs(v) for x in seq.witnesses.values() for v in x[:width]), default=1)
    spf = smallest_prime_factors(top)
    omega = [0] * (top + 1)  # omega[m]: prime factors of m outside B
    for m in range(2, top + 1):
        omega[m] = omega[m // spf[m]] + (spf[m] not in BAD_SET)
    qualifying = [n for n in sorted(seq.values)
                  if sum(omega[abs(v)] for v in seq.witnesses[n][:width]) <= r]
    weighted = math.fsum(seq.values[n] for n in qualifying)
    raw = sum(seq.counts[n] for n in qualifying)
    return weighted, raw


def _polar(f: TernaryForm, u, v) -> int:
    """u^T (2G) v: the integer polar form of f."""
    return (2 * f.a11 * u[0] * v[0] + 2 * f.a22 * u[1] * v[1]
            + 2 * f.a33 * u[2] * v[2]
            + f.a12 * (u[0] * v[1] + u[1] * v[0])
            + f.a13 * (u[0] * v[2] + u[2] * v[0])
            + f.a23 * (u[1] * v[2] + u[2] * v[1]))


def find_automorphs(f: TernaryForm, H: int) -> tuple:
    """All M with entries in [-H, H], M^T G M = G and det M = +1, sorted.

    The identity is always included.  Columns are searched independently
    against the diagonal and polar constraints, so the cost is governed by
    the number of vectors representing each diagonal value, not (2H+1)^9.
    """
    if H < 0:
        raise DomainError(f"H must be >= 0, got {H}")
    if (2 * H + 1) ** 3 > _MAX_BOX:
        raise ResourceError(f"height {H} needs a box of {(2 * H + 1) ** 3} vectors, "
                            f"more than the limit of {_MAX_BOX}")
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
    return tuple(sorted(found))
