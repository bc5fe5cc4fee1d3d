import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sievelab import arith, binary_forms, cli, lattice_points
from sievelab.arith import factorint, primes_up_to
from sievelab.errors import DomainError, ResourceError
from sievelab.binary_forms import (_factor_slices, _local_roots, _representations, _restored,
                                   _shortest_vectors)
from sievelab.lattice_points import (_MAX_SLICES, _projection_value, build_sequence, census,
                                     enumerate_orbits, enumerate_points, find_automorphs,
                                     level_statistic, residual_Rd, weight_FT)
from sievelab.localdata import BAD_SET, VARIANTS, build_local_table
from sievelab.quadforms import TernaryForm, det_form, eval_form, transform

DIAG113 = TernaryForm(1, 1, -3)

R3_POINTS = [(-2, 0, -1), (-2, 0, 1), (-1, 0, 0), (0, -2, -1), (0, -2, 1),
             (0, -1, 0), (0, 1, 0), (0, 2, -1), (0, 2, 1), (1, 0, 0),
             (2, 0, -1), (2, 0, 1)]

# Regression baselines, frozen from the first run verified against the
# exhaustive enumeration oracle (reference quadric, t=1, c0=2, projection x1).
X_T1000 = 5391.305969887667
A0_T1000 = 22.617489931997497
RD_BASELINES_T1000 = {
    11: -66.12532672476084,
    13: -77.48045140597105,
    17: -59.220103214681046,
    143: -26.929600249189146,
}
LEVEL_D30_T1000 = 1549.8575366154707
X_T2000 = 10929.629927237653
CENSUS_R0_T2000 = (3139.19583622924, 4050)
CENSUS_R6_T2000 = (10929.629927237653, 17306)
AUTOMORPH_COUNT_H3 = 40


def enumeration_oracle(f, t, R):
    """O(R^3) exhaustive triple loop, vectorized over the inner plane."""
    m = int(R)
    rng = np.arange(-m, m + 1, dtype=np.int64)
    x2, x3 = np.meshgrid(rng, rng, indexing="ij")
    out = []
    for x1 in rng:
        vals = (f.a11 * x1 * x1 + f.a22 * x2 * x2 + f.a33 * x3 * x3
                + f.a12 * x1 * x2 + f.a13 * x1 * x3 + f.a23 * x2 * x3)
        hit = (vals == t) & (x1 * x1 + x2 * x2 + x3 * x3 <= R * R)
        for i, j in zip(*np.nonzero(hit)):
            out.append((int(x1), int(x2[i, j]), int(x3[i, j])))
    return sorted(out)


def omega_B_count(n):
    """Prime factors of n outside the exceptional set, with multiplicity,
    from one factorint call: the oracle of the census's coordinate table."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return sum(e for p, e in factorint(n).items() if p not in BAD_SET)


def representations_oracle(a, b, c, n):
    """Every z with a z1^2 + b z1 z2 + c z2^2 = n, row by row over the
    ellipse: 4a q(z) = (2a z1 + b z2)^2 + |D| z2^2, so each z2 leaves one
    square root to test."""
    disc = 4 * a * c - b * b
    top = math.isqrt(4 * a * n // disc)
    out = set()
    for z2 in range(-top, top + 1):
        rad = 4 * a * n - disc * z2 * z2
        s = math.isqrt(rad)
        for root in {s, -s} if s * s == rad else ():
            if (root - b * z2) % (2 * a) == 0:
                out.add(((root - b * z2) // (2 * a), z2))
    return out


def lagrange_oracle(m, r, beta, gamma):
    """The vectors of norm m = X^2 + beta X Y + gamma Y^2 in the lattice X = r Y
    (mod m), up to sign, by Lagrange reduction.  Every norm there is a
    multiple of m and the Gram determinant is m^2 |D|/4, so norm m is reached
    by the reduced basis u, v and, for D = -3 only, by u - v or u + v as well."""
    u, nu = (r, 1), r * r + beta * r + gamma
    v, nv = (m, 0), m * m
    while True:
        if nu > nv:
            u, nu, v, nv = v, nv, u, nu
        polar = 2 * u[0] * v[0] + beta * (u[0] * v[1] + u[1] * v[0]) + 2 * gamma * u[1] * v[1]
        q = (polar + nu) // (2 * nu)
        if q == 0:
            break
        v = (v[0] - q * u[0], v[1] - q * u[1])
        nv = v[0] * v[0] + beta * v[0] * v[1] + gamma * v[1] * v[1]
    out = [w for w, nw in ((u, nu), (v, nv)) if nw == m]
    if len(out) == 2 and abs(polar) == m:
        sign = 1 if polar > 0 else -1
        out.append((u[0] - sign * v[0], u[1] - sign * v[1]))
    return out


def sequence_oracle(points, T, c0, projection):
    """(values, counts, X, a0) of build_sequence, weighing every
    point one by one; `points` come from `sweep_oracle` at radius c0 T, which
    shares no code with the orbits build_sequence weighs."""
    weights, a0 = {}, []
    for x in points:
        w = weight_FT(x, T, c0)
        if w > 0.0:
            n = _projection_value(x, projection)
            (weights.setdefault(n, []) if n else a0).append(w)
    values = {n: math.fsum(ws) for n, ws in sorted(weights.items())}
    x_mass = math.fsum(values[n] for n in sorted(values))
    counts = {n: len(ws) for n, ws in weights.items()}
    return values, counts, x_mass, math.fsum(a0)


def mass_oracle(seq, d):
    """|A_d| = sum of a_n over d | n, added in increasing n."""
    return math.fsum(seq.values[n] for n in sorted(seq.values) if n % d == 0)


def census_oracle(seq, r):
    """census(seq, r) with each value n factored on its own."""
    qualifying = [n for n in sorted(seq.values) if omega_B_count(n) <= r]
    return (math.fsum(seq.values[n] for n in qualifying),
            sum(seq.counts[n] for n in qualifying))


def sweep_oracle(f, t, R):
    """O(R^2) exact-integer sweep of the (x1, x2) disc, solving for x3.

    It shares nothing with the slicing (no frame, no factorization) and
    handles a33 = 0 directly, so it serves as the enumerator's oracle.
    """
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
            for num in {-b + s, -b - s}:
                if num % (2 * a) == 0:
                    x3 = num // (2 * a)
                    if x3 * x3 <= lim3:
                        out.append((x1, x2, x3))
    return sorted(set(out))


# The benchmark's form pool (sievebench/pool.py) and the reference form.
POOL_FORMS = [
    ("-2,-3,7,0,0,0", 1), ("-2,1,5,0,0,0", 3), ("-1,-2,7,0,0,0", -1),
    ("-1,2,3,0,0,0", 1), ("-1,3,-1,0,0,0", -1), ("-1,5,7,0,0,0", -2),
    ("1,-5,-3,0,0,0", -2), ("1,-3,-2,0,0,0", 1), ("1,-3,-2,0,0,0", 5),
    ("1,-2,-5,0,0,0", 1), ("1,-2,-3,0,0,0", -1), ("1,-2,5,0,0,0", 3),
    ("1,3,-2,0,0,0", 5), ("1,5,-3,0,0,0", -2), ("1,5,-2,0,0,0", 1),
    ("2,-3,-1,0,0,0", -1), ("2,5,-3,0,0,0", -1), ("3,-5,1,0,0,0", 2),
    ("3,-2,-7,0,0,0", 1), ("3,-1,-1,0,0,0", 1), ("-3,-1,1,2,0,2", 2),
    ("-2,-2,3,0,0,2", 5), ("-2,-1,1,0,-2,2", 1), ("-1,1,5,1,1,1", -1),
    ("-1,2,-7,2,0,0", 1), ("-1,2,-3,2,-2,0", 3), ("-1,2,-2,0,-2,2", -2),
    ("-1,2,-1,0,0,2", -2), ("-1,2,1,2,-2,0", 3), ("-1,2,5,2,0,0", 2),
    ("-1,2,5,2,0,2", 5), ("-1,5,-7,0,-2,0", -1), ("-1,5,-5,0,-2,2", -1),
    ("1,-5,7,0,-2,0", -1), ("1,-2,-5,2,-2,2", 5), ("1,-2,-2,2,0,2", 1),
    ("1,-2,-1,0,-2,2", -2), ("1,-1,5,-1,1,0", -1), ("1,2,-7,2,0,0", 3),
    ("1,3,-3,0,1,1", 3), ("1,3,-2,2,-2,2", -1), ("1,3,-1,2,-2,0", 1),
    ("2,-5,1,2,-2,0", 1), ("2,-1,-3,2,0,2", 3), ("2,1,-1,0,-2,2", 2),
    ("2,5,-2,1,1,1", 2), ("3,1,-5,-1,1,0", 3), ("3,2,-1,2,0,0", 2),
    ("1,1,-3,0,0,0", 1),
]


@st.composite
def forms(draw, kind):
    """A nondegenerate form of the given kind.

    definite: positive or negative definite; no_plane: no coordinate plane
    is definite (4 a_ii a_jj <= a_ij^2 for all three); cross: random with
    nonzero cross terms; sparse: each cross term 0 or not, so that f keeps
    the sign changes of 2, 4 or 8 elements; large: 10^9-scale coefficients,
    off by a small perturbation so the form is not a multiple of a small one.
    """
    small = st.integers(-6, 6)
    if kind == "definite":
        d = [draw(st.integers(1, 6)) for _ in range(3)]
        u = [[draw(st.integers(-2, 2)) for _ in range(3)] for _ in range(3)]
        u = [[u[i][j] + (i == j) * 3 for j in range(3)] for i in range(3)]
        g = transform(TernaryForm(*d), u)
        sign = draw(st.sampled_from((1, -1)))
        c = [sign * x for x in (g.a11, g.a22, g.a33, g.a12, g.a13, g.a23)]
    elif kind == "no_plane":
        d = [draw(small) for _ in range(3)]
        c = list(d)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            need = max(0, 4 * d[i] * d[j])
            least = math.isqrt(need) + (math.isqrt(need) ** 2 < need)
            c.append(draw(st.sampled_from((1, -1))) * (least + draw(st.integers(0, 2))))
    elif kind == "cross":
        c = ([draw(small) for _ in range(3)]
             + [draw(st.sampled_from([v for v in range(-6, 7) if v])) for _ in range(3)])
    elif kind == "sparse":
        c = [draw(small) for _ in range(3)] + [draw(st.sampled_from((0, 0, 1, -2, 3)))
                                               for _ in range(3)]
    else:
        scale = draw(st.integers(10 ** 9, 2 * 10 ** 9))
        c = [scale * draw(small) + draw(small) for _ in range(6)]
    f = TernaryForm(*c)
    assume(det_form(f) != 0)
    return f


TEN_FORMS = [
    DIAG113, TernaryForm(1, 1, -1), TernaryForm(1, 2, -5),
    TernaryForm(2, 3, -1), TernaryForm(1, 1, -3, 1, 0, 0),
    TernaryForm(1, 1, -1, 0, 1, 1), TernaryForm(0, 0, 0, 1, 1, 1),
    TernaryForm(0, 0, 2, 1, 0, 0), TernaryForm(2, -1, 0, 0, 1, 1),
    TernaryForm(1, -2, 3, 1, -1, 1),
]


class TestWeight:
    def test_plateau_and_support(self):
        assert weight_FT((0, 0, 0), 100.0, 2.0) == 1.0
        assert weight_FT((0, 0, 200), 100.0, 2.0) == 0.0  # |x| = c0*T
        assert weight_FT((30, 0, 0), 100.0, 2.0) == 1.0   # inside T/c0

    def test_midpoint_symmetry(self):
        T, c0 = 100.0, 2.0
        mid = (T / c0 + c0 * T) / 2.0
        assert weight_FT((mid, 0.0, 0.0), T, c0) == pytest.approx(0.5, abs=1e-12)

    def test_range(self):
        for r in (0, 60, 110, 151, 199, 260):
            w = weight_FT((r, 0, 0), 100.0, 2.0)
            assert 0.0 <= w <= 1.0

    def test_guards(self):
        with pytest.raises(DomainError):
            weight_FT((1, 0, 0), 5.0, 2.0)
        with pytest.raises(DomainError):
            weight_FT((1, 0, 0), 100.0, 1.0)

    @pytest.mark.parametrize("T,c0", [(math.nan, 2.0), (math.inf, 2.0),
                                      (100.0, math.nan), (100.0, math.inf),
                                      (1e308, 2.0)])
    def test_non_finite_rejected(self, T, c0):
        # NaN fails every comparison, so each guard is written to reject it
        with pytest.raises(DomainError):
            weight_FT((1, 0, 0), T, c0)
        with pytest.raises(DomainError):
            build_sequence(DIAG113, 1, [T], c0, "x1")


class TestEnumeration:
    def test_reference_ball(self):
        assert enumerate_points(DIAG113, 1, 3) == R3_POINTS

    def test_unit_ball(self):
        assert enumerate_points(DIAG113, 1, 1) == [(-1, 0, 0), (0, -1, 0),
                                                   (0, 1, 0), (1, 0, 0)]

    def test_t2_contains_expected(self):
        pts = enumerate_points(DIAG113, 2, 5)
        for x in ((1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0)):
            assert x in pts

    def test_all_points_satisfy_equation(self):
        for x in enumerate_points(DIAG113, 1, 20):
            assert eval_form(DIAG113, x) == 1

    @pytest.mark.parametrize("f", TEN_FORMS)
    def test_completeness_against_oracle(self, f):
        for t in (1, -2):
            for R in (12, 30):
                assert enumerate_points(f, t, R) == enumeration_oracle(f, t, R)

    def test_zero_t_rejected(self):
        with pytest.raises(DomainError):
            enumerate_points(DIAG113, 0, 5)

    @pytest.mark.parametrize("R", [math.nan, math.inf, -1.0])
    def test_bad_radius_rejected(self, R):
        with pytest.raises(DomainError):
            enumerate_points(DIAG113, 1, R)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError, match="degenerate"):
            enumerate_points(TernaryForm(1, 1, 0), 1, 5)

    def test_python_and_vector_paths_agree(self):
        # 10^9-scale coefficients: the slice equations exceed 64-bit integers
        big = 10 ** 9
        f = TernaryForm(big, big, -big)
        pts = enumerate_points(f, big, 4)
        assert pts == enumeration_oracle(f, big, 4)

    def test_integers_beyond_float_range(self):
        huge = 10 ** 400
        for f, t in ((TernaryForm(huge, 3 * huge + 1, -huge, huge, 0, 5), huge),
                     (DIAG113, huge), (DIAG113, -huge)):
            assert enumerate_points(f, t, 6) == sweep_oracle(f, t, 6)

    @pytest.mark.parametrize("form,t", POOL_FORMS)
    def test_pool_forms_against_sweep(self, form, t):
        f = TernaryForm.from_string(form)
        for tt in (t, -t, 3 * t, 7 * t):
            points = sweep_oracle(f, tt, 50)
            assert enumerate_points(f, tt, 50) == points
            assert sum(enumerate_orbits(f, tt, 50).values()) == len(points)

    @pytest.mark.parametrize("kind", ["definite", "no_plane", "cross", "sparse", "large"])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_property_against_sweep(self, kind, data):
        f = data.draw(forms(kind))
        x0 = data.draw(st.tuples(*[st.integers(-3, 3)] * 3))
        t = eval_form(f, x0) or data.draw(st.integers(1, 40))
        t *= data.draw(st.sampled_from((1, -1)))
        R = data.draw(st.sampled_from((0, 1, 2.5, 4, 7.5, 12, 20, 33)))
        assert enumerate_points(f, t, R) == sweep_oracle(f, t, R)


# The groups of sign changes of z that a slice can keep, as in
# `test_one_z_per_orbit_of_the_flips`; all but the first two need b = 0.
FLIP_GROUPS = [{(1, 1)}, {(1, 1), (-1, -1)}, {(1, 1), (1, -1)}, {(1, 1), (-1, 1)},
               {(1, 1), (-1, -1), (1, -1), (-1, 1)}]


class TestRepresentations:
    """`_representations` against a row-by-row search of the ellipse."""

    @staticmethod
    def solve(a, b, c, n, roots=None):
        return _representations(a, b, c, n, factorint(n), factorint(a),
                                {} if roots is None else roots, (0, 1, 2, 3))

    @pytest.mark.parametrize("a,b,c,ns", [
        (1, 1, 1, [1, 3, 7, 12, 49, 91, 2 * 7, 4 * 7, 9 * 13]),  # D = -3, a third pair
        (1, 0, 1, [1, 2, 25, 45, 15, 65, 4 * 3 * 3]),  # D = -4; 3 inert: 45 yes, 15 no
        (1, 1, 5, [5, 7, 2 * 7, 4 * 7, 8 * 5, 16 * 5, 11 * 17]),  # D = -19: 2 inert
        (1, 1, 2, [2, 4, 8, 22, 2 * 11 * 23, 7 * 7]),  # D = -7: 2 split
        (2, 1, 3, [2, 3, 6, 13, 27, 5 * 5 * 2, 2 * 29]),  # a = 2, D = -23, h = 3
        (3, 2, 5, [3, 5, 10, 14, 7 * 3, 9 * 5, 15]),  # a = 3, even b, D = -56
        (2, -2, 3, [2, 3, 5, 10, 5 * 5 * 3]),  # even b, a = 2, D = -20
        (4, 3, 7, [4, 7, 8, 14, 23 * 4]),  # odd b, a = 4, D = -103
    ])
    def test_cases(self, a, b, c, ns):
        roots = {}  # one memo per form, shared by its slices as in an enumeration
        for n in ns:
            assert self.solve(a, b, c, n, roots) == representations_oracle(a, b, c, n), n

    @pytest.mark.parametrize("flips,restore", [
        ({(1, 1)}, (0, 1, 2, 3)), ({(1, 1), (-1, -1)}, (0, 2)),
        ({(1, 1), (1, -1)}, (0, 1)), ({(1, 1), (-1, 1)}, (0, 1)),
        ({(1, 1), (-1, -1), (1, -1), (-1, 1)}, (0,))])
    def test_one_z_per_orbit_of_the_flips(self, flips, restore):
        # b = 0 takes every group of sign changes, b != 0 only +-1; the
        # restored z, with their images under the flips, are every z
        assert _restored(flips) == restore
        for a, b, c, ns in ((1, 0, 1, (1, 25, 65, 5 * 13 * 17)), (2, 0, 3, (5, 35, 11 * 5)),
                            (1, 1, 1, (1, 7, 91)), (2, 1, 3, (2, 6, 27))):
            if b and not flips <= {(1, 1), (-1, -1)}:
                continue
            for n in ns:
                found = _representations(a, b, c, n, factorint(n), factorint(a), {}, restore)
                oracle = representations_oracle(a, b, c, n)
                assert found <= oracle
                assert {(s1 * z1, s2 * z2) for s1, s2 in flips for z1, z2 in found} == oracle

    def test_inert_primes_cut_the_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(binary_forms, "crt_roots",
                            lambda local: calls.append(local) or arith.crt_roots(local))
        # an odd power of an inert prime leaves no choice of g with roots
        assert self.solve(1, 0, 1, 3 * 5) == set()   # 3 inert for D = -4
        assert self.solve(1, 1, 5, 2 * 7) == set()   # 2 inert for D = -19
        assert self.solve(1, 1, 5, 3 ** 3) == set()  # 3 inert for D = -19
        assert calls == []
        # an even power goes to g whole: one choice of g, not two
        assert self.solve(1, 0, 1, 9 * 5) == representations_oracle(1, 0, 1, 9 * 5)
        assert len(calls) == 1

    @pytest.mark.parametrize("beta", [0, 1])
    def test_local_roots_against_brute_force(self, beta):
        # D = p^k u = beta (mod 4) for k <= e + 1: D prime to p (k = 0, u prime
        # to p), divisible by p to an odd or even power below e, and D = 0 mod p^e
        for p in primes_up_to(11):
            for e in range(1, 6):
                q = p ** e
                roots = {}  # r^2 + beta r mod q -> every r in [0, q)
                for r in range(q):
                    roots.setdefault((r * r + beta * r) % q, []).append(r)
                discs = {p ** k * u for k in range(e + 2) for u in range(-12, 13)
                         if p ** k * u % 4 == beta}
                for disc in discs:
                    gamma = (beta - disc) // 4
                    assert sorted(_local_roots(p, e, beta, disc, {})) == roots.get(-gamma % q, []), (
                        p, e, disc)

    # 750 examples: the two groups of +-1 alone keep the drawn b, in about
    # 300 of them; the other three set b = 0
    @settings(max_examples=750, deadline=None, derandomize=True, database=None)
    @given(a=st.integers(1, 7), b=st.integers(-9, 9), c=st.integers(1, 15),
           ns=st.lists(st.integers(1, 3000), min_size=1, max_size=6),
           square=st.sampled_from((1, 4, 9, 25, 49)), flips=st.sampled_from(FLIP_GROUPS))
    def test_against_row_search(self, a, b, c, ns, square, flips):
        if not flips <= {(1, 1), (-1, -1)}:
            b = 0  # only b = 0 keeps a sign change of one coordinate
        assume(b * b < 4 * a * c)
        restore, roots = _restored(flips), {}
        for n in ns:
            for m in (n, square * n):
                n_factors, inflation = factorint(m), factorint(a)
                copies = dict(n_factors), dict(inflation)
                found = _representations(a, b, c, m, n_factors, inflation, roots, restore)
                # with a = 1 the solver works on n_factors itself: it must not write to it
                assert (n_factors, inflation) == copies
                oracle = representations_oracle(a, b, c, m)
                assert found <= oracle
                assert {(s1 * z1, s2 * z2) for s1, s2 in flips for z1, z2 in found} == oracle

    @pytest.mark.parametrize("disc", [-3, -4, -7, -19, -20, -23, -56, -103])
    def test_shortest_vectors_against_lagrange(self, disc):
        # every root r of r^2 + beta r + gamma mod m for m <= 400, m = 1 and
        # m with square factors among them; the vector sets agree up to sign
        beta = disc % 2
        gamma = (beta - disc) // 4
        hits = 0
        for m in range(1, 401):
            for r in range(m):
                if (r * r + beta * r + gamma) % m:
                    continue
                found = _shortest_vectors(m, r, beta, gamma)
                up_to_sign = {max(w, (-w[0], -w[1])) for w in found}
                assert len(up_to_sign) == len(found), (m, r)
                assert up_to_sign == {max(w, (-w[0], -w[1]))
                                      for w in lagrange_oracle(m, r, beta, gamma)}, (m, r)
                hits += bool(found)
        assert hits > 10

    def test_every_reduction_hits_on_a_class_number_one_frame(self, monkeypatch):
        # 1,-1,5,-1,1,0 has the frame x^2 + xy + 5y^2, D = -19, h(-19) = 1:
        # in the maximal order every Gauss reduction finds a vector (the
        # order of discriminant -76, h = 3, found one in three)
        calls = []
        reduce = binary_forms._shortest_vectors
        monkeypatch.setattr(binary_forms, "_shortest_vectors",
                            lambda *args: calls.append(reduce(*args)) or calls[-1])
        enumerate_points(TernaryForm.from_string("1,-1,5,-1,1,0"), -1, 600)
        assert len(calls) == 971 and all(calls)


def sieve_oracle(n0, m0, ks, a, b, c):
    """`_factor_slices` on (n0, m0, ks) checked slice by slice: a kept slice
    carries the factorization of n_k / g, g = gcd(a, b, c), in a dict of its
    own that `_representations` leaves as it is, and a dropped one
    has no representation (by the row search up to n_k = 10^6, past it by
    `_representations`, itself checked against the row search)."""
    g = math.gcd(a, b, c)
    roots = {}
    kept = _factor_slices(n0, m0, ks, a, b, c, roots)
    assert len({id(factors) for factors in kept.values()}) == len(kept)  # a dict per slice
    inflation = factorint(a // g)
    for k in ks:
        n = n0 - k * k * m0
        if k in kept:
            assert kept[k] == factorint(n // g), k
            # the solver, as the enumeration calls it, leaves both factorizations alone
            _representations(a // g, b // g, c // g, n // g, kept[k], inflation, roots, (0,))
            assert kept[k] == factorint(n // g) and inflation == factorint(a // g), k
        elif n <= 10 ** 6:
            assert representations_oracle(a, b, c, n) == set(), k
        elif n % g == 0:
            assert TestRepresentations.solve(a // g, b // g, c // g, n // g) == set(), k
    return kept


# Binary forms for the slice sieve: D = -4, -3, -19 (2 inert), -23 (h = 3),
# -56 (two classes per genus), -20 (4 | D); content 2, 3 and 6.
SIEVE_FORMS = [(1, 0, 1), (1, 1, 1), (1, 1, 5), (2, 1, 3), (3, 2, 5), (2, 2, 3),
               (2, 0, 2), (3, 3, 3), (6, 0, 6)]


class TestSliceSieve:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(common=st.sampled_from((1, 2, 3, 4, 12, 49)), m0=st.integers(-40, 40),
           n0=st.one_of(st.integers(-10 ** 4, 10 ** 4), st.integers(10 ** 9, 10 ** 15)),
           ks=st.lists(st.integers(0, 300), max_size=40, unique=True),
           form=st.sampled_from(SIEVE_FORMS))
    def test_against_factorint(self, common, m0, n0, ks, form):
        # common > 1 makes every prime of it divide m0 and n0 alike
        n0, m0 = common * n0, common * m0
        sieve_oracle(n0, m0, [k for k in ks if n0 - k * k * m0 >= 1], *form)

    @pytest.mark.parametrize("n0,m0", [
        (1, -3),      # the reference frame: n_k = 1 + 3 k^2, p = 2 hits odd k
        (30, -42),    # 2, 3 divide m0 and n0: every slice; 7 | m0 only: none
        (5, -20),     # 5 | gcd(n0, m0) and 2 | m0 alone
        (-2, -6),     # n0 < 0: the slices start at k = 1
        (7, 0),       # m0 = 0: every slice is n0
    ])
    def test_full_range(self, n0, m0):
        ks = [k for k in range(400) if n0 - k * k * m0 >= 1]
        for form in ((1, 0, 1), (1, 1, 5), (2, 1, 3), (6, 0, 6)):
            sieve_oracle(n0, m0, ks, *form)

    def test_capped_bound_hands_cofactors_to_factorint(self, monkeypatch):
        # two slices cap B at 16, far below sqrt(n_k), so factorint splits
        # what the sieve leaves above 16^2 (both slices are sums of two squares)
        calls = []
        monkeypatch.setattr(binary_forms, "factorint",
                            lambda n: calls.append(n) or factorint(n))
        n0, m0 = 1000033 * 1000121 * 2, -2
        assert _factor_slices(n0, m0, [0, 1], 1, 0, 1, {}) == {
            0: factorint(n0), 1: factorint(n0 + 2)}
        assert calls and all(n > 16 ** 2 for n in calls)

    def test_inert_primes_cut_the_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(binary_forms, "factorint",
                            lambda n: calls.append(n) or factorint(n))
        big = 1000003 * 1000033  # above B^2 = 8^2: the cofactor goes to factorint
        # an odd power of an inert prime drops the slice in the sieve, before
        # its cofactor is factored
        assert _factor_slices(15 * big, 0, [0], 1, 0, 1, {}) == {}  # 3 inert, D = -4
        assert _factor_slices(14 * big, 0, [0], 1, 1, 5, {}) == {}  # 2 inert, D = -19
        assert _factor_slices(27 * big, 0, [0], 1, 1, 5, {}) == {}  # 3 inert, D = -19
        assert calls == []
        # 3^2 passes; 1000003 and 1000039 are inert for D = -4, so the slice
        # drops once its cofactor is factored
        inert = 1000003 * 1000039
        assert _factor_slices(9 * inert, 0, [0], 1, 0, 1, {}) == {}
        assert calls == [inert]
        assert _factor_slices(45, 0, [0], 1, 0, 1, {}) == {0: {3: 2, 5: 1}}

    def test_refuses_slices_below_one(self):
        # the frame of 1,-3,-2,0,0,0 at t = 1: n_k = k^2 - 1 is -1 at k = 0
        # and 0 at k = 1, which the sieve would divide by 2 forever
        with pytest.raises(DomainError, match="n_k = -1"):
            _factor_slices(-1, -1, [0, 1, 2], 2, 0, 3, {})
        with pytest.raises(DomainError, match="n_k = 0"):
            _factor_slices(-1, -1, list(range(1, 60)), 2, 0, 3, {})

    def test_each_verdict_is_looked_up_once(self, monkeypatch):
        # n_k = 6 + k^2 on x^2 + y^2 (D = -4): inert 3 divides n_k once for
        # every k = 0 (mod 3), split 5 divides it to an odd power for k = 2, 3
        # (mod 5); both reach several slices that pass the test modulo 8
        n0, m0, ks = 6, -1, list(range(60))
        bound = math.isqrt(n0 - ks[-1] ** 2 * m0)  # below 8 |ks|: the sieve's B
        odd = {p: [k for k in ks if (n0 + k * k) % 8 in (0, 1, 2, 4, 5)
                   and factorint(n0 + k * k).get(p, 0) % 2] for p in (3, 5)}
        assert len(odd[3]) > 1 and len(odd[5]) > 1
        kept = sieve_oracle(n0, m0, ks, 1, 0, 1)
        assert not set(odd[3]) & set(kept) and set(odd[5]) & set(kept)
        calls = []
        monkeypatch.setattr(binary_forms, "_local_roots",
                            lambda p, e, *args: calls.append((p, e)) or _local_roots(p, e, *args))
        assert _factor_slices(n0, m0, ks, 1, 0, 1, {}) == kept
        sieved = [p for p, e in calls if e == 1 and p <= bound]
        assert {3, 5} <= set(sieved) and len(sieved) == len(set(sieved))

    @pytest.mark.parametrize("form,t", POOL_FORMS)
    def test_dropped_slices_have_no_representation(self, form, t, monkeypatch):
        seen = []
        sieve = lattice_points._factor_slices
        monkeypatch.setattr(lattice_points, "_factor_slices",
                            lambda *args: seen.append(args[:6]) or sieve(*args))
        enumerate_points(TernaryForm.from_string(form), t, 200)
        [(n0, m0, ks, a, b, c)] = seen
        assert len(sieve_oracle(n0, m0, ks, a, b, c)) < len(ks)

    # definite and 10^9-scale forms solve no slice at these radii: their
    # slices are all scanned row by row
    @pytest.mark.parametrize("kind", ["no_plane", "cross"])
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_dropped_slices_have_no_representation_on_random_forms(self, kind, data):
        f = data.draw(forms(kind))
        x0 = data.draw(st.tuples(*[st.integers(-3, 3)] * 3))
        t = (eval_form(f, x0) or data.draw(st.integers(1, 40))) * data.draw(
            st.sampled_from((1, -1)))
        seen = []
        sieve = lattice_points._factor_slices
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice_points, "_factor_slices",
                       lambda *args: seen.append(args[:6]) or sieve(*args))
            enumerate_points(f, t, data.draw(st.sampled_from((40, 90))))
        for args in seen:
            sieve_oracle(*args)

    def test_no_dead_slice_reaches_the_solver(self, monkeypatch):
        # the drift frame x^2 + y^2 (h(-4) = 1, the maximal order): the local
        # tests are exact, so every slice the sieve keeps has a representation
        kept, solved = [], []
        sieve, solve = lattice_points._factor_slices, lattice_points._representations
        monkeypatch.setattr(lattice_points, "_factor_slices",
                            lambda *args: solved.append(len(args[2])) or sieve(*args))
        monkeypatch.setattr(lattice_points, "_representations",
                            lambda *args: kept.append(solve(*args)) or kept[-1])
        enumerate_points(TernaryForm.from_string("1,-2,-1,0,-2,2"), -2, 1000)
        assert solved == [991] and len(kept) == 342 and all(kept)

    def test_empty(self):
        assert _factor_slices(1, -3, [], 1, 0, 1, {}) == {}


class TestWorkGuard:
    def test_refuses_too_many_slices(self):
        with pytest.raises(ResourceError, match="slices"):
            enumerate_points(DIAG113, 1, 1e9)
        with pytest.raises(ResourceError, match="slices"):
            enumerate_points(DIAG113, 1, 1e200)  # R^2 overflows a float

    def test_refuses_too_many_points(self, monkeypatch, capsys):
        monkeypatch.setattr(lattice_points, "_MAX_POINTS", 200)
        assert len(enumerate_points(DIAG113, 1, 40)) == 156
        with pytest.raises(ResourceError, match="more than 200 points"):
            enumerate_points(DIAG113, 1, 300)  # 1236 points
        assert cli.main(["enumerate", "--form", "1,1,-3,0,0,0", "--t", "1",
                         "--R", "300"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: radius 300 holds more than 200")

    def test_points_limit_counts_the_points_kept(self, monkeypatch):
        # R = 40 holds 156 points, (+-1, 0, 0) and (0, +-1, 0) on y3 = 0 among them
        monkeypatch.setattr(lattice_points, "_MAX_POINTS", 156)
        assert len(enumerate_points(DIAG113, 1, 40)) == 156
        monkeypatch.setattr(lattice_points, "_MAX_POINTS", 155)
        with pytest.raises(ResourceError, match="more than 155 points"):
            enumerate_points(DIAG113, 1, 40)


class TestContent:
    def test_scaled_form_solves_like_the_reference(self, monkeypatch):
        # 3600 (x^2 + y^2 - 3 z^2) = 3600: the content 3600 of the binary part
        # is divided out, so every slice solves as the reference form's does
        calls = []
        reduce = binary_forms._shortest_vectors
        monkeypatch.setattr(binary_forms, "_shortest_vectors",
                            lambda *args: calls.append(args) or reduce(*args))
        reference = enumerate_points(DIAG113, 1, 500)
        reference_calls, calls[:] = list(calls), []
        scaled = TernaryForm(3600, 3600, -10800)
        assert enumerate_points(scaled, 3600, 500) == reference
        assert calls == reference_calls and len(calls) == 135

    def test_solved_path_at_scale_1e9(self, monkeypatch):
        # 10^9 (x^2 + y^2 - z^2) = 10^9 with no slice scanned: each solved
        # slice n_k = 10^9 (1 + k^2) reduces to 1 + k^2 after the content
        big = 10 ** 9
        f = TernaryForm(big, big, -big)
        monkeypatch.setattr(lattice_points, "_SCAN_ROWS", 0)
        solved, calls = [], []
        factor, reduce = lattice_points._factor_slices, binary_forms._shortest_vectors
        monkeypatch.setattr(lattice_points, "_factor_slices",
                            lambda n0, m0, ks, *args: solved.extend(ks) or factor(n0, m0, ks, *args))
        monkeypatch.setattr(binary_forms, "_shortest_vectors",
                            lambda *args: calls.append(args) or reduce(*args))
        points = enumerate_points(f, big, 4)
        assert points == enumeration_oracle(f, big, 4)
        assert solved == sorted({abs(x[2]) for x in points}) == [0, 1, 2]
        assert len(calls) == 3

    @pytest.mark.parametrize("form,count", [((1, -3, -2), 174), ((1, -2, -5), 118)])
    def test_slice_at_n_k_zero_is_scanned(self, form, count, monkeypatch):
        # with every slice routed to the sieve but n_k = 0, the slice k = 1 of
        # these pool forms (t = 1) still goes to the row scan: its one point
        # is z = 0
        monkeypatch.setattr(lattice_points, "_SCAN_ROWS", 0)
        f = TernaryForm(*form)
        points = enumerate_points(f, 1, 60)
        assert points == sweep_oracle(f, 1, 60) and len(points) == count

    def test_slices_the_content_does_not_divide_have_no_point(self):
        # 2 (x^2 + y^2) - z^2 = 1: n_k = 1 + k^2 is even only for odd k
        assert _factor_slices(1, -1, [0, 1, 2, 3], 2, 0, 2, {}) == {1: {}, 3: {5: 1}}
        f = TernaryForm(2, 2, -1)
        for t in (1, 7, -2):
            assert enumerate_points(f, t, 60) == sweep_oracle(f, t, 60)


class TestOrbits:
    def test_reference_ball(self):
        assert enumerate_orbits(DIAG113, 1, 3) == {(0, 1, 0): 2, (0, 2, 1): 4,
                                                   (1, 0, 0): 2, (2, 0, 1): 4}

    def test_pairs_on_a_form_with_two_sign_changes(self):
        # the drift form keeps only +-I: one orbit per pair +-x, under its
        # lexicographically positive sign
        f = TernaryForm.from_string("1,-2,-1,0,-2,2")
        orbits = enumerate_orbits(f, -2, 300)
        assert sorted(orbits) == [x for x in enumerate_points(f, -2, 300) if x > (0, 0, 0)]
        assert set(orbits.values()) == {2}

    @pytest.mark.parametrize("form,t,R,count,calls,emitted", [
        ("1,1,-3,0,0,0", 1, 2000, 1088, 362, 1072),  # 8 sign changes: 4,272 z with +-I alone
        ("1,-2,-1,0,-2,2", -2, 1000, 2573, 342, 5312),  # +-I only: as many z as before
    ])
    def test_work_count(self, form, t, R, count, calls, emitted, monkeypatch):
        sizes = []
        solve = lattice_points._representations
        monkeypatch.setattr(lattice_points, "_representations",
                            lambda *args: sizes.append(len(solve(*args))) or solve(*args))
        assert len(enumerate_orbits(TernaryForm.from_string(form), t, R)) == count
        assert len(sizes) == calls and sum(sizes) == emitted


def signed_permutations():
    """A strategy for 3 x 3 signed permutation matrices."""
    return st.builds(lambda perm, signs: [[signs[i] * (perm[i] == j) for j in range(3)]
                                          for i in range(3)],
                     st.permutations(range(3)), st.tuples(*[st.sampled_from((1, -1))] * 3))


class TestInvariance:
    """Points and counts move with a change of variables; signed permutations
    also move the slice normal and frame, and with them E_U."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), p=signed_permutations())
    def test_signed_permutation(self, data, p):
        f = data.draw(forms(data.draw(st.sampled_from(("sparse", "cross", "definite")))))
        x0 = data.draw(st.tuples(*[st.integers(-3, 3)] * 3))
        t = eval_form(f, x0) or data.draw(st.integers(1, 40))
        g = transform(f, p)  # g(y) = f(P y), so y = P^T x
        moved = sorted(tuple(sum(p[i][j] * x[i] for i in range(3)) for j in range(3))
                       for x in enumerate_points(f, t, 30))
        assert enumerate_points(g, t, 30) == moved
        [a], [b] = (build_sequence(h, t, [12.5], 2.0, "x1x2x3") for h in (f, g))
        assert (a.values, a.counts, a.X, a.a0) == (b.values, b.counts, b.X, b.a0)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), steps=st.lists(st.tuples(st.sampled_from(
        [(i, j) for i in range(3) for j in range(3) if i != j]), st.integers(-3, 3)),
        min_size=1, max_size=6))
    def test_local_counts_under_a_unimodular_change(self, data, steps):
        f = data.draw(forms(data.draw(st.sampled_from(("sparse", "cross", "definite")))))
        t = data.draw(st.integers(-30, 30).filter(bool))
        u = [[int(i == j) for j in range(3)] for i in range(3)]
        for (i, j), q in steps:  # column j += q column i
            for row in u:
                row[j] += q * row[i]
        before = build_local_table(f, t, "x1", 60)
        after = build_local_table(transform(f, u), t, "x1", 60)
        assert ({p: e.count_V for p, e in before.entries.items()}
                == {p: e.count_V for p, e in after.entries.items()})


class TestBuildSequence:
    def test_small_scale_values(self):
        [seq] = build_sequence(DIAG113, 1, [10.0], 2.0, "x1")
        assert seq.values[1] >= 2.0  # (+-1, 0, 0) carry weight 1
        assert 0 not in seq.values

    @pytest.mark.parametrize("projection,degree", [("x1", 1), ("x1x2", 2),
                                                   ("x1x2x3", 3)])
    def test_support_bound(self, projection, degree):
        [seq] = build_sequence(DIAG113, 1, [15.0], 2.0, projection)
        bound = (2.0 * 15.0) ** degree
        assert all(n < bound for n in seq.values)
        assert seq.X > 0

    def test_partition_identity(self):
        # total weighted mass splits into X plus the zero-projection mass
        [seq] = build_sequence(DIAG113, 1, [50.0], 2.0, "x1")
        pts = enumerate_points(DIAG113, 1, 100.0)
        total = math.fsum(weight_FT(x, 50.0, 2.0) for x in pts)
        assert seq.X + seq.a0 == pytest.approx(total, abs=1e-9)

    def test_budget_guard(self, monkeypatch):
        [seq] = build_sequence(DIAG113, 1, [8000.0], 2.0, "x1")  # c0*T = 16,000
        assert seq.X > 0
        # DIAG113 slices along a coordinate normal: c0*T + 2 slices
        sieved = []
        monkeypatch.setattr(lattice_points, "_factor_slices",
                            lambda *args: sieved.append(args) or {})
        with pytest.raises(ResourceError, match="slices"):
            build_sequence(DIAG113, 1, [_MAX_SLICES / 2], 2.0, "x1")
        assert sieved == []  # refused before any slice is solved

    def test_guards(self):
        with pytest.raises(DomainError):
            build_sequence(DIAG113, 1, [9.0], 2.0, "x1")
        with pytest.raises(DomainError):
            build_sequence(DIAG113, 1, [100.0], 0.5, "x1")
        with pytest.raises(DomainError):
            build_sequence(DIAG113, 1, [100.0], 2.0, "x7")

    def test_determinism(self):
        [a] = build_sequence(DIAG113, 1, [80.0], 2.0, "x1")
        [b] = build_sequence(DIAG113, 1, [80.0], 2.0, "x1")
        assert a.values == b.values and a.X == b.X


def assert_sequence_matches_sweep(f, t, T, c0=2.0):
    """build_sequence in every projection equals `sequence_oracle` on the
    sweep's points, bit for bit."""
    points = sweep_oracle(f, t, c0 * T)
    for projection in VARIANTS:
        [seq] = build_sequence(f, t, [T], c0, projection)
        assert (seq.values, seq.counts, seq.X, seq.a0) == sequence_oracle(
            points, T, c0, projection), (f, t, T, projection)


class TestSequenceOracles:
    def test_build_sequence_against_point_by_point(self):
        # every pool form, each of its points weighed one by one; the
        # reference form's orbits at (+-1, 0, 0) and (0, +-1, 0) hold 2 points
        assert enumerate_orbits(DIAG113, 1, 20)[1, 0, 0] == 2
        for form, t in POOL_FORMS:
            for T in (10.0, 23.5, 40.0, 61.0):
                assert_sequence_matches_sweep(TernaryForm.from_string(form), t, T)

    @pytest.mark.parametrize("kind", ["definite", "no_plane", "cross", "sparse"])
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_build_sequence_against_point_by_point_on_random_forms(self, kind, data):
        f = data.draw(forms(kind))
        x0 = data.draw(st.tuples(*[st.integers(-3, 3)] * 3))
        t = (eval_form(f, x0) or data.draw(st.integers(1, 40))) * data.draw(
            st.sampled_from((1, -1)))
        assert_sequence_matches_sweep(f, t, data.draw(st.sampled_from((10.0, 17.3, 26.0))))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(form=st.sampled_from(POOL_FORMS), projection=st.sampled_from(VARIANTS),
           T=st.sampled_from((10.0, 17.3, 30.0, 45.5)), c0=st.sampled_from((1.5, 2.0, 3.0)))
    def test_T_cut_from_the_2T_enumeration(self, form, projection, T, c0):
        f = TernaryForm.from_string(form[0])
        at_T, at_2T = build_sequence(f, form[1], [T, 2 * T], c0, projection)
        assert [at_T] == build_sequence(f, form[1], [T], c0, projection)
        assert [at_2T] == build_sequence(f, form[1], [2 * T], c0, projection)

    def test_one_enumeration_for_both(self, monkeypatch):
        radii = []
        monkeypatch.setattr(lattice_points, "enumerate_orbits",
                            lambda f, t, R: radii.append(R) or enumerate_orbits(f, t, R))
        build_sequence(DIAG113, 1, [50.0, 100.0], 2.0, "x1")
        assert radii == [200.0]


class TestResiduals:
    def test_d1_exactly_zero(self, seq_cache, ref_table):
        [(d, _, _, _, r)] = residual_Rd(seq_cache(1000), ref_table, 1)
        assert d == 1 and r == 0.0

    def test_frozen_baselines(self, seq_cache, ref_table):
        seq = seq_cache(1000)
        assert seq.X == pytest.approx(X_T1000, abs=1e-9)
        assert seq.a0 == pytest.approx(A0_T1000, abs=1e-9)
        residuals = {d: r for d, *_, r in residual_Rd(seq, ref_table, 143)}
        for d, expected in RD_BASELINES_T1000.items():
            assert residuals[d] == pytest.approx(expected, abs=1e-9), d

    def test_rejects_mismatched_table(self, seq_cache):
        other = build_local_table(DIAG113, 1, "x1x2", 50)
        with pytest.raises(DomainError):
            residual_Rd(seq_cache(1000), other, 11)

    @pytest.mark.parametrize("projection", VARIANTS)
    def test_rows_against_sorted_mass_oracle(self, projection):
        # every row, bit for bit, over the square-free moduli prime to B
        for form, t in POOL_FORMS:
            f = TernaryForm.from_string(form)
            [seq] = build_sequence(f, t, [100.0], 2.0, projection)
            table = build_local_table(f, t, projection, 200)
            for dmax in (1, 30, 200):
                rows = residual_Rd(seq, table, dmax)
                moduli = [d for d in range(1, dmax + 1) if all(
                    e == 1 and p not in BAD_SET for p, e in factorint(d).items())]
                assert [row[0] for row in rows] == moduli
                for d, nu, mass, expect, r in rows:
                    assert nu == len(factorint(d))
                    assert mass == mass_oracle(seq, d), (form, t, d)
                    assert expect == float(table.omega_d(d)) * seq.X
                    assert r == mass - expect


class TestLevelStatistic:
    def test_tiny_cutoff_is_zero(self, seq_cache, ref_table):
        assert level_statistic(residual_Rd(seq_cache(1000), ref_table, 30), 2.0) == 0.0

    def test_frozen_baseline(self, seq_cache, ref_table):
        stat = level_statistic(residual_Rd(seq_cache(1000), ref_table, 30), 30.0)
        assert stat == pytest.approx(LEVEL_D30_T1000, abs=1e-9)

    def test_ratio_does_not_grow_with_T(self, seq_cache, ref_table):
        ratio500 = (level_statistic(residual_Rd(seq_cache(500), ref_table, 30), 30.0)
                    / seq_cache(500).X)
        ratio1000 = (level_statistic(residual_Rd(seq_cache(1000), ref_table, 30), 30.0)
                     / seq_cache(1000).X)
        assert ratio1000 <= 2.0 * ratio500

    def test_guard(self, seq_cache, ref_table):
        with pytest.raises(DomainError):
            level_statistic(residual_Rd(seq_cache(1000), ref_table, 30), 1.0)


class TestAlmostPrimeCounting:
    def test_examples(self):
        assert omega_B_count(12) == 0
        assert omega_B_count(143) == 2
        assert omega_B_count(121) == 2
        assert omega_B_count(1) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            omega_B_count(0)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(form=st.sampled_from(POOL_FORMS), projection=st.sampled_from(VARIANTS),
           r=st.integers(0, 8))
    def test_census_against_per_value_oracle(self, form, projection, r):
        [seq] = build_sequence(TernaryForm.from_string(form[0]), form[1], [40.0], 2.0,
                               projection)
        assert seq.witnesses.keys() == seq.counts.keys()
        assert all(_projection_value(x, projection) == n
                   for n, x in seq.witnesses.items())
        assert census(seq, r) == census_oracle(seq, r)

    def test_census_factors_no_value(self, monkeypatch):
        calls = []
        for module in (arith, binary_forms, lattice_points):
            monkeypatch.setattr(module, "factorint",
                                lambda n: calls.append(n) or factorint(n))
        assert cli.main(["census", "--form", "1,1,-3,0,0,0", "--t", "1", "--T", "300",
                         "--projection", "x1x2x3"]) == 0
        assert len(calls) <= 3  # the frame's inflation and any huge cofactor

    def test_census_monotone_and_exhaustive(self, seq_cache):
        seq = seq_cache(2000)
        values = [census(seq, r)[0] for r in (0, 1, 2, 3, 6, 64)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(seq.X, abs=1e-12)

    def test_frozen_baselines(self, seq_cache):
        seq = seq_cache(2000)
        w0, raw0 = census(seq, 0)
        w6, raw6 = census(seq, 6)
        assert w0 == pytest.approx(CENSUS_R0_T2000[0], abs=1e-9)
        assert raw0 == CENSUS_R0_T2000[1]
        assert w6 == pytest.approx(CENSUS_R6_T2000[0], abs=1e-9)
        assert raw6 == CENSUS_R6_T2000[1]

    def test_domain(self, seq_cache):
        with pytest.raises(DomainError):
            census(seq_cache(2000), -1)


class TestAutomorphs:
    def test_height_zero_identity_only(self):
        assert find_automorphs(DIAG113, 0) == (((1, 0, 0), (0, 1, 0), (0, 0, 1)),)

    def test_even_sign_flips_present(self):
        gens = set(find_automorphs(DIAG113, 1))
        assert ((1, 0, 0), (0, 1, 0), (0, 0, 1)) in gens
        assert ((-1, 0, 0), (0, -1, 0), (0, 0, 1)) in gens
        assert ((-1, 0, 0), (0, 1, 0), (0, 0, -1)) in gens
        assert ((1, 0, 0), (0, -1, 0), (0, 0, -1)) in gens

    def test_all_verify_exactly(self):
        autos = find_automorphs(DIAG113, 3)
        assert len(autos) == AUTOMORPH_COUNT_H3
        for m in autos:
            u = [list(row) for row in m]
            assert transform(DIAG113, u) == DIAG113
            det = (u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
                   - u[0][1] * (u[1][0] * u[2][2] - u[1][2] * u[2][0])
                   + u[0][2] * (u[1][0] * u[2][1] - u[1][1] * u[2][0]))
            assert det == 1

    def test_pell_type_fixing_first_coordinate(self):
        gens = find_automorphs(DIAG113, 3)
        pell = [m for m in gens
                if (m[0][0], m[1][0], m[2][0]) == (1, 0, 0)
                and max(abs(e) for row in m for e in row) >= 2]
        assert pell, "expected a hyperbolic automorph acting on (x2, x3)"


class TestCsvExports:
    def test_points_csv(self, capsys):
        # points are rendered by the CLI's one emitter
        assert cli.main(["enumerate", "--form", "1,1,-3,0,0,0", "--t", "1",
                         "--R", "3", "--T", "100", "--c0", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x1,x2,x3,weight"
        assert len(lines) == 1 + len(R3_POINTS)
        assert lines[3] == "-1,0,0,1"
