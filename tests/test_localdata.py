from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab.arith import legendre_raw, primes_up_to
from sievelab.errors import DomainError, ResourceError
from sievelab.localdata import (BAD_SET, SIEVED, VARIANTS, LocalDensityTable,
                                _count, _principal_minors, build_local_table)
from sievelab.quadforms import TernaryForm, eval_form

DIAG113 = TernaryForm(1, 1, -3)
CROSS = TernaryForm(1, 1, -3, 1, 0, 1)
ODD_PRIMES_TO_61 = primes_up_to(61)[1:]


def _count_bruteforce(f: TernaryForm, t: int, p: int,
                      variant: str | None = None) -> int:
    """O(p^3) exhaustive count of f = t mod p (sieved product 0 with a variant)."""
    prod = {None: None, "x1": 1, "x1x2": 2, "x1x2x3": 3}[variant]
    total = 0
    for x1 in range(p):
        for x2 in range(p):
            for x3 in range(p):
                if eval_form(f, (x1, x2, x3)) % p != t % p:
                    continue
                if prod is None:
                    total += 1
                else:
                    value = (x1, x1 * x2, x1 * x2 * x3)[prod - 1]
                    total += value % p == 0
    return total


def _count_sweep(f: TernaryForm, t: int, p: int, variant: str | None = None) -> int:
    """O(p^2) count for odd p: for fixed (x1, x2) the equation is a quadratic
    (or linear) in x3 whose root count is read off a residue table."""
    chi = [-1] * p
    chi[0] = 0
    for y in range(1, p):
        chi[y * y % p] = 1

    def roots(a, b, c):
        if a % p == 0:
            if b % p == 0:
                return p if c % p == 0 else 0
            return 1
        return 1 + chi[(b * b - 4 * a * c) % p]

    total = 0
    for x1 in range(p):
        for x2 in range(p):
            b = (f.a13 * x1 + f.a23 * x2) % p
            c = (f.a11 * x1 * x1 + f.a22 * x2 * x2 + f.a12 * x1 * x2 - t) % p
            if variant is None or x1 == 0 or (variant != "x1" and x2 == 0):
                total += roots(f.a33, b, c)
            elif variant == "x1x2x3":
                total += c == 0  # only x3 = 0 makes the product vanish
    return total


def _tables(f: TernaryForm, t: int, p_max: int) -> dict:
    """build_local_table's entries for every variant, keyed by variant."""
    return {variant: build_local_table(f, t, variant, p_max).entries
            for variant in VARIANTS}


class TestCounts:
    def test_reference_values(self, ref_table):
        assert [ref_table.entries[p].count_V for p in (7, 5, 2)] == [42, 20, 4]

    @pytest.mark.parametrize("f", [DIAG113, CROSS, TernaryForm(0, 0, 0, 1, 1, 1)])
    def test_against_exhaustive_oracle(self, f):
        tables = _tables(f, 1, 31)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert tables["x1"][p].count_V == _count_bruteforce(f, 1, p)
            for variant in VARIANTS:
                assert (tables[variant][p].count_V0
                        == _count_bruteforce(f, 1, p, variant)), (p, variant)

    def test_sieved_subset_examples(self, ref_table):
        assert ref_table.entries[7].count_V0 == 8
        assert ref_table.entries[2].count_V0 == 2

    def test_variant_containment(self):
        tables = _tables(DIAG113, 1, 29)
        for p in (5, 11, 17, 29):
            a, b, c = (tables[variant][p].count_V0 for variant in VARIANTS)
            assert a <= b <= c <= tables["x1"][p].count_V

    def test_norm_form_shape(self, ref_table):
        # with x1 = 0 the local count collapses to a conic: p - 1 or p + 1
        for p in (5, 7, 11, 13, 17, 19, 23):
            assert ref_table.entries[p].count_V0 in (p - 1, p + 1)


class TestClosedFormAgainstSweep:
    """The closed-form counts against the O(p^2) sweep at every odd p <= 61."""

    CASES = [
        (DIAG113, 1), (DIAG113, 0), (DIAG113, 3), (CROSS, 1), (CROSS, 15),
        (TernaryForm(0, 0, 0, 0, 0, 0), 0),      # rank 0 at every p
        (TernaryForm(0, 0, 0, 0, 0, 0), 2),
        (TernaryForm(5, 0, 0, 0, 0, 0), 5),      # rank 1, rank 0 at p = 5
        (TernaryForm(0, 0, 0, 1, 0, 0), 1),      # rank 2, hyperbolic plane
        (TernaryForm(1, 1, 0, 0, 0, 0), 0),      # rank 2, x3 free
        (TernaryForm(0, 0, 0, 1, 1, 1), 1),      # no square terms
        (TernaryForm(3, 5, 15, 0, 0, 0), 15),    # p | coefficients and t
        (TernaryForm(13, 11, -3, 0, 0, 0), 11),  # bad prime 11 on x1
        (TernaryForm(1, 1, 1, 1, 1, 1), 1),      # d(f) = 1/2
        (TernaryForm(1, 3, 0, 1, 0, 1), -2),     # d(f) = -1/4, a33 = 0
        (TernaryForm(61, 59, -53, 47, 43, 41), 61 * 59),
        (TernaryForm(10 ** 9 + 7, -3, 2, 0, 1, 0), -(10 ** 12)),
    ]

    @pytest.mark.parametrize("f,t", CASES)
    def test_every_odd_prime_to_61(self, f, t):
        tables = _tables(f, t, 61)
        for p in ODD_PRIMES_TO_61:
            assert tables["x1"][p].count_V == _count_sweep(f, t, p), p
            for variant in VARIANTS:
                assert (tables[variant][p].count_V0
                        == _count_sweep(f, t, p, variant)), (p, variant)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(coeffs=st.lists(st.integers(-60, 60), min_size=6, max_size=6),
           t=st.integers(-60, 60), p=st.sampled_from(ODD_PRIMES_TO_61),
           variant=st.sampled_from((None,) + VARIANTS))
    def test_random_forms(self, coeffs, t, p, variant):
        f = TernaryForm(*coeffs)
        closed = _count(f, _principal_minors(f), t, p, SIEVED.get(variant))
        assert closed == _count_sweep(f, t, p, variant)

    def test_sweep_matches_exhaustive_oracle(self):
        for f, t in self.CASES:
            for p in (3, 5, 7, 11):
                for variant in (None,) + VARIANTS:
                    assert (_count_sweep(f, t, p, variant)
                            == _count_bruteforce(f, t, p, variant)), (f, t, p, variant)


class TestCasselsCount:
    """The table's inline Cassels count p^2 + (-d(f)t | p) p at good primes."""

    def test_matches_enumeration(self, ref_table):
        for p in [q for q in primes_up_to(97) if q not in (2, 3)]:
            e = ref_table.entries[p]
            assert e.count_V == _count_sweep(DIAG113, 1, p) == p * p + legendre_raw(3, p) * p
            assert e.cassels_agree is True, p

    def test_closed_form_values(self, ref_table):
        assert ref_table.entries[7].count_V == 42
        assert ref_table.entries[11].count_V == 132

    def test_preconditions_named(self, ref_table):
        # no Cassels column at p = 2, at p | d(f) t, for d(f) t = -9 (not
        # square-free) and for d(f) = -1/4 (not an integer)
        assert ref_table.entries[2].cassels_agree is None
        assert ref_table.entries[3].cassels_agree is None
        for f, t in ((DIAG113, 3), (TernaryForm(0, 0, 1, 1, 0, 0), 1)):
            table = build_local_table(f, t, "x1", 13)
            assert all(e.cassels_agree is None for e in table.entries.values())
            assert table.findings == []


class TestDensities:
    def test_exceptional_convention(self, ref_table):
        e = ref_table.entries[7]
        assert e.omega_over_p == 0
        assert (e.count_V0, e.count_V) == (8, 42)

    def test_envelope(self, ref_table):
        # |N0/N - 1/p| <= 3/p^2 at good primes
        for p in (11, 13, 17, 19, 23, 29, 31, 37, 41):
            raw = ref_table.entries[p].omega_over_p
            assert abs(raw - Fraction(1, p)) <= Fraction(3, p * p), p
            assert raw == Fraction(_count_sweep(DIAG113, 1, p, "x1"),
                                   _count_sweep(DIAG113, 1, p))

    def test_density_below_one_at_good_primes(self, ref_table):
        for p in (11, 13, 17, 19, 23):
            assert ref_table.entries[p].omega_over_p < 1

    def test_bad_prime_outside_exceptional_set_gets_zero(self):
        # 13 x1^2 + 11 x2^2 - 3 x3^2 = 11 mod 11 forces x1 = x3 = 0, so N0 = N
        f = TernaryForm(13, 11, -3)
        table = build_local_table(f, 11, "x1", 13)
        e = table.entries[11]
        assert e.count_V0 == e.count_V == _count_sweep(f, 11, 11) > 0
        assert e.is_bad and e.omega_over_p == 0
        assert table.omega_d(11 * 13) == 0

    def test_degenerate_local_data(self):
        # 2x^2 + 2y^2 + 2z^2 = 1 has no points mod 2, 11(x^2 + y^2 + z^2) = 1
        # none mod 11: N0 = N = 0 makes a bad entry of density 0
        for f, p in ((TernaryForm(2, 2, 2), 2), (TernaryForm(11, 11, 11), 11)):
            e = build_local_table(f, 1, "x1", 13).entries[p]
            assert e.count_V == e.count_V0 == _count_bruteforce(f, 1, p) == 0
            assert e.is_bad and e.omega_over_p == 0


class TestOmegaD:
    def test_unit(self, ref_table):
        assert ref_table.omega_d(1) == 1

    def test_multiplicative_against_crt_oracle(self):
        # direct count mod 143 = 11 * 13, vectorized
        q = 143
        rng = np.arange(q, dtype=np.int64)
        x2, x3 = np.meshgrid(rng, rng, indexing="ij")
        total = 0
        total0 = 0
        for x1 in range(q):
            vals = (x1 * x1 + x2 * x2 - 3 * x3 * x3 - 1) % q
            on = vals == 0
            total += int(on.sum())
            total0 += int((on & ((x1 * x2) % q == 0)).sum())
        # oracle uses variant x1x2 to exercise a composite product condition
        direct = Fraction(total0, total)
        table = build_local_table(DIAG113, 1, "x1x2", 13)
        assert table.omega_d(143) == direct
        assert direct == (Fraction(_count_sweep(DIAG113, 1, 11, "x1x2"),
                                   _count_sweep(DIAG113, 1, 11))
                          * Fraction(_count_sweep(DIAG113, 1, 13, "x1x2"),
                                     _count_sweep(DIAG113, 1, 13)))

    def test_multiplicativity_coprime_pairs(self, ref_table):
        pairs = [(11, 13), (11, 17), (13, 17), (11, 19), (13, 19),
                 (17, 19), (11, 23), (13, 23), (17, 23), (19, 23)]
        for p, q in pairs:
            assert ref_table.omega_d(p * q) == (
                ref_table.entries[p].omega_over_p * ref_table.entries[q].omega_over_p)

    def test_exceptional_factor_kills_product(self, ref_table):
        assert ref_table.omega_d(7 * 11) == 0

    def test_square_factor_rejected(self, ref_table):
        with pytest.raises(DomainError):
            ref_table.omega_d(44)


class TestBadPrimes:
    def test_no_bad_primes_for_single_coordinate(self):
        assert build_local_table(DIAG113, 1, "x1", 100).bad_primes == set()

    def test_triple_product_within_exceptional_set(self):
        assert build_local_table(DIAG113, 1, "x1x2x3", 100).bad_primes <= BAD_SET

    def test_pmax_guard(self):
        with pytest.raises(DomainError):
            build_local_table(DIAG113, 1, "x1", 5)


class TestLocalDensityTable:
    def test_build_and_export(self, ref_table):
        assert ref_table.findings == []
        assert ref_table.bad_primes == set()
        assert sorted(ref_table.entries) == primes_up_to(200)

    def test_cassels_column(self, ref_table):
        for p, e in ref_table.entries.items():
            if p in (2, 3):
                assert e.cassels_agree is None
            else:
                assert e.cassels_agree is True

    def test_omega_d_requires_tabulated_primes(self, ref_table):
        assert ref_table.omega_d(1) == 1
        assert ref_table.omega_d(143) == (ref_table.entries[11].omega_over_p
                                          * ref_table.entries[13].omega_over_p)
        with pytest.raises(DomainError):
            ref_table.omega_d(211 * 13)

    def test_degenerate_form_has_no_cassels_column(self):
        # d(f) = 0: the counts are still exact, Cassels' hypotheses fail
        f = TernaryForm(1, 1, 0, 0, 0, 0)
        table = build_local_table(f, 1, "x1", 23)
        assert all(e.cassels_agree is None for e in table.entries.values())
        assert table.entries[23].count_V == _count_sweep(f, 1, 23)

    def test_tables_share_no_containers(self):
        one = LocalDensityTable(DIAG113, 1, "x1")
        two = LocalDensityTable(DIAG113, 1, "x1")
        one.entries[2] = None
        one.findings.append("finding")
        assert two.entries == {} and two.findings == []

    def test_caveat_present(self, ref_table):
        assert "orbit" in ref_table.caveat

    def test_guards(self):
        with pytest.raises(DomainError):
            build_local_table(DIAG113, 1, "x1", 5)
        with pytest.raises(ResourceError):
            build_local_table(DIAG113, 1, "x1", 10 ** 5)
        with pytest.raises(DomainError):
            build_local_table(DIAG113, 1, "x9", 50)
