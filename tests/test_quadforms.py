import math
import random
from fractions import Fraction

import numpy as np
import pytest

from sievebench.arith import obstructed_places
from sievelab.errors import DomainError
from sievelab.quadforms import (INF, TernaryForm, _slice_frame, det_form,
                                eval_form, hilbert_symbol, is_isotropic_Q,
                                signature, transform)
from test_lattice_points import POOL_FORMS

DIAG113 = TernaryForm(1, 1, -3)


def random_form(rng, bound=5):
    while True:
        f = TernaryForm(*(rng.randint(-bound, bound) for _ in range(6)))
        if det_form(f) != 0:
            return f


def gram(f: TernaryForm) -> list[list[Fraction]]:
    """The Gram matrix G of f, with f(x) = x^T G x."""
    h = Fraction(1, 2)
    return [[Fraction(f.a11), h * f.a12, h * f.a13],
            [h * f.a12, Fraction(f.a22), h * f.a23],
            [h * f.a13, h * f.a23, Fraction(f.a33)]]


def random_sl3(rng, steps=6):
    """Product of elementary matrices: unimodular with determinant +1."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        c = rng.randint(-2, 2)
        for k in range(3):
            m[k][j] += c * m[k][i]
    return m


class TestEvalAndGram:
    def test_examples(self):
        assert eval_form(DIAG113, (1, 0, 0)) == 1
        assert eval_form(TernaryForm(1, 1, -1), (3, 4, 5)) == 0
        assert eval_form(DIAG113, (2, 0, 1)) == 1

    def test_coefficients_match_gram(self):
        rng = random.Random(99)
        for _ in range(1000):
            f = TernaryForm(*(rng.randint(-9, 9) for _ in range(6)))
            x = [rng.randint(-20, 20) for _ in range(3)]
            g = gram(f)
            via_gram = sum(Fraction(x[i]) * g[i][j] * x[j]
                           for i in range(3) for j in range(3))
            assert via_gram == eval_form(f, x)

    def test_huge_entries_do_not_overflow(self):
        x = (10 ** 12, -10 ** 12, 10 ** 11)
        assert eval_form(DIAG113, x) == (
            x[0] ** 2 + x[1] ** 2 - 3 * x[2] ** 2)

    def test_string_round_trip(self):
        f = TernaryForm(1, 1, -3, 0, 0, 0)
        assert TernaryForm.from_string(f.to_string()) == f
        assert TernaryForm.from_string("1, 1, -3, 0, 0, 0") == f
        with pytest.raises(DomainError):
            TernaryForm.from_string("1,2,3")
        with pytest.raises(DomainError):
            TernaryForm.from_string("1,2,3,x,5,6")


class TestRecord:
    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(DomainError, match="coefficient a11 must be an integer"):
            TernaryForm(1.5, 1, 1)
        with pytest.raises(DomainError, match="coefficient a23 must be an integer"):
            TernaryForm(1, 1, 1, a23=Fraction(1, 2))

    def test_make_and_replace_go_through_the_checks(self):
        with pytest.raises(DomainError, match="coefficient a11 must be an integer"):
            TernaryForm._make([1.5, 1, 1, 0, 0, 0])
        with pytest.raises(DomainError, match="coefficient a11 must be an integer"):
            TernaryForm(1, 1, -3)._replace(a11=1.5)
        assert TernaryForm(1, 1, -3)._replace(a12=1) == TernaryForm(1, 1, -3, 1, 0, 0)

    def test_equal_forms_are_equal_and_hash_equal(self):
        f, g = TernaryForm(1, 1, -3), TernaryForm.from_string("1,1,-3,0,0,0")
        assert f is not g and f == g and hash(f) == hash(g)
        assert len({f, g, TernaryForm(1, 1, 3)}) == 2


class TestDeterminant:
    def test_examples(self):
        assert det_form(DIAG113) == -3
        assert det_form(TernaryForm(1, 1, -1)) == -1
        cross = TernaryForm(0, 0, 1, 1, 0, 0)  # x1 x2 + x3^2
        assert det_form(cross) == Fraction(-1, 4)
        assert det_form(DIAG113).denominator == 1
        assert det_form(cross).denominator != 1

    def test_invariance_under_unimodular_change(self):
        rng = random.Random(123)
        for _ in range(50):
            f = random_form(rng)
            u = random_sl3(rng)
            assert det_form(transform(f, u)) == det_form(f)


def eigen_signature(f: TernaryForm) -> tuple[int, int]:
    """(positive, negative) eigenvalues of the Gram matrix, in floating point."""
    eig = np.linalg.eigvalsh(np.array(gram(f), dtype=float))
    return int((eig > 0).sum()), int((eig < 0).sum())


CROSS_FORMS = [
    TernaryForm(1, 2, 5, 2, 0, 0),
    TernaryForm(0, 0, 1, 1, 0, 0),       # a11 = 0
    TernaryForm(0, 0, 0, 1, 1, 1),       # a11 = 0
    TernaryForm(2, -3, 7, 1, -4, 5),
]


class TestSignatureAndDiagonalize:
    def test_signature_examples(self):
        assert signature(DIAG113) == (2, 1)
        assert signature(TernaryForm(1, 1, 1)) == (3, 0)
        assert signature(TernaryForm(-1, -2, -3)) == (0, 3)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            signature(TernaryForm(1, 1, 0))

    @pytest.mark.parametrize("f", [TernaryForm(1, -1, 0), TernaryForm(0, 0, 0, 1, 0, 0)])
    def test_degenerate_frame_rejected(self, f):
        # the cofactor form of either is nowhere positive, so the search for
        # a definite plane would never end
        for fn in (_slice_frame, signature, is_isotropic_Q):
            with pytest.raises(DomainError, match="degenerate"):
                fn(f)

    @pytest.mark.parametrize("f", CROSS_FORMS)
    def test_signature_against_eigenvalues(self, f):
        assert signature(f) == eigen_signature(f)

    def test_signature_against_eigenvalues_random(self):
        rng = random.Random(4242)
        for _ in range(300):
            f = random_form(rng, bound=9)
            assert signature(f) == eigen_signature(f), f


def hilbert_oracle_3minus1_at_3() -> int:
    """Primitive solvability of 3x^2 - y^2 = z^2 mod 3^5, exhaustively."""
    q = 3 ** 5
    unit_squares = {z * z % q for z in range(q) if z % 3 != 0}
    all_squares = {z * z % q for z in range(q)}
    for x in range(q):
        for y in range(q):
            w = (3 * x * x - y * y) % q
            if x % 3 or y % 3:
                if w in all_squares:
                    return 1
            elif w in unit_squares:
                return 1
    return -1


class TestHilbertSymbol:
    def test_square_first_argument(self):
        for place in (INF, 2, 3, 7, 13):
            for b in (2, -3, 15, -1):
                assert hilbert_symbol(1, b, place) == 1

    def test_real_place(self):
        assert hilbert_symbol(-1, -1, INF) == -1
        assert hilbert_symbol(-1, 2, INF) == 1

    def test_against_exhaustive_local_search(self):
        assert hilbert_symbol(3, -1, 3) == hilbert_oracle_3minus1_at_3()

    def test_square_scaling_invariance(self):
        rng = random.Random(55)
        places = [INF, 2, 3, 5, 7, 11]
        for _ in range(40):
            a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                         rng.randint(1, 30))
            b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30),
                         rng.randint(1, 30))
            c = rng.randint(1, 10)
            v = rng.choice(places)
            assert hilbert_symbol(a * c * c, b, v) == hilbert_symbol(a, b, v)

    def test_product_formula(self):
        rng = random.Random(2718)
        small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                        47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
        for _ in range(100):
            a = rng.choice([-1, 1]) * rng.choice(small_primes) * rng.randint(1, 50)
            b = rng.choice([-1, 1]) * rng.choice(small_primes) * rng.randint(1, 50)
            places = {INF, 2}
            places.update(p for p in small_primes if a % p == 0 or b % p == 0)
            prod = 1
            for v in places:
                prod *= hilbert_symbol(a, b, v)
            assert prod == 1

    def test_errors(self):
        with pytest.raises(DomainError):
            hilbert_symbol(0, 1, 2)
        with pytest.raises(DomainError):
            hilbert_symbol(1, 1, 4)


def isotropy_oracle(f: TernaryForm, height: int = 50):
    """Vectorized exhaustive search for a nontrivial zero of max-norm <= height:
    the first one found, or None."""
    rng = np.arange(-height, height + 1, dtype=np.int64)
    x2, x3 = np.meshgrid(rng, rng, indexing="ij")
    for x1 in rng:
        vals = (f.a11 * x1 * x1 + f.a22 * x2 * x2 + f.a33 * x3 * x3
                + f.a12 * x1 * x2 + f.a13 * x1 * x3 + f.a23 * x2 * x3)
        zero = vals == 0
        if x1 == 0:
            zero &= (x2 != 0) | (x3 != 0)
        if zero.any():
            i, j = np.argwhere(zero)[0]
            return int(x1), int(x2[i, j]), int(x3[i, j])
    return None


BATTERY = [
    TernaryForm(1, 1, -1), TernaryForm(1, 1, -2),
    TernaryForm(1, 1, -3), TernaryForm(1, 1, -5),
    TernaryForm(1, 1, -7), TernaryForm(1, 2, -3),
    TernaryForm(1, 2, -1), TernaryForm(1, 3, -2),
    TernaryForm(1, 5, -2), TernaryForm(2, 3, -1),
    TernaryForm(1, 1, -6), TernaryForm(1, 1, -10),
    TernaryForm(1, 2, -7), TernaryForm(3, 5, -1),
    TernaryForm(1, 7, -2), TernaryForm(2, 5, -7),
    TernaryForm(1, -1, 5), TernaryForm(1, -2, 6),
    TernaryForm(5, -2, 3), TernaryForm(1, -3, 9),
    TernaryForm(1, 1, -3, 1, 0, 0), TernaryForm(1, 1, -1, 0, 1, 0),
    TernaryForm(1, 2, -2, 1, 1, 0), TernaryForm(0, 0, 1, 1, 0, 0),
    TernaryForm(0, 0, 0, 1, 1, 1), TernaryForm(1, -1, 2, 0, 0, 1),
    TernaryForm(2, 2, -3, 2, 0, 0), TernaryForm(1, 3, -5, 0, 1, 1),
    TernaryForm(3, 1, -2, 1, 1, 1), TernaryForm(1, 1, 1, 1, 1, 1),
]


def leading_minors_nonzero(f: TernaryForm) -> bool:
    return f.a11 != 0 and 4 * f.a11 * f.a22 != f.a12 * f.a12 and det_form(f) != 0


class TestIsotropy:
    def test_reference_anisotropic(self):
        cert = is_isotropic_Q(DIAG113)
        assert cert.verdict == "anisotropic"
        assert (3, -1) in cert.local_data

    def test_pythagorean_isotropic(self):
        f = TernaryForm(1, 1, -1)
        assert is_isotropic_Q(f).verdict == "isotropic"
        zero = isotropy_oracle(f, height=5)
        assert eval_form(f, zero) == 0
        assert any(c != 0 for c in zero)

    def test_simple_witness(self):
        f = TernaryForm(1, 1, -2)
        assert is_isotropic_Q(f).verdict == "isotropic"
        assert eval_form(f, isotropy_oracle(f, height=5)) == 0

    def test_isotropic_with_only_a_large_zero(self):
        # 100049 is a prime = 1 mod 4, so a sum of two squares: 215^2 + 232^2
        f = TernaryForm(1, 1, -100049, 0, 0, 0)
        cert = is_isotropic_Q(f)
        assert cert.verdict == "isotropic"
        assert cert.local_data == [(INF, 1), (2, 1), (100049, 1)]
        assert eval_form(f, (215, 232, 1)) == 0

    def test_battery_against_exhaustive_search(self):
        assert len(BATTERY) == 30
        for f in BATTERY:
            cert = is_isotropic_Q(f)
            zero = isotropy_oracle(f, height=50)
            assert cert.verdict in ("isotropic", "anisotropic"), f
            assert (cert.verdict == "isotropic") == (zero is not None), f
            if zero is not None:
                assert eval_form(f, zero) == 0

    def test_definite_forms_anisotropic(self):
        cert = is_isotropic_Q(TernaryForm(1, 1, 1))
        assert cert.verdict == "anisotropic"
        assert (INF, -1) in cert.local_data

    def test_pool_against_obstructed_places(self):
        for text, _ in POOL_FORMS:
            f = TernaryForm.from_string(text)
            assert is_isotropic_Q(f).is_anisotropic() == bool(obstructed_places(f)), f

    def test_random_forms_against_obstructed_places(self):
        rng = random.Random(1709)
        checked = 0
        while checked < 600:
            f = TernaryForm(*(rng.randint(-40, 40) for _ in range(6)))
            if not leading_minors_nonzero(f):
                continue
            cert = is_isotropic_Q(f)
            assert cert.verdict in ("isotropic", "anisotropic"), f
            assert cert.is_anisotropic() == bool(obstructed_places(f)), f
            checked += 1
