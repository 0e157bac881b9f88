import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from torsion13.fields import (BadReductionError, ExtensionFieldElement,
                              NumberField, PrimeField, QuadraticExtensionField,
                              least_nonresidue, splitting_fingerprint)
from torsion13.family import w_cubic
from torsion13.polynomials import Polynomial, discriminant_cubic, poly_divmod, qpoly

from oracles import primes_upto

K_POLY = qpoly(64, -82, -1, 1)

# w-cubics of the family: monic with non-integral coefficients
NON_INTEGRAL_T = (Fraction(3, 5), Fraction(-7, 20))


@pytest.fixture
def K():
    return NumberField(K_POLY)


@pytest.fixture(params=NON_INTEGRAL_T, ids=str)
def L(request):
    return NumberField(w_cubic(request.param))


def reduced_product(field, a, b):
    """a * b as a polynomial product reduced by poly_divmod modulo the minimal polynomial."""
    _, rem = poly_divmod(Polynomial(a.coords) * Polynomial(b.coords), field.minimal_polynomial)
    return field(rem[0], rem[1], rem[2])


def random_element(field, rng, span=9, max_den=5):
    return field(*(Fraction(rng.randint(-span, span), rng.randint(1, max_den))
                   for _ in range(3)))


def protocol_cases():
    """(field, a, b, p) for each field kind; b is nonzero, p is None over Q."""
    f7, f49, f4 = PrimeField(7), QuadraticExtensionField(7), QuadraticExtensionField(2)
    k, w_field = NumberField(K_POLY), NumberField(w_cubic(Fraction(3, 5)))
    xi, eta = ExtensionFieldElement(f49, 0, 1), ExtensionFieldElement(f4, 0, 1)
    return [
        pytest.param(f7, f7(3), f7(5), 7, id="F_7"),
        pytest.param(f49, 2 * xi + 3, 4 * xi + 1, 7, id="F_7^2"),
        pytest.param(f4, eta, eta + 1, 2, id="F_2^2"),
        pytest.param(k, k(1, 2, -1), k(Fraction(1, 3), 0, 5), None, id="Q(alpha)"),
        pytest.param(w_field, w_field(Fraction(-2, 7), 1, Fraction(1, 2)),
                     w_field(3, Fraction(-5, 4), 1), None, id="Q(w) t=3/5"),
    ]


@pytest.mark.parametrize("field, a, b, p", protocol_cases())
def test_field_element_protocol(field, a, b, p):
    assert a - b == a + (-b)
    for left in (3, Fraction(2, 3)):
        assert left - a == field(left) + (-a)
        assert left / a == field(left) * a.inverse()
    assert 1 / a == a.inverse() and a * (1 / a) == field.one
    assert a / b * b == a and hash(a / b * b) == hash(a)
    assert a ** 0 == field.one and a ** 1 == a and a ** 5 == a * a * a * a * a
    assert b ** -2 * b ** 2 == 1
    with pytest.raises(ZeroDivisionError):
        field.zero ** -1
    with pytest.raises(AttributeError):
        a.field = field
    with pytest.raises(AttributeError):
        setattr(field, type(field).__slots__[0], None)
    if p is not None:
        assert (field(1) == Fraction(1, p)) is False
        assert (Fraction(1, p) == field.one) is False


def test_prime_field_elements_coerce_into_the_quadratic_extension():
    f7, f49 = PrimeField(7), QuadraticExtensionField(7)
    xi = ExtensionFieldElement(f49, 0, 1)
    assert f7(3) == f49(3) and f49(3) == f7(3)
    assert f7(3) != xi and xi != f7(3)
    for got in (f7(3) + xi, xi * f7(3)):
        assert type(got) is type(xi) and got.field == f49
    assert (f7(3) + xi, xi * f7(3)) == (xi + 3, 3 * xi)


def test_an_element_of_f_p_in_f_p2_hashes_as_in_f_p():
    f7, f49 = PrimeField(7), QuadraticExtensionField(7)
    assert f49(3) == f7(3) == 3 and hash(f49(3)) == hash(f7(3)) == hash(3)
    assert len({f49(3), f7(3), 3}) == 1
    assert len({f49(3) + ExtensionFieldElement(f49, 0, 1), f7(3)}) == 2
    # an F_p element also equals every other int of its class, which hash apart
    assert f7(3) == 10 and hash(10) != hash(f7(3))


def test_a_rational_element_of_q_theta_hashes_as_its_fraction(K):
    half = Fraction(1, 2)
    assert K(half) == half and hash(K(half)) == hash(half)
    assert len({K(half), half}) == 1 and len({K(3), Fraction(3), 3}) == 1
    assert len({K(half, 1), half}) == 2


def mixed_field_cases():
    """Pairs (a, b) from two different fields whose integer representatives agree."""
    w3, w5 = NumberField(w_cubic(3)), NumberField(w_cubic(5))
    return [
        pytest.param(PrimeField(5)(1), PrimeField(7)(1), id="F_5,F_7"),
        pytest.param(QuadraticExtensionField(5).one, QuadraticExtensionField(7).one,
                     id="F_5^2,F_7^2"),
        pytest.param(w3.one, w5.one, id="Q(w) t=3,t=5"),
        pytest.param(PrimeField(7)(6), QuadraticExtensionField(5)(1), id="F_7,F_5^2"),
    ]


@pytest.mark.parametrize("a, b", mixed_field_cases())
def test_elements_of_different_fields_are_unequal_and_do_not_mix(a, b):
    assert (a == b) is False and (b == a) is False
    assert a != b and b != a
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError):
            op(a, b)
        with pytest.raises(ValueError):
            op(b, a)


def number_fields():
    return [pytest.param(NumberField(K_POLY), id="K")] + \
        [pytest.param(NumberField(w_cubic(t)), id=f"L t={t}") for t in NON_INTEGRAL_T]


def assert_same_element(got, expected):
    """Equal, with equal hashes, and stored in lowest terms over a positive denominator."""
    assert got == expected and hash(got) == hash(expected)
    assert got._den > 0 and gcd(*got._num, got._den) == 1


@pytest.mark.parametrize("field", number_fields())
def test_rational_operands_match_the_coercing_path(field):
    """An int or a Fraction on either side of + - * / gives the element that the
    same operation gives with the rational made an element of the field first."""
    rng = random.Random(59)
    for _ in range(150):
        a = random_element(field, rng)
        for s in (rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))):
            e = field(s)
            assert_same_element(a + s, a + e)
            assert_same_element(s + a, e + a)
            assert_same_element(a - s, a - e)
            assert_same_element(s - a, e - a)
            assert_same_element(a * s, a * e)
            assert_same_element(s * a, e * a)
            if s:
                assert_same_element(a / s, a / e)
                assert_same_element(a / s, a * e.inverse())
            if a:
                assert_same_element(s / a, e / a)
                assert_same_element(s / a, e * a.inverse())


@pytest.mark.parametrize("field", number_fields())
def test_division_is_one_product_with_the_adjugate(field):
    """a / b is FieldElement's a * b.inverse(), where inverse() is one product
    with the adjugate of b, and the quotient times b, reduced by polynomial
    division modulo the minimal polynomial, gives back a."""
    rng = random.Random(61)
    for _ in range(150):
        a, b = random_element(field, rng), random_element(field, rng)
        if not b:
            continue
        assert_same_element(a / b, a * b.inverse())
        assert reduced_product(field, a / b, b) == a


@pytest.mark.parametrize("field", number_fields())
def test_division_by_zero_raises(field):
    a = field(Fraction(1, 3), -2, 5)
    for zero in (0, Fraction(0), field.zero):
        with pytest.raises(ZeroDivisionError):
            a / zero
    for s in (0, 3, Fraction(-2, 7)):
        with pytest.raises(ZeroDivisionError):
            s / field.zero


class TestPrimeField:
    def test_non_prime_rejected(self):
        for bad, message in ((1, "out of range"), (4, "is not prime"), (9, "is not prime"),
                             (2**31 - 3, "is not prime"), (2**31 + 11, "out of range")):
            with pytest.raises(ValueError, match=message):
                PrimeField(bad)
        assert PrimeField(2**31 - 1).p == 2**31 - 1

    def test_arithmetic_mod_2(self):
        f2 = PrimeField(2)
        assert f2(1).inverse() == f2(1)
        assert f2(1) + f2(1) == f2(0)

    def test_fraction_reduction(self):
        assert PrimeField(2)(Fraction(-8)).value == 0
        assert PrimeField(2)(Fraction(-13)).value == 1

    def test_bad_denominator(self):
        with pytest.raises(BadReductionError):
            PrimeField(13)(Fraction(-4, 13))

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            PrimeField(7)(0).inverse()

    def test_field_axioms_sampled(self):
        rng = random.Random(11)
        fp = PrimeField(101)
        for _ in range(1000):
            a, b, c = (fp(rng.randrange(101)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == fp.one


class TestQuadraticExtension:
    def test_deterministic_modulus_p2(self):
        ext = QuadraticExtensionField(2)
        assert (ext.a0, ext.a1) == (1, 1)  # x^2 + x + 1

    def test_deterministic_modulus_p3(self):
        ext = QuadraticExtensionField(3)
        assert (ext.a0, ext.a1) == (1, 0)  # x^2 - 2 = x^2 + 1 over F_3

    def test_deterministic_modulus_p13(self):
        assert least_nonresidue(13) == 2
        ext = QuadraticExtensionField(13)
        assert (ext.a0, ext.a1) == (11, 0)  # x^2 - 2

    def test_least_nonresidue_by_eulers_criterion_below_2000(self):
        """The least n >= 2 outside the squares mod p, for each odd prime p < 2000."""
        primes = primes_upto(2000)[1:]
        assert len(primes) == 302
        for p in primes:
            squares = {x * x % p for x in range(p)}
            n = least_nonresidue(p)
            assert n not in squares, p
            assert all(m in squares for m in range(2, n)), p

    def test_modulus_has_no_root_below_2000(self):
        """x^2 + a1 x + a0 has no root mod p, by trial of every residue."""
        for p in primes_upto(2000):
            ext = QuadraticExtensionField(p)
            assert not any((x * x + ext.a1 * x + ext.a0) % p == 0 for x in range(p)), p
            assert ext.a1 == (1 if p == 2 else 0) and 0 <= ext.a0 < p, p

    @pytest.mark.parametrize("p", [0, 1, 91])
    def test_non_prime_refused(self, p):
        with pytest.raises(ValueError):
            QuadraticExtensionField(p)

    @pytest.mark.parametrize("p", [2, 1])
    def test_least_nonresidue_refuses_p_below_3(self, p):
        """Every residue mod 2 and mod 1 is a square, so the scan would never stop."""
        with pytest.raises(ValueError, match="is a square"):
            least_nonresidue(p)

    def test_xi_inverse_in_f9(self):
        ext = QuadraticExtensionField(3)  # xi^2 = -1
        xi = ExtensionFieldElement(ext, 0, 1)
        assert xi.inverse() == -xi
        # oracle: exhaust all nine elements
        inverses = [e for e in ext.elements() if e * xi == ext.one]
        assert inverses == [-xi]

    def test_inverse_exhaustive_small_fields(self):
        for p in (2, 3, 5, 7):
            ext = QuadraticExtensionField(p)
            for e in ext.elements():
                if e:
                    assert e * e.inverse() == ext.one

    def test_field_axioms_sampled(self):
        rng = random.Random(23)
        ext = QuadraticExtensionField(11)
        elems = list(ext.elements())
        for _ in range(1000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_order(self):
        assert QuadraticExtensionField(5).order() == 25
        assert len(list(QuadraticExtensionField(5).elements())) == 25


class TestNumberField:
    def test_construction_requires_irreducible_monic_cubic(self):
        with pytest.raises(ValueError):
            NumberField(qpoly(-1, 0, 0, 1))  # x^3 - 1 has root 1
        with pytest.raises(ValueError):
            NumberField(qpoly(1, 1))  # wrong degree
        with pytest.raises(ValueError):
            NumberField(qpoly(1, 0, 0, 2))  # not monic

    def test_alpha_inverse(self, K):
        alpha = K(0, 1)
        expected = K(Fraction(82, 64), Fraction(1, 64), Fraction(-1, 64))
        assert alpha.inverse() == expected
        assert alpha * expected == K.one

    def test_inverse_round_trip_random(self, K):
        rng = random.Random(17)
        for _ in range(200):
            e = K(*(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)))
            if e:
                assert e * e.inverse() == K.one

    def test_an_element_takes_no_further_coordinates(self, K):
        assert K(K(0, 1)) == K(0, 1) and K(K(1), 0, 0) == K(1)
        for c1, c2 in ((1, 0), (0, Fraction(1, 2)), (0, K(0, 1))):
            with pytest.raises(ValueError):
                K(K(1), c1, c2)

    def test_is_rational(self, K):
        assert K(Fraction(5, 7)).is_rational()
        assert not K(0, 1).is_rational()
        b = K(Fraction(-1936, 19773), Fraction(90, 19773), Fraction(10, 19773))
        assert not b.is_rational()

    def test_multiplication_matches_polynomial_reduction(self, K):
        rng = random.Random(29)
        for _ in range(500):
            a = K(*(Fraction(rng.randint(-9, 9)) for _ in range(3)))
            b = K(*(Fraction(rng.randint(-9, 9)) for _ in range(3)))
            assert a * b == reduced_product(K, a, b)

    def test_field_axioms_sampled(self, K):
        rng = random.Random(31)
        for _ in range(334):
            a, b, c = (K(*(Fraction(rng.randint(-5, 5)) for _ in range(3)))
                       for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c


class TestNonIntegralNumberField:
    def test_minimal_polynomial_is_not_integral(self, L):
        assert any(c.denominator > 1 for c in L.minimal_polynomial.coeffs)

    def test_multiplication_matches_polynomial_reduction(self, L):
        rng = random.Random(37)
        for _ in range(300):
            a, b = random_element(L, rng), random_element(L, rng)
            assert a * b == reduced_product(L, a, b)

    def test_inverse_round_trip_random(self, L):
        rng = random.Random(43)
        for _ in range(200):
            e = random_element(L, rng)
            if e:
                assert e * e.inverse() == L.one

    def test_subtraction_is_adding_the_negative(self, L):
        """a - b == a + (-b) in lowest terms, with an element, an int or a Fraction as b,
        and with an int or a Fraction on the left."""
        rng = random.Random(47)
        denominators = {True: 0, False: 0}
        for _ in range(300):
            a = random_element(L, rng)
            if rng.random() < 0.5:
                b = a + L(*(rng.randint(-9, 9) for _ in range(3)))  # a's denominator
            else:
                b = random_element(L, rng, max_den=12)
            denominators[a._den == b._den] += 1
            assert_same_element(a - b, a + (-b))
            for s in (rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))):
                assert_same_element(a - s, a + (-s))
                assert_same_element(s - a, s + (-a))
        assert all(denominators.values())
        a = random_element(L, rng)
        assert_same_element(a - a, L.zero)
        assert (a - a)._den == 1

    def test_canonical_form(self, L):
        assert L(Fraction(2, 4)) == L(Fraction(1, 2))
        assert hash(L(Fraction(2, 4))) == hash(L(Fraction(1, 2)))
        w = L(0, 1)
        scaled = (w * 6 + 4) * Fraction(1, 6) - Fraction(2, 3)
        assert scaled == w and hash(scaled) == hash(w)
        assert (w * w.inverse()).coords == (1, 0, 0)

    def test_inverse_of_zero(self, L):
        with pytest.raises(ZeroDivisionError):
            L.zero.inverse()
        with pytest.raises(ZeroDivisionError):
            L.one / (L(0, 1) - L(0, 1))

    def test_mixing_fields_rejected(self, L, K):
        with pytest.raises(ValueError):
            L(0, 1) + K(0, 1)
        with pytest.raises(ValueError):
            L(0, 1) * K(0, 1)
        with pytest.raises(ValueError):
            K(L(0, 1))


class TestSplittingFingerprint:
    def test_cyclic_cubic_never_one_root(self):
        fp = splitting_fingerprint(K_POLY, 1000)
        assert fp
        assert all(count in (0, 3) for count in fp.values())

    def test_ramified_primes_skipped(self):
        disc = discriminant_cubic(Fraction(1), Fraction(-1), Fraction(-82), Fraction(64))
        fp = splitting_fingerprint(K_POLY, 1000)
        for p in primes_upto(1000):
            if disc % p == 0:
                assert p not in fp

    def test_non_galois_contrast(self):
        # x^3 - 2: one root mod 5, none mod 7 (root counts 0, 1, 3 all occur)
        fp = splitting_fingerprint(qpoly(-2, 0, 0, 1), 100)
        assert fp[5] == 1
        assert fp[7] == 0
        assert 1 in fp.values()

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            splitting_fingerprint(qpoly(-1, 0, 0, 1), 100)

    def test_non_monic_rejected(self):
        # 5x^3 + x^2 + x + 1: mod 5 one root lies at infinity and would go uncounted
        with pytest.raises(ValueError, match="monic"):
            splitting_fingerprint(qpoly(1, 1, 1, 5), 30)

    def test_matches_bruteforce_oracle(self):
        fp = splitting_fingerprint(K_POLY, 60)
        for p, count in fp.items():
            ints = [int(c) for c in K_POLY.coeffs]
            oracle = sum(1 for x in range(p)
                         if sum(c * x**i for i, c in enumerate(ints)) % p == 0)
            assert count == oracle
