import random
from fractions import Fraction

import pytest

from torsion13 import polynomials
from torsion13.family import w_cubic
from torsion13.fields import NumberField, PrimeField
from torsion13.polynomials import (NEG_INFINITY, Polynomial, RationalFunction,
                                   discriminant_cubic, enumerate_rationals,
                                   poly_divmod, poly_ext_gcd, poly_gcd, poly_sqrt,
                                   qpoly, rat_is_square, rational_roots)

from oracles import (fraction_horner, primes_upto, primitive_prs_gcd,
                     rational_roots_by_candidates, sylvester_resultant)

D1 = qpoly(1, 1) * qpoly(1, 5, 6, -6, -31, -27)
Q1 = qpoly(1, 5, 6, -6, -31, -27)  # the squarefree quintic factor


def random_qpoly(rng, degree, span=20):
    coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, 6)) for _ in range(degree)]
    coeffs.append(Fraction(rng.randint(1, span)))
    return Polynomial(coeffs)


class TestBasics:
    def test_zero_polynomial(self):
        z = Polynomial([0, 0])
        assert not z
        assert z.degree == NEG_INFINITY
        assert z.coeffs == ()

    def test_trailing_zeros_stripped(self):
        assert qpoly(1, 2, 0, 0).coeffs == (1, 2)

    def test_evaluation(self):
        p = qpoly(1, -1, 2)
        assert p(Fraction(3)) == 1 - 3 + 18

    def test_arithmetic(self):
        p, q = qpoly(1, 1), qpoly(-1, 1)
        assert p * q == qpoly(-1, 0, 1)
        assert p + q == qpoly(0, 2)
        assert p - p == Polynomial()
        assert (p ** 3) == qpoly(1, 3, 3, 1)


class TestDivmod:
    def test_factorization(self):
        q, r = poly_divmod(qpoly(-1, 0, 1), qpoly(-1, 1))
        assert q == qpoly(1, 1) and not r

    def test_cube_by_x(self):
        q, r = poly_divmod(qpoly(0, 0, 0, 1), qpoly(0, 1))
        assert q == qpoly(0, 0, 1) and not r

    def test_d1_by_y_plus_1(self):
        q, r = poly_divmod(D1, qpoly(1, 1))
        assert not r
        assert q == Q1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(qpoly(1), Polynomial())

    def test_euclidean_property_random(self):
        rng = random.Random(13)
        for _ in range(300):
            a = random_qpoly(rng, rng.randint(0, 7))
            b = random_qpoly(rng, rng.randint(0, 4))
            q, r = poly_divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


class TestGcd:
    def test_linear_factor(self):
        assert poly_gcd(qpoly(-1, 0, 1), qpoly(-1, 1)) == qpoly(-1, 1)

    def test_self_gcd_is_monic_multiple(self):
        f = qpoly(2, 4, 6)
        g = poly_gcd(f, f)
        assert g == f.monic()

    def test_gcd_zero_zero(self):
        assert not poly_gcd(Polynomial(), Polynomial())

    def test_quintic_squarefree_vs_subresultant_oracle(self):
        g = poly_gcd(Q1, Q1.derivative())
        assert g == qpoly(1)
        oracle = primitive_prs_gcd([int(c) for c in Q1.coeffs],
                                   [int(c) for c in Q1.derivative().coeffs])
        assert oracle == [1]

    def test_gcd_matches_subresultant_oracle_random(self):
        rng = random.Random(7)
        for _ in range(50):
            common = Polynomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 2))] + [1])
            a = common * Polynomial([rng.randint(-5, 5) for _ in range(3)] + [1])
            b = common * Polynomial([rng.randint(-5, 5) for _ in range(2)] + [1])
            ours = poly_gcd(a.map_coefficients(Fraction), b.map_coefficients(Fraction))
            oracle = Polynomial([Fraction(c) for c in
                                 primitive_prs_gcd(list(a.coeffs), list(b.coeffs))]).monic()
            assert ours == oracle


class TestDiscriminantCubic:
    def test_w_cubic_at_1(self):
        assert discriminant_cubic(1, -2, -1, 1) == 49

    def test_field_cubic(self):
        assert discriminant_cubic(1, -1, -82, 64) == 2196324 == 1482**2

    def test_triple_root(self):
        assert discriminant_cubic(1, 0, 0, 0) == 0

    def test_works_over_polynomial_ring(self):
        # coefficients in Q[t]: disc of w-cubic must be a polynomial identity
        t2 = qpoly(0, 0, 1)
        c1 = qpoly(0, -2, 2, -1)
        c2 = qpoly(1, -3, 1, -1)
        one = qpoly(1)
        disc = discriminant_cubic(one, c2, c1, t2)
        assert isinstance(disc, Polynomial)
        assert disc(Fraction(1)) == 49

    def test_integer_kernel_matches_the_generic_formula(self):
        """Int and Fraction arguments, mixed at random: the value of the generic
        formula over Fractions, and a Fraction exactly when some argument is one."""
        def generic(a, b, c, d):
            a, b, c, d = (Fraction(x) for x in (a, b, c, d))
            return (18 * a * b * c * d - 4 * b**3 * d + b**2 * c**2
                    - 4 * a * c**3 - 27 * a**2 * d**2)

        rng = random.Random(1013)
        for _ in range(500):
            args = [rng.randint(-40, 40) if rng.random() < 0.4
                    else Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(4)]
            disc = discriminant_cubic(*args)
            assert disc == generic(*args)
            assert type(disc) is (Fraction if any(type(x) is Fraction for x in args) else int)

    def test_other_rings_take_the_generic_formula(self):
        t2, c1, c2 = qpoly(0, 0, 1), qpoly(0, -2, 2, -1), qpoly(1, -3, 1, -1)
        disc = discriminant_cubic(1, c2, c1, t2)  # an int among polynomials
        assert isinstance(disc, Polynomial)
        assert disc == (18 * (c2 * c1 * t2) - 4 * (c2 * c2 * c2 * t2) + c2 * c2 * (c1 * c1)
                        - 4 * (c1 * c1 * c1) - 27 * (t2 * t2))
        f7 = PrimeField(7)
        disc = discriminant_cubic(f7(1), 3, f7(2), Fraction(1, 2))
        assert disc == f7(discriminant_cubic(1, 3, 2, Fraction(1, 2)))

    def test_against_resultant_for_1000_random_monic_cubics(self):
        rng = random.Random(1000)
        for _ in range(1000):
            b, c, d = (Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(3))
            p = Polynomial([d, c, b, Fraction(1)])
            closed = discriminant_cubic(Fraction(1), b, c, d)
            via_res = -sylvester_resultant(list(p.coeffs), list(p.derivative().coeffs))
            assert closed == via_res


class TestResultant:
    """disc(p) = -Res(p, p')/lc(p) for cubics, against the Sylvester oracle."""

    def test_shared_root_gives_zero(self):
        # a double root is a root that p shares with p'
        p = qpoly(-1, 1) ** 2 * qpoly(2, 1)
        d, c, b, a = p.coeffs
        assert discriminant_cubic(a, b, c, d) == 0
        assert sylvester_resultant(list(p.coeffs), list(p.derivative().coeffs)) == 0

    def test_matches_sylvester_oracle_random(self):
        rng = random.Random(42)
        for _ in range(120):
            p = random_qpoly(rng, 3, span=8)
            d, c, b, a = p.coeffs
            res = sylvester_resultant(list(p.coeffs), list(p.derivative().coeffs))
            assert discriminant_cubic(a, b, c, d) == -res / a


class TestRatIsSquare:
    def test_fiber_value(self):
        ok, root = rat_is_square(Fraction(3249, 4826809))
        assert ok and root == Fraction(57, 2197)

    def test_zero(self):
        assert rat_is_square(0) == (True, Fraction(0))

    def test_negative(self):
        assert rat_is_square(Fraction(-1, 4)) == (False, None)

    def test_invariance_under_square_scaling(self):
        rng = random.Random(5)
        for _ in range(200):
            r = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            s = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            assert rat_is_square(r)[0] == rat_is_square(r * s * s)[0]


class TestPolySqrt:
    def test_perfect_square_quadratic(self):
        assert poly_sqrt(qpoly(1, 2, 1)) == qpoly(1, 1)

    def test_family_discriminant_shape(self):
        den = qpoly(1, 1, 5, -1, 1)
        t4 = qpoly(0, 0, 0, 0, 1)
        target = t4**2 * den**4
        assert poly_sqrt(target) == t4 * den**2

    def test_odd_degree(self):
        assert poly_sqrt(qpoly(0, 0, 0, 1)) is None

    def test_non_square_even_degree(self):
        assert poly_sqrt(qpoly(1, 1, 1)) is None

    def test_square_roundtrip_random(self):
        rng = random.Random(500)
        for _ in range(500):
            p = random_qpoly(rng, rng.randint(0, 5), span=9)
            r = poly_sqrt(p * p)
            assert r is not None
            assert r == p or r == -p
            assert Fraction(r.coeffs[-1]) > 0


class TestRationalRoots:
    def test_family_denominator_has_no_roots(self):
        assert rational_roots(qpoly(1, 1, 5, -1, 1)) == set()

    def test_difference_of_squares(self):
        assert rational_roots(qpoly(-1, 0, 1)) == {1, -1}

    def test_ramified_fiber_cubic(self):
        assert rational_roots(qpoly(0, -1, -2, -1)) == {Fraction(0), Fraction(-1)}

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(Polynomial())

    def test_fractional_roots(self):
        p = qpoly(-1, 0, 0, 2) * qpoly(3, 5)  # roots: cbrt stuff except 1/? -> (2x^3-1)(5x+3)
        assert Fraction(-3, 5) in rational_roots(p)

    def test_random_products_of_linear_factors(self):
        rng = random.Random(53)
        quadratic = qpoly(-5, 0, 3)  # 3x^2 - 5: irreducible over Q
        for trial in range(200):
            p, roots = quadratic, set()
            for _ in range(rng.randint(1, 4)):
                a, b = rng.randint(-12, 12), rng.randint(1, 9)
                p = p * qpoly(-a, b)  # b x - a
                roots.add(Fraction(a, b))
            if trial % 2:
                p = p * qpoly(0, 0, 1)  # the root 0 with multiplicity 2
                roots.add(Fraction(0))
            content = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            if trial % 3:
                content = -content  # a negative leading coefficient
            assert rational_roots(p * content) == roots


    def test_agrees_with_unfiltered_candidates(self):
        """Against every candidate tested exactly, past the filter mod 5, 7, 11 and 13:
        roots a/b with 11 | b, and roots with 11 not dividing b in every residue
        a * b^-1 mod 11."""
        rng = random.Random(61)
        denominators = (1, 2, 3, 4, 5, 7, 9, 11, 13, 22, 33, 121, 242)
        quadratic = qpoly(-5, 0, 3)  # 3x^2 - 5: irreducible over Q
        residues, eleven_divides = set(), 0
        for _ in range(150):
            p, roots = quadratic, set()
            for _ in range(rng.randint(1, 3)):
                a, b = rng.randint(-15, 15), rng.choice(denominators)
                p = p * qpoly(-a, b)  # b x - a
                root = Fraction(a, b)
                roots.add(root)
                if root.denominator % 11:
                    residues.add(root.numerator * pow(root.denominator, -1, 11) % 11)
                else:
                    eleven_divides += 1
            p = p * Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
            assert rational_roots(p) == roots == rational_roots_by_candidates(p.coeffs)
        assert residues == set(range(11))
        assert eleven_divides >= 20


    def test_random_cubics_agree_with_unfiltered_candidates(self, monkeypatch):
        """Irreducible and reducible cubics, some with a zero constant term, with
        leading coefficients divisible by 5, 7, 11 and 13, against the unfiltered
        oracle.  When the integer form has no root mod one of 5, 7, 11, 13 not
        dividing its leading coefficient, no candidate is tested exactly."""
        binary_form, exact_tests = polynomials._binary_form, []
        monkeypatch.setattr(polynomials, "_binary_form",
                            lambda *args: exact_tests.append(args) or binary_form(*args))
        rng = random.Random(71)
        leads = (1, 2, 5, 7, 11, 13, 25, 35, 77, 143, 5 * 7 * 11 * 13, 2 * 3 * 49)
        kinds = {"irreducible": 0, "reducible": 0, "zero constant": 0, "early exit": 0}
        for trial in range(600):
            lead = rng.choice(leads) * rng.choice((-1, 1))
            low = [rng.randint(-30, 30) for _ in range(2)]
            if trial % 3 == 0:
                ints = [rng.randint(-60, 60)] + low + [lead]
            elif trial % 3 == 1:
                # (b x - a)(c x^2 + ...) with b c = lead: the root a/b passes every filter
                b = rng.choice([d for d in range(1, abs(lead) + 1) if lead % d == 0])
                a = rng.randint(-20, 20)
                ints = list((qpoly(-a, b) * qpoly(*low, lead // b)).coeffs)
            else:
                ints = [0] + low + [lead]
            content = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            p = Polynomial([c * content for c in ints])
            del exact_tests[:]
            roots = rational_roots(p)
            assert roots == rational_roots_by_candidates(p.coeffs)
            form = ints[1:] if not ints[0] else ints  # the root 0 needs no test
            rootless = [q for q in (5, 7, 11, 13) if form[-1] % q
                        and all(sum(c * r**i for i, c in enumerate(form)) % q
                                for r in range(q))]
            if rootless:
                assert roots <= {0} and not exact_tests
                kinds["early exit"] += 1
            kinds["zero constant" if not ints[0] else
                  "reducible" if roots else "irreducible"] += 1
        assert min(kinds.values()) >= 50, kinds


    @pytest.mark.parametrize("ints, count", [
        ((27720, -4, 1, 5040), 0),            # roots mod 11 and 13, none over Q
        ((-27720, 43379, -2759, 5040), 1),    # (63x - 40)(80x^2 + 7x + 693)
        ((14700, 32795, -27672, 5040), 2),    # (12x - 35)^2 (35x + 12)
        ((-42875, 44100, -15120, 1728), 1),   # (12x - 35)^3
        ((27720, -10979, -54671, 5040), 3),   # (63x - 40)(80x + 63)(x - 11)
    ])
    def test_highly_composite_coefficients_agree_with_unfiltered_candidates(self, ints, count):
        """Leading and constant coefficients with many divisors (5040 = 2^4 3^2 5 7,
        27720 = 2^3 3^2 5 7 11), repeated roots included; each cubic has a root
        mod every filter prime not dividing its leading coefficient, so its
        roots come from the lifting."""
        assert all(any(polynomials._roots_mod(ints, q)) for q in (5, 7, 11, 13) if ints[-1] % q)
        roots = rational_roots(Polynomial([Fraction(c, 7) for c in ints]))
        assert len(roots) == count
        assert roots == rational_roots_by_candidates(ints)


def test_is_prime_matches_the_sieve():
    """The one trial-division prime test, which fields, elliptic and rational_roots share."""
    primes = set(primes_upto(1000))
    assert [n for n in range(-5, 1001) if polynomials._is_prime(n)] == sorted(primes)


class TestEnumerateRationals:
    def test_height_one(self):
        assert set(enumerate_rationals(1)) == {0, 1, -1}

    def test_height_two(self):
        expected = {Fraction(v) for v in (0, 1, -1, 2, -2)} | {Fraction(1, 2), Fraction(-1, 2)}
        assert set(enumerate_rationals(2)) == expected

    def test_sporadic_value_reachable_at_13(self):
        assert Fraction(-4, 13) in set(enumerate_rationals(13))

    def test_count_and_uniqueness(self):
        from math import gcd
        for height in (1, 2, 5, 9):
            values = list(enumerate_rationals(height))
            assert len(values) == len(set(values))
            expected = 1 + 2 * sum(1 for q in range(1, height + 1)
                                   for p in range(1, height + 1) if gcd(p, q) == 1)
            assert len(values) == expected

    def test_order_is_by_denominator_then_numerator(self):
        values = list(enumerate_rationals(3))
        keys = [(v.denominator, v.numerator) for v in values]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1]))


class TestSerialization:
    def test_round_trip(self, wire):
        p = qpoly(Fraction(1, 2), -3, 0, Fraction(7, 5))
        data = wire(p)
        assert data == ["1/2", "-3/1", "0/1", "7/5"]

    def test_constant_term_first(self, wire):
        assert wire(qpoly(2, 0, 1))[0] == "2/1"


class TestExtGcd:
    def test_bezout_identity(self):
        rng = random.Random(99)
        for _ in range(100):
            a = random_qpoly(rng, rng.randint(1, 5))
            b = random_qpoly(rng, rng.randint(1, 5))
            g, s, t = poly_ext_gcd(a, b)
            assert s * a + t * b == g
            assert g == poly_gcd(a, b)


def test_module_doctests():
    import doctest
    import torsion13.polynomials as mod
    failures, tried = doctest.testmod(mod, extraglobs={"Fraction": Fraction})
    assert tried > 0 and failures == 0


class TestRationalFunction:
    def test_reduction_and_monic_denominator(self):
        f = RationalFunction(qpoly(0, 2, 2), qpoly(0, 0, 4))  # (2x+2x^2)/(4x^2) = (1+x)/(2x)
        assert f.denominator == qpoly(0, 1)
        assert f.numerator == qpoly(Fraction(1, 2), Fraction(1, 2))


def random_coefficient(rng, kind):
    """An int, a Fraction, or either ("mixed"); zero about one time in five."""
    if rng.random() < 0.2:
        return 0 if rng.random() < 0.5 else Fraction(0)
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    if kind == "int":
        return rng.randint(-10**4, 10**4)
    return Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**3))


def evaluation_points(rng):
    """u = 0, integers, negative values and large denominators."""
    return [Fraction(0), Fraction(1), Fraction(-3), Fraction(-4, 13),
            Fraction(rng.randint(-50, 50), rng.randint(1, 50)),
            Fraction(-rng.randint(1, 10**9), rng.randint(1, 10**12)),
            Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**40))]


class TestEvaluationAgainstFractionHorner:
    """Polynomials at Fractions equal Fraction Horner, type included."""

    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
    def test_polynomial_at_random_fractions(self, kind):
        rng = random.Random(f"eval-{kind}")
        for _ in range(150):
            coeffs = [random_coefficient(rng, kind) for _ in range(rng.randint(0, 10))]
            p = Polynomial(coeffs)
            for u in evaluation_points(rng):
                got, want = p(u), fraction_horner(coeffs, u)
                assert got == want and type(got) is type(want), (coeffs, u)

    def test_zero_and_constant_polynomials(self):
        for coeffs in ([], [0], [Fraction(0), 0], [7], [Fraction(-5, 3)], [0, 0, 0]):
            p = Polynomial(coeffs)
            for u in (Fraction(0), Fraction(-9, 4), Fraction(10**20, 3**40)):
                got, want = p(u), fraction_horner(coeffs, u)
                assert got == want and type(got) is type(want)

    def test_prime_field_coefficients_stay_on_the_generic_path(self):
        field = PrimeField(101)
        coeffs = [field(c) for c in (3, 0, 100, 7, 55)]
        p = Polynomial(coeffs)
        for u in (Fraction(3, 7), Fraction(-2), field(17)):
            got = p(u)
            assert type(got) is type(field.one)
            assert got == sum((c * field(u) ** i for i, c in enumerate(coeffs)), field.zero)

    def test_number_field_coefficients_stay_on_the_generic_path(self):
        field = NumberField(w_cubic(Fraction(2, 3)))
        w = field(0, 1)
        coeffs = [w, Fraction(1, 2) * w * w, field.one, 3 - w]
        p = Polynomial(coeffs)
        for u in (Fraction(0), Fraction(-5, 9), Fraction(7)):
            got = p(u)
            assert type(got) is type(w)
            assert got == sum((c * u ** i for i, c in enumerate(coeffs)), field.zero)
        # a polynomial over Q at a number-field argument is not evaluated as a binary form
        assert not field.minimal_polynomial(w)
