import random
from fractions import Fraction

import pytest

from torsion13.elliptic import (INFINITY, CurvePoint, OrderBoundExceededError,
                                PointNotOnCurveError, SingularCurveError,
                                WeierstrassCurve, add_points, negate_point,
                                point_order, scalar_mul, tate_curve, tate_origin)
from torsion13.family import build_family_instance
from torsion13.fields import PrimeField, build_quadratic_extension
from torsion13.polynomials import Polynomial, poly_divmod
from torsion13.sporadic import sporadic_curve


def qcurve(a1=0, a2=0, a3=0, a4=0, a6=0):
    return WeierstrassCurve(*(Fraction(v) for v in (a1, a2, a3, a4, a6)))


def double_via_line(curve, point):
    """Independent doubling: tangent line, then the cubic's third root by division.

    Substitutes y = lam*x + nu into the curve equation and divides the
    resulting cubic by (x - x1)^2 exactly, instead of using the closed
    x3 = lam^2 + a1*lam - a2 - 2*x1 formula.
    """
    a1, a2, a3, a4, a6 = curve.coefficients()
    x1, y1 = point.x, point.y
    den = 2 * y1 + a1 * x1 + a3
    if not den:
        return INFINITY
    lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
    nu = y1 - lam * x1
    # (lam x + nu)^2 + a1 x (lam x + nu) + a3 (lam x + nu) - x^3 - a2 x^2 - a4 x - a6
    one = x1 - x1 + 1
    cubic = Polynomial([
        nu * nu + a3 * nu - a6,
        2 * lam * nu + a1 * nu + a3 * lam - a4,
        lam * lam + a1 * lam - a2,
        -one,
    ])
    linear, rem = poly_divmod(cubic, Polynomial([x1 * x1, -2 * x1, one]))
    assert rem.is_zero(), "x1 is not a double root of the intersection cubic"
    x3 = -linear[0] / linear[1]
    y3 = -(lam * x3 + nu) - a1 * x3 - a3
    return CurvePoint(x3, y3)


class TestInvariants:
    def test_j_zero_curve(self):
        c = qcurve(a6=1)
        assert c.disc == -432 and c.j == 0

    def test_j_1728_curve(self):
        c = qcurve(a4=1)
        assert c.disc == -64 and c.j == 1728

    def test_singular_rejected(self):
        with pytest.raises(SingularCurveError):
            qcurve()  # y^2 = x^3

    def test_formulary_identities(self):
        for c in (qcurve(a6=1), qcurve(a4=1), qcurve(1, 2, 3, 4, 5)):
            b2, b4, b6, b8, c4, c6, disc, j = (c.b2, c.b4, c.b6, c.b8,
                                               c.c4, c.c6, c.disc, c.j)
            assert 4 * b8 == b2 * b6 - b4 * b4
            assert 1728 * disc == c4**3 - c6**2
            assert j * disc == c4**3

    def test_sporadic_curve_invariants_from_independent_formulary(self):
        field, curve, _ = sporadic_curve()
        a1, a2, a3, a4, a6 = curve.coefficients()
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
        disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
        assert disc == curve.disc
        assert bool(disc)
        assert not curve.j.is_rational()


class TestGroupLaw:
    def test_identity_and_inverse(self):
        c = qcurve(a4=-1)  # y^2 = x^3 - x
        p = CurvePoint(Fraction(0), Fraction(0))
        assert add_points(c, p, INFINITY) == p
        assert add_points(c, p, negate_point(c, p)) == INFINITY

    def test_point_not_on_curve_rejected(self):
        c = qcurve(a4=-1)
        off = CurvePoint(Fraction(5), Fraction(5))
        with pytest.raises(PointNotOnCurveError):
            point_order(c, off, 5)
        for n in (0, 1, -3):
            with pytest.raises(PointNotOnCurveError):
                scalar_mul(c, n, off)

    def test_doubling_two_independent_paths_on_sporadic_curve(self):
        field, curve, origin = sporadic_curve()
        lib = add_points(curve, origin, origin)
        oracle = double_via_line(curve, origin)
        assert lib == oracle
        assert curve.is_on_curve(lib)
        # x(2*(0,0)) is the Tate parameter b
        b = field(Fraction(-1936, 19773), Fraction(90, 19773), Fraction(10, 19773))
        assert lib.x == b

    def test_doubling_two_paths_rational_points(self):
        c2 = qcurve(a6=1)  # y^2 = x^3 + 1 carries (2,3), (0,1), (-1,0)
        for p in (CurvePoint(Fraction(2), Fraction(3)),
                  CurvePoint(Fraction(0), Fraction(1)),
                  CurvePoint(Fraction(-1), Fraction(0))):
            assert add_points(c2, p, p) == double_via_line(c2, p)

    def test_commutativity_associativity_over_prime_field(self):
        fp = PrimeField(13)
        curve = WeierstrassCurve(fp(1), fp(0), fp(1), fp(2), fp(3))
        points = [INFINITY]
        for x in fp.elements():
            for y in fp.elements():
                p = CurvePoint(x, y)
                if curve.is_on_curve(p):
                    points.append(p)
        rng = random.Random(200)
        for _ in range(200):
            a, b, c = (rng.choice(points) for _ in range(3))
            assert add_points(curve, a, b) == add_points(curve, b, a)
            lhs = add_points(curve, add_points(curve, a, b), c)
            rhs = add_points(curve, a, add_points(curve, b, c))
            assert lhs == rhs

    def test_group_axioms_over_number_field(self):
        field, curve, origin = sporadic_curve()
        points = [INFINITY]
        acc = origin
        for _ in range(12):
            points.append(acc)
            acc = add_points(curve, acc, origin)
        rng = random.Random(201)
        for _ in range(60):
            a, b, c = (rng.choice(points) for _ in range(3))
            assert add_points(curve, a, b) == add_points(curve, b, a)
            assert add_points(curve, add_points(curve, a, b), c) == \
                add_points(curve, a, add_points(curve, b, c))


class TestScalarMul:
    def test_thirteen_kills_origin_on_sporadic_curve(self):
        _, curve, origin = sporadic_curve()
        assert scalar_mul(curve, 13, origin).is_infinity

    def test_one_and_negative(self):
        c = qcurve(a6=1)
        p = CurvePoint(Fraction(2), Fraction(3))
        assert scalar_mul(c, 1, p) == p
        assert scalar_mul(c, -1, p) == negate_point(c, p)
        assert scalar_mul(c, 0, p).is_infinity

    def test_six_plus_seven_equals_thirteen_on_family_curve(self):
        inst = build_family_instance(Fraction(1))
        curve, p = inst.curve, inst.point
        lhs = add_points(curve, scalar_mul(curve, 6, p), scalar_mul(curve, 7, p))
        assert lhs == scalar_mul(curve, 13, p)
        assert lhs.is_infinity


class TestPointOrder:
    def test_sporadic_origin_order(self):
        _, curve, origin = sporadic_curve()
        assert point_order(curve, origin, 20) == 13

    def test_infinity_has_order_one(self):
        c = qcurve(a6=1)
        assert point_order(c, INFINITY, 5) == 1

    def test_two_torsion(self):
        c = qcurve(a4=-1)
        assert point_order(c, CurvePoint(Fraction(0), Fraction(0)), 5) == 2

    def test_bound_exceeded_is_loud(self):
        c = qcurve(a6=-2)  # (3,5) on y^2 = x^3 - 2 has infinite order
        with pytest.raises(OrderBoundExceededError):
            point_order(c, CurvePoint(Fraction(3), Fraction(5)), 10)

    @pytest.mark.parametrize("p, degree", [(5, 1), (7, 1), (11, 1), (13, 1), (17, 1),
                                           (2, 2), (3, 2)])
    def test_matches_iterated_addition_on_every_point(self, p, degree):
        """Every point of four curves over F_(p^degree) against the definition of the order."""
        field = PrimeField(p) if degree == 1 else build_quadratic_extension(p)
        elements = list(field.elements())
        rng = random.Random(p ** degree)
        curves = []
        while len(curves) < 4:
            a1, a2, a3, a4, a6 = (rng.choice(elements) for _ in range(5))
            if not curves and p != 2:
                a1 = a3 = field.zero  # one short model where the characteristic allows it
            elif not (a1 and a3):
                continue
            try:
                curves.append(WeierstrassCurve(a1, a2, a3, a4, a6))
            except SingularCurveError:
                continue
        exceeded = found = 0
        for curve in curves:
            points = [INFINITY] + [CurvePoint(x, y) for x in elements for y in elements
                                   if curve.is_on_curve(CurvePoint(x, y))]
            for point in points:
                for bound in (1, 2, 3, 5, 8, 40):
                    expected, acc = None, point
                    for n in range(1, bound + 1):
                        if acc.is_infinity:
                            expected = n
                            break
                        acc = add_points(curve, acc, point)
                    if expected is None:
                        exceeded += 1
                        with pytest.raises(OrderBoundExceededError):
                            point_order(curve, point, bound)
                    else:
                        found += 1
                        assert point_order(curve, point, bound) == expected
        assert exceeded and found

    def test_order_divisibility_structure(self):
        _, curve, origin = sporadic_curve()
        n = point_order(curve, origin, 20)
        assert scalar_mul(curve, n, origin).is_infinity
        for m in range(1, n):
            assert not scalar_mul(curve, m, origin).is_infinity


class TestTateForm:
    def test_sporadic_parameters_give_order_13(self):
        _, curve, origin = sporadic_curve()
        assert curve.a4 == curve.a6 == curve.a2 - curve.a2
        assert point_order(curve, origin, 20) == 13

    def test_zero_parameters_singular(self):
        with pytest.raises(SingularCurveError):
            tate_curve(Fraction(0), Fraction(0))

    def test_tate_form_wrapper(self):
        curve = tate_curve(Fraction(1), Fraction(1))
        assert (curve.a1, curve.a2, curve.a3) == (0, -1, -1)
        assert point_order(curve, tate_origin(curve), 10) == 5

    def test_origin_always_on_curve(self):
        rng = random.Random(77)
        built = 0
        while built < 20:
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            try:
                curve = tate_curve(b, c)
            except SingularCurveError:
                continue
            built += 1
            assert curve.is_on_curve(tate_origin(curve))
            assert (curve.a1, curve.a2, curve.a3) == (1 - c, -b, -b)

