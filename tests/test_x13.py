import hashlib
from fractions import Fraction

import pytest

from torsion13.polynomials import (Polynomial, discriminant_cubic,
                                   enumerate_rationals, qpoly, rat_is_square,
                                   rational_roots)
from torsion13.reports import ReportSink
from torsion13.x13 import (D1_POLY, D2_POLY, FIBERS, FiberKind, FiberMap,
                           X13_MODEL, X13_RATIONAL_POINTS, classify_fiber,
                           fiber_cubic, nineteen_divisibility, verify_disc_identity)


class TestConstants:
    def test_six_points_satisfy_model(self):
        assert len(X13_RATIONAL_POINTS) == 6
        for pt in X13_RATIONAL_POINTS:
            assert X13_MODEL.satisfies(pt)

    def test_worked_example_point(self):
        # (-1, -1): 1 + (-1+1+1)(-1) = 0 = (-1)^2 + (-1)
        u, v = Fraction(-1), Fraction(-1)
        assert v * v + X13_MODEL.h(u) * v == X13_MODEL.f(u) == 0

    def test_two_points_at_infinity(self):
        inf = [p for p in X13_RATIONAL_POINTS if p.chart == "infinity"]
        assert len(inf) == 2 == len(X13_MODEL.points_at_infinity())

    def test_d1_matches_factored_form(self):
        assert D1_POLY == qpoly(1, 1) * qpoly(1, 5, 6, -6, -31, -27)
        assert D1_POLY == qpoly(1, 6, 11, 0, -37, -58, -27)

    def test_d2_matches_factored_form(self):
        assert D2_POLY == qpoly(0, 1) * qpoly(1, 1)**3 * qpoly(-4, -23, -25, -1, 5, -4)
        assert D2_POLY == qpoly(0, -4, -35, -106, -149, -96, -17, 2, -7, -4)


class TestFiberCubic:
    def test_y_map_at_minus_one(self):
        assert fiber_cubic(FiberMap.Y, -1) == qpoly(0, -1, -2, -1)
        assert fiber_cubic(FiberMap.Y, -1) == -(qpoly(0, 1) * qpoly(1, 1)**2)

    def test_y_map_at_zero_degree_drop(self):
        assert fiber_cubic(FiberMap.Y, 0) == qpoly(0, -1, -1)

    def test_y_map_generic_shape(self):
        # y*x^3 + (y-1)*x^2 - x + (y^2 + y) at y = 2
        assert fiber_cubic(FiberMap.Y, 2) == qpoly(6, -1, 1, 2)

    def test_y_map_sporadic_fiber(self):
        cubic = fiber_cubic(FiberMap.Y, Fraction(-4, 13))
        assert cubic == qpoly(-36, -169, -221, -52)
        assert rational_roots(cubic) == set()
        d, c, b, a = (Fraction(cubic[i]) for i in range(4))
        disc = discriminant_cubic(a, b, c, d)
        ok, root = rat_is_square(disc)
        assert ok and root == 741

    def test_t_map_generic_shape(self):
        # t*x^3 + (t-1)*x^2 + (t^2-2)*x - (t+1) at t = 3
        assert fiber_cubic(FiberMap.T, 3) == qpoly(-4, 7, 2, 3)

    def test_t_map_denominators_cleared(self):
        cubic = fiber_cubic(FiberMap.T, Fraction(1, 2))
        assert all(Fraction(c).denominator == 1 for c in cubic.coeffs)

    def test_substitution_consistency(self):
        # the t-map cubic times x equals the model equation after y = x*t - 1
        t = Fraction(2, 3)
        cubic = fiber_cubic(FiberMap.T, t)
        for x in (Fraction(1), Fraction(-2), Fraction(3, 5)):
            y = x * t - 1
            model_value = y * y + (x**3 + x**2 + 1) * y - x * x - x
            assert (cubic(x) * x == 0) == (model_value == 0)
            # proportionality: cubic * x is a rational multiple of the substitution
        x = Fraction(7, 11)
        y = x * t - 1
        lhs = cubic(x) * x
        rhs = y * y + (x**3 + x**2 + 1) * y - x * x - x
        assert lhs * Fraction(1, 9) == rhs  # the cleared denominator was 9


class TestClassification:
    def test_ramified_at_minus_one(self):
        c = classify_fiber(FiberMap.Y, -1)
        assert c.kind is FiberKind.RAMIFIED
        assert c.rational_roots == (Fraction(-1), Fraction(0))
        assert c.discriminant == 0

    def test_degenerate_at_zero(self):
        c = classify_fiber(FiberMap.Y, 0)
        assert c.kind is FiberKind.DEGENERATE_DEGREE_DROP
        assert c.includes_infinity
        assert c.rational_roots == (Fraction(-1), Fraction(0))

    def test_cyclic_at_sporadic_value(self):
        c = classify_fiber(FiberMap.Y, Fraction(-4, 13))
        assert c.kind is FiberKind.CYCLIC_CUBIC
        assert c.discriminant_is_square
        assert c.rational_roots == ()

    def test_t_map_cusp_fiber_ramified(self):
        c = classify_fiber(FiberMap.T, 0)
        assert c.kind is FiberKind.RAMIFIED
        assert c.includes_infinity  # degree drops at t = 0

    def test_t_map_minus_one_ramified(self):
        assert classify_fiber(FiberMap.T, -1).kind is FiberKind.RAMIFIED

    def test_generic_non_cyclic(self):
        c = classify_fiber(FiberMap.Y, 1)
        assert c.kind in (FiberKind.NON_CYCLIC_CUBIC, FiberKind.SPLIT_RATIONAL)

    def test_json_shape(self, wire):
        data = wire(classify_fiber(FiberMap.Y, Fraction(-4, 13)))
        assert data["kind"] == "cyclic_cubic"
        assert data["map"] == "y"
        assert data["value"] == "-4/13"


class TestDiscIdentity:
    def test_y_map_exact(self):
        report = verify_disc_identity(FiberMap.Y)
        assert report.exact_match
        assert report.computed_discriminant == D1_POLY
        assert report.quotient_numerator == qpoly(1)
        assert report.quotient_denominator == qpoly(1)

    def test_t_map_square_quotient(self):
        report = verify_disc_identity(FiberMap.T)
        assert not report.exact_match
        assert report.quotient_numerator == qpoly(1)
        assert report.quotient_denominator == qpoly(1, 2, 1)  # (t+1)^2
        assert report.sqrt_denominator == qpoly(1, 1)

    def test_symbolic_coefficients_specialize(self):
        for fmap in FiberMap:
            (a0, a1, a2, a3), _ = FIBERS[fmap]
            for v in (Fraction(2), Fraction(-5, 7)):
                direct = fiber_cubic(fmap, v)
                sym = Polynomial([a0(v), a1(v), a2(v), a3(v)])
                # equal up to the positive denominator-clearing factor
                lead = Fraction(direct.coeffs[-1]) / Fraction(sym.coeffs[-1])
                assert sym * lead == direct

    def test_squareness_spot_check_at_sporadic_value(self):
        # disc of the fiber is a square exactly when d1(value) is a square
        v = Fraction(-4, 13)
        cubic = fiber_cubic(FiberMap.Y, v)
        d, c, b, a = (Fraction(cubic[i]) for i in range(4))
        disc_sq, _ = rat_is_square(discriminant_cubic(a, b, c, d))
        d1_sq, root = rat_is_square(D1_POLY(v))
        assert disc_sq and d1_sq
        assert root == Fraction(57, 2197)


class TestSweep:
    def test_y_map_cyclic_only_at_sporadic_value_height_12(self):
        sweep = {v: classify_fiber(FiberMap.Y, v) for v in enumerate_rationals(12)}
        cyclic = [v for v, c in sweep.items() if c.kind is FiberKind.CYCLIC_CUBIC]
        assert cyclic == []  # -4/13 has height 13
        sweep13 = {v: classify_fiber(FiberMap.Y, v) for v in enumerate_rationals(13)}
        cyclic13 = [v for v, c in sweep13.items() if c.kind is FiberKind.CYCLIC_CUBIC]
        assert cyclic13 == [Fraction(-4, 13)]

    def test_t_map_never_cyclic_height_12(self):
        sweep = {v: classify_fiber(FiberMap.T, v) for v in enumerate_rationals(12)}
        assert all(c.kind is not FiberKind.CYCLIC_CUBIC for c in sweep.values())

    def test_wire_form_is_frozen_for_both_maps_at_height_12(self, capsys):
        """Every field of every fiber, the degree drops at y = 0 and t = 0 and the
        ramified fibers at y = -1 and t = -1 among them, as the report stream writes it."""
        sink = ReportSink({}, json_only=True)
        for fmap in FiberMap:
            for v in enumerate_rationals(12):
                sink.emit_raw(classify_fiber(fmap, v))
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "8a86efe2d9fa3c349cf58cb774449a5a8750b0e67ba19172e443d9c31d06bd07"

    def test_squareness_routes_agree(self):
        # for a non-degenerate irreducible fiber: disc square <=> d1 square
        for v in enumerate_rationals(8):
            c = classify_fiber(FiberMap.Y, v)
            if c.kind in (FiberKind.CYCLIC_CUBIC, FiberKind.NON_CYCLIC_CUBIC):
                d1_sq, _ = rat_is_square(D1_POLY(v))
                assert c.discriminant_is_square == d1_sq


class TestNineteenDivisibility:
    def test_all_good_primes(self):
        table = nineteen_divisibility([3, 5, 7, 11, 19, 23])
        orders = {p: entry["jacobian_order"] for p, entry in table.items()}
        assert orders == {3: 19, 5: 19, 7: 57, 11: 133, 19: 513, 23: 399}
        assert all(entry["divisible_by_19"] for entry in table.values())

    def test_level_prime_rejected(self):
        with pytest.raises(ValueError):
            nineteen_divisibility([13])
