import random
from fractions import Fraction

import pytest

from torsion13.cli import MODELS
from torsion13.fields import BadReductionError, PrimeField, QuadraticExtensionField
from torsion13.hyperelliptic import (HyperellipticModel, ModelPoint, _reduced_points,
                                     count_points, is_smooth_mod_p,
                                     jacobian_order_fp, mod_p_residues,
                                     points_mod_p, search_rational_points)
from torsion13.polynomials import Polynomial, qpoly
from torsion13.x13 import D1_MODEL, D2_MIN_MODEL, D2_RAW_MODEL, X13_MODEL

from oracles import (branch_discriminant, count_curve_points, divisor_class_count,
                     primes_upto, search_points, singular_affine_points)


def int_coeffs(poly):
    return [int(Fraction(c)) for c in poly.coeffs]


class TestModel:
    def test_genus_values(self):
        assert X13_MODEL.genus == 2
        assert D1_MODEL.genus == 2
        assert D2_RAW_MODEL.genus == 3
        assert D2_MIN_MODEL.genus == 3
        assert HyperellipticModel(f=qpoly(1, 0, 0, 1), h=Polynomial()).genus == 1

    def test_singular_model_rejected(self):
        with pytest.raises(ValueError):
            HyperellipticModel(f=qpoly(0, 0, 1), h=Polynomial())  # v^2 = u^2

    def test_h_degree_bound(self):
        # h^2 + 4f cancels down to u^3 + u + 1 (genus 1) while deg h = 3
        f = qpoly(Fraction(1, 4), Fraction(1, 4), 0, Fraction(1, 4), 0, 0,
                  Fraction(-1, 4))
        with pytest.raises(ValueError):
            HyperellipticModel(f=f, h=qpoly(0, 0, 0, 1))


class TestInfinityChart:
    def test_x13_has_two_points_at_infinity(self):
        pts = X13_MODEL.points_at_infinity()
        assert len(pts) == 2
        assert {p.v for p in pts} == {0, -1}
        # chart data: ht(0) = leading x^3 coefficient of h, ft(0) = 0
        _, (_, ft, ht) = X13_MODEL.charts
        assert ht(Fraction(0)) == 1 and ft(Fraction(0)) == 0

    def test_odd_degree_single_point(self):
        assert len(D2_MIN_MODEL.points_at_infinity()) == 1
        assert len(D2_RAW_MODEL.points_at_infinity()) == 1

    def test_even_degree_square_leading_coefficient(self):
        model = HyperellipticModel(f=qpoly(1, 0, 0, 0, 0, 0, 1), h=Polynomial())
        pts = model.points_at_infinity()
        assert {p.v for p in pts} == {1, -1}

    def test_points_satisfy_chart_equation(self):
        for model in (X13_MODEL, D2_MIN_MODEL, D1_MODEL):
            for p in model.points_at_infinity():
                assert model.satisfies(p)


class TestCountPoints:
    def test_d2_minimal_has_three_f2_points(self):
        assert count_points(D2_MIN_MODEL, PrimeField(2)) == 3

    def test_x13_f2_against_bruteforce(self):
        n = count_points(X13_MODEL, PrimeField(2))
        assert n == 6
        assert n == count_curve_points(int_coeffs(X13_MODEL.f),
                                       int_coeffs(X13_MODEL.h), 2, 2)

    def test_counts_match_independent_loop(self):
        # characteristic 2 included: there h = 0 makes D1 singular, the count still holds
        for model in (X13_MODEL, D1_MODEL, D2_MIN_MODEL):
            for p in (2, 3, 5, 7):
                oracle = count_curve_points(int_coeffs(model.f), int_coeffs(model.h),
                                            model.genus, p)
                assert count_points(model, PrimeField(p)) == oracle
                assert len(points_mod_p(model, p)) == oracle

    def test_quadratic_extension_counts_match_oracle(self):
        for model, p in ((X13_MODEL, 2), (X13_MODEL, 3), (X13_MODEL, 5), (D2_MIN_MODEL, 2)):
            ours = count_points(model, QuadraticExtensionField(p))
            oracle = count_curve_points(int_coeffs(model.f), int_coeffs(model.h),
                                        model.genus, p, squared=True)
            assert ours == oracle

    def test_bad_reduction_denominator(self):
        model = HyperellipticModel(f=qpoly(Fraction(1, 3), 0, 0, 0, 0, 1),
                                   h=Polynomial())
        with pytest.raises(BadReductionError):
            count_points(model, PrimeField(3))

    def test_count_bound(self):
        # quadratic in v: at most 2 points per u, plus at most 2 at infinity
        for p in (3, 5, 7, 11, 13):
            n = count_points(X13_MODEL, PrimeField(p))
            assert n <= 2 * p + 3

    def test_hasse_weil_window(self):
        for model, g in ((X13_MODEL, 2), (D2_MIN_MODEL, 3)):
            for p in (3, 5, 7, 11, 13, 17, 19, 23):
                if not is_smooth_mod_p(model, p):
                    continue
                n = count_points(model, PrimeField(p))
                assert (n - (p + 1)) ** 2 <= (2 * g) ** 2 * 4 * p


class TestSmoothness:
    def test_d2_minimal_good_at_2(self):
        assert is_smooth_mod_p(D2_MIN_MODEL, 2)

    def test_x13_outcomes(self):
        # recorded outcomes: good away from 13, bad exactly at the level
        assert is_smooth_mod_p(X13_MODEL, 2)
        assert not is_smooth_mod_p(X13_MODEL, 13)
        for p in (3, 5, 7, 11, 19, 23):
            assert is_smooth_mod_p(X13_MODEL, p)

    def test_smooth_over_q_but_singular_mod_5(self):
        model = HyperellipticModel(f=qpoly(5, 0, 0, 0, 0, 0, 1), h=Polynomial())
        assert not is_smooth_mod_p(model, 5)
        assert is_smooth_mod_p(model, 7)
        # singular mod 5 only at infinity: the u^5 and u^6 terms vanish there
        at_infinity = HyperellipticModel(f=qpoly(1, 1, 0, 0, 1, 5, 5), h=Polynomial())
        assert not is_smooth_mod_p(at_infinity, 5)
        # h = 0 in characteristic 2: dF/dv = 2v vanishes identically, so
        # every point where f' also vanishes is singular
        assert not is_smooth_mod_p(D1_MODEL, 2)

    def test_d1_good_at_sieve_primes(self):
        for p in (3, 7, 11):
            assert is_smooth_mod_p(D1_MODEL, p)


# smooth over Q, singular mod p only at points over F_{p^2}: mod 5 the factor
# u^2 + 5u - 3 becomes u^2 - 3, which is irreducible there, and mod 2
# h = u^2 + u + 1 vanishes at the two points of F_4 outside F_2, where
# h'^2 f + f'^2 = u^5 + u^8 vanishes too
SQUARED_FACTOR_MOD_5 = HyperellipticModel(
    f=qpoly(-3, 0, 1) * qpoly(-3, 5, 1) * qpoly(-7, 1), h=Polynomial())
SINGULAR_OVER_F4 = HyperellipticModel(f=qpoly(0, 0, 0, 0, 0, 1), h=qpoly(1, 1, 1))


class TestGoodReduction:
    def test_bad_primes_of_the_shipped_models_up_to_1000(self):
        bad = {name: [p for p in primes_upto(1000) if not is_smooth_mod_p(model, p)]
               for name, model in MODELS.items()}
        assert bad == {"d1": [2, 13, 19], "d2": [2, 13, 181], "d2min": [13, 181], "x": [13]}

    @pytest.mark.parametrize("model, p", [(SQUARED_FACTOR_MOD_5, 5), (SINGULAR_OVER_F4, 2)])
    def test_singular_point_only_over_the_quadratic_extension(self, model, p):
        f, h = int_coeffs(model.f), int_coeffs(model.h)
        assert singular_affine_points(f, h, p) == []
        assert singular_affine_points(f, h, p, squared=True)
        assert not is_smooth_mod_p(model, p)
        with pytest.raises(BadReductionError):
            jacobian_order_fp(model, p)

    def test_shipped_models_agree_with_the_discriminant_at_odd_primes(self):
        for model in MODELS.values():
            disc = branch_discriminant(model.f.coeffs, model.h.coeffs, model.genus)
            for p in primes_upto(1000)[1:]:
                assert is_smooth_mod_p(model, p) == (disc.numerator % p != 0), p

    def test_random_models_agree_with_the_discriminant(self):
        rng = random.Random(23)
        models = [SQUARED_FACTOR_MOD_5] + [model for genus in (2, 3) for with_h in (False, True)
                                           for model in random_models(rng, 6, genus, with_h)]
        outcomes = set()
        for model in models:
            disc = branch_discriminant(model.f.coeffs, model.h.coeffs, model.genus)
            for p in (3, 5, 7, 11):
                smooth = is_smooth_mod_p(model, p)
                assert smooth == (disc.numerator % p != 0), (model, p)
                outcomes.add(smooth)
        assert outcomes == {False, True}


class TestSearch:
    def test_d1_exactly_five_points(self):
        pts = search_rational_points(D1_MODEL, 100)
        assert pts == [
            ModelPoint("affine", Fraction(-1), Fraction(0)),
            ModelPoint("affine", Fraction(0), Fraction(-1)),
            ModelPoint("affine", Fraction(0), Fraction(1)),
            ModelPoint("affine", Fraction(-4, 13), Fraction(-57, 2197)),
            ModelPoint("affine", Fraction(-4, 13), Fraction(57, 2197)),
        ]

    def test_d2_exactly_three_points(self):
        pts = search_rational_points(D2_RAW_MODEL, 100)
        assert pts == [
            ModelPoint("infinity", Fraction(0), Fraction(0)),
            ModelPoint("affine", Fraction(-1), Fraction(0)),
            ModelPoint("affine", Fraction(0), Fraction(0)),
        ]

    def test_full_two_torsion_cubic(self):
        model = HyperellipticModel(f=qpoly(0, -1, 0, 1), h=Polynomial())  # v^2 = u^3 - u
        pts = search_rational_points(model, 3)
        assert set(pts) == {
            ModelPoint("infinity", Fraction(0), Fraction(0)),
            ModelPoint("affine", Fraction(-1), Fraction(0)),
            ModelPoint("affine", Fraction(0), Fraction(0)),
            ModelPoint("affine", Fraction(1), Fraction(0)),
        }

    def test_results_stable_under_height_increase(self):
        for h1, h2 in ((5, 20), (20, 60)):
            small = set(search_rational_points(D1_MODEL, h1))
            large = set(search_rational_points(D1_MODEL, h2))
            assert small <= large

    def test_every_point_satisfies_its_chart_equation(self):
        for model in (D1_MODEL, D2_RAW_MODEL, X13_MODEL):
            for p in search_rational_points(model, 30):
                assert model.satisfies(p)

    def test_ordered_points_equal_oracle_search(self):
        # random genus-2 and genus-3 models, h = 0 and h != 0, and two models
        # with rational branch points (one v there), against the quadratic
        # formula in plain Fractions; the type check catches a float v
        # (-0/2 from an int h(u) = 0), which compares equal to a Fraction
        rng = random.Random(29)
        models = [model for genus in (2, 3) for with_h in (False, True)
                  for model in random_models(rng, 5, genus, with_h)]
        models.append(HyperellipticModel(f=qpoly(0, -1, 0, 0, 0, 1), h=Polynomial()))
        # h^2 + 4f = (u - 1)(u^5 + 2): the branch point u = 1 carries v = -h(1)/2 = -1
        models.append(HyperellipticModel(
            f=qpoly(Fraction(-3, 4), 0, Fraction(-1, 4), 0, 0, Fraction(-1, 4), Fraction(1, 4)),
            h=qpoly(1, 1)))
        kinds = set()
        for model in models:
            height = rng.randint(1, 12)
            points = search_rational_points(model, height)
            assert all(type(p.u) is Fraction and type(p.v) is Fraction for p in points)
            assert [(p.chart, p.u, p.v) for p in points] == search_points(
                model.f.coeffs, model.h.coeffs, model.genus, height)
            above = {}
            for p in points:
                above.setdefault((p.chart, p.u), []).append(p.v)
            kinds |= {(chart, len(vs)) for (chart, _), vs in above.items()}
        assert kinds == {("infinity", 1), ("infinity", 2), ("affine", 1), ("affine", 2)}

    def test_nontrivial_v_solutions_on_x13(self):
        pts = search_rational_points(X13_MODEL, 2)
        affine = {(p.u, p.v) for p in pts if p.chart == "affine"}
        assert {(Fraction(-1), Fraction(-1)), (Fraction(-1), Fraction(0)),
                (Fraction(0), Fraction(-1)), (Fraction(0), Fraction(0))} <= affine


class TestJacobianOrder:
    def test_x13_orders(self):
        assert jacobian_order_fp(X13_MODEL, 3) == 19
        assert jacobian_order_fp(X13_MODEL, 5) == 19

    def test_wrong_genus_rejected(self):
        with pytest.raises(ValueError):
            jacobian_order_fp(D2_MIN_MODEL, 3)

    def test_bad_reduction_rejected(self):
        with pytest.raises(BadReductionError):
            jacobian_order_fp(X13_MODEL, 13)

    def test_formula_against_divisor_class_enumeration_f3(self):
        model = HyperellipticModel(f=qpoly(1, 0, 0, 0, 0, 1), h=Polynomial())
        ours = jacobian_order_fp(model, 3)
        assert ours == divisor_class_count([1, 0, 0, 0, 0, 1], [0], 3) == 10

    def test_formula_against_divisor_class_enumeration_f2(self):
        # v^2 + v = u^5, good reduction at 2 thanks to the h term
        model = HyperellipticModel(f=qpoly(0, 0, 0, 0, 0, 1), h=qpoly(1))
        ours = jacobian_order_fp(model, 2)
        assert ours == divisor_class_count([0, 0, 0, 0, 0, 1], [1], 2)

    def test_elliptic_sanity(self):
        # genus-1 analogue by hand: #J = #C for an elliptic curve, checked
        # via the same N1 bookkeeping specialized by the test itself
        model = HyperellipticModel(f=qpoly(1, 0, 0, 0, 0, 1), h=Polynomial())
        p = 7
        n1 = count_points(model, PrimeField(p))
        n2 = count_points(model, QuadraticExtensionField(p))
        s1 = p + 1 - n1
        s2 = (s1 * s1 - (p * p + 1 - n2)) // 2
        assert jacobian_order_fp(model, p) == 1 - s1 + s2 - p * s1 + p * p


class TestResidues:
    def test_d1_residues_mod_3(self):
        pts = search_rational_points(D1_MODEL, 100)
        res = mod_p_residues(pts, 3)
        assert res == {("affine", 2, 0), ("affine", 0, 1), ("affine", 0, 2)}
        everything = points_mod_p(D1_MODEL, 3)
        assert res <= everything
        assert len(everything) == 6

    def test_d2min_residue_bijection_mod_2(self):
        pts = search_rational_points(D2_MIN_MODEL, 100)
        res = mod_p_residues(pts, 2)
        everything = points_mod_p(D2_MIN_MODEL, 2)
        assert res == everything
        assert len(everything) == 3

    def test_residue_with_bad_denominator(self):
        pts = [ModelPoint("affine", Fraction(-4, 13), Fraction(57, 2197))]
        with pytest.raises(BadReductionError):
            mod_p_residues(pts, 13)


def brute_force_points(model, p):
    """Every (chart, u, v) over F_p by a double loop over integers mod p."""
    f, h, g = int_coeffs(model.f), int_coeffs(model.h), model.genus

    def value(coeffs, x):
        return sum(c * x**i for i, c in enumerate(coeffs)) % p

    ft0 = f[2 * g + 2] if len(f) > 2 * g + 2 else 0
    ht0 = h[g + 1] if len(h) > g + 1 else 0
    points = {("affine", u, v) for u in range(p) for v in range(p)
              if (v * v + value(h, u) * v - value(f, u)) % p == 0}
    points |= {("infinity", 0, v) for v in range(p) if (v * v + ht0 * v - ft0) % p == 0}
    return points


def random_models(rng, count, genus=2, with_h=True):
    """Valid Q-models of the genus with small integer coefficients, h != 0 or h = 0."""
    models = []
    while len(models) < count:
        f = qpoly(*(rng.randint(-3, 3) for _ in range(2 * genus + 3)))
        h = qpoly(*(rng.randint(-2, 2) for _ in range(genus + 2))) if with_h else Polynomial()
        if (not h) == with_h:
            continue
        try:
            model = HyperellipticModel(f=f, h=h)
        except ValueError:
            continue
        if model.genus == genus:
            models.append(model)
    return models


class TestRootTableEnumerator:
    def test_x13_and_d1_over_quadratic_extensions(self):
        for model in (X13_MODEL, D1_MODEL):
            for p in (3, 5, 7):
                oracle = count_curve_points(int_coeffs(model.f), int_coeffs(model.h),
                                            model.genus, p, squared=True)
                assert count_points(model, QuadraticExtensionField(p)) == oracle

    def test_random_h_nonzero_models_in_characteristic_2(self):
        # both Artin-Schreier branches: h(u) = 0 (one v) and h(u) != 0 (zero or two)
        branches = {2: set(), 4: set()}
        for model in random_models(random.Random(13), 24):
            for field, squared in ((PrimeField(2), False), (QuadraticExtensionField(2), True)):
                oracle = count_curve_points(int_coeffs(model.f), int_coeffs(model.h),
                                            model.genus, 2, squared=squared)
                assert count_points(model, field) == oracle
                (_, _, hbar), (_, _, htbar) = model.reduce_coefficients(field)
                values = [hbar(u) for u in field.elements()] + [htbar(field.zero)]
                branches[field.order()] |= {bool(value) for value in values}
        assert branches == {2: {False, True}, 4: {False, True}}

    def test_yielded_points_equal_exhaustive_pairs(self):
        # counts alone cannot see a wrong v in characteristic 2 (v -> h(u)v is a bijection)
        models = [X13_MODEL, D1_MODEL, D2_MIN_MODEL] + random_models(random.Random(7), 6)
        for model in models:
            for field in (PrimeField(2), QuadraticExtensionField(2),
                          PrimeField(3), QuadraticExtensionField(3)):
                (_, fbar, hbar), (_, ftbar, htbar) = model.reduce_coefficients(field)
                elements = list(field.elements())
                expected = {("affine", u, v) for u in elements for v in elements
                            if v * v + hbar(u) * v == fbar(u)}
                expected |= {("infinity", field.zero, v) for v in elements
                             if v * v + htbar(field.zero) * v == ftbar(field.zero)}
                yielded = list(_reduced_points(model, field))
                assert len(yielded) == len(set(yielded))
                assert set(yielded) == expected

    def test_points_mod_p_equal_brute_force(self):
        for model in (X13_MODEL, D1_MODEL, D2_MIN_MODEL):
            for p in (3, 7, 11):
                assert points_mod_p(model, p) == brute_force_points(model, p)

    def test_x13_count_at_101(self):
        oracle = count_curve_points(int_coeffs(X13_MODEL.f), int_coeffs(X13_MODEL.h), 2, 101)
        assert count_points(X13_MODEL, PrimeField(101)) == oracle

    def test_x13_good_reduction_exactly_away_from_13(self):
        for p in primes_upto(101):
            assert is_smooth_mod_p(X13_MODEL, p) == (p != 13)
