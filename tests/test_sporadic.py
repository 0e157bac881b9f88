from fractions import Fraction

import pytest

from torsion13 import fields
from torsion13.elliptic import add_points, point_order
from torsion13.polynomials import qpoly
from torsion13.sporadic import (B_COORDS, C_COORDS, CONTRAST_CUBIC,
                                fiber_field_evidence,
                                monic_integral_cubic, sporadic_curve,
                                sporadic_fiber_cubic, verify_sporadic)

from oracles import order_by_addition

# j(E0) in the basis {1, alpha, alpha^2}, frozen from an independent
# symbolic computation of c4^3 / disc with reduction mod the minimal polynomial
J_DEN = 13934699717636441710870715695104
J_COORDS = (
    Fraction(-165785050602589471908774921701099261, J_DEN),
    Fraction(3765843436919476691383688796799903, J_DEN),
    Fraction(1810374818322795271818812521545061, J_DEN),
)


class TestVerifySporadic:
    def test_all_assertions_pass(self):
        table = verify_sporadic()
        assert [name for name, _ in table] == [
            "minimal_polynomial_irreducible",
            "polynomial_discriminant",
            "curve_nonsingular",
            "origin_has_order_13",
            "j_invariant_irrational",
        ]
        assert all(check()[0] for _, check in table)

    def test_work_of_the_five_assertions_is_pinned(self, monkeypatch):
        """Counts, not times: the Q(alpha) elements built, the full products and
        the adjugates made by the five assertions.  Only the curve's
        discriminant and j take - and /, which FieldElement derives from +,
        unary - and inverse(), so more of any count means work came back."""
        counts = dict.fromkeys(("_element", "_product", "_adjugate"), 0)

        def counting(name):
            original = getattr(fields, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)
            monkeypatch.setattr(fields, name, wrapper)

        for name in counts:
            counting(name)
        for _, check in verify_sporadic():
            check()
        assert counts == {"_element": 169, "_product": 84, "_adjugate": 5}

    def test_order_thirteen_exactly(self):
        _, curve, origin = sporadic_curve()
        assert point_order(curve, origin, 20) == 13
        assert order_by_addition(curve.coefficients(), (origin.x, origin.y), 14) == 13

    def test_j_invariant_frozen_value(self):
        _, curve, _ = sporadic_curve()
        assert curve.j.coords == J_COORDS
        assert not curve.j.is_rational()

    def test_parameter_transcription(self):
        # denominators 19773 = 3^2 * 13^3 and 1521 = 39^2
        assert 19773 == 9 * 13**3
        assert 1521 == 39**2
        assert B_COORDS == (Fraction(-1936, 19773), Fraction(90, 19773),
                            Fraction(10, 19773))
        assert C_COORDS == (Fraction(-208, 1521), Fraction(50, 1521),
                            Fraction(6, 1521))

    def test_two_times_origin_lands_on_b(self):
        field, curve, origin = sporadic_curve()
        double = add_points(curve, origin, origin)
        assert double.x == field(*B_COORDS)


class TestFiberCubic:
    def test_monic_integral_form(self):
        cubic = sporadic_fiber_cubic()
        assert cubic == qpoly(97344, 8788, 221, 1)

    def test_monic_transform_rejects_non_integral_result(self):
        with pytest.raises(ValueError):
            monic_integral_cubic(qpoly(Fraction(1, 3), 0, 0, 1))

    def test_monic_transform_root_correspondence(self):
        # roots scale by the leading coefficient: same splitting mod p
        orig = qpoly(-36, -169, -221, -52)
        monic = monic_integral_cubic(-orig)
        for p in (3, 5, 7, 11):
            orig_roots = sum(
                1 for x in range(p)
                if sum(int(c) * x**i for i, c in enumerate(orig.coeffs)) % p == 0)
            monic_roots = sum(
                1 for x in range(p)
                if sum(int(c) * x**i for i, c in enumerate(monic.coeffs)) % p == 0)
            assert orig_roots == monic_roots


class TestFingerprintEvidence:
    def test_agreement_up_to_1000(self):
        report = fiber_field_evidence(1000)
        assert report.fingerprints_agree
        assert report.first_disagreement is None
        assert report.compared_primes > 100
        assert report.fiber_disc_square and report.field_disc_square

    def test_contrast_control_separates(self):
        for bound in (50, 99, 200):
            assert fiber_field_evidence(bound).contrast_first_disagreement == 5

    def test_contrast_cubic_is_cyclic(self):
        from torsion13.polynomials import discriminant_cubic, rat_is_square
        disc = discriminant_cubic(*(Fraction(CONTRAST_CUBIC[i]) for i in (3, 2, 1, 0)))
        ok, root = rat_is_square(disc)
        assert ok and root == 13

    def test_minimum_bound_enforced(self):
        with pytest.raises(ValueError):
            fiber_field_evidence(10)

    def test_report_json(self, wire):
        data = wire(fiber_field_evidence(100))
        assert data["fingerprints_agree"] is True
        assert data["fiber_cubic"] == ["97344/1", "8788/1", "221/1", "1/1"]
