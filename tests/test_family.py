from fractions import Fraction

import pytest

from torsion13 import cli, family, fields
from torsion13.elliptic import CurvePoint, WeierstrassCurve, add_points
from torsion13.family import (A_NUMERATOR, B_NUMERATOR, DENOMINATOR_QUARTIC,
                              X_NUMERATOR_CONSTANT, FamilyInstance,
                              build_family_instance, verify_family_instance,
                              verify_w_disc_identity, w_cubic,
                              w_cubic_discriminant_target)
from torsion13.fields import NumberField
from torsion13.polynomials import (Polynomial, discriminant_cubic, enumerate_rationals,
                                   poly_gcd, qpoly)


class TestBuildInstance:
    def test_t_equals_one(self):
        inst = build_family_instance(1)
        assert inst.a_value == Fraction(16, 7)
        assert inst.b_value == Fraction(92, 49)
        assert inst.w_minimal == qpoly(1, -1, -2, 1)  # w^3 - 2w^2 - w + 1
        assert inst.disc_w == 49
        assert inst.status == "cyclic"

    def test_reducible_w_cubic_is_split(self, monkeypatch):
        monkeypatch.setattr(family, "_w_cubic_form", lambda a, b: (0, -1, 0, 1))  # w^3 - w
        inst = build_family_instance(1)
        assert (inst.status, inst.field, inst.point) == ("split", None, None)
        assert inst.disc_w == 4

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            build_family_instance(0)

    def test_t_minus_one_disc(self):
        inst = build_family_instance(-1)
        assert inst.disc_w == 49
        assert inst.a_value == Fraction(16, 7)

    def test_curve_coefficients(self):
        inst = build_family_instance(1)
        assert inst.curve.a4 == -27 * Fraction(16, 7)
        assert inst.curve.a6 == 54 * 2 * Fraction(92, 49)


def reference_instance(t: Fraction) -> dict:
    """The family data at t built as the module docstring writes it: A and B
    as quotients of polynomial values, the discriminant in plain Fractions,
    and the point by element arithmetic in Q(w)."""
    den = DENOMINATOR_QUARTIC(t)
    a_value, b_value = A_NUMERATOR(t) / den, B_NUMERATOR(t) / den ** 2
    a4, a6 = -27 * a_value, 54 * (t * t + 1) * b_value
    w = NumberField(w_cubic(t))(0, 1)
    return {"a_value": a_value, "b_value": b_value, "a4": a4, "a6": a6,
            "disc": -16 * (4 * a4 ** 3 + 27 * a6 ** 2),
            "x": (36 * t * w + 3 * X_NUMERATOR_CONSTANT(t)) / den,
            "y": 108 * t * ((t - 1) * w + t) / den}


class TestIntegerBuild:
    """build_family_instance evaluates each t-polynomial once as an integer
    binary form; every field it builds equals the reference value."""

    def test_what_the_build_relies_on(self):
        # so A and B have the denominators DENOMINATOR_QUARTIC and its square
        assert poly_gcd(A_NUMERATOR, DENOMINATOR_QUARTIC) == qpoly(1)
        assert poly_gcd(B_NUMERATOR, DENOMINATOR_QUARTIC) == qpoly(1)
        for poly in (DENOMINATOR_QUARTIC, A_NUMERATOR, B_NUMERATOR, X_NUMERATOR_CONSTANT):
            assert all(c.denominator == 1 for c in poly.coeffs)

    @pytest.mark.parametrize("t", [t for t in enumerate_rationals(12) if t]
                             + [Fraction(999983, 10**6), Fraction(-10**6)])
    def test_matches_the_reference(self, t):
        inst, ref = build_family_instance(t), reference_instance(t)
        curve = inst.curve
        assert (inst.t, inst.status, inst.w_minimal) == (t, "cyclic", w_cubic(t))
        assert (inst.a_value, inst.b_value) == (ref["a_value"], ref["b_value"])
        assert (curve.a1, curve.a2, curve.a3) == (0, 0, 0)
        assert (curve.a4, curve.a6, curve.disc) == (ref["a4"], ref["a6"], ref["disc"])
        assert all(type(v) is Fraction for v in (inst.a_value, inst.b_value, *curve.coefficients(),
                                                 curve.disc))
        assert (inst.point.x, inst.point.y) == (ref["x"], ref["y"])
        assert inst.point.x.field == inst.field == ref["x"].field
        # Q(w) built from the cubic's integers keys and hashes as the one built from the cubic
        assert hash(inst.field) == hash(ref["x"].field)
        assert inst.field.minimal_polynomial == ref["x"].field.minimal_polynomial


class TestVerifyInstance:
    @pytest.mark.parametrize("t", [Fraction(1), Fraction(2), Fraction(1, 3)])
    def test_passes(self, t):
        outcome = verify_family_instance(build_family_instance(t))
        assert outcome.passed
        assert outcome.order == 13
        assert outcome.on_curve
        assert outcome.disc_is_square and outcome.disc_nonzero

    def test_point_and_cubic_checked_once(self, monkeypatch):
        """One on-curve test, and the w-cubic's integer form tested once for roots."""
        is_on_curve, form_roots = WeierstrassCurve.is_on_curve, fields._form_roots
        calls = []
        monkeypatch.setattr(WeierstrassCurve, "is_on_curve",
                            lambda curve, point: calls.append("on") or is_on_curve(curve, point))
        monkeypatch.setattr(fields, "_form_roots",
                            lambda ints: calls.append("roots") or form_roots(ints))
        assert verify_family_instance(build_family_instance(Fraction(3, 5))).passed
        assert calls.count("on") == 1
        assert calls.count("roots") == 1

    def test_work_of_one_family_verify_is_pinned(self, monkeypatch, capsys):
        """Counts, not times: the Q(w) elements built, the full Q(w) products
        (convolutions) made, and the Fractions and Polynomials built by
        `family verify --t 3/5`.  Each group-law step divides once, by one
        product with an adjugate, and builds only x3 and y3; the on-curve test
        builds no element; the w-cubic goes from integers to Q(w) and its
        discriminant without a polynomial.  So more of any count means work
        came back."""
        counts = dict.fromkeys(("elements", "products", "fractions", "polynomials"), 0)

        def counting(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(fields, "_element", "elements")
        counting(fields, "_product", "products")
        counting(Fraction, "__new__", "fractions")
        counting(Polynomial, "__init__", "polynomials")
        assert cli.main(["family", "verify", "--t", "3/5", "--json-only"]) == 0
        assert '"order": 13' in capsys.readouterr().out
        assert counts == {"elements": 10, "products": 17, "fractions": 10, "polynomials": 0}

    def test_point_off_the_curve_is_a_failure_not_an_error(self):
        inst = build_family_instance(Fraction(3, 5))
        off = FamilyInstance(inst.t, inst.a_value, inst.b_value, inst.curve, inst.disc_w,
                             inst.status, inst.field, CurvePoint(inst.point.x, inst.point.y + 1))
        outcome = verify_family_instance(off)
        assert (outcome.passed, outcome.on_curve, outcome.order) == (False, False, None)
        assert outcome.failures == ("point does not satisfy the curve equation",)

    def test_point_on_curve_is_exact_identity(self):
        inst = build_family_instance(Fraction(-2, 5))
        assert inst.curve.is_on_curve(inst.point)

    def test_multiples_distinct_and_irrational(self):
        inst = build_family_instance(Fraction(2))
        seen = set()
        q = inst.point
        for _ in range(12):  # q = kP for k = 1, ..., 12
            assert not q.is_infinity
            assert (q.x.coords, q.y.coords) not in seen
            seen.add((q.x.coords, q.y.coords))
            assert not (q.x.is_rational() and q.y.is_rational())
            q = add_points(inst.curve, q, inst.point)

    def test_disc_positive_for_samples(self):
        for t in [Fraction(1), Fraction(-3), Fraction(5, 7), Fraction(-1, 9)]:
            inst = build_family_instance(t)
            assert inst.disc_w > 0

    def test_split_instance_reported_not_verified(self):
        inst = build_family_instance(Fraction(1))
        split = FamilyInstance(inst.t, inst.a_value, inst.b_value, inst.curve, inst.disc_w,
                               "split", None, None)
        outcome = verify_family_instance(split)
        assert not outcome.passed
        assert any("splits" in f for f in outcome.failures)


class TestWDiscIdentity:
    def test_symbolic_identity(self):
        assert verify_w_disc_identity()

    def test_target_polynomial(self):
        target = w_cubic_discriminant_target()
        assert target(Fraction(1)) == 49

    def test_evaluation_cross_checks(self):
        for t in (Fraction(1), Fraction(-2)):
            cubic = w_cubic(t)
            closed = discriminant_cubic(Fraction(1), cubic[2], cubic[1], cubic[0])
            assert closed == w_cubic_discriminant_target()(t)

    def test_quartic_never_vanishes_rationally(self):
        from torsion13.polynomials import rational_roots
        assert rational_roots(DENOMINATOR_QUARTIC) == set()


class TestRationalFunctions:
    def test_a_and_b_denominators(self):
        t = Fraction(2)
        den = DENOMINATOR_QUARTIC(t)
        assert den == 16 - 8 + 20 + 2 + 1
        assert A_NUMERATOR(t) / den == Fraction(-17, 31)
        assert B_NUMERATOR(t) / den ** 2 == Fraction(1301, 961)

    def test_sweep_small_heights(self):
        failures = []
        for t in enumerate_rationals(3):
            if t == 0:
                continue
            outcome = verify_family_instance(build_family_instance(t))
            if not outcome.passed:
                failures.append((t, outcome.failures))
        assert not failures
