"""The sporadic datum: the cyclic cubic field Q(alpha) with
alpha^3 - alpha^2 - 82 alpha + 64 = 0 and the Tate-form curve over it

    E0 : y^2 + (1-c) xy - by = x^3 - bx^2,
    b = (10 alpha^2 + 90 alpha - 1936) / 19773,
    c = (6 alpha^2 + 50 alpha - 208) / 1521,

whose point (0,0) has order 13.  The field is tied to the fiber of the
y-coordinate map above -4/13 by comparing how the two defining cubics
split modulo many primes (evidence of isomorphism, not a proof).
"""

from __future__ import annotations

from fractions import Fraction

from .elliptic import SingularCurveError, point_order, tate_curve, tate_origin
from .fields import NumberField, splitting_fingerprint
from .polynomials import (Polynomial, Record, discriminant_cubic, qpoly, rat_is_square,
                          rational_roots)
from .x13 import FiberMap, fiber_cubic

SPORADIC_MIN_POLY = qpoly(64, -82, -1, 1)

# a different cyclic cubic (disc 13^2); guards the fingerprint test's power
CONTRAST_CUBIC = qpoly(1, -4, 1, 1)

SPORADIC_FIBER_VALUE = Fraction(-4, 13)

B_COORDS = (Fraction(-1936, 19773), Fraction(90, 19773), Fraction(10, 19773))
C_COORDS = (Fraction(-208, 1521), Fraction(50, 1521), Fraction(6, 1521))


def sporadic_curve():
    """The field, the curve, and its distinguished point (0, 0)."""
    field = NumberField(SPORADIC_MIN_POLY)
    curve = tate_curve(field(*B_COORDS), field(*C_COORDS))
    return field, curve, tate_origin(curve)


def _minimal_polynomial_irreducible():
    roots = rational_roots(SPORADIC_MIN_POLY)
    return not roots, f"rational roots: {sorted(roots) if roots else 'none'}"


def _polynomial_discriminant():
    disc = discriminant_cubic(*reversed(SPORADIC_MIN_POLY.coeffs))
    index_sq, index_root = rat_is_square(Fraction(disc, 247**2))
    return (disc == 2196324 == 1482**2 and index_sq and index_root == 6,
            f"disc = {disc}, disc/247^2 = {Fraction(disc, 247 ** 2)}")


def _curve_nonsingular():
    try:
        sporadic_curve()
    except SingularCurveError as exc:
        return False, str(exc)
    return True, "discriminant is nonzero"


def _origin_has_order_13():
    _, curve, origin = sporadic_curve()
    order = point_order(curve, origin, 20, expected=13)
    return order == 13, f"order = {order}"


def _j_invariant_irrational():
    j = sporadic_curve()[1].j
    return not j.is_rational(), f"j coordinates = {j.coords}"


def verify_sporadic():
    """The verifiable properties of the sporadic datum, in order, as
    (name, check) pairs.  Each check computes its own property and returns
    (passed, detail).

    1. the defining cubic has no rational root (irreducible);
    2. its discriminant is 1482^2, and 1482^2 / 247^2 = 36 is a square
       (consistent with field discriminant 247^2);
    3. the curve is nonsingular;
    4. (0,0) has order exactly 13;
    5. j of the curve is irrational, so the curve is not defined over Q.
    """
    return (("minimal_polynomial_irreducible", _minimal_polynomial_irreducible),
            ("polynomial_discriminant", _polynomial_discriminant),
            ("curve_nonsingular", _curve_nonsingular),
            ("origin_has_order_13", _origin_has_order_13),
            ("j_invariant_irrational", _j_invariant_irrational))


def monic_integral_cubic(p: Polynomial) -> Polynomial:
    """Monic integer cubic with the same splitting behavior as a*x^3+b*x^2+c*x+d.

    Substituting x -> x/a and scaling by a^2 gives x^3 + b x^2 + ac x + a^2 d,
    which has the same root counts modulo any prime not dividing a.
    """
    if p.degree != 3:
        raise ValueError("need a cubic")
    d, c, b, a = (Fraction(p[i]) for i in range(4))
    out = Polynomial([a * a * d, a * c, b, Fraction(1)])
    if any(co.denominator != 1 for co in out.coeffs):
        raise ValueError("input cubic was not integral")
    return out


def sporadic_fiber_cubic() -> Polynomial:
    """The fiber cubic of the y-map above -4/13, made monic and integral."""
    cubic = fiber_cubic(FiberMap.Y, SPORADIC_FIBER_VALUE)
    if Fraction(cubic.leading_coefficient) < 0:
        cubic = -cubic
    return monic_integral_cubic(cubic)


class FingerprintReport(Record):
    """Splitting-fingerprint comparison between the fiber cubic and the field cubic."""

    __slots__ = ("bound", "fiber_cubic", "fiber_disc_square", "field_disc_square",
                 "compared_primes", "fingerprints_agree", "first_disagreement",
                 "contrast_first_disagreement")


def _first_disagreement(fp_a: dict, fp_b: dict) -> int | None:
    """The least prime in both fingerprints at which their root counts differ."""
    return next((p for p in sorted(set(fp_a) & set(fp_b)) if fp_a[p] != fp_b[p]), None)


def fiber_field_evidence(bound: int) -> FingerprintReport:
    """Compare mod-p splitting of the -4/13 fiber cubic with the field cubic.

    Both cubics must be cyclic (square discriminant) and their root counts
    must agree at every common unramified prime up to the bound.  As a
    control, a different cyclic cubic must disagree with the field cubic
    at some prime (the first such prime is recorded); agreement of the
    fingerprints is evidence for, not proof of, a field isomorphism.
    """
    if bound < 50:
        raise ValueError("bound must be >= 50")
    fiber = sporadic_fiber_cubic()
    if rational_roots(fiber):
        raise ArithmeticError("fiber cubic above -4/13 is unexpectedly reducible")
    fiber_sq, _ = rat_is_square(discriminant_cubic(*reversed(fiber.coeffs)))
    field_sq, _ = rat_is_square(discriminant_cubic(*reversed(SPORADIC_MIN_POLY.coeffs)))

    fp_fiber = splitting_fingerprint(fiber, bound)
    fp_field = splitting_fingerprint(SPORADIC_MIN_POLY, bound)
    first_disagreement = _first_disagreement(fp_fiber, fp_field)
    # the contrast first disagrees at p = 5, so primes up to 100 suffice
    contrast_first = _first_disagreement(
        splitting_fingerprint(CONTRAST_CUBIC, min(bound, 100)), fp_field)
    return FingerprintReport(bound, fiber, fiber_sq, field_sq,
                             len(set(fp_fiber) & set(fp_field)),
                             first_disagreement is None, first_disagreement, contrast_first)
