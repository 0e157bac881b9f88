"""The one-parameter family of curves over Q acquiring a 13-torsion point
over a cyclic cubic field.

For rational t != 0 the curve is

    E_t : y^2 = x^3 - 27 A(t) x + 54 (t^2 + 1) B(t)

and the torsion point P_t lives in Q(w), where w is a root of

    w^3 + (-t^3 + t^2 - 3t + 1) w^2 + (-t^3 + 2t^2 - 2t) w + t^2.

That cubic has discriminant t^4 (t^4 - t^3 + 5t^2 + t + 1)^2, a nonzero
square for every rational t != 0 (the quartic has no rational roots), so
its splitting field is cyclic of degree dividing 3.  The coordinates of
P_t share the denominator t^4 - t^3 + 5t^2 + t + 1:

    x(P_t) = (36 t w + 3 (t^6 - 3t^5 + 4t^4 - 6t^3 - 8t^2 + 3t + 1)) / den
    y(P_t) = 108 t ((t - 1) w + t) / den

This y-coordinate is pinned down (up to sign) by x(P_t) and the curve
equation; both the on-curve identity and order 13 hold for it in
Q(t)[w] / (w-cubic).  At each t, elliptic.point_order with expected
order 13 proves the order in 2 doublings and 2 additions: P_t is affine
and x(6P_t) = x(7P_t), so 7P_t = +-6P_t, hence 13P_t = O (P_t = O is
ruled out), and 13 is prime.
"""

from __future__ import annotations

from fractions import Fraction

from .elliptic import CurvePoint, PointNotOnCurveError, WeierstrassCurve, point_order
from .fields import NumberField
from .polynomials import (Polynomial, Record, _binary_form, discriminant_cubic, qpoly,
                          rat_is_square)

DENOMINATOR_QUARTIC = qpoly(1, 1, 5, -1, 1)

# A(t) and B(t) are these over DENOMINATOR_QUARTIC and its square, in lowest terms
A_NUMERATOR = qpoly(1, 5, 7, 5, 0, -5, 7, -5, 1)
B_NUMERATOR = qpoly(1, 8, 25, 44, 40, -18, -40, 18, 40, -44, 25, -8, 1)

# w-cubic coefficients as polynomials in t (constant term first per power of w)
W_CUBIC_COEFF_POLYS = (
    qpoly(0, 0, 1),            # t^2
    qpoly(0, -2, 2, -1),       # -t^3 + 2t^2 - 2t
    qpoly(1, -3, 1, -1),       # -t^3 + t^2 - 3t + 1
    qpoly(1),
)

X_NUMERATOR_CONSTANT = qpoly(1, 3, -8, -6, 4, -3, 1)   # t^6 - 3t^5 + 4t^4 - 6t^3 - 8t^2 + 3t + 1

# the integer coefficients of the t-polynomials build_family_instance evaluates as binary forms
_QUARTIC_INTS, _A_INTS, _B_INTS, _X_INTS = (
    tuple(c.numerator for c in poly.coeffs)
    for poly in (DENOMINATOR_QUARTIC, A_NUMERATOR, B_NUMERATOR, X_NUMERATOR_CONSTANT))

# the w-cubic's coefficients below w^3, each as a binary cubic form
_W_INTS = tuple(tuple(c.numerator for c in poly.coeffs) + (0,) * (4 - len(poly.coeffs))
                for poly in W_CUBIC_COEFF_POLYS[:3])


def w_cubic(t) -> Polynomial:
    """The cubic in w at a rational parameter value, built from integers.

    With t = a/b it is (C0 + C1 w + C2 w^2 + b^3 w^3) / b^3 for the binary
    cubic forms C0 = a^2 b, C1 = -a^3 + 2a^2 b - 2ab^2 and
    C2 = -a^3 + a^2 b - 3ab^2 + b^3 of W_CUBIC_COEFF_POLYS.
    """
    t = Fraction(t)
    a, b = t.numerator, t.denominator
    return Polynomial.from_integers([_binary_form(ints, a, b) for ints in _W_INTS]
                                    + [b * b * b], b * b * b)


def w_cubic_discriminant_target() -> Polynomial:
    """t^4 (t^4 - t^3 + 5t^2 + t + 1)^2 as an element of Q[t]."""
    return qpoly(0, 0, 0, 0, 1) * DENOMINATOR_QUARTIC ** 2


def verify_w_disc_identity() -> bool:
    """Exact polynomial identity: disc of the w-cubic equals its stated target."""
    disc = discriminant_cubic(*reversed(W_CUBIC_COEFF_POLYS))
    return disc == w_cubic_discriminant_target()


class FamilyInstance(Record):
    """One member of the family at a rational parameter value.

    status is "cyclic" when the w-cubic is irreducible (the generic case),
    with the torsion point over Q(w); "split" records the degenerate
    situation where it factors over Q, and then field and point are None.
    """

    __slots__ = ("t", "a_value", "b_value", "curve", "w_minimal", "disc_w",
                 "status", "field", "point")


def build_family_instance(t) -> FamilyInstance:
    """Evaluate the family data at a rational t != 0.

    With t = a/b, each t-polynomial is evaluated once as an integer binary
    form at (a, b), q = b^4 den(t) among them, and each value is built from
    integers as one Fraction or one Q(w) element: A(t) = A_num(a, b) / (b^4 q),
    B(t) = B_num(a, b) / (b^4 q^2), x(P_t) = (3 X(a, b) + 36 a b^5 w) / (b^2 q)
    with X the binary sextic of X_NUMERATOR_CONSTANT, and
    y(P_t) = 108 a b^2 (a + (a - b) w) / q.
    """
    t = Fraction(t)
    if t == 0:
        raise ValueError("parameter must be nonzero")
    a, b = t.numerator, t.denominator
    q = _binary_form(_QUARTIC_INTS, a, b)
    na, nb = _binary_form(_A_INTS, a, b), _binary_form(_B_INTS, a, b)
    b4q = b ** 4 * q
    a_value, b_value = Fraction(na, b4q), Fraction(nb, b4q * q)
    zero = Fraction(0)
    curve = WeierstrassCurve(zero, zero, zero, Fraction(-27 * na, b4q),
                             Fraction(54 * (a * a + b * b) * nb, b * b * b4q * q))
    cubic = w_cubic(t)
    # the cubic is F / lead for its primitive integer form F, and the
    # discriminant is homogeneous of degree 4 in the coefficients
    ints = cubic._integer_form()[0]
    disc_w = Fraction(discriminant_cubic(*reversed(ints)), ints[3] ** 4)
    try:
        field = NumberField(cubic)
    except ValueError:
        # the cubic is monic, so it is refused only for having a rational root
        return FamilyInstance(t, a_value, b_value, curve, cubic, disc_w,
                              "split", None, None)
    x = field.from_integers(3 * _binary_form(_X_INTS, a, b), 36 * a * b ** 5, 0, b * b * q)
    c = 108 * a * b * b
    y = field.from_integers(c * a, c * (a - b), 0, q)
    return FamilyInstance(t, a_value, b_value, curve, cubic, disc_w,
                          "cyclic", field, CurvePoint(x, y))


class FamilyVerification(Record):
    """Structured outcome of the per-instance checks."""

    __slots__ = ("t", "on_curve", "order", "disc_is_square", "disc_nonzero",
                 "passed", "failures")


def verify_family_instance(instance: FamilyInstance) -> FamilyVerification:
    """Assert the defining properties of a cyclic instance.

    Checks, in order: the point satisfies the curve equation over Q(w);
    its order is exactly 13 (point_order tries 13 first and walks to name
    the order only when it is not 13); the w-cubic discriminant is a nonzero
    rational square.  Failures are collected, not raised.
    """
    failures = []
    if instance.status != "cyclic":
        failures.append(f"w-cubic splits at t={instance.t}")
        return FamilyVerification(instance.t, False, None, False, False,
                                  False, tuple(failures))
    curve, point = instance.curve, instance.point
    try:  # point_order tests the curve equation once, at entry
        on_curve = True
        order = point_order(curve, point, bound=20, expected=13)
    except PointNotOnCurveError:
        on_curve, order = False, None
        failures.append("point does not satisfy the curve equation")
    else:
        if order != 13:
            failures.append(f"order {order} != 13")
    square, _ = rat_is_square(instance.disc_w)
    nonzero = instance.disc_w != 0
    if not square or not nonzero:
        failures.append(f"w-cubic discriminant {instance.disc_w} not a nonzero square")
    return FamilyVerification(instance.t, on_curve, order, square, nonzero,
                              not failures, tuple(failures))
