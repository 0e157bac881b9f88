"""The genus-2 curve X with model y^2 + (x^3+x^2+1) y = x^2 + x, its six
rational points, and the two explicit degree-3 maps to the line:

  * the y-coordinate map, with fiber cubic  y*x^3 + (y-1)*x^2 - x + (y^2+y),
  * the map (y+1)/x with parameter t, where y = x*t - 1 substituted into
    the model and divided by the common factor x leaves the fiber cubic
    t*x^3 + (t-1)*x^2 + (t^2-2)*x - (t+1).

The discriminant loci of the two maps are the stored sextic d1(y) and the
degree-9 d2(t); requiring squareness cuts out the auxiliary hyperelliptic
curves searched for rational points.  FIBERS holds each map's fiber
coefficients over Q[parameter] and its stored locus, keyed by FiberMap;
fiber_cubic, classify_fiber and verify_disc_identity read only that
table, so another map is one FiberMap member and one FIBERS entry.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .hyperelliptic import HyperellipticModel, ModelPoint, jacobian_order_fp
from .polynomials import (Polynomial, RationalFunction, Record, discriminant_cubic,
                          poly_sqrt, qpoly, rat_is_square, rational_roots)

# model of X: h = x^3 + x^2 + 1, f = x^2 + x
X13_MODEL = HyperellipticModel(f=qpoly(0, 1, 1), h=qpoly(1, 0, 1, 1))

# the six rational points: four affine, two at infinity (V^2 + V = 0)
X13_RATIONAL_POINTS = (
    ModelPoint("infinity", Fraction(0), Fraction(-1)),
    ModelPoint("infinity", Fraction(0), Fraction(0)),
    ModelPoint("affine", Fraction(-1), Fraction(-1)),
    ModelPoint("affine", Fraction(-1), Fraction(0)),
    ModelPoint("affine", Fraction(0), Fraction(-1)),
    ModelPoint("affine", Fraction(0), Fraction(0)),
)

# d1(y) = (y+1)(-27y^5 - 31y^4 - 6y^3 + 6y^2 + 5y + 1), stored expanded
D1_FACTOR_QUINTIC = qpoly(1, 5, 6, -6, -31, -27)
D1_POLY = qpoly(1, 1) * D1_FACTOR_QUINTIC
# d2(t) = t(t+1)^3(-4t^5 + 5t^4 - t^3 - 25t^2 - 23t - 4), stored expanded
D2_FACTOR_QUINTIC = qpoly(-4, -23, -25, -1, 5, -4)
D2_POLY = qpoly(0, 1) * qpoly(1, 1) ** 3 * D2_FACTOR_QUINTIC

# D1: s^2 = d1(y), genus 2
D1_MODEL = HyperellipticModel(f=D1_POLY, h=Polynomial())
# D2: s^2 = d2(t)/(t+1)^2 cleared to s^2 = t(t+1) * quintic, genus 3
D2_RAW_MODEL = HyperellipticModel(f=qpoly(0, 1) * qpoly(1, 1) * D2_FACTOR_QUINTIC,
                                  h=Polynomial())
# minimal model of D2, good reduction at 2
D2_MIN_MODEL = HyperellipticModel(f=qpoly(0, -1, -2, -7, -13, -8, 0, 1),
                                  h=qpoly(0, 0, 1, 1))


class FiberMap(enum.Enum):
    """The two degree-3 maps to the line whose fibers are classified."""

    Y = "y"
    T = "t"


# each map's fiber: its x^0..x^3 coefficients in Q[parameter], and its
# stored discriminant locus
FIBERS = {
    FiberMap.Y: ((qpoly(0, 1, 1), qpoly(-1), qpoly(-1, 1), qpoly(0, 1)), D1_POLY),
    FiberMap.T: ((qpoly(-1, -1), qpoly(-2, 0, 1), qpoly(-1, 1), qpoly(0, 1)), D2_POLY),
}


class FiberKind(enum.Enum):
    RAMIFIED = "ramified"
    SPLIT_RATIONAL = "split_rational"
    CYCLIC_CUBIC = "cyclic_cubic"
    NON_CYCLIC_CUBIC = "non_cyclic_cubic"
    DEGENERATE_DEGREE_DROP = "degenerate_degree_drop"


class FiberClassification(Record):
    """Classification of one fiber, with the witnesses that decided it."""

    __slots__ = ("map", "value", "kind", "cubic", "rational_roots", "discriminant",
                 "discriminant_is_square", "includes_infinity")


def fiber_cubic(fiber_map: FiberMap, value) -> Polynomial:
    """The fiber polynomial in x above a rational value, denominators cleared.

    The y-map fiber is the model equation with y fixed; the t-map fiber is
    the substitution y = x*t - 1 with the base-point factor x removed.
    The fiber is num/den * sum ints[i] x^i by its cached integer form,
    den the lcm of its denominators, so cleared it is num * sum ints[i] x^i.
    """
    value = Fraction(value)
    coeffs, _ = FIBERS[fiber_map]
    fiber = Polynomial(c(value) for c in coeffs)
    form = fiber._integer_form()
    if form is None:  # the zero polynomial
        return fiber
    ints, num, _ = form
    return Polynomial.from_integers([num * c for c in ints], 1)


def classify_fiber(fiber_map: FiberMap, value) -> FiberClassification:
    """Place one fiber into ramified / split / cyclic / non-cyclic / degenerate.

    A degree drop (vanishing x^3 coefficient) moves one point of the fiber
    to infinity; such fibers are classified from the lower-degree
    polynomial and are ramified as soon as a repeated point appears there
    or the drop is by two or more degrees (discriminant 0).
    """
    value = Fraction(value)
    cubic = fiber_cubic(fiber_map, value)
    if not cubic:
        raise ValueError("fiber polynomial vanished identically")
    degree = cubic.degree
    roots = tuple(sorted(rational_roots(cubic)))
    if degree == 3:
        disc = Fraction(discriminant_cubic(*reversed(cubic.coeffs)))
    elif degree == 2:
        a0, a1, a2 = (Fraction(c) for c in cubic.coeffs)
        disc = a1 * a1 - 4 * a2 * a0
    else:
        disc = Fraction(0)
    square, _ = rat_is_square(disc)
    if disc == 0:
        kind = FiberKind.RAMIFIED
    elif degree < 3:  # infinity absorbs 3 - degree points of the fiber
        kind = FiberKind.DEGENERATE_DEGREE_DROP
    elif roots:
        kind = FiberKind.SPLIT_RATIONAL
    elif square:
        kind = FiberKind.CYCLIC_CUBIC
    else:
        kind = FiberKind.NON_CYCLIC_CUBIC
    return FiberClassification(fiber_map, value, kind, cubic, roots, disc,
                               square and disc != 0, degree < 3)


class DiscIdentityReport(Record):
    """Outcome of checking disc_x(fiber polynomial) against the stored locus."""

    __slots__ = ("map", "computed_discriminant", "stored_locus", "quotient_numerator",
                 "quotient_denominator", "sqrt_numerator", "sqrt_denominator",
                 "exact_match")


def verify_disc_identity(fiber_map: FiberMap) -> DiscIdentityReport:
    """Certify disc_x(fiber) = stored locus up to a square in the function field.

    The discriminant is computed from the closed cubic formula with
    coefficients in Q[parameter]; the quotient by the stored d1 or d2 must
    be the square of a rational function, and is recorded exactly.
    """
    coeffs, stored = FIBERS[fiber_map]
    disc = discriminant_cubic(*reversed(coeffs))
    quotient = RationalFunction(disc, stored)
    sqrt_num = poly_sqrt(quotient.numerator)
    sqrt_den = poly_sqrt(quotient.denominator)
    if sqrt_num is None or sqrt_den is None:
        raise ArithmeticError(
            f"discriminant locus mismatch for map {fiber_map.value}: "
            f"quotient {quotient} is not a square")
    exact = quotient.numerator == quotient.denominator == qpoly(1)
    return DiscIdentityReport(fiber_map, disc, stored, quotient.numerator,
                              quotient.denominator, sqrt_num, sqrt_den, exact)


def nineteen_divisibility(primes) -> dict:
    """For each good odd prime, the Jacobian order of X over F_p and whether 19 divides it."""
    out = {}
    for p in primes:
        order = jacobian_order_fp(X13_MODEL, p)
        out[p] = {"jacobian_order": order, "divisible_by_19": order % 19 == 0}
    return out
