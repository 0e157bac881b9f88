"""Long-Weierstrass elliptic curves over an exact field.

y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, with the chord-tangent
group law written in characteristic-agnostic form.  Coefficients may be
Fractions or any field element kind from the fields module.  Points are
affine pairs plus a distinguished point at infinity; no projective
coordinates are exposed.  The group law is add_points: points whose
coordinates lie in a cubic field Q(theta) take fields.chord_tangent, one
integer kernel per step, and every other field the generic formula.
point_order finds the order of a point up to a bound, and proves an
expected odd prime order n in about 2 log2(n) group steps before it walks.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import NumberFieldElement, chord_tangent
from .polynomials import Record, Value, _is_prime, _power


class SingularCurveError(ValueError):
    """The requested Weierstrass model has vanishing discriminant."""


class PointNotOnCurveError(ValueError):
    """A point handed to point_order is not on the curve."""


class OrderBoundExceededError(ValueError):
    """A point's order exceeds the bound handed to point_order."""


class CurvePoint(Record):
    """Affine point (x, y), or the point at infinity when both are None."""

    __slots__ = ("x", "y")

    # every group-law step builds one point; this skips Record's generic loop
    def __init__(self, x, y):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = CurvePoint(None, None)


class WeierstrassCurve(Value):
    """Nonsingular long Weierstrass model: its coefficients and discriminant.

    The b-invariants and the discriminant follow the standard formulary
    (Silverman, AEC, III.1); j is computed from them only when read.
    Terms with a zero coefficient are skipped, as in is_on_curve: with
    a1 = a2 = a3 = 0 the discriminant is -8 b4^3 - 27 b6^2, that is
    -16 (4 a4^3 + 27 a6^2), and b8 is never formed.  When a4 and a6 are
    also Fractions, that value is computed on their numerators over the
    one denominator den(a4)^3 den(a6)^2, and one Fraction is built.
    """

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "disc")

    def __init__(self, a1, a2, a3, a4, a6):
        if type(a4) is Fraction and type(a6) is Fraction and not (a1 or a2 or a3):
            n4, d4, n6, d6 = a4.numerator, a4.denominator, a6.numerator, a6.denominator
            d4 = d4 * d4 * d4
            d6 = d6 * d6
            disc = Fraction(-16 * (4 * (n4 * n4 * n4) * d6 + 27 * (n6 * n6) * d4), d4 * d6)
        else:
            b2 = 4 * a2
            b4 = 2 * a4
            b6 = 4 * a6
            if a1:
                b2 = b2 + a1 * a1
                if a3:
                    b4 = b4 + a1 * a3
            if a3:
                b6 = b6 + a3 * a3
            # disc = -b2^2 b8 - 8 b4^3 - 27 b6^2 + 9 b2 b4 b6
            disc = -8 * (b4 * b4 * b4) - 27 * (b6 * b6)
            if b2:
                b8 = a1 * a1 * a6 + 4 * (a2 * a6) - a1 * a3 * a4 + a2 * (a3 * a3) - a4 * a4
                disc = disc + b2 * (9 * (b4 * b6) - b2 * b8)
        if not disc:
            raise SingularCurveError("discriminant is zero")
        for name, value in zip(self.__slots__, (a1, a2, a3, a4, a6, disc)):
            object.__setattr__(self, name, value)

    @property
    def j(self):
        """The j-invariant c4^3 / disc."""
        b2 = self.a1 * self.a1 + 4 * self.a2
        c4 = b2 * b2 - 24 * (2 * self.a4 + self.a1 * self.a3)
        return c4 * c4 * c4 / self.disc

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    _key = coefficients

    def is_on_curve(self, point: CurvePoint) -> bool:
        if point.is_infinity:
            return True
        x, y = point.x, point.y
        a1, a2, a3, a4, a6 = self.coefficients()
        xx = x * x
        lhs = y * y
        if a1:
            lhs = lhs + x * y * a1
        if a3:
            lhs = lhs + y * a3
        rhs = xx * x
        if a2:
            rhs = rhs + xx * a2
        if a4:
            rhs = rhs + x * a4
        if a6:
            rhs = rhs + a6
        return lhs == rhs

    def __repr__(self):
        return (f"WeierstrassCurve(a1={self.a1}, a2={self.a2}, a3={self.a3}, "
                f"a4={self.a4}, a6={self.a6})")


def add_points(curve: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition, valid in every characteristic.

    Both points must lie on the curve.  Points enter the group law through
    point_order, which checks this once.  Then x1 = x2 means Q = -P or
    Q = P, and the denominator y1 + y2 + a1 x2 + a3 is zero for Q = -P and
    equals the tangent's 2 y1 + a1 x1 + a3 for Q = P.

    When all four coordinates lie in a cubic field Q(theta), the step is
    fields.chord_tangent, one integer kernel that builds only x3 and y3;
    the formula below serves every other field (F_p, F_{p^2}, Q).
    """
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    x1, y1, x2, y2 = p.x, p.y, q.x, q.y
    if type(x1) is type(y1) is type(x2) is type(y2) is NumberFieldElement:
        total = chord_tangent(curve.coefficients(), x1, y1, x2, y2)
        return INFINITY if total is None else CurvePoint(*total)
    a1, a2, a3, a4, _ = curve.coefficients()
    if x1 == x2:
        den = y1 + y2 + x2 * a1 + a3
        if not den:
            return INFINITY
        num = x1 * x1 * 3 + x1 * a2 * 2 + a4 - y1 * a1
    else:
        num = y2 - y1
        den = x2 - x1
    lam = num / den
    x3 = lam * lam + lam * a1 - a2 - x1 - x2
    # y3 = -(lam x3 + nu) - a1 x3 - a3 with nu = y1 - lam x1
    y3 = (x1 - x3) * lam - y1 - x3 * a1 - a3
    return CurvePoint(x3, y3)


def point_order(curve: WeierstrassCurve, point: CurvePoint, bound: int,
                expected: int | None = None) -> int:
    """Least n >= 1 with n*P = infinity, up to bound.

    Meets in the middle on x alone: for k = 1, 2, ... it forms (k+1)P from
    kP.  The order is 2k when x((k+1)P) = x((k-1)P), and 2k + 1 when
    x((k+1)P) = x(kP); infinity has no x, so 2P = 0P gives order 2.  Equal
    x means equal or opposite points, and the first k where either holds
    rules out every smaller order and P = infinity, which leaves
    (k+1)P = -(k-1)P and (k+1)P = -kP.  Order n costs about n/2 additions.

    An odd prime `expected` = 2m + 1 up to bound is tried first, by a
    proof: mP by double-and-add (polynomials._power with add_points as its
    op), then (m+1)P = mP + P.  Both affine with x(mP) = x((m+1)P) means
    (m+1)P = +-mP, so nP = O with P affine, and n is prime, so the order
    is exactly n; a point of order n passes.  For 13 that is 2 doublings
    and 2 additions, against 6 additions of the walk, which runs only when
    the proof fails.  Any other expected raises ValueError.

    >>> curve = tate_curve(Fraction(1), Fraction(1))  # (0, 0) has order 5
    >>> point_order(curve, tate_origin(curve), 20, expected=5) == 5
    True
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if expected is not None and not (expected % 2 and _is_prime(expected)):
        raise ValueError(f"order {expected} is not an odd prime")
    if not curve.is_on_curve(point):
        raise PointNotOnCurveError("point not on curve")
    if point.is_infinity:
        return 1
    if expected is not None and expected <= bound and _odd_prime_order(curve, point, expected):
        return expected
    previous_x, current = None, point  # x(0P) = x(infinity) and P
    for k in range(1, bound // 2 + 1):
        following = add_points(curve, current, point)
        if following.x == previous_x:
            return 2 * k
        if 2 * k < bound and following.x == current.x:
            return 2 * k + 1
        previous_x, current = current.x, following
    raise OrderBoundExceededError(f"order exceeds bound {bound}")


def _odd_prime_order(curve: WeierstrassCurve, point: CurvePoint, n: int) -> bool:
    """point_order's proof of odd prime order n, for an affine point on the curve."""
    multiple = _power(point, n // 2, INFINITY, lambda p, q: add_points(curve, p, q))
    if multiple.is_infinity:
        return False
    following = add_points(curve, multiple, point)
    return not following.is_infinity and following.x == multiple.x


def tate_curve(b, c) -> WeierstrassCurve:
    """Tate normal form y^2 + (1-c)xy - by = x^3 - bx^2; (0,0) lies on it since a4 = a6 = 0."""
    zero = b - b
    return WeierstrassCurve(1 - c, -b, -b, zero, zero)


def tate_origin(curve: WeierstrassCurve) -> CurvePoint:
    """The distinguished point (0, 0) of a Tate-form curve."""
    zero = curve.a2 - curve.a2
    return CurvePoint(zero, zero)
