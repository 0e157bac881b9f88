"""Hyperelliptic models v^2 + h(u)v = f(u) over Q and their reductions mod p.

The affine chart is complemented by the standard smooth-model chart at
infinity, U = 1/u and V = v/u^(g+1), which turns the equation into
V^2 + ht(U)V = ft(U) with ht = U^(g+1) h(1/U) and ft = U^(2g+2) f(1/U).
The U = 0 fiber of that chart carries the points at infinity.

One enumerator walks the reduced curve over F_p or F_{p^2}: every u on
the affine chart, then U = 0 on the infinity chart, solving the quadratic
in v at each u from a table of square (or Artin-Schreier) roots, so a walk
costs O(q).  Point counts and the set of points mod p read it.
Good reduction is decided without points, by one gcd per chart: the
criterion that the constructor applies over Q, applied to both reduced
charts over F_p.
The genus-2 Jacobian order comes from the zeta-function bookkeeping
N1, N2 -> (s1, s2) -> P(1).
"""

from __future__ import annotations

from fractions import Fraction

from .fields import BadReductionError, PrimeField, QuadraticExtensionField
from .polynomials import (Polynomial, Record, Value, enumerate_rationals, poly_gcd,
                          rat_is_square)


class ModelPoint(Record):
    """A point in the affine chart ("affine", u, v) or infinity chart ("infinity", 0, V)."""

    __slots__ = ("chart", "u", "v")


class HyperellipticModel(Value):
    """Smooth hyperelliptic model (f, h) with genus floor((deg(h^2+4f)-1)/2)."""

    __slots__ = ("f", "h", "branch", "genus", "charts")

    def __init__(self, f: Polynomial, h: Polynomial):
        f = f.map_coefficients(Fraction)
        h = h.map_coefficients(Fraction)
        branch = h * h + 4 * f
        if not branch:
            raise ValueError("h^2 + 4f vanishes identically")
        if not _is_smooth_chart(f, h, 0):
            raise ValueError("h^2 + 4f is not squarefree: singular model")
        genus = (branch.degree - 1) // 2
        if genus < 1:
            raise ValueError("genus must be >= 1")
        if h.degree > genus + 1:
            raise ValueError("deg h exceeds g + 1")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "charts", (
            ("affine", f, h),
            ("infinity", f.reversed(2 * genus + 2), h.reversed(genus + 1))))

    def _key(self):
        return self.f, self.h

    def points_at_infinity(self):
        """Rational points in the U = 0 fiber of the infinity chart.

        There V^2 + ht(0)V = ft(0), and ht(0)^2 + 4ft(0) is the coefficient
        of u^(2g+2) in the branch polynomial, because deg h <= g + 1.
        """
        ok, s = rat_is_square(self.branch[2 * self.genus + 2])
        if not ok:
            return []
        return [ModelPoint("infinity", Fraction(0), v)
                for v in _quadratic_roots(Fraction(self.h[self.genus + 1]), s)]

    def satisfies(self, point: ModelPoint) -> bool:
        f, h = next((f, h) for chart, f, h in self.charts if chart == point.chart)
        return point.v**2 + h(point.u) * point.v == f(point.u)

    def reduce_coefficients(self, field):
        """The charts (name, f, h) with coefficients mapped into a finite field."""
        try:
            return tuple((chart, f.map_coefficients(field), h.map_coefficients(field))
                         for chart, f, h in self.charts)
        except BadReductionError as exc:
            raise BadReductionError(f"model has bad reduction: {exc}") from exc

    def __repr__(self):
        return f"HyperellipticModel(f={self.f}, h={self.h}, genus={self.genus})"


def _is_smooth_chart(f: Polynomial, h: Polynomial, characteristic: int) -> bool:
    """Whether the affine curve v^2 + h(u)v = f(u) over a field of the given
    characteristic has no singular point, over the field's algebraic closure.

    Outside characteristic 2, v -> 2v + h(u) turns the curve into
    w^2 = B(u), B = h^2 + 4f, which is singular exactly at the repeated
    roots of B: smooth iff gcd(B, B') = 1.  In characteristic 2 a singular
    point has h(u) = 0 and h'(u)v = f'(u) with v = sqrt(f(u)) unique, so
    squaring gives h'(u)^2 f(u) + f'(u)^2 = 0: smooth iff
    gcd(h, h'^2 f + f'^2) = 1.  The gcd is zero (degree -inf), so singular,
    when B = 0, or when h = f' = 0 in characteristic 2.
    """
    if characteristic == 2:
        dh = h.derivative()
        df = f.derivative()
        return poly_gcd(h, dh * dh * f + df * df).degree == 0
    branch = h * h + 4 * f
    return poly_gcd(branch, branch.derivative()).degree == 0


def _quadratic_roots(h0: Fraction, s: Fraction):
    """The solutions v of v^2 + h0 v = f0, ascending, given s >= 0 with s^2 = h0^2 + 4f0."""
    if s == 0:
        return [-h0 / 2]
    return [(-h0 - s) / 2, (-h0 + s) / 2]


def _reduced_points(model: HyperellipticModel, field):
    """Yield (chart, u, v) for every point of the curve over a finite field.

    The affine chart is walked for every u; the infinity chart only at
    U = 0, which is exactly the locus the affine chart misses.  At each u
    the quadratic v^2 + h(u)v = f(u) is solved from one root table built
    per call, so the walk costs O(q) field operations:

    - odd q: the table maps c to the x with x^2 = c, and the points are
      v = (x - h(u))/2 for x^2 = h(u)^2 + 4f(u);
    - even q: the table maps c to the w with w^2 + w = c (Artin-Schreier).
      If h(u) = 0 the one point is v = sqrt(f(u)) = f(u)^(q/2); otherwise
      the points are v = h(u)w for w^2 + w = f(u)/h(u)^2.
    """
    affine, infinity = model.reduce_coefficients(field)
    elements = list(field.elements())
    q = len(elements)
    odd = q % 2 == 1
    roots = {}
    for x in elements:
        roots.setdefault(x * x if odd else x * x + x, []).append(x)
    half = field.one / 2 if odd else None
    for (chart, f, h), us in ((affine, elements), (infinity, [field.zero])):
        for u in us:
            fu, hu = field(f(u)), field(h(u))
            if odd:
                vs = [(x - hu) * half for x in roots.get(hu * hu + 4 * fu, ())]
            elif hu:
                vs = [hu * w for w in roots.get(fu / (hu * hu), ())]
            else:
                vs = [fu ** (q // 2)]
            for v in vs:
                yield chart, u, v


def count_points(model: HyperellipticModel, field) -> int:
    """Number of points over a finite field, both charts, from the enumerator."""
    return sum(1 for _ in _reduced_points(model, field))


def is_smooth_mod_p(model: HyperellipticModel, p: int) -> bool:
    """Good reduction test: both charts of the curve mod p are smooth, over the
    algebraic closure of F_p, by one gcd each."""
    return all(_is_smooth_chart(f, h, p)
               for _, f, h in model.reduce_coefficients(PrimeField(p)))


def search_rational_points(model: HyperellipticModel, height: int):
    """All rational points whose u-coordinate has height <= height, plus infinity.

    A point above the candidate u exists iff the branch polynomial
    h(u)^2 + 4f(u) is a rational square, which one evaluation decides;
    h(u) is evaluated only at the hits.  The output order is fixed:
    infinity points first, then affine points in the height enumeration
    order of u with v ascending.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    found = model.points_at_infinity()
    branch, h = model.branch, model.h
    for u in enumerate_rationals(height):
        ok, s = rat_is_square(branch(u))
        if ok:
            found.extend(ModelPoint("affine", u, v)
                         for v in _quadratic_roots(Fraction(h(u)), s))
    return found


def jacobian_order_fp(model: HyperellipticModel, p: int) -> int:
    """#J(F_p) for a genus-2 model with good reduction at p.

    With N1 = #C(F_p) and N2 = #C(F_{p^2}), put s1 = p + 1 - N1 and
    s2 = (s1^2 - (p^2 + 1 - N2)) / 2; the Jacobian order is the value of
    the zeta numerator at 1: 1 - s1 + s2 - p*s1 + p^2.
    """
    if model.genus != 2:
        raise ValueError("L-polynomial bookkeeping implemented for genus 2 only")
    if not is_smooth_mod_p(model, p):
        raise BadReductionError(f"bad reduction at {p}")
    field = QuadraticExtensionField(p)
    n1 = count_points(model, field.base)
    n2 = count_points(model, field)
    s1 = p + 1 - n1
    s2_twice = s1 * s1 - (p * p + 1 - n2)
    if s2_twice % 2:
        raise ArithmeticError("inconsistent point counts (odd 2*s2)")
    s2 = s2_twice // 2
    return 1 - s1 + s2 - p * s1 + p * p


def mod_p_residues(points, p: int):
    """Reductions mod p of rational model points, as hashable tuples.

    Affine points map to ("affine", u mod p, v mod p); infinity-chart
    points to ("infinity", 0, V mod p).  Raises BadReductionError if any
    coordinate has a denominator divisible by p.
    """
    field = PrimeField(p)
    return {(pt.chart, field(Fraction(pt.u)).value, field(Fraction(pt.v)).value)
            for pt in points}


def points_mod_p(model: HyperellipticModel, p: int):
    """All points of the reduced curve over F_p, as hashable tuples (same keys as residues)."""
    return {(chart, u.value, v.value)
            for chart, u, v in _reduced_points(model, PrimeField(p))}
