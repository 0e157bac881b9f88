import itertools
import random
from fractions import Fraction

import pytest

from torsion13 import elliptic
from torsion13.elliptic import (INFINITY, CurvePoint, OrderBoundExceededError,
                                PointNotOnCurveError, SingularCurveError,
                                WeierstrassCurve, add_points, point_order, tate_curve,
                                tate_origin)
from torsion13.family import build_family_instance, w_cubic
from torsion13.fields import NumberField, NumberFieldElement, PrimeField, QuadraticExtensionField
from torsion13.polynomials import enumerate_rationals
from torsion13.sporadic import sporadic_curve

from oracles import (chord_tangent_sum, cubic_chord_tangent_sum, order_by_addition,
                     weierstrass_equation)


def qcurve(a1=0, a2=0, a3=0, a4=0, a6=0):
    return WeierstrassCurve(*(Fraction(v) for v in (a1, a2, a3, a4, a6)))


def formulary(a1, a2, a3, a4, a6):
    """(b2, b4, b6, b8, c4, c6, disc) from the coefficients (Silverman, AEC, III.1)."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1**2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3**2 - a4**2
    c4 = b2**2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


def as_pair(point):
    """A CurvePoint in the oracle's form: (x, y), or None for infinity."""
    return None if point.is_infinity else (point.x, point.y)


def as_point(pair):
    return INFINITY if pair is None else CurvePoint(*pair)


def multiples(curve, point, count):
    """[P, 2P, ..., count*P], each the last plus P."""
    out = [point]
    while len(out) < count:
        out.append(add_points(curve, out[-1], point))
    return out


def record_add_points(monkeypatch):
    """The (P, Q) of each add_points call that the elliptic module makes from now on."""
    calls = []

    def recording(curve, p, q):
        calls.append((p, q))
        return add_points(curve, p, q)
    monkeypatch.setattr(elliptic, "add_points", recording)
    return calls


def expected_order_steps(n, order, bound):
    """add_points calls of point_order(curve, P, bound, expected=n) for P of the given
    order, any value above bound standing for an order above it.

    The proof, tried only for n <= bound, forms mP, n = 2m + 1, by double-and-add
    (one call per set bit of m and one per doubling), then (m+1)P unless mP = O;
    the walk, which must run exactly when the proof does not find the order, adds
    P once per k up to min(order, bound) // 2.
    """
    if order == 1:
        return 0
    walk = min(order, bound) // 2
    if n > bound:
        return walk
    m = n // 2
    proof = m.bit_count() + m.bit_length() - 1 + (m % order != 0)
    return proof + (0 if order == n else walk)


def check_every_expected_prime(curve, point, order, bound, calls):
    """point_order(curve, point, bound, expected=n) for each odd prime n <= 13, given
    the order (any value above bound for an order above it): its result, and its
    add_points calls as expected_order_steps counts them."""
    for n in (3, 5, 7, 11, 13):
        calls.clear()
        if order > bound:
            with pytest.raises(OrderBoundExceededError):
                point_order(curve, point, bound, expected=n)
        else:
            assert point_order(curve, point, bound, expected=n) == order, (point, n, bound)
        assert len(calls) == expected_order_steps(n, order, bound), (point, n, order, bound)


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
            b2, b4, b6, b8, c4, c6, disc = formulary(*c.coefficients())
            assert 4 * b8 == b2 * b6 - b4 * b4
            assert 1728 * disc == c4**3 - c6**2
            assert c.disc == disc
            assert c.j * disc == c4**3

    @pytest.mark.parametrize("field", [None, PrimeField(2), QuadraticExtensionField(2),
                                       PrimeField(3), PrimeField(7)],
                             ids=["Q", "F_2", "F_4", "F_3", "F_7"])
    def test_discriminant_skipping_zero_terms_matches_formulary(self, field):
        """Every zero/nonzero pattern of the coefficients, in characteristics 0, 2, 3, 7."""
        rng = random.Random(83)
        if field is None:
            zero = Fraction(0)
            nonzero = [Fraction(n, d) for n in range(-6, 7) if n for d in (1, 2, 5)]
        else:
            nonzero, zero = [e for e in field.elements() if e], field.zero
        for pattern in PATTERNS:
            for _ in range(4):
                coeffs = [rng.choice(nonzero) if on else zero for on in pattern]
                disc = formulary(*coeffs)[-1]
                if disc:
                    assert WeierstrassCurve(*coeffs).disc == disc
                else:
                    with pytest.raises(SingularCurveError):
                        WeierstrassCurve(*coeffs)

    def test_sporadic_curve_invariants_from_independent_formulary(self):
        field, curve, _ = sporadic_curve()
        disc = formulary(*curve.coefficients())[-1]
        assert disc == curve.disc
        assert bool(disc)
        assert not curve.j.is_rational()


class TestGroupLaw:
    def test_identity_and_inverse(self):
        c = qcurve(a4=-1)  # y^2 = x^3 - x
        p = CurvePoint(Fraction(0), Fraction(0))
        assert add_points(c, p, INFINITY) == p
        assert add_points(c, p, CurvePoint(p.x, -p.y)) == INFINITY  # -P, as a1 = a3 = 0

    def test_point_not_on_curve_rejected(self):
        c = qcurve(a4=-1)
        off = CurvePoint(Fraction(5), Fraction(5))
        for bound, expected in ((5, None), (5, 3), (20, 13)):
            with pytest.raises(PointNotOnCurveError):
                point_order(c, off, bound, expected)

    def test_doubling_two_independent_paths_on_sporadic_curve(self):
        field, curve, origin = sporadic_curve()
        lib = add_points(curve, origin, origin)
        oracle = as_point(chord_tangent_sum(curve.coefficients(), as_pair(origin),
                                            as_pair(origin)))
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
            assert as_pair(add_points(c2, p, p)) == \
                chord_tangent_sum(c2.coefficients(), as_pair(p), as_pair(p))

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


# which of (a1, a2, a3, a4, a6) are nonzero; with a3 = a4 = a6 = 0 the origin is singular
PATTERNS = list(itertools.product((False, True), repeat=5))
NONSINGULAR_PATTERNS = [pattern for pattern in PATTERNS if any(pattern[2:])]
# in characteristic 3, F_x = 3x^2 + 2 a2 x + a4 - a1 y vanishes identically when
# a1 = a2 = a4 = 0, so y^2 + a3 y = x^3 + a6 is singular where F_y = 2y + a3 vanishes
CHAR_3_SINGULAR = [pattern for pattern in NONSINGULAR_PATTERNS
                   if not (pattern[0] or pattern[1] or pattern[3])]


def finite_field_curves(field, seed):
    """(pattern, curve, E(F) with infinity, bound) for each pattern with a nonsingular draw."""
    elements = list(field.elements())
    nonzero = [e for e in elements if e]
    rng = random.Random(seed)
    for pattern in PATTERNS:
        for _ in range(30):
            coeffs = [rng.choice(nonzero) if on else field.zero for on in pattern]
            try:
                curve = WeierstrassCurve(*coeffs)
            except SingularCurveError:
                continue
            points = [INFINITY] + [CurvePoint(x, y) for x in elements for y in elements
                                   if not weierstrass_equation(coeffs, x, y)]
            yield pattern, curve, points, 40
            break


def curves_through_random_points(random_coordinate, seed):
    """(pattern, curve, points, bound) over a field of characteristic 0, per pattern.

    The curve passes through a random point P: the pattern's other nonzero
    coefficients are random nonzero Fractions, and its last nonzero
    coefficient solves the curve equation at P, so it lies in the field of
    P.  The points are O, P, -P and 2P, from the oracle; the small order
    bound keeps the multiples' heights down.
    """
    rng = random.Random(seed)
    for pattern in PATTERNS:
        if not any(pattern[2:]):
            continue
        last = max(i for i in range(5) if pattern[i])
        for _ in range(30):
            x0, y0 = random_coordinate(rng), random_coordinate(rng)
            if not (x0 and y0):
                continue
            coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
                      if on else Fraction(0) for on in pattern]
            coeffs[last] = Fraction(0)
            # the curve equation is linear in each coefficient, with these factors
            factor = (x0 * y0, -(x0 * x0), y0, -x0, -1)[last]
            coeffs[last] = -weierstrass_equation(coeffs, x0, y0) / factor
            if not coeffs[last]:
                continue
            try:
                curve = WeierstrassCurve(*coeffs)
            except SingularCurveError:
                continue
            p = (x0, y0)
            minus_p = (x0, -y0 - coeffs[0] * x0 - coeffs[2])
            pairs = [None, p, minus_p, chord_tangent_sum(coeffs, p, p)]
            yield pattern, curve, [as_point(pair) for pair in pairs], 4
            break


def random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def oracle_cases(field_name):
    """(cases, expected pattern count, rational) for one field of the group-law oracle test."""
    if field_name == "F_7":
        return list(finite_field_curves(PrimeField(7), 7)), len(NONSINGULAR_PATTERNS), False
    if field_name == "F_9":
        cases = list(finite_field_curves(QuadraticExtensionField(3), 9))
        return cases, len(NONSINGULAR_PATTERNS) - len(CHAR_3_SINGULAR), False
    if field_name == "Q":
        cases = list(curves_through_random_points(random_rational, 11))
        # rational torsion: (0, 0) has order 5 on E(1, 1) and order 7 on E(4, 2)
        for b, c in ((1, 1), (4, 2)):
            curve = tate_curve(Fraction(b), Fraction(c))
            origin = tate_origin(curve)
            cases.append((None, curve, [INFINITY, origin, add_points(curve, origin, origin)], 13))
        # the bound at the order and one below it: (0, 0) has order 2 on y^2 = x^3 - x,
        # and orders 4, 5 and 6 on E(1, 0), E(1, 1) and E(2, 1) (b = c + c^2)
        two_torsion = qcurve(a4=-1)
        origins = [(two_torsion, CurvePoint(Fraction(0), Fraction(0)))]
        origins += [(curve, tate_origin(curve)) for curve in
                    (tate_curve(Fraction(b), Fraction(c)) for b, c in ((1, 0), (1, 1), (2, 1)))]
        for curve, origin in origins:
            order = order_by_addition(curve.coefficients(), as_pair(origin), 6)
            for bound in sorted({1, 2, order - 1, order}):
                cases.append((None, curve, [INFINITY, origin], bound))
        return cases, len(NONSINGULAR_PATTERNS), True
    field = NumberField(w_cubic(Fraction(3, 5)))

    def random_element(rng):
        return field(random_rational(rng), random_rational(rng), random_rational(rng))

    cases = list(curves_through_random_points(random_element, 13))
    # the family member: rational coefficients, a point of order 13 over Q(w),
    # with the bound at its order and one below it
    member = build_family_instance(Fraction(3, 5))
    cases.append((None, member.curve, [INFINITY, member.point], 13))
    cases.append((None, member.curve, [member.point], 12))
    return cases, len(NONSINGULAR_PATTERNS), False


@pytest.mark.parametrize("field_name", ["F_7", "F_9", "Q", "Q(w) t=3/5"])
def test_group_law_matches_chord_tangent_oracle(field_name):
    """is_on_curve, add_points and point_order against the oracles
    of tests/oracles.py, on a curve for each zero/nonzero pattern of the coefficients."""
    cases, expected_patterns, rational = oracle_cases(field_name)
    assert len({pattern for pattern, _, _, _ in cases if pattern}) == expected_patterns
    for _, curve, points, bound in cases:
        coeffs = curve.coefficients()
        computed = []
        for p in points:
            assert curve.is_on_curve(p)
            if not p.is_infinity:
                for off in (CurvePoint(p.x, p.y + 1), CurvePoint(p.x + 1, p.y)):
                    on = not weierstrass_equation(coeffs, off.x, off.y)
                    assert curve.is_on_curve(off) == on
            # -P = (x, -y - a1 x - a3)
            minus = p if p.is_infinity else CurvePoint(p.x, -p.y - p.x * coeffs[0] - coeffs[2])
            assert curve.is_on_curve(minus)
            assert add_points(curve, p, minus) == INFINITY
            assert chord_tangent_sum(coeffs, as_pair(p), as_pair(minus)) is None
            for q in points:
                total = add_points(curve, p, q)
                computed.append(total)
                assert as_pair(total) == chord_tangent_sum(coeffs, as_pair(p), as_pair(q))
            expected = order_by_addition(coeffs, as_pair(p), bound)
            if expected is None:
                with pytest.raises(OrderBoundExceededError):
                    point_order(curve, p, bound)
            else:
                assert point_order(curve, p, bound) == expected
        if rational:
            # Fraction inputs give Fraction coordinates, never a float that compares equal
            assert all(type(c) is Fraction for r in computed if not r.is_infinity
                       for c in (r.x, r.y))


class TestMultiples:
    """Multiples n*P, built by repeated add_points."""

    def test_thirteen_kills_origin_on_sporadic_curve(self):
        _, curve, origin = sporadic_curve()
        assert multiples(curve, origin, 13)[-1].is_infinity

    def test_six_plus_seven_equals_thirteen_on_family_curve(self):
        inst = build_family_instance(Fraction(1))
        curve, p = inst.curve, inst.point
        kp = multiples(curve, p, 13)
        lhs = add_points(curve, kp[5], kp[6])
        assert lhs == kp[12]
        assert lhs.is_infinity


# x^3 - x^2 - 82x + 64, the sporadic field's cubic, constant first
SPORADIC_CUBIC = [Fraction(c) for c in (64, -82, -1, 1)]


def w_cubic_by_formula(t):
    """The family's w-cubic at t from its stated coefficients, constant first."""
    return [t * t, -t**3 + 2 * t * t - 2 * t, -t**3 + t * t - 3 * t + 1, Fraction(1)]


def coords(value):
    """A Q(theta) element or a rational as the oracle's coordinate triple."""
    if isinstance(value, NumberFieldElement):
        return value.coords
    return Fraction(value), Fraction(0), Fraction(0)


def cubic_pair(point):
    return None if point.is_infinity else (coords(point.x), coords(point.y))


def kernel_parameters():
    """20 seeded nonzero t of height <= 20, with 3/5 and -7/20, whose w-cubics
    are not integral."""
    rng = random.Random(1913)
    sample = rng.sample([t for t in enumerate_rationals(20) if t], 20)
    return sorted(set(sample) | {Fraction(3, 5), Fraction(-7, 20)})


class TestCubicFieldKernel:
    """add_points on points over Q(theta), each step fields.chord_tangent,
    against cubic_chord_tangent_sum of tests/oracles.py, which reduces Fraction
    polynomials mod the minimal polynomial."""

    @staticmethod
    def record_kernel(monkeypatch):
        calls = []
        kernel = elliptic.chord_tangent

        def recording(*args):
            calls.append(args)
            return kernel(*args)
        monkeypatch.setattr(elliptic, "chord_tangent", recording)
        return calls

    @staticmethod
    def check(cubic, curve, p, q):
        total = add_points(curve, p, q)
        coefficients = [coords(a) for a in curve.coefficients()]
        assert cubic_pair(total) == cubic_chord_tangent_sum(cubic, coefficients,
                                                            cubic_pair(p), cubic_pair(q))
        return total

    @pytest.mark.parametrize("t", kernel_parameters(), ids=str)
    def test_family_points(self, monkeypatch, t):
        """2P, P + 2P, 2P + 3P, P + (-P) and a vertical tangent, over Q(w)."""
        inst = build_family_instance(t)
        cubic, curve, p = w_cubic_by_formula(t), inst.curve, inst.point
        calls = self.record_kernel(monkeypatch)
        two_p = self.check(cubic, curve, p, p)
        three_p = self.check(cubic, curve, p, two_p)
        self.check(cubic, curve, two_p, three_p)
        assert self.check(cubic, curve, p, CurvePoint(p.x, -p.y)) == INFINITY  # a1 = a3 = 0
        # a6 in Q(w) puts (x(P), 0) on y^2 = x^3 + a4 x + a6, where the tangent is vertical
        a4 = curve.a4
        vertical = WeierstrassCurve(curve.a1, curve.a2, curve.a3, a4, -(p.x * p.x * p.x + p.x * a4))
        two_torsion = CurvePoint(p.x, p.x - p.x)
        assert vertical.is_on_curve(two_torsion)
        assert self.check(cubic, vertical, two_torsion, two_torsion) == INFINITY
        assert len(calls) == 5

    def test_multiples_of_the_sporadic_origin(self, monkeypatch):
        """iP + jP for 1 <= i, j <= 12 on the Tate curve over Q(alpha), whose a1,
        a2 and a3 lie in Q(alpha): doublings, chords, and iP + (13 - i)P = O.
        The origin with Fraction coordinates takes the generic formula."""
        _, curve, origin = sporadic_curve()
        kp = multiples(curve, origin, 12)
        # with a rational coordinate the generic formula takes the step
        assert add_points(curve, CurvePoint(Fraction(0), Fraction(0)), origin) == kp[1]
        calls = self.record_kernel(monkeypatch)
        for i, p in enumerate(kp, 1):
            for j, q in enumerate(kp, 1):
                total = self.check(SPORADIC_CUBIC, curve, p, q)
                assert total == (INFINITY if i + j == 13 else kp[(i + j) % 13 - 1])
        assert len(calls) == 144


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
        field = PrimeField(p) if degree == 1 else QuadraticExtensionField(p)
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
        kp = multiples(curve, origin, n)
        assert kp[-1].is_infinity
        assert not any(q.is_infinity for q in kp[:-1])

class TestHasOrder:
    """point_order given an expected odd prime: the four-step proof that replaced
    has_order, checked against the walk."""

    def test_agrees_with_point_order_on_every_point_over_prime_fields(self, monkeypatch):
        """Every point of five curves over F_p for four primes p < 60, the first a
        short model: an expected odd prime, right or wrong, gives the order the walk
        finds, or the same refusal above the bound, in the add_points calls that
        expected_order_steps counts.  Bound 40 on every curve, and 5 and 12, which
        some expected primes exceed, on the second curve of each field.  The orders
        met include 1, 2, 6, 7, 12, 14 and some above 20; for n = 13 the chain
        reaches infinity at 6P for order 6 and at 7P for order 7."""
        calls = record_add_points(monkeypatch)
        orders = set()
        for p in (31, 41, 43, 59):
            field = PrimeField(p)
            elements = list(field.elements())
            square_roots = {}
            for y in elements:
                square_roots.setdefault(y * y, []).append(y)
            half = field.one / 2
            rng = random.Random(p)
            for k in range(5):
                while True:
                    a1, a2, a3, a4, a6 = (rng.choice(elements) for _ in range(5))
                    if k == 0:
                        a1 = a2 = a3 = field.zero
                    try:
                        curve = WeierstrassCurve(a1, a2, a3, a4, a6)
                        break
                    except SingularCurveError:
                        continue
                # y^2 + by = c for b = a1 x + a3 and c = x^3 + a2 x^2 + a4 x + a6
                # has the roots y = (s - b)/2 for s^2 = b^2 + 4c
                points = [INFINITY] + [
                    CurvePoint(x, (s - b) * half)
                    for x in elements for b in [a1 * x + a3]
                    for s in square_roots.get(b * b + 4 * (x * x * x + a2 * x * x + a4 * x + a6),
                                              ())]
                assert all(curve.is_on_curve(point) for point in points)
                for point in points:
                    try:
                        order = point_order(curve, point, 40)
                    except OrderBoundExceededError:
                        order = 41  # any order above the bound
                    orders.add(order)
                    for bound in (5, 12, 40) if k == 1 else (40,):
                        check_every_expected_prime(curve, point, order, bound, calls)
        assert {1, 2, 3, 5, 6, 7, 11, 12, 13, 14} <= orders
        assert max(orders) > 20

    def test_agrees_with_point_order_on_the_family(self, monkeypatch):
        calls = record_add_points(monkeypatch)
        checked = 0
        for t in enumerate_rationals(6):
            if not t:
                continue
            inst = build_family_instance(t)
            order = point_order(inst.curve, inst.point, 40)
            check_every_expected_prime(inst.curve, inst.point, order, 40, calls)
            checked += 1
        assert checked == 46

    def test_order_13_takes_two_doublings_and_two_additions(self, monkeypatch):
        """On the sporadic curve over Q and on three members of the family over Q(w)."""
        _, curve, origin = sporadic_curve()
        cases = [(curve, origin)] + [
            (inst.curve, inst.point) for inst in map(
                build_family_instance, (Fraction(1), Fraction(3, 5), Fraction(-2)))]
        calls = record_add_points(monkeypatch)
        for curve, point in cases:
            calls.clear()
            assert point_order(curve, point, 20, expected=13) == 13
            steps = ["double" if p == q else "add" for p, q in calls
                     if not (p.is_infinity or q.is_infinity)]
            assert steps == ["double", "double", "add", "add"], curve

    @pytest.mark.parametrize("expected", [9, 2, 1, 0, -13, 15])
    def test_n_other_than_an_odd_prime_is_refused(self, expected):
        """Refused even for a point whose order it is: infinity, a 2-torsion point,
        and (0, 0) on the Tate curve b = 12, c = 4, which has order 9.  0, -13 and
        15 are refused for (0, 0) on the Tate curve b = c = 1, of order 5."""
        tate9, tate5 = tate_curve(Fraction(12), Fraction(4)), tate_curve(Fraction(1), Fraction(1))
        curve, point, order = {
            9: (tate9, tate_origin(tate9), 9),
            2: (qcurve(a4=-1), CurvePoint(Fraction(0), Fraction(0)), 2),
            1: (qcurve(a6=1), INFINITY, 1)}.get(expected, (tate5, tate_origin(tate5), 5))
        assert point_order(curve, point, 20) == order
        with pytest.raises(ValueError, match="not an odd prime"):
            point_order(curve, point, 20, expected)

    def test_point_off_the_curve_is_refused(self):
        with pytest.raises(PointNotOnCurveError):
            point_order(qcurve(a6=1), CurvePoint(Fraction(1), Fraction(1)), 20, expected=13)


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

