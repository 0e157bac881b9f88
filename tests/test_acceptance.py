"""Acceptance suite: every top-level criterion, exact arithmetic, zero tolerance.

Each test prints one [ACCEPTANCE] pass/fail line; run with -s (or read the
captured output) to see them.  Expected values here were frozen from
independent oracle computations, never from the code paths under test.
"""

import random
from fractions import Fraction

from torsion13.family import (build_family_instance, verify_family_instance,
                              verify_w_disc_identity, w_cubic_discriminant_target)
from torsion13.fields import PrimeField
from torsion13.hyperelliptic import (HyperellipticModel, ModelPoint,
                                     count_points, is_smooth_mod_p,
                                     jacobian_order_fp, mod_p_residues,
                                     points_mod_p, search_rational_points)
from torsion13.polynomials import (Polynomial, discriminant_cubic,
                                   enumerate_rationals, qpoly, rat_is_square)
from torsion13.sporadic import sporadic_curve, verify_sporadic
from torsion13.x13 import (D1_MODEL, D2_MIN_MODEL, D2_RAW_MODEL, FiberKind,
                           FiberMap, X13_MODEL, X13_RATIONAL_POINTS,
                           classify_fiber, nineteen_divisibility,
                           verify_disc_identity)

from oracles import divisor_class_count, order_by_addition

FIXED_PARAMETERS = [Fraction(v) for v in (1, -1, 2, -2)] + \
    [Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(1, 3),
     Fraction(5), Fraction(-4, 7)]

RANDOM_PARAMETER_SEED = 13
RANDOM_PARAMETER_COUNT = 25


def _announce(name, passed=True):
    print(f"[ACCEPTANCE] {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, name


def test_family_order_13():
    """Order exactly 13 and square w-discriminant across the parameter samples."""
    rng = random.Random(RANDOM_PARAMETER_SEED)
    pool = [t for t in enumerate_rationals(10) if t != 0]
    samples = FIXED_PARAMETERS + rng.sample(pool, RANDOM_PARAMETER_COUNT)
    failures = []
    for t in samples:
        outcome = verify_family_instance(build_family_instance(t))
        if not (outcome.passed and outcome.order == 13
                and outcome.disc_is_square and outcome.disc_nonzero):
            failures.append((t, outcome.failures))
    print(f"  parameters checked: {len(samples)}")
    _announce("family order-13", not failures)


def test_w_discriminant_identity():
    """Symbolic equality of the w-cubic discriminant with its stated value."""
    assert verify_w_disc_identity()
    target = w_cubic_discriminant_target()
    assert target == qpoly(0, 0, 0, 0, 1) * qpoly(1, 1, 5, -1, 1) ** 2
    _announce("w-discriminant identity")


def test_sporadic_curve():
    """Order 13 of (0,0), the discriminant values, and irrational j."""
    checks = dict(verify_sporadic())
    assert checks["minimal_polynomial_irreducible"]()[0]
    assert checks["polynomial_discriminant"]()[0]
    assert checks["curve_nonsingular"]()[0]
    assert checks["origin_has_order_13"]()[0]
    assert checks["j_invariant_irrational"]()[0]

    _, curve, origin = sporadic_curve()
    assert order_by_addition(curve.coefficients(), (origin.x, origin.y), 14) == 13
    disc = discriminant_cubic(Fraction(1), Fraction(-1), Fraction(-82), Fraction(64))
    assert disc == 1482**2
    ok, root = rat_is_square(Fraction(1482**2, 247**2))
    assert ok and root == 6
    assert not curve.j.is_rational()
    _announce("sporadic curve")


def test_d1_search_and_sieve():
    """Exactly five rational points at height 100, plus the mod-p consistency
    certificate: at each good prime every found point reduces onto the curve
    mod p (classes with no found point are recorded; their emptiness over Q
    is not desk-checkable and is not claimed here)."""
    points = search_rational_points(D1_MODEL, 100)
    expected = [
        ModelPoint("affine", Fraction(-1), Fraction(0)),
        ModelPoint("affine", Fraction(0), Fraction(-1)),
        ModelPoint("affine", Fraction(0), Fraction(1)),
        ModelPoint("affine", Fraction(-4, 13), Fraction(-57, 2197)),
        ModelPoint("affine", Fraction(-4, 13), Fraction(57, 2197)),
    ]
    assert points == expected
    for p in (3, 7, 11):
        assert is_smooth_mod_p(D1_MODEL, p)
        residues = mod_p_residues(points, p)
        everything = points_mod_p(D1_MODEL, p)
        assert residues <= everything
        print(f"  p={p}: {len(residues)} classes filled of {len(everything)} "
              f"on the reduced curve")
    _announce("d1 search and sieve certificate")


def test_d2_search_and_reduction():
    """Three points at height 100; the minimal model has exactly three
    F_2-points in bijection with their reductions, and good reduction at 2."""
    points = search_rational_points(D2_RAW_MODEL, 100)
    assert points == [
        ModelPoint("infinity", Fraction(0), Fraction(0)),
        ModelPoint("affine", Fraction(-1), Fraction(0)),
        ModelPoint("affine", Fraction(0), Fraction(0)),
    ]
    assert count_points(D2_MIN_MODEL, PrimeField(2)) == 3
    assert is_smooth_mod_p(D2_MIN_MODEL, 2)
    min_points = search_rational_points(D2_MIN_MODEL, 100)
    assert len(min_points) == 3
    assert mod_p_residues(min_points, 2) == points_mod_p(D2_MIN_MODEL, 2)
    _announce("d2 search and mod-2 reduction")


def test_discriminant_loci():
    """disc_x of each fiber polynomial equals the stored locus up to a
    perfect-square function-field factor, with the quotient logged."""
    y_report = verify_disc_identity(FiberMap.Y)
    assert y_report.exact_match
    assert y_report.quotient_numerator == qpoly(1)
    assert y_report.quotient_denominator == qpoly(1)

    t_report = verify_disc_identity(FiberMap.T)
    assert t_report.quotient_numerator == qpoly(1)
    assert t_report.quotient_denominator == qpoly(1, 2, 1)
    assert t_report.sqrt_denominator == qpoly(1, 1)
    for name, report in (("y", y_report), ("t", t_report)):
        print(f"  {name}-map quotient: ({report.quotient_numerator}) / "
              f"({report.quotient_denominator})")
    _announce("discriminant loci identities")


def test_fiber_classification_sweep():
    """Height-30 sweep: the y-map is cyclic only above -4/13, the t-map never;
    for irreducible y-map fibers the two squareness routes (fiber-cubic
    discriminant vs d1 at the value) must agree."""
    from torsion13.x13 import D1_POLY
    y_sweep = {v: classify_fiber(FiberMap.Y, v) for v in enumerate_rationals(30)}
    cyclic_y = sorted(v for v, c in y_sweep.items()
                      if c.kind is FiberKind.CYCLIC_CUBIC)
    assert cyclic_y == [Fraction(-4, 13)]
    for v, c in y_sweep.items():
        if c.kind in (FiberKind.CYCLIC_CUBIC, FiberKind.NON_CYCLIC_CUBIC):
            d1_square, _ = rat_is_square(D1_POLY(v))
            assert c.discriminant_is_square == d1_square
    t_sweep = {v: classify_fiber(FiberMap.T, v) for v in enumerate_rationals(30)}
    cyclic_t = [v for v, c in t_sweep.items() if c.kind is FiberKind.CYCLIC_CUBIC]
    assert cyclic_t == []
    print(f"  values classified per map: {len(y_sweep)}")
    _announce("fiber classification sweep")


def test_nineteen_divisibility():
    """19 divides the Jacobian order at each good prime, and the genus-2
    bookkeeping itself is validated against divisor-class enumeration."""
    table = nineteen_divisibility([3, 5, 7, 11, 19, 23])
    orders = {p: entry["jacobian_order"] for p, entry in table.items()}
    assert orders == {3: 19, 5: 19, 7: 57, 11: 133, 19: 513, 23: 399}
    assert all(o % 19 == 0 for o in orders.values())

    small = HyperellipticModel(f=qpoly(1, 0, 0, 0, 0, 1), h=Polynomial())
    assert jacobian_order_fp(small, 3) == divisor_class_count(
        [1, 0, 0, 0, 0, 1], [0], 3)
    print(f"  jacobian orders: {orders}")
    _announce("19-divisibility")


def test_model_rational_points():
    """The six stored points satisfy the model; exactly two lie at infinity."""
    assert len(X13_RATIONAL_POINTS) == 6
    for pt in X13_RATIONAL_POINTS:
        assert X13_MODEL.satisfies(pt)
    infinity = X13_MODEL.points_at_infinity()
    assert len(infinity) == 2
    assert {p.v for p in infinity} == {Fraction(0), Fraction(-1)}
    _announce("six rational points and two points at infinity")
