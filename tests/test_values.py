"""Every immutable class is a Value: assignment raises, equal values built
separately are equal with equal hashes, and a value never equals one of
another type."""

from fractions import Fraction

import pytest

from torsion13.elliptic import CurvePoint, WeierstrassCurve
from torsion13.family import build_family_instance, verify_family_instance
from torsion13.fields import (ExtensionFieldElement, NumberField, PrimeField,
                              QuadraticExtensionField)
from torsion13.hyperelliptic import HyperellipticModel, ModelPoint
from torsion13.polynomials import RationalFunction, Record, qpoly
from torsion13.reports import PASS, VerificationReport
from torsion13.sporadic import fiber_field_evidence
from torsion13.x13 import FiberMap, classify_fiber, verify_disc_identity

K_POLY = qpoly(64, -82, -1, 1)

# each builds a fresh value on every call
BUILDERS = {
    "Polynomial": lambda: qpoly(1, 0, Fraction(2, 3)),
    "RationalFunction": lambda: RationalFunction(qpoly(2, 2), qpoly(4, 0, 2)),
    "WeierstrassCurve": lambda: WeierstrassCurve(1, Fraction(-1, 2), 0, -1, 3),
    "HyperellipticModel": lambda: HyperellipticModel(f=qpoly(0, 1, 1), h=qpoly(1, 0, 1, 1)),
    "PrimeField": lambda: PrimeField(7),
    "PrimeFieldElement": lambda: PrimeField(7)(3),
    "QuadraticExtensionField": lambda: QuadraticExtensionField(7),
    "ExtensionFieldElement": lambda: ExtensionFieldElement(QuadraticExtensionField(7), 0, 1) + 2,
    "NumberField": lambda: NumberField(K_POLY),
    "NumberFieldElement": lambda: NumberField(K_POLY)(1, Fraction(1, 2), -3),
    # the Records
    "CurvePoint": lambda: CurvePoint(Fraction(1, 2), Fraction(-3)),
    "ModelPoint": lambda: ModelPoint("affine", Fraction(-1), Fraction(0)),
    "FamilyInstance": lambda: build_family_instance(Fraction(3, 5)),
    "FamilyVerification": lambda: verify_family_instance(build_family_instance(Fraction(3, 5))),
    "FiberClassification": lambda: classify_fiber(FiberMap.Y, Fraction(-4, 13)),
    "DiscIdentityReport": lambda: verify_disc_identity(FiberMap.T),
    "FingerprintReport": lambda: fiber_field_evidence(100),
    "VerificationReport": lambda: VerificationReport(
        "fiber.classify", PASS, "the fiber above -4/13 is a cyclic cubic",
        classify_fiber(FiberMap.Y, Fraction(-4, 13)), 3),
}


class LookAlike:
    """An object of another type with the same _key as a value."""

    def __init__(self, key):
        self.key = key

    def _key(self):
        return self.key


@pytest.mark.parametrize("kind", BUILDERS)
def test_value_semantics(kind):
    a, b = BUILDERS[kind](), BUILDERS[kind]()
    assert type(a).__name__ == kind and a is not b
    with pytest.raises(AttributeError):
        setattr(a, type(a).__slots__[0], None)
    with pytest.raises(AttributeError):
        a.extra = None
    assert a == b and not a != b and hash(a) == hash(b)
    others = [LookAlike(a._key())] + [build() for name, build in BUILDERS.items()
                                      if name != kind]
    for other in others:
        assert (a == other) is False and (other == a) is False and a != other


def test_a_record_hashes_only_when_its_fields_do():
    """A report with Record details hashes like an equal one; dict details do not hash."""
    report = BUILDERS["VerificationReport"]()
    assert isinstance(report.details, Record)
    assert {report, BUILDERS["VerificationReport"]()} == {report}
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(VerificationReport("a", PASS, "c", {"k": 1}, 0))
