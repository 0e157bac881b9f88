"""Exact-arithmetic verification of the classification data for elliptic
curves with a 13-torsion point over cyclic cubic fields: the explicit
one-parameter family, the sporadic curve over Q(alpha), the fiber
classification of two degree-3 maps on a genus-2 modular curve, and the
rational-point bookkeeping on the auxiliary hyperelliptic curves."""

from .elliptic import CurvePoint, INFINITY, WeierstrassCurve, add_points, point_order, tate_curve
from .fields import (ExtensionFieldElement, NumberField, NumberFieldElement,
                     PrimeField, PrimeFieldElement, QuadraticExtensionField,
                     splitting_fingerprint)
from .hyperelliptic import (HyperellipticModel, ModelPoint, count_points,
                            is_smooth_mod_p, jacobian_order_fp, search_rational_points)
from .polynomials import (Polynomial, RationalFunction, discriminant_cubic,
                          enumerate_rationals, poly_divmod, poly_gcd,
                          poly_sqrt, qpoly, rat_is_square, rational_roots)

__version__ = "0.1.0"
