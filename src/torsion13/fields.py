"""Prime fields F_p, quadratic extensions F_{p^2}, and cubic number fields.

Each element kind subclasses FieldElement and defines only what depends on
its representation: _key (the coordinates that make its value), +, *,
unary -, inverse(), bool (zero is falsy) and repr, and _OPERANDS when it
takes more than int and Fraction operands (F_{p^2} also takes F_p
elements).  FieldElement derives the rest once for every kind: _coerce (an
operand or an element of the same field as an element of that field,
ValueError for an element of another field of the same kind, None for any
other type), == (False across fields) and hash, -, / (with an operand on
either side) and ** (square and multiply by polynomials._power; a
negative exponent inverts first).  A Q(theta) element's + and * each
build one reduced element from integer numerators, and an int or a
Fraction operand scales them and is never made an element; inverse() is
_quotient, the one division kernel on numerator triples.  Each field
kind subclasses Field and defines _key and __call__; Field derives zero,
one and _check, the one same-field test that every __call__ and kernel
makes.
Fields and elements are immutable Values.  F_{p^2} is F_p(xi), built from p
alone: xi^2 + xi + 1 = 0 at p = 2, xi^2 = n, the least non-residue, at odd p.
Curve and model code is generic over the elements, with Fraction as Q,
but for one step: chord_tangent, the chord-tangent step on points over
Q(theta) that elliptic.add_points takes for them, reads every value as a
numerator triple over an integer, forms lambda by _quotient, and
builds only x3 and y3.
splitting_fingerprint takes a monic cubic and lists primes by _is_prime.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

from .polynomials import (Polynomial, Value, _is_prime, _power, discriminant_cubic,
                          rational_roots)

PRIME_CAP = 2**31


class BadReductionError(ValueError):
    """A denominator was divisible by p while reducing mod p."""


def _check_prime(p: int):
    if p < 2 or p > PRIME_CAP:
        raise ValueError(f"modulus {p} out of range (2 <= p <= 2^31)")
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


class Field(Value):
    """An immutable field whose __call__ maps int 0 and 1 to its zero and one."""

    __slots__ = ()

    def _check(self, element):
        """element, which must lie in this field: ValueError if it lies in another."""
        if element.field is not self and element.field != self:
            raise ValueError(f"element of {element.field!r} used in {self!r}")
        return element

    @property
    def zero(self):
        return self(0)

    @property
    def one(self):
        return self(1)


class FieldElement(Value):
    """An immutable element of self.field, built on _key, +, *, unary - and inverse().

    An element that lies in F_p keys, and so hashes, as its F_p value, and
    a rational element of Q(theta) as its Fraction, so each hashes like
    the values it equals.  An F_p element keys as its least residue, but
    cannot hash like every int it equals: F_7(3) == 3 and F_7(3) == 10,
    and 3 and 10 hash apart.
    """

    __slots__ = ()

    # the types other than its own that an element maps into its field
    _OPERANDS = (int, Fraction)

    def _coerce(self, other):
        """other as an element of self.field, or None if its type is not an operand.

        Raises ValueError for an element of another field of the same kind.
        """
        if type(other) is type(self):
            return self.field._check(other)
        if isinstance(other, self._OPERANDS):
            return self.field(other)
        return None

    def __eq__(self, other):
        # an element of this very field needs no coercion
        if type(other) is not type(self) or other.field is not self.field:
            try:
                other = self._coerce(other)
            except ValueError:
                return False
            if other is None:
                return NotImplemented
        return self._key() == other._key()

    # defining __eq__ clears the inherited __hash__
    __hash__ = Value.__hash__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + -self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** -n
        return _power(self, n, self.field.one, operator.mul)


class PrimeField(Field):
    """The field F_p for a prime p, checked by trial division."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        _check_prime(p)
        object.__setattr__(self, "p", p)

    def __call__(self, value) -> PrimeFieldElement:
        if isinstance(value, PrimeFieldElement):
            return self._check(value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise BadReductionError(f"denominator of {value} divisible by {self.p}")
            num = value.numerator % self.p
            den = value.denominator % self.p
            return PrimeFieldElement(self, num * pow(den, -1, self.p) % self.p)
        return PrimeFieldElement(self, value % self.p)

    def elements(self):
        for v in range(self.p):
            yield PrimeFieldElement(self, v)

    def order(self) -> int:
        return self.p

    def _key(self):
        return self.p

    def __repr__(self):
        return f"PrimeField({self.p})"


class PrimeFieldElement(FieldElement):
    __slots__ = ("field", "value")

    def __init__(self, field: PrimeField, value: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def _key(self):
        return self.value

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.field, (self.value + o.value) % self.field.p)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrimeFieldElement(self.field, self.value * o.value % self.field.p)

    __rmul__ = __mul__

    def __neg__(self):
        return PrimeFieldElement(self.field, -self.value % self.field.p)

    def inverse(self) -> PrimeFieldElement:
        if self.value == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.field.p}")
        return PrimeFieldElement(self.field, pow(self.value, -1, self.field.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.field.p})"


def least_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue of an odd prime p: the least n >= 2
    with n^((p-1)/2) != 1 mod p (Euler's criterion).

    Every residue mod 2 is a square, so p < 3 raises ValueError.
    """
    if p < 3:
        raise ValueError(f"every residue mod {p} is a square")
    n = 2
    while pow(n, (p - 1) // 2, p) == 1:
        n += 1
    return n


class QuadraticExtensionField(Field):
    """F_{p^2} = F_p(xi), xi a root of the modulus x^2 + a1 x + a0 picked from p:
    x^2 + x + 1 at p = 2, and x^2 - n for the least non-residue n at odd p.

    Elements are coordinate pairs with respect to the basis {1, xi}.
    """

    __slots__ = ("base", "a0", "a1")

    def __init__(self, p: int):
        object.__setattr__(self, "base", PrimeField(p))
        a0, a1 = (1, 1) if p == 2 else (-least_nonresidue(p) % p, 0)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)

    @property
    def p(self):
        return self.base.p

    def __call__(self, value) -> ExtensionFieldElement:
        if isinstance(value, ExtensionFieldElement):
            return self._check(value)
        if isinstance(value, (PrimeFieldElement, Fraction)):
            return ExtensionFieldElement(self, self.base(value).value, 0)
        return ExtensionFieldElement(self, value % self.p, 0)

    def elements(self):
        for c1 in range(self.p):
            for c0 in range(self.p):
                yield ExtensionFieldElement(self, c0, c1)

    def order(self) -> int:
        return self.p * self.p

    def _key(self):
        return self.p

    def __repr__(self):
        return f"F_{self.p}^2 [xi^2 + {self.a1}*xi + {self.a0} = 0]"


class ExtensionFieldElement(FieldElement):
    __slots__ = ("field", "c0", "c1")

    _OPERANDS = (int, Fraction, PrimeFieldElement)

    def __init__(self, field: QuadraticExtensionField, c0: int, c1: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "c0", c0 % field.p)
        object.__setattr__(self, "c1", c1 % field.p)

    def _key(self):
        return self.c0 if self.c1 == 0 else (self.c0, self.c1)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ExtensionFieldElement(self.field, self.c0 + o.c0, self.c1 + o.c1)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        # (c0 + c1 xi)(d0 + d1 xi) with xi^2 = -a1 xi - a0
        cross = self.c1 * o.c1
        c0 = (self.c0 * o.c0 - cross * self.field.a0) % p
        c1 = (self.c0 * o.c1 + self.c1 * o.c0 - cross * self.field.a1) % p
        return ExtensionFieldElement(self.field, c0, c1)

    __rmul__ = __mul__

    def __neg__(self):
        return ExtensionFieldElement(self.field, -self.c0, -self.c1)

    def inverse(self) -> ExtensionFieldElement:
        """Inverse via the norm to F_p: e * conj(e) = c0^2 - a1 c0 c1 + a0 c1^2."""
        if not self:
            raise ZeroDivisionError("inverse of 0 in F_p^2")
        p, a0, a1 = self.field.p, self.field.a0, self.field.a1
        norm = (self.c0 * self.c0 - a1 * self.c0 * self.c1 + a0 * self.c1 * self.c1) % p
        ninv = pow(norm, -1, p)
        return ExtensionFieldElement(self.field,
                                     (self.c0 - a1 * self.c1) * ninv,
                                     -self.c1 * ninv)

    def __bool__(self):
        return self.c0 != 0 or self.c1 != 0

    def __repr__(self):
        return f"({self.c0} + {self.c1}*xi) (mod {self.field.p})"


class NumberField(Field):
    """Cubic field Q(theta) defined by a monic irreducible cubic over Q.

    Element arithmetic reads the minimal polynomial x^3 + a2 x^2 + a1 x + a0
    as integer numerators over one common denominator:
    theta^3 = -(m0 + m1 theta + m2 theta^2) / D with m_i = a_i D.
    """

    __slots__ = ("minimal_polynomial", "_m", "_den")

    def __init__(self, minimal_polynomial: Polynomial):
        mp = minimal_polynomial
        if not all(type(c) is Fraction for c in mp.coeffs):
            mp = mp.map_coefficients(Fraction)
        if mp.degree != 3:
            raise ValueError("minimal polynomial must be a cubic")
        if mp.coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        if rational_roots(mp):
            raise ValueError("minimal polynomial is reducible (rational root)")
        object.__setattr__(self, "minimal_polynomial", mp)
        # the primitive integer form of a monic cubic is (m0, m1, m2, D)
        ints = mp._integer_form()[0]
        object.__setattr__(self, "_m", ints[:3])
        object.__setattr__(self, "_den", ints[3])

    def __call__(self, c0, c1=0, c2=0) -> NumberFieldElement:
        if isinstance(c0, NumberFieldElement):
            if c1 or c2:
                raise ValueError("an element takes no further coordinates")
            return self._check(c0)
        c = (Fraction(c0), Fraction(c1), Fraction(c2))
        den = lcm(c[0].denominator, c[1].denominator, c[2].denominator)
        return _element(self, *(ci.numerator * (den // ci.denominator) for ci in c), den)

    def from_integers(self, n0: int, n1: int, n2: int, den: int) -> NumberFieldElement:
        """(n0 + n1 theta + n2 theta^2) / den for integers, with den != 0."""
        if not den:
            raise ZeroDivisionError("zero denominator in number field")
        return _element(self, n0, n1, n2, den)

    def _key(self):
        return self.minimal_polynomial

    def __repr__(self):
        return f"NumberField({self.minimal_polynomial})"


def _element(field: NumberField, n0: int, n1: int, n2: int, den: int) -> NumberFieldElement:
    """(n0 + n1 theta + n2 theta^2) / den brought to lowest terms with den > 0."""
    g = gcd(n0, n1, n2, den)
    if den < 0:
        g = -g
    if g != 1:
        n0, n1, n2, den = n0 // g, n1 // g, n2 // g, den // g
    e = object.__new__(NumberFieldElement)
    _set_field(e, field)
    _set_num(e, (n0, n1, n2))
    _set_den(e, den)
    return e


# an operand of either type takes the rational fast paths of NumberFieldElement
_RATIONALS = (int, Fraction)

_ZERO = (0, 0, 0)


def _product(field: NumberField, a: tuple, b: tuple) -> tuple:
    """Numerators of the product of numerator triples a and b, over D^2.

    The convolution runs to degree 4; then D theta^4 and D theta^3 are
    each replaced by -(m0 + m1 theta + m2 theta^2) times theta and 1.
    """
    (m0, m1, m2), D = field._m, field._den
    a0, a1, a2 = a
    b0, b1, b2 = b
    c0 = a0 * b0
    c1 = a0 * b1 + a1 * b0
    c2 = a0 * b2 + a1 * b1 + a2 * b0
    c3 = a1 * b2 + a2 * b1
    c4 = a2 * b2
    c3 = c3 * D - c4 * m2
    c2 = c2 * D - c4 * m1
    c1 = c1 * D - c4 * m0
    return c0 * D * D - c3 * m0, c1 * D - c3 * m1, c2 * D - c3 * m2


def _adjugate(field: NumberField, n: tuple) -> tuple:
    """(C0, D C1, D^2 C2) and det, with n^-1 = (C0, D C1, D^2 C2) / det for
    the numerator triple n read as an element over denominator 1.

    For n the integer multiplication matrix has columns n, u = D n theta
    and w = D u theta; its determinant is D^3 N(n), nonzero for n != 0.
    C_i are the cofactors along its first row.
    """
    if n == _ZERO:
        raise ZeroDivisionError("inverse of 0 in number field")
    (m0, m1, m2), D = field._m, field._den
    n0, n1, n2 = n
    u0, u1, u2 = -n2 * m0, n0 * D - n2 * m1, n1 * D - n2 * m2
    w0, w1, w2 = -u2 * m0, u0 * D - u2 * m1, u1 * D - u2 * m2
    cof0 = u1 * w2 - w1 * u2
    cof1 = w1 * n2 - n1 * w2
    cof2 = n1 * u2 - u1 * n2
    det = n0 * cof0 + u0 * cof1 + w0 * cof2
    if det == 0:
        # a zero norm contradicts irreducibility
        raise ArithmeticError("non-invertible element: reducible modulus")
    return (cof0, D * cof1, D * D * cof2), det


def _quotient(field: NumberField, a: tuple, b: tuple) -> tuple:
    """a / b for (numerator triple, denominator) pairs, b nonzero, in lowest
    terms by one gcd; the denominator keeps its sign."""
    (n, dn), (m, dm) = a, b
    adj, det = _adjugate(field, m)
    # a / b = (n / dn) (dm adj / det), and n adj is over D^2
    n0, n1, n2 = _product(field, n, adj)
    D = field._den
    n0, n1, n2, d = n0 * dm, n1 * dm, n2 * dm, dn * det * D * D
    g = gcd(n0, n1, n2, d)
    return (n0 // g, n1 // g, n2 // g), d // g


class NumberFieldElement(FieldElement):
    """Element of a cubic field in the basis {1, theta, theta^2}.

    Stored as integer numerators (n0, n1, n2) over one positive denominator,
    in lowest terms (Cohen, GTM 138, section 4.2), so equal elements have
    equal representations; coords gives the coordinates as Fractions.

    + and * each build one reduced element.  An int or Fraction operand
    scales the numerators and is never made an element, and inverse() is
    one product with the adjugate; - and / are FieldElement's.  Exact type
    tests come before isinstance, whose Fraction test goes through the ABC
    machinery.
    """

    __slots__ = ("field", "_num", "_den")

    @property
    def coords(self) -> tuple:
        return tuple(Fraction(n, self._den) for n in self._num)

    def _key(self):
        num = self._num
        if num[1] == 0 and num[2] == 0:  # is_rational() inline: every == calls _key
            return Fraction(num[0], self._den)
        return num, self._den

    def __add__(self, other):
        if type(other) is NumberFieldElement:
            (b0, b1, b2), db = self.field._check(other)._num, other._den
        elif type(other) in _RATIONALS or isinstance(other, _RATIONALS):
            (b0, b1, b2), db = (other.numerator, 0, 0), other.denominator
        else:
            return NotImplemented
        (a0, a1, a2), da = self._num, self._den
        if da == db:
            return _element(self.field, a0 + b0, a1 + b1, a2 + b2, da)
        return _element(self.field, a0 * db + b0 * da, a1 * db + b1 * da, a2 * db + b2 * da,
                        da * db)

    __radd__ = __add__

    def __mul__(self, other):
        field = self.field
        if type(other) is NumberFieldElement:
            field._check(other)
            D = field._den
            return _element(field, *_product(field, self._num, other._num),
                            self._den * other._den * D * D)
        if type(other) in _RATIONALS or isinstance(other, _RATIONALS):
            n, d = other.numerator, other.denominator
            a0, a1, a2 = self._num
            return _element(field, a0 * n, a1 * n, a2 * n, self._den * d)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        n0, n1, n2 = self._num
        return _element(self.field, -n0, -n1, -n2, self._den)

    def inverse(self) -> NumberFieldElement:
        """1 / self, from the adjugate of the integer multiplication matrix."""
        n, d = _quotient(self.field, ((1, 0, 0), 1), (self._num, self._den))
        return _element(self.field, *n, d)

    def is_rational(self) -> bool:
        return self._num[1] == 0 and self._num[2] == 0

    def __bool__(self):
        return self._num != _ZERO

    def __repr__(self):
        c0, c1, c2 = self.coords
        return f"({c0} + {c1}*theta + {c2}*theta^2)"


# the slot setters of NumberFieldElement, which _element calls past the
# immutability of Value.__setattr__ (each about twice as fast as
# object.__setattr__)
_set_field, _set_num, _set_den = (vars(NumberFieldElement)[name].__set__
                                  for name in NumberFieldElement.__slots__)


def _coefficient(field: NumberField, a) -> tuple | None:
    """(numerator triple, denominator) of a curve coefficient in field or in Q,
    or None for zero."""
    if type(a) is NumberFieldElement:
        n, d = field._check(a)._num, a._den
    else:
        c, d = a.as_integer_ratio()
        n = c, 0, 0
    return None if n == _ZERO else (n, d)


def _plus(a: tuple, b: tuple, sign: int = 1) -> tuple:
    """a + sign * b for (numerator triple, denominator) pairs, unreduced."""
    (t0, t1, t2), d = a
    (u0, u1, u2), e = b
    if d == e:
        return (t0 + sign * u0, t1 + sign * u1, t2 + sign * u2), d
    se = sign * d
    return (t0 * e + u0 * se, t1 * e + u1 * se, t2 * e + u2 * se), d * e


def _times(field: NumberField, a: tuple, b: tuple) -> tuple:
    """a * b for (numerator triple, denominator) pairs, unreduced."""
    D = field._den
    return _product(field, a[0], b[0]), a[1] * b[1] * D * D


def chord_tangent(coefficients: tuple, x1, y1, x2, y2) -> tuple | None:
    """(x3, y3) = (x1, y1) + (x2, y2) on y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6,
    or None for the point at infinity, for affine points on the curve.

    The four coordinates are elements of one cubic field Q(theta), and
    a1, a2, a3 and a4 lie in that field or in Q.  Each value is read as a
    numerator triple over an integer, and sums and products stay unreduced:
    lambda = num / den is _quotient, brought to lowest terms by one gcd,
    and only x3 and y3 are built, as reduced elements.  A zero coefficient adds no term.  As in
    elliptic.add_points, x1 = x2 means Q = +-P, and then
    den = y1 + y2 + a1 x2 + a3 is zero for Q = -P and the tangent's
    2 y1 + a1 x1 + a3 for Q = P.
    """
    field = x1.field
    for v in (y1, x2, y2):
        field._check(v)
    c1, c2, c3, c4, _ = coefficients
    a1, a2, a3, a4 = (_coefficient(field, c1), _coefficient(field, c2),
                      _coefficient(field, c3), _coefficient(field, c4))
    p1, q1, p2, q2 = (x1._num, x1._den), (y1._num, y1._den), (x2._num, x2._den), (y2._num, y2._den)
    if p1 == p2:
        den = _plus(q1, q2)
        if a1:
            den = _plus(den, _times(field, a1, p2))
        if a3:
            den = _plus(den, a3)
        if den[0] == _ZERO:
            return None
        # 3 x1^2 + 2 a2 x1 + a4 - a1 y1, as x1 (3 x1 + 2 a2) + a4 - a1 y1
        (n0, n1, n2), d = p1
        inner = (3 * n0, 3 * n1, 3 * n2), d
        if a2:
            inner = _plus(inner, _plus(a2, a2))
        num = _times(field, p1, inner)
        if a4:
            num = _plus(num, a4)
        if a1:
            num = _plus(num, _times(field, a1, q1), -1)
    else:
        num, den = _plus(q2, q1, -1), _plus(p2, p1, -1)
    lam = _quotient(field, num, den)
    # x3 = lambda (lambda + a1) - (x1 + x2 + a2)
    (n0, n1, n2), d = _times(field, lam, _plus(lam, a1) if a1 else lam)
    s = _plus(p1, p2)
    if a2:
        s = _plus(s, a2)
    (s0, s1, s2), e = s
    x3 = _element(field, n0 * e - s0 * d, n1 * e - s1 * d, n2 * e - s2 * d, d * e)
    p3 = x3._num, x3._den
    # y3 = (x1 - x3) lambda - (y1 + a1 x3 + a3)
    (n0, n1, n2), d = _times(field, _plus(p1, p3, -1), lam)
    s = q1
    if a1:
        s = _plus(s, _times(field, a1, p3))
    if a3:
        s = _plus(s, a3)
    (s0, s1, s2), e = s
    return x3, _element(field, n0 * e - s0 * d, n1 * e - s1 * d, n2 * e - s2 * d, d * e)


def splitting_fingerprint(f: Polynomial, bound: int):
    """Root counts of a monic irreducible cubic modulo unramified primes up to bound.

    Primes dividing disc(f) or any coefficient denominator are skipped.
    For a cyclic cubic the count is 0 or 3 at every unramified prime.  A
    cubic that is not monic is refused: modulo a prime dividing its leading
    coefficient one of its roots lies at infinity and would go uncounted.
    """
    f = f.map_coefficients(Fraction)
    if f.degree != 3:
        raise ValueError("fingerprint needs a cubic")
    if f.coeffs[-1] != 1:
        raise ValueError("fingerprint needs a monic cubic")
    if rational_roots(f):
        raise ValueError("fingerprint needs an irreducible cubic")
    if bound < 2:
        raise ValueError("bound must be >= 2")
    disc = discriminant_cubic(*reversed(f.coeffs))
    skip = abs(disc.numerator) * disc.denominator
    for coeff in f.coeffs:
        skip *= coeff.denominator
    out = {}
    for p in range(2, bound + 1):
        if not _is_prime(p) or skip % p == 0:
            continue
        fp = PrimeField(p)
        coeffs = [fp(coeff).value for coeff in f.coeffs]
        count = 0
        for x in range(p):
            acc = 0
            for cf in reversed(coeffs):
                acc = (acc * x + cf) % p
            if acc == 0:
                count += 1
        out[p] = count
    return out
