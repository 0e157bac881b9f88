"""Exact univariate polynomial arithmetic over pluggable coefficient rings.

Value, the lowest layer, is the base of the immutable classes of the
package (polynomials, rational functions, curves, models, fields and their
elements): it writes immutability, == and hash once, and a subclass
defines only _key(), the fields that make its value.  Record, a Value
whose fields are its __slots__, also writes the positional constructor and
the repr of the plain records (points, family instances and reports).

A polynomial is a dense, immutable list of coefficients, constant term
first: Polynomial([1, 0, 2]) is 1 + 2x^2.  Trailing zeros are stripped at
construction, so the leading coefficient of a nonzero polynomial is never
zero; the zero polynomial has an empty coefficient tuple and degree -inf.

Coefficients may be Fractions, ints, finite-field elements, number-field
elements, or Polynomials themselves, as long as they support ring
arithmetic and truthiness (zero is falsy, and so is the zero polynomial).
Operations that divide (divmod, gcd) additionally need field coefficients.
Rational-specific helpers (rational_roots, poly_sqrt) expect Fraction
coefficients; qpoly() builds those conveniently.
A polynomial over Q builds its integer form (primitive integer
coefficients and one rational scale) on first use; evaluation at a
Fraction and rational_roots both read it, through one binary-form kernel.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import gcd, isqrt, lcm

NEG_INFINITY = float("-inf")


class Value:
    """An immutable value, equal to another of its type when their _key()s are equal.

    A subclass sets its slots once, through object.__setattr__, and defines
    _key(), the fields that make up its value; == and hash read only that.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Record(Value):
    """A Value whose fields are its __slots__, given in order to one positional __init__.

    A subclass declares only __slots__ (and any docstring and properties);
    its _key() is the field values and its repr is Name(a=..., b=...).  A
    record hashes only when all its fields do: a report whose details is a
    dict raises TypeError from hash().
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the slot descriptors' setters, which pass Value.__setattr__ (each
        # faster than object.__setattr__ by name)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)

    def _key(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def _power(x, n: int, one, op):
    """x^n for n >= 0 under an associative op with identity one, by square and
    multiply: x is squared only while higher bits of n remain."""
    result = one
    while n:
        if n & 1:
            result = op(result, x)
        n >>= 1
        if n:
            x = op(x, x)
    return result


def _invert(c):
    """Multiplicative inverse of a coefficient, staying exact."""
    if isinstance(c, int):
        return Fraction(1, c)
    if isinstance(c, Fraction):
        return 1 / c
    return c.inverse()


class Polynomial(Value):
    """Dense univariate polynomial, constant term first, trailing zeros stripped."""

    # _int_form is filled by _integer_form() on first use, or by from_integers
    __slots__ = ("coeffs", "_int_form")

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_integers(cls, ints, den: int) -> Polynomial:
        """sum ints[i] x^i / den over Q, for integers with ints[-1] != 0 and den > 0.

        The integer form is read off the integers, so it is cached at once.
        """
        num = gcd(*ints)
        p = cls([Fraction(c, den) for c in ints])
        object.__setattr__(p, "_int_form", (tuple(c // num for c in ints), num, den))
        return p

    def _key(self):
        return self.coeffs

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, i):
        """Coefficient of x^i (zero beyond the degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    @property
    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(a + b for a, b in
                          itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return Polynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        return Polynomial(c * other for c in self.coeffs)

    # scalar multiplication commutes for every coefficient kind in use
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n, Polynomial([1]), operator.mul)

    def __call__(self, x):
        """Evaluate by Horner's rule; the zero polynomial evaluates to plain 0.

        At a Fraction a/b a polynomial over Q is evaluated with integers
        only: the binary form sum c_i a^i b^(n-i) of its integer form,
        over one denominator.  The value is the Fraction Horner's rule gives.

        >>> p = qpoly(Fraction(1, 2), 0, 3)
        >>> p(Fraction(-2, 3))
        Fraction(11, 6)
        >>> p(Fraction(-2, 3)) == Fraction(1, 2) + 3 * Fraction(-2, 3) ** 2
        True
        """
        if isinstance(x, Fraction):
            form = self._integer_form()
            if form is not None:
                ints, num, den = form
                b = x.denominator
                return Fraction(num * _binary_form(ints, x.numerator, b),
                                den * b ** (len(ints) - 1))
        result = 0
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def _integer_form(self):
        """(ints, num, den) with self = num/den * sum ints[i] x^i and ints primitive.

        None unless self is a nonzero polynomial with int or Fraction
        coefficients.  Computed on first use and cached.
        """
        try:
            return self._int_form
        except AttributeError:
            pass
        form = None
        if self.coeffs and all(isinstance(c, (int, Fraction)) for c in self.coeffs):
            den = lcm(*(c.denominator for c in self.coeffs))
            ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
            num = gcd(*ints)
            form = (tuple(c // num for c in ints), num, den)
        object.__setattr__(self, "_int_form", form)
        return form

    def derivative(self) -> Polynomial:
        return Polynomial([i * self.coeffs[i] for i in range(1, len(self.coeffs))])

    def monic(self) -> Polynomial:
        """Divide through by the leading coefficient."""
        if not self.coeffs:
            return self
        inv = _invert(self.coeffs[-1])
        return Polynomial(c * inv for c in self.coeffs)

    def reversed(self, weight: int) -> Polynomial:
        """x^weight * p(1/x), the reversal used by the infinity chart.

        Requires weight >= degree.
        """
        if self.coeffs and weight < len(self.coeffs) - 1:
            raise ValueError("reversal weight below degree")
        out = [0] * (weight + 1)
        for i, c in enumerate(self.coeffs):
            out[weight - i] = c
        return Polynomial(out)

    def map_coefficients(self, fn) -> Polynomial:
        return Polynomial(fn(c) for c in self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial()"
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts)


def qpoly(*coeffs) -> Polynomial:
    """Polynomial over Q from int/Fraction coefficients, constant term first.

    >>> str(qpoly(1, 0, 2))
    '1 + 2*x^2'
    >>> qpoly(1, 2)(Fraction(3))
    Fraction(7, 1)
    """
    return Polynomial([Fraction(c) for c in coeffs])


def poly_divmod(a: Polynomial, b: Polynomial):
    """Exact division with remainder over a coefficient field: a = q*b + r, deg r < deg b.

    >>> q, r = poly_divmod(qpoly(-1, 0, 1), qpoly(-1, 1))
    >>> str(q), not r
    ('1 + 1*x', True)
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if a.degree < b.degree:
        return Polynomial(), a
    inv_lead = _invert(b.coeffs[-1])
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    quo = [0] * (len(rem) - db)
    for i in range(len(rem) - db - 1, -1, -1):
        coeff = rem[i + db] * inv_lead
        if coeff:
            quo[i] = coeff
            for j, bc in enumerate(b.coeffs):
                rem[i + j] = rem[i + j] - coeff * bc
    return Polynomial(quo), Polynomial(rem[:db])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a.monic()


def poly_ext_gcd(a: Polynomial, b: Polynomial):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic (or zero)."""
    r0, r1 = a, b
    s0, s1 = Polynomial([1]), Polynomial()
    t0, t1 = Polynomial(), Polynomial([1])
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0:
        return r0, s0, t0
    inv = _invert(r0.coeffs[-1])
    return r0 * inv, s0 * inv, t0 * inv


def discriminant_cubic(a, b, c, d):
    """Discriminant of a*X^3 + b*X^2 + c*X + d over any commutative ring.

    18abcd - 4b^3d + b^2c^2 - 4ac^3 - 27a^2d^2.  The caller is responsible
    for degree bookkeeping when a vanishes (the value is then the quantity
    the same formula assigns to the degenerate quadruple, not the
    discriminant of the lower-degree polynomial).  For rational arguments
    the value is a Fraction exactly when an argument is one.

    >>> discriminant_cubic(1, Fraction(-1, 2), 0, 1)
    Fraction(-53, 2)
    """
    return (18 * (a * b * c * d) - 4 * (b * b * b * d) + (b * b) * (c * c)
            - 4 * (a * c * c * c) - 27 * (a * a * d * d))


def rat_is_square(r):
    """Whether a rational is a square; returns (flag, canonical nonnegative root)."""
    r = Fraction(r)
    if r < 0:
        return False, None
    n, d = r.numerator, r.denominator
    sn, sd = isqrt(n), isqrt(d)
    if sn * sn == n and sd * sd == d:
        return True, Fraction(sn, sd)
    return False, None


def poly_sqrt(p: Polynomial):
    """Exact square root of a polynomial over Q, or None.

    The root is normalized to have positive leading coefficient.
    """
    if not p:
        return Polynomial()
    n = p.degree
    if n % 2:
        return None
    ok, lead = rat_is_square(p.coeffs[-1])
    if not ok:
        return None
    m = n // 2
    root = [Fraction(0)] * (m + 1)
    root[m] = lead
    for k in range(m - 1, -1, -1):
        acc = Fraction(p[m + k])
        for i in range(k + 1, m):
            acc -= root[i] * root[m + k - i]
        root[k] = acc / (2 * lead)
    candidate = Polynomial(root)
    if candidate * candidate == p.map_coefficients(Fraction):
        return candidate
    return None


def _binary_form(ints, a: int, b: int) -> int:
    """sum ints[i] a^i b^(n-i), n = len(ints) - 1, by homogeneous Horner.

    This is b^n times the polynomial with coefficients ints at a/b.
    """
    acc = ints[-1]
    bpow = 1
    for c in reversed(ints[:-1]):
        bpow *= b
        acc = acc * a + c * bpow
    return acc


# primes whose root tables let rational_roots return early
_FILTER_PRIMES = (5, 7, 11, 13)


def _is_prime(n: int) -> bool:
    """Whether n is prime, by trial division by 2 and the odd numbers up to sqrt(n)."""
    return n == 2 or (n > 2 and n % 2 == 1 and all(n % d for d in range(3, isqrt(n) + 1, 2)))


def _roots_mod(ints, p: int) -> list:
    """For each residue r mod p, whether r is a root of sum ints[i] x^i mod p."""
    coeffs = [c % p for c in reversed(ints)]
    table = []
    for r in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * r + c) % p
        table.append(not acc)
    return table


def _eval_mod(ints, x: int, m: int) -> int:
    """sum ints[i] x^i mod m by Horner's rule."""
    acc = 0
    for c in reversed(ints):
        acc = (acc * x + c) % m
    return acc


def _squarefree_part(ints) -> tuple:
    """The primitive integer form of F / gcd(F, F') for F = sum ints[i] x^i."""
    f = Polynomial(ints)
    g = poly_gcd(f, f.derivative())
    if g.degree > 0:
        f = poly_divmod(f, g)[0]
    return f._integer_form()[0]


def _lifted_roots(ints) -> set:
    """Rational roots of F = sum ints[i] x^i, primitive with ints[0] != 0, by Hensel lifting.

    F is first replaced by its squarefree part, which has the same roots.
    A root a/b in lowest terms has b | lc and a | c0, so y = lc a / b is an
    integer with |y| <= |lc c0|.  The odd primes p not dividing lc are tried
    in turn until every root of F mod p is simple, which fails only at the
    finitely many p dividing the discriminant.  The root a b^-1 of F mod p
    lifts, by Newton's step r - F(r) / F'(r), to the unique root r mod
    M = p^(2^k) above it, and y = lc r mod M is read as the residue of least
    absolute value once M > 2 |lc c0|.  So each simple root mod p gives one
    candidate y / lc, which is tested exactly.
    """
    ints = _squarefree_part(ints)
    lead = ints[-1]
    deriv = [i * c for i, c in enumerate(ints)][1:]
    p = 1
    while True:
        p += 2
        if lead % p and _is_prime(p):
            residues = [r for r, root in enumerate(_roots_mod(ints, p)) if root]
            if all(_eval_mod(deriv, r, p) for r in residues):
                break
    bound = 2 * abs(lead * ints[0])
    roots = set()
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _eval_mod(ints, r, m) * pow(_eval_mod(deriv, r, m), -1, m)) % m
        y = lead * r % m
        if 2 * y > m:
            y -= m
        root = Fraction(y, lead)
        if not _binary_form(ints, root.numerator, root.denominator):
            roots.add(root)
    return roots


def rational_roots(p: Polynomial):
    """Exact set of rational roots.

    Works on the primitive integer form F; a zero constant term
    contributes the root 0.  A root a/b in lowest terms has b dividing
    the leading coefficient, and b^n f(a/b) = F(a, b), so for each of the
    primes p = 5, 7, 11, 13 with p not dividing b, a * b^-1 is a root of
    F(x, 1) mod p.  Hence the set is empty as soon as F has no root mod
    one of them that does not divide the leading coefficient (no b is then
    divisible by it); otherwise the roots are found by Hensel lifting the
    simple roots of F modulo one prime (see _lifted_roots), which takes a
    few steps however many divisors the coefficients have.
    Raises on the zero polynomial.

    >>> sorted(rational_roots(qpoly(0, Fraction(-1, 2), 0, 2)))
    [Fraction(-1, 2), Fraction(0, 1), Fraction(1, 2)]
    """
    if not p:
        raise ValueError("rational roots of the zero polynomial")
    form = p._integer_form()
    if form is None:
        raise TypeError("rational roots need coefficients in Q")
    return _form_roots(form[0])


def _form_roots(ints) -> set:
    """rational_roots of sum ints[i] x^i, for integers not all zero."""
    roots = set()
    low = next(i for i, c in enumerate(ints) if c)
    if low:
        roots.add(Fraction(0))
        ints = ints[low:]
    if len(ints) == 1:
        return roots
    for prime in _FILTER_PRIMES:
        if not any(_roots_mod(ints, prime)) and ints[-1] % prime:
            return roots
    return roots | _lifted_roots(ints)


def enumerate_rationals(height: int):
    """Yield every p/q in lowest terms with |p| <= height, 1 <= q <= height.

    Each value appears exactly once, 0 included; the order is fixed
    (denominator ascending, then numerator ascending) so searches are
    reproducible.

    >>> [str(v) for v in enumerate_rationals(2)]
    ['-2', '-1', '0', '1', '2', '-1/2', '1/2']
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if p == 0:
                if q == 1:
                    yield Fraction(0)
                continue
            if gcd(abs(p), q) == 1:
                yield Fraction(p, q)


class RationalFunction(Value):
    """Quotient of polynomials over Q, reduced, with monic denominator."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        if not denominator:
            raise ZeroDivisionError("zero denominator")
        numerator = numerator.map_coefficients(Fraction)
        denominator = denominator.map_coefficients(Fraction)
        g = poly_gcd(numerator, denominator)
        if g.degree > 0:
            numerator = poly_divmod(numerator, g)[0]
            denominator = poly_divmod(denominator, g)[0]
        lead = denominator.coeffs[-1]
        if lead != 1:
            inv = 1 / lead
            numerator = numerator * inv
            denominator = denominator * inv
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def _key(self):
        return self.numerator, self.denominator

    def __repr__(self):
        return f"({self.numerator}) / ({self.denominator})"
