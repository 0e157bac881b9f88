"""Independent oracle implementations used to cross-check library results.

Everything here is deliberately coded from first principles against the
textbook definitions (Sylvester determinants, pseudo-remainder gcd,
double loops over finite fields, Mumford pairs, chord-and-tangent lines,
unfiltered rational-root candidates), not by calling the code paths under
test.
"""

from fractions import Fraction
from math import gcd, isqrt


def sylvester_resultant(a, b):
    """Resultant as the determinant of the Sylvester matrix, exact fractions.

    a, b: coefficient lists, constant term first, nonzero.
    """
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    m, n = len(a) - 1, len(b) - 1
    if m < 0 or n < 0:
        raise ValueError("zero polynomial")
    if m == 0 and n == 0:
        return Fraction(1)
    size = m + n
    rows = []
    desc_a = list(reversed(a))
    desc_b = list(reversed(b))
    for i in range(n):
        rows.append([Fraction(0)] * i + desc_a + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + desc_b + [Fraction(0)] * (size - n - 1 - i))
    # Gaussian elimination with exact arithmetic
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    return det


def _int_poly_divexact_content(p):
    c = 0
    for v in p:
        c = gcd(c, abs(v))
    if c == 0:
        return p
    return [v // c for v in p]


def _pseudo_rem(a, b):
    """Pseudo-remainder of integer polynomials (constant first)."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        shift = len(a) - 1 - db
        coef = a[-1]
        a = [v * lead for v in a]
        for i in range(len(b)):
            a[shift + i] -= coef * b[i]
        while a and a[-1] == 0:
            a.pop()
    return a


def primitive_prs_gcd(a, b):
    """Gcd of integer polynomial lists via the primitive pseudo-remainder sequence.

    Returns a primitive integer polynomial (constant first) with positive
    leading coefficient; [c] for coprime inputs.
    """
    a = _int_poly_divexact_content([int(v) for v in a])
    b = _int_poly_divexact_content([int(v) for v in b])
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        r = _int_poly_divexact_content(r)
        a, b = b, r
    if a and a[-1] < 0:
        a = [-v for v in a]
    return a


def _finite_field(p, squared):
    """(elements, zero, add, mul, neg, evaluate) for F_p as integers mod p, or for
    F_{p^2} as pairs (a, b) = a + b*xi, xi^2 = xi + 1 (p = 2) or a non-residue."""
    if not squared:
        def mul(x, y):
            return x * y % p

        def add(x, y):
            return (x + y) % p

        def embed(c):
            return c % p

        def neg(x):
            return -x % p

        elements = list(range(p))
        zero = 0
    else:
        if p == 2:
            # xi^2 = xi + 1
            def mul(x, y):
                c0 = x[0] * y[0]
                c1 = x[0] * y[1] + x[1] * y[0]
                c2 = x[1] * y[1]
                return ((c0 + c2) % 2, (c1 + c2) % 2)
        else:
            squares = {i * i % p for i in range(p)}
            nr = 2
            while nr % p in squares:
                nr += 1

            def mul(x, y):
                return ((x[0] * y[0] + nr * x[1] * y[1]) % p,
                        (x[0] * y[1] + x[1] * y[0]) % p)

        def add(x, y):
            return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

        def embed(c):
            return (c % p, 0)

        def neg(x):
            return ((-x[0]) % p, (-x[1]) % p)

        elements = [(i, j) for i in range(p) for j in range(p)]
        zero = (0, 0)

    def evaluate(coeffs, x):
        acc = zero
        for c in reversed(coeffs):
            acc = add(mul(acc, x), embed(c))
        return acc

    return elements, zero, add, mul, neg, evaluate


def count_curve_points(f, h, genus, p, squared=False):
    """#C(F_q) for v^2 + h(u)v = f(u) by an integer double loop, q = p or p^2.

    f, h: integer coefficient lists (constant first) of the Q-model;
    the infinity chart uses the Q-model genus.
    """
    deg_f = 2 * genus + 2
    deg_h = genus + 1
    ft = [0] * (deg_f + 1)
    for i, c in enumerate(f):
        ft[deg_f - i] = c
    ht = [0] * (deg_h + 1)
    for i, c in enumerate(h):
        ht[deg_h - i] = c
    elements, zero, add, mul, neg, evaluate = _finite_field(p, squared)

    total = 0
    for u in elements:
        fu = evaluate(f, u)
        hu = evaluate(h, u)
        for v in elements:
            if add(add(mul(v, v), mul(hu, v)), neg(fu)) == zero:
                total += 1
    f0 = evaluate(ft, zero)
    h0 = evaluate(ht, zero)
    for v in elements:
        if add(add(mul(v, v), mul(h0, v)), neg(f0)) == zero:
            total += 1
    return total


def singular_affine_points(f, h, p, squared=False):
    """The (u, v) over F_q, q = p or p^2, where F = v^2 + h(u)v - f(u) and both
    partials dF/du = h'(u)v - f'(u) and dF/dv = 2v + h(u) vanish, by a double loop.

    f, h: integer coefficient lists (constant first).
    """
    df = [i * c for i, c in enumerate(f)][1:]
    dh = [i * c for i, c in enumerate(h)][1:]
    elements, zero, add, mul, neg, evaluate = _finite_field(p, squared)
    two = evaluate([2], zero)
    return [(u, v) for u in elements for v in elements
            if add(add(mul(v, v), mul(evaluate(h, u), v)), neg(evaluate(f, u))) == zero
            and add(mul(evaluate(dh, u), v), neg(evaluate(df, u))) == zero
            and add(mul(two, v), evaluate(h, u)) == zero]


def binary_form_discriminant(coeffs, degree):
    """Discriminant, up to sign, of sum coeffs[i] x^i y^(degree - i), a binary form.

    coeffs: ints or Fractions, constant term first.  With a nonzero top
    coefficient a this is Res(F, F')/a, F the polynomial in x.  A zero top
    coefficient makes y a factor: the discriminant is then lead^2 times that
    of the degree-(degree - 1) polynomial, lead its leading coefficient, and
    it is 0 when y^2 divides the form.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    n = len(coeffs) - 1
    if n < degree - 1:
        return Fraction(0)
    derivative = [i * c for i, c in enumerate(coeffs)][1:]
    disc = sylvester_resultant(coeffs, derivative) / coeffs[-1]
    return disc if n == degree else coeffs[-1] ** 2 * disc


def branch_discriminant(f, h, genus):
    """Discriminant, up to sign, of h^2 + 4f as a binary form of degree 2g + 2.

    An odd prime p not dividing any denominator is a prime of good
    reduction of v^2 + h(u)v = f(u) exactly when it does not divide this.
    f, h: coefficient lists (ints or Fractions, constant first).
    """
    branch = [0] * (max(len(f), 2 * len(h) - 1))
    for i, c in enumerate(f):
        branch[i] += 4 * c
    for i, a in enumerate(h):
        for j, b in enumerate(h):
            branch[i + j] += a * b
    return binary_form_discriminant(branch, 2 * genus + 2)


def divisor_class_count(f, h, p):
    """#J(F_p) for an odd-degree genus-2 model by counting reduced Mumford pairs.

    Counts pairs (a, b) with a monic of degree <= 2, deg b < deg a, and
    a | b^2 + b*h - f; each degree-0 divisor class has exactly one.
    """
    f = [c % p for c in f]
    h = [c % p for c in h]
    if (len(f) - 1) % 2 == 0:
        raise ValueError("odd-degree model expected")

    def evaluate(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    def pmul(x, y):
        out = [0] * (len(x) + len(y) - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                out[i + j] = (out[i + j] + xi * yj) % p
        return out

    def padd(x, y):
        n = max(len(x), len(y))
        return [((x[i] if i < len(x) else 0) + (y[i] if i < len(y) else 0)) % p
                for i in range(n)]

    def prem(x, m):
        x = [c % p for c in x]
        inv = pow(m[-1], -1, p)
        while True:
            while x and x[-1] == 0:
                x.pop()
            if len(x) < len(m):
                return x
            q = x[-1] * inv % p
            shift = len(x) - len(m)
            for i in range(len(m)):
                x[shift + i] = (x[shift + i] - q * m[i]) % p
            x.pop()

    count = 1  # the identity class, a = 1, b = 0
    for r in range(p):
        hr, fr = evaluate(h, r), evaluate(f, r)
        for beta in range(p):
            if (beta * beta + beta * hr - fr) % p == 0:
                count += 1
    for a1 in range(p):
        for a0 in range(p):
            modulus = [a0, a1, 1]
            for b1 in range(p):
                for b0 in range(p):
                    bb = [b0, b1]
                    val = padd(pmul(bb, bb), pmul(bb, h))
                    val = padd(val, [(-c) % p for c in f])
                    if not prem(val, modulus):
                        count += 1
    return count


def primes_upto(n):
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    i = 2
    while i * i <= n:
        if sieve[i]:
            sieve[i * i:: i] = bytearray(len(range(i * i, n + 1, i)))
        i += 1
    return [i for i in range(2, n + 1) if sieve[i]]


def integer_sqrt_fraction(x):
    """Exact square root of a nonnegative Fraction, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    a, b = isqrt(x.numerator), isqrt(x.denominator)
    if a * a == x.numerator and b * b == x.denominator:
        return Fraction(a, b)
    return None


def fraction_horner(coeffs, x):
    """Value of sum coeffs[i] x^i by Horner's rule, one Fraction step at a time.

    Coefficients are ints or Fractions, constant term first.  Without a
    nonzero coefficient the value is the int 0; otherwise a Fraction.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return 0
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def search_points(f, h, genus, height):
    """Rational points (chart, u, v) of v^2 + h(u)v = f(u) with H(u) <= height.

    f, h: coefficient lists (ints or Fractions, constant term first).  Each
    u = p/q in lowest terms with |p|, q <= height is tried by solving the
    quadratic in v with the formula, in Fractions; the infinity chart's
    U = 0 fiber solves V^2 + h[g+1]V = f[2g+2].  Order: infinity points,
    then u by denominator and numerator ascending, v ascending.
    """
    f = [Fraction(c) for c in f]
    h = [Fraction(c) for c in h]

    def value(coeffs, x):
        return sum((c * x**i for i, c in enumerate(coeffs)), Fraction(0))

    def roots(b, c):
        """Rational v with v^2 + bv - c = 0, ascending."""
        s = integer_sqrt_fraction(b * b + 4 * c)
        return [] if s is None else sorted({(-b - s) / 2, (-b + s) / 2})

    def coeff(coeffs, i):
        return coeffs[i] if i < len(coeffs) else Fraction(0)

    points = [("infinity", Fraction(0), v)
              for v in roots(coeff(h, genus + 1), coeff(f, 2 * genus + 2))]
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if gcd(p, q) == 1:  # 0 only as 0/1
                u = Fraction(p, q)
                points += [("affine", u, v) for v in roots(value(h, u), value(f, u))]
    return points


def weierstrass_equation(coeffs, x, y):
    """y^2 + a1 xy + a3 y - (x^3 + a2 x^2 + a4 x + a6), every term evaluated."""
    a1, a2, a3, a4, a6 = coeffs
    return y * y + a1 * x * y + a3 * y - x * x * x - a2 * x * x - a4 * x - a6


def _divide_by_root(coeffs, r):
    """Quotient of sum coeffs[i] x^i by (x - r), by synthetic division; r must be a root."""
    quotient = [coeffs[-1]]
    for c in reversed(coeffs[1:-1]):
        quotient.append(c + r * quotient[-1])
    assert not coeffs[0] + r * quotient[-1], "not a root of the line-substituted cubic"
    return quotient[::-1]


def chord_tangent_sum(coeffs, p, q):
    """P + Q on a long Weierstrass curve; points are (x, y) pairs, None for infinity.

    The line through P and Q (the tangent, slope -F_x/F_y, when P = Q) is
    substituted into the curve equation F; the cubic in x this gives is
    divided by (x - x1)(x - x2), and its last root x3 with the line's y3 is
    the third intersection.  P + Q is that point's reflection, the other
    root y of F(x3, y) = 0.
    """
    if p is None:
        return q
    if q is None:
        return p
    a1, a2, a3, a4, a6 = coeffs
    (x1, y1), (x2, y2) = p, q
    if x1 != x2:
        lam = (y2 - y1) / (x2 - x1)
    elif y1 != y2:
        return None  # the vertical chord: Q = -P
    else:
        f_y = 2 * y1 + a1 * x1 + a3
        if not f_y:
            return None  # the vertical tangent: P has order 2
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / f_y
    nu = y1 - lam * x1
    # F(x, lam x + nu), constant term first
    cubic = [nu * nu + a3 * nu - a6,
             2 * lam * nu + a1 * nu + a3 * lam - a4,
             lam * lam + a1 * lam - a2,
             -1]
    linear = _divide_by_root(_divide_by_root(cubic, x1), x2)
    x3 = -linear[0] / linear[1]
    y3 = lam * x3 + nu
    return (x3, -y3 - a1 * x3 - a3)


def order_by_addition(coeffs, point, bound):
    """Least n <= bound with n P = infinity by repeated chord_tangent_sum, else None."""
    acc, n = point, 1
    while acc is not None:
        if n == bound:
            return None
        acc, n = chord_tangent_sum(coeffs, acc, point), n + 1
    return n


def _divisors_by_trial(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return set(small) | {n // d for d in small}


def rational_roots_by_candidates(coeffs):
    """Rational roots of sum coeffs[i] x^i by the rational-root theorem, unfiltered.

    coeffs: ints or Fractions, constant term first, not all zero.  The
    denominators are cleared, and every candidate +-p/q with p dividing the
    lowest nonzero and q the leading integer coefficient is a root when
    q^n times the value there, sum c_i p^i q^(n-i), is zero.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while not coeffs[-1]:
        coeffs.pop()
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    roots = set()
    if not ints[0]:
        roots.add(Fraction(0))
        while not ints[0]:
            ints.pop(0)
    n = len(ints) - 1
    for q in _divisors_by_trial(ints[-1]):
        for p in _divisors_by_trial(ints[0]):
            for a in (p, -p):
                if sum(c * a**i * q**(n - i) for i, c in enumerate(ints)) == 0:
                    roots.add(Fraction(a, q))
    return roots


def _poly_trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _poly_trim(x - y for x, y in zip(a, b))


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    """Quotient and remainder of long division by a nonzero b, lists constant first."""
    a, b = _poly_trim(a), _poly_trim(b)
    quotient = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = Fraction(a[-1]) / b[-1]
        shift = len(a) - len(b)
        quotient[shift] = c
        a = _poly_sub(a, [0] * shift + [c * v for v in b])
    return _poly_trim(quotient), a


class CubicResidue:
    """c0 + c1 x + c2 x^2 in Q[x]/(f), f a monic irreducible cubic given by its
    Fraction coefficients, constant first.

    A product is reduced by long division by f, and the inverse comes from
    the extended Euclidean algorithm on f and the element.  Ints and
    Fractions act as constants, so chord_tangent_sum runs on residues.
    """

    def __init__(self, f, coords):
        self.f = f
        rest = _poly_divmod([Fraction(c) for c in coords], f)[1]
        self.coords = tuple(rest + [Fraction(0)] * (3 - len(rest)))

    def _lift(self, other):
        if isinstance(other, CubicResidue):
            assert other.f == self.f, "residues mod different cubics"
            return other
        return CubicResidue(self.f, [other])

    def __add__(self, other):
        other = self._lift(other)
        return CubicResidue(self.f, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __neg__(self):
        return CubicResidue(self.f, [-a for a in self.coords])

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        return CubicResidue(self.f, _poly_mul(list(self.coords), list(other.coords)))

    __rmul__ = __mul__

    def inverse(self):
        r0, r1 = list(self.f), _poly_trim(self.coords)
        assert r1, "inverse of 0"
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        assert len(r0) == 1, "gcd with the modulus is not constant"
        return CubicResidue(self.f, [c / r0[0] for c in s0])

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __eq__(self, other):
        return self.coords == self._lift(other).coords

    def __bool__(self):
        return any(self.coords)


def cubic_chord_tangent_sum(f, coeffs, p, q):
    """P + Q on a long Weierstrass curve over Q[x]/(f), by chord_tangent_sum on
    CubicResidue values.

    f: the monic irreducible cubic, constant first.  coeffs: a1, a2, a3, a4,
    a6, each a triple of coordinates in the basis 1, x, x^2.  Points are
    pairs of such triples, or None for infinity; so is the sum.
    """
    def pair(point):
        return None if point is None else tuple(CubicResidue(f, v) for v in point)
    total = chord_tangent_sum([CubicResidue(f, a) for a in coeffs], pair(p), pair(q))
    return None if total is None else tuple(v.coords for v in total)
