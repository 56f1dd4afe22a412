"""Finite field arithmetic on explicit coefficient vectors.

A field F_{p^k} is realised as F_p[x] modulo a monic irreducible polynomial
of degree k.  Elements are length-k coefficient vectors over the prime
field, constant term first.  All choices (modulus, square roots) are made
deterministically so that identical inputs always produce identical
outputs.
"""

import math
from itertools import islice, product

from .abelian import prime_powers
from .errors import TooLargeError

DEFAULT_ORDER_CEILING = 2 ** 16


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_divmod(a, b, p):
    """Quotient and remainder of coefficient lists over F_p, constant first."""
    a = list(a)
    db, da = len(_poly_trim(b)) - 1, len(_poly_trim(a)) - 1
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = pow(b[db], p - 2, p) if p > 2 else b[db]
    q = [0] * (max(da - db + 1, 0))
    while da >= db:
        coef = (a[da] * lead_inv) % p
        q[da - db] = coef
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - coef * b[i]) % p
        da = len(_poly_trim(a)) - 1
    return q, _poly_trim(a)


def _poly_mulmod(a, b, f, p):
    """a * b modulo the monic f over F_p; a, b and the result have len(f) - 1 coefficients."""
    k = len(f) - 1
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d] % p
        if c:
            for i in range(k):
                prod[d - k + i] -= c * f[i]
    return [c % p for c in prod[:k]]


def _poly_powmod(a, n, f, p):
    """a^n modulo the monic f over F_p, by repeated squaring."""
    result = [1] + [0] * (len(f) - 2)
    while n:
        if n & 1:
            result = _poly_mulmod(result, a, f, p)
        a = _poly_mulmod(a, a, f, p)
        n >>= 1
    return result


def _poly_is_irreducible(c, p):
    """Rabin's test for a monic polynomial over F_p, constant term first.

    f of degree k is irreducible exactly when x^(p^k) = x mod f and
    gcd(x^(p^(k/r)) - x, f) = 1 for every prime r dividing k (Rabin
    1980).  The powers x^(p^i) come from k Frobenius steps, each a p-th
    power modulo f.  Candidates with a root are rejected first.
    """
    deg = len(c) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    # a root gives a linear factor; this cheap test rejects most candidates
    if not c[0]:
        return False
    for r in range(1, p):
        acc = 0
        for coef in reversed(c):
            acc = (acc * r + coef) % p
        if acc == 0:
            return False
    x = [0, 1] + [0] * (deg - 2)
    frob = [x]  # frob[i] = x^(p^i) mod f
    for _ in range(deg):
        frob.append(_poly_powmod(frob[-1], p, c, p))
    if frob[deg] != x:
        return False
    for r, _ in prime_powers(deg):
        h = [(a - b) % p for a, b in zip(frob[deg // r], x)]
        g = list(c)
        while _poly_trim(h):
            g, h = h, _poly_divmod(g, h, p)[1]
        if len(_poly_trim(g)) > 1:
            return False
    return True


class FieldElement:
    """Immutable element of a FiniteField; supports the usual operators."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(c % field.p for c in coeffs)
        if len(self.coeffs) != field.k:
            raise ValueError(f"expected {field.k} coefficients, got {len(coeffs)}")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements from different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(self.field, [(a + b) % p for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, [(-a) % p for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field._mul(self, o)

    __rmul__ = __mul__

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

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        f = self.field
        return FieldElement(f, _poly_powmod(self.coeffs, n, f.modulus, f.p))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.order - 2)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.field.modulus, self.coeffs))

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs < o.coeffs

    def __repr__(self):
        if self.field.k == 1:
            return str(self.coeffs[0])
        return ":".join(str(c) for c in self.coeffs)


class FiniteField:
    """F_{p^k} presented as F_p[x] / (modulus).

    The modulus is a monic irreducible polynomial stored constant term
    first, leading coefficient included.  Two FiniteField objects compare
    equal when they have the same (p, k, modulus), so elements built from
    independently constructed copies of the same field interoperate.
    """

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.order = p ** k
        self.modulus = tuple(c % p for c in modulus)
        if len(self.modulus) != k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _poly_is_irreducible(list(self.modulus), p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.zero = FieldElement(self, (0,) * k)
        self.one = FieldElement(self, (1,) + (0,) * (k - 1))
        self._elements = None
        self._labels = None
        self._nonsquare_unit = None

    def __eq__(self, other):
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    def __call__(self, value):
        """Build an element from an int (prime subfield) or coefficient list."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element from a different field")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        coeffs = list(value)
        coeffs += [0] * (self.k - len(coeffs))
        return FieldElement(self, coeffs)

    def from_int(self, n):
        return FieldElement(self, (n % self.p,) + (0,) * (self.k - 1))

    def _mul(self, a, b):
        return FieldElement(self, _poly_mulmod(a.coeffs, b.coeffs, self.modulus, self.p))

    def elements(self):
        """All field elements, coefficient vectors in lexicographic order."""
        if self._elements is None:
            self._elements = tuple(
                FieldElement(self, c) for c in product(range(self.p), repeat=self.k)
            )
        return self._elements

    def labels(self):
        """The printed label of every element, in element order.

        labels()[i] is repr(elements()[i]), built from the coefficient
        vectors alone, so no element is created.

        >>> make_field(3, 2).labels()[:4]
        ('0:0', '0:1', '0:2', '1:0')
        """
        if self._labels is None:
            digits = tuple(map(str, range(self.p)))
            if self.k == 1:
                self._labels = digits
            else:
                self._labels = tuple(map(":".join, product(digits, repeat=self.k)))
        return self._labels

    def trace_to_prime(self, a):
        """Absolute trace down to F_p, returned as a field element."""
        acc = self.zero
        b = a
        for _ in range(self.k):
            acc = acc + b
            b = b ** self.p
        return acc

    def index(self, a):
        """Position of a in elements(): its coefficients read as base-p digits."""
        i = 0
        for c in self(a).coeffs:
            i = i * self.p + c
        return i

    def sqrt(self, a):
        """A square root of a, or None.

        In odd characteristic the root with the lexicographically least
        coefficient vector is returned; in characteristic 2 squaring is a
        bijection and the unique root is returned.  Odd characteristic
        goes through Tonelli-Shanks, so one root costs O(log q)
        multiplications and no pass over the field.
        """
        a = self(a)
        if self.p == 2:
            return a ** (self.order // 2)
        if a.is_zero():
            return a
        q1 = self.order - 1
        if a ** (q1 // 2) != self.one:
            return None
        s, t = 0, q1  # q - 1 = 2^s * t with t odd
        while t % 2 == 0:
            s, t = s + 1, t // 2
        c, x, b = self._nonsquare() ** t, a ** ((t + 1) // 2), a ** t
        while b != self.one:
            i, b2 = 0, b  # least i with b^(2^i) = 1
            while b2 != self.one:
                i, b2 = i + 1, b2 * b2
            f = c ** (2 ** (s - i - 1))
            x, c, s = x * f, f * f, i
            b = b * c
        return min(x, -x)

    def _nonsquare(self):
        """The first non-square unit in element order (odd characteristic)."""
        if self._nonsquare_unit is None:
            half = (self.order - 1) // 2
            units = (self(c) for c in product(range(self.p), repeat=self.k) if any(c))
            self._nonsquare_unit = next(z for z in units if z ** half != self.one)
        return self._nonsquare_unit

    def to_json(self):
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}


def _power_exceeds(p, k, ceiling):
    """Whether p**k > ceiling for p >= 2, without forming a huge p**k."""
    size = 1
    for _ in range(k):
        size *= p
        if size > ceiling:
            return True
    return False


def _power_text(p, k):
    """p**k, or the text p^k when p**k has more than the 4300 digits
    Python converts to text by default.

    >>> _power_text(3, 4), _power_text(3, 10**12)
    (81, '3^1000000000000')
    """
    return p ** k if k * math.log10(p) < 4300 else f"{p}^{k}"


def make_field(p, k):
    """Construct F_{p^k} with the canonical modulus.

    The modulus is the first monic irreducible polynomial of degree k when
    the non-leading coefficient vectors (constant term first) are ordered
    lexicographically.

    >>> make_field(2, 2).modulus
    (1, 1, 1)
    >>> make_field(3, 2).modulus
    (1, 0, 1)
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p = {p} is not prime")
    if k < 1:
        raise ValueError("k must be positive")
    # the ceiling comes first: trial division of a huge p would not end
    if _power_exceeds(p, k, DEFAULT_ORDER_CEILING):
        raise TooLargeError(f"field F_{p}^{k}", _power_text(p, k), DEFAULT_ORDER_CEILING)
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    # for k > 1 a zero constant term makes x a factor, so the search
    # starts at the first candidate with a nonzero one
    constants = range(1, p) if k > 1 else range(p)
    for tail in product(constants, *[range(p)] * (k - 1)):
        candidate = list(tail) + [1]
        if _poly_is_irreducible(candidate, p):
            return FiniteField(p, k, candidate)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def solve_monic_quadratic(field, b, c):
    """All roots in the field of y^2 + b*y + c, sorted, without multiplicity.

    Odd characteristic goes through the discriminant and a table-based
    square root; characteristic 2 uses the Frobenius inverse when b = 0
    (one root) and the additive trace criterion otherwise (zero or two),
    with the root in closed form (_artin_schreier_root).

    >>> F = make_field(5, 1)
    >>> solve_monic_quadratic(F, F(0), F(1))
    [2, 3]
    >>> F2 = make_field(2, 1)
    >>> solve_monic_quadratic(F2, F2(1), F2(1))
    []
    """
    b, c = field(b), field(c)
    if field.p == 2:
        if b.is_zero():
            return [field.sqrt(c)]
        u = c / (b * b)
        if not field.trace_to_prime(u).is_zero():
            return []
        z = _artin_schreier_root(field, u)
        return sorted([b * z, b * z + b])
    disc = b * b - 4 * c
    s = field.sqrt(disc)
    if s is None:
        return []
    half = field.from_int(2).inverse()
    if s.is_zero():
        return [(-b) * half]
    return sorted([(-b + s) * half, (-b - s) * half])


def _artin_schreier_root(field, u):
    """A root z of z^2 + z = u in GF(2^k), for u of trace 0.

    With delta of trace 1, z = sum over i < k-1 of e_i * u^(2^i), where
    e_i = sum over i < j < k of delta^(2^j); then z^2 + z = Tr(delta) * u.
    delta is the first of 1, x, ..., x^(k-1) of trace 1: 1 when k is odd,
    which makes z a half-trace.  O(k^2) multiplications, no field scan.
    """
    k = field.k
    delta = next(
        d for d in (field([0] * i + [1]) for i in range(k))
        if not field.trace_to_prime(d).is_zero()
    )
    delta_powers, u_powers = [delta], [u]
    for _ in range(k - 1):
        delta_powers.append(delta_powers[-1] ** 2)
        u_powers.append(u_powers[-1] ** 2)
    z, e = field.zero, field.zero
    for i in range(k - 2, -1, -1):
        e = e + delta_powers[i + 1]
        z = z + e * u_powers[i]
    return z


# ---------------------------------------------------------------------------
# int-coded arithmetic for one pass over a whole field


def _generator(field):
    """The first unit in element order that generates the unit group.

    g generates it exactly when g^((q-1)/r) != 1 for every prime r | q-1;
    candidates are tested as coefficient lists, not field elements.
    """
    p, f, q1 = field.p, field.modulus, field.order - 1
    exponents = [q1 // r for r, _ in prime_powers(q1)]
    one = list(field.one.coeffs)
    units = map(list, islice(product(range(p), repeat=field.k), 1, None))
    return field(next(g for g in units if all(_poly_powmod(g, e, f, p) != one for e in exponents)))


def _power_codes(field, g):
    """Codes of g^0, g^1, ..., g^(q-2): the orbit of 1 under v -> g*v.

    Multiplication by g is linear over GF(p): digit i of g*v is the sum
    over j of v_j * (g*x^j)_i.  One list per (i, j) fills digit i for
    every code v at once, and then each power is one table lookup.
    """
    p, q = field.p, field.order
    rows = [(g * field([0] * j + [1])).coeffs for j in range(field.k)]
    times_g = [0] * q
    for i in range(field.k):
        digit = [0]
        for row in rows:
            terms = [row[i] * v for v in range(p)]
            digit = [d + t for d in digit for t in terms]
        times_g = [c * p + d % p for c, d in zip(times_g, digit)]
    codes, code = [], q // p
    for _ in range(q - 1):
        codes.append(code)
        code = times_g[code]
    return codes


def coded_field(field):
    """Arithmetic on element codes: code i stands for field.elements()[i],
    printed as field.labels()[i].

    A code reads the coefficient vector as base-p digits, constant term
    most significant, so codes sort as the elements do.  Each object
    offers add, mul and affine_roots(a1, a2, a3, a4, a6), which yields the
    sorted root codes on every affine line of that curve, in code order.
    Its tables cost O(q) to build, once per object.
    """
    if field.p == 2:
        return _BinaryCodes(field)
    if field.k == 1:
        return _PrimeCodes(field.p)
    return _ZechCodes(field)


class _PrimeCodes:
    """GF(p) for odd p: codes are residues."""

    def __init__(self, p):
        self.p, self.one = p, 1

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def affine_roots(self, a1, a2, a3, a4, a6):
        """Yield the sorted root codes on each line x = l, in order of l.

        y^2 + (a1*l + a3)*y = l^3 + a2*l^2 + a4*l + a6 has the roots
        m +- t with m = -(a1*l + a3)/2 and 4t^2 = D(l), the cubic
        (a1*l + a3)^2 + 4*(l^3 + a2*l^2 + a4*l + a6).  D and m are stepped
        by forward differences, so a line costs a few adds and one
        lookup in the table of t by D.
        """
        p = self.p
        half_root = [None] * p
        for t in range(p // 2 + 1):
            half_root[4 * t * t % p] = t
        c3, c2, c1, c0 = 4, a1 * a1 + 4 * a2, 2 * a1 * a3 + 4 * a4, a3 * a3 + 4 * a6
        # D(0) and its first, second and third differences at 0
        d, d1, d2, d3 = c0 % p, (c3 + c2 + c1) % p, (6 * c3 + 2 * c2) % p, 6 * c3 % p
        half = (p - 1) // 2  # -1/2
        m, dm = a3 * half % p, a1 * half % p
        for _ in range(p):
            if not d:
                yield (m,)
            elif (t := half_root[d]) is None:
                yield ()
            else:
                y, z = (m - t) % p, (m + t) % p
                yield (y, z) if y < z else (z, y)
            d = (d + d1) % p
            d1 = (d1 + d2) % p
            d2 = (d2 + d3) % p
            m = (m + dm) % p


class _LogCodes:
    """Multiplication through log/antilog tables of a generator g."""

    def __init__(self, field):
        self.one = field.p ** (field.k - 1)
        self._q1 = field.order - 1
        exp = _power_codes(field, _generator(field))
        log = [None] * field.order
        for n, c in enumerate(exp):
            log[c] = n
        self._exp, self._log = exp + exp, log

    def mul(self, a, b):
        if a and b:
            return self._exp[self._log[a] + self._log[b]]
        return 0


class _ZechCodes(_LogCodes):
    """GF(p^k), p odd, k > 1: addition through Zech logarithms.

    zech[n] is the log of 1 + g^n (None when it is 0), so
    g^a + g^b = g^(a + zech[b - a]).
    """

    def __init__(self, field):
        super().__init__(field)
        self.p = field.p
        exp, log = self._exp[: self._q1], self._log
        wrap = (field.p - 1) * self.one  # adding 1 steps the leading digit
        self._zech = [log[c + self.one] if c < wrap else log[c - wrap] for c in exp]

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        z = self._zech[(self._log[b] - la) % self._q1]
        return 0 if z is None else self._exp[la + z]

    def affine_roots(self, a1, a2, a3, a4, a6):
        """Yield the sorted root codes on each line x = l, in order of l.

        As in _PrimeCodes, with D(l) summed from its nonzero terms and
        m(l) from e1*l + e0, all in logs (None for zero).  Every log stays
        below 8(q - 1) and the tables repeat with period q - 1, so no log
        needs reducing.
        """
        add, mul, one, q1 = self.add, self.mul, self.one, self._q1
        exp, log, zech = self._exp[:q1] * 8, self._log, self._zech * 8
        four, minus_half = 4 % self.p * one, (self.p - 1) // 2 * one
        c2 = add(mul(a1, a1), mul(four, a2))
        c1 = add(mul(2 * one, mul(a1, a3)), mul(four, a4))
        c0 = add(mul(a3, a3), mul(four, a6))
        terms = [(log[c], j) for c, j in ((four, 3), (c2, 2), (c1, 1), (c0, 0)) if c]
        e1, e0 = log[mul(a1, minus_half)], log[mul(a3, minus_half)]
        H, h = log[minus_half] + q1 // 2, q1 // 2  # logs of 1/2 and -1
        for l in range(q1 + 1):
            d, m = None, e0
            if not l:
                d = log[c0]
            else:
                n = log[l]
                for c, j in terms:
                    u = c + j * n
                    if d is None:
                        d = u
                    elif (z := zech[u - d]) is None:
                        d = None
                    else:
                        d += z
                if e1 is not None:
                    u = e1 + n
                    m = u if e0 is None else None if (z := zech[e0 - u]) is None else u + z
            if d is None:
                yield (0 if m is None else exp[m],)
            elif d & 1:
                yield ()
            else:
                t = (d >> 1) + H
                if m is None:
                    y, w = exp[t], exp[t + h]
                else:
                    y = 0 if (z := zech[t - m]) is None else exp[m + z]
                    w = 0 if (z := zech[t + h - m]) is None else exp[m + z]
                yield (y, w) if y < w else (w, y)


class _BinaryCodes(_LogCodes):
    """GF(2^k): codes are bit vectors, addition is XOR.

    y^2 + b*y = r has the root sqrt(r) when b = 0; otherwise y = b*z with
    z^2 + z = r/b^2, solvable exactly when the trace of r/b^2 is 0, that
    is when r/b^2 is in the image of z -> z^2 + z.
    """

    def __init__(self, field):
        super().__init__(field)
        q = field.order
        self._sqrt, self._half_root = [None] * q, [None] * q
        for z in range(q):
            z2 = self.mul(z, z)
            self._sqrt[z2] = z
            if self._half_root[z2 ^ z] is None:
                self._half_root[z2 ^ z] = z

    @staticmethod
    def add(a, b):
        return a ^ b

    def affine_roots(self, a1, a2, a3, a4, a6):
        """Yield the sorted root codes on each line x = l, in order of l.

        b = a1*l + a3 and r = l^3 + a2*l^2 + a4*l + a6 are XORs of terms
        read off the exp table, which repeats with period q - 1.
        """
        q1, log, sqrt, half_root = self._q1, self._log, self._sqrt, self._half_root
        exp, log_a1 = self._exp[:q1] * 4, log[a1]
        terms = [(0, 3)] + [(log[c], j) for c, j in ((a2, 2), (a4, 1)) if c]
        for l in range(q1 + 1):
            b, r = a3, a6
            if l:
                n = log[l]
                for c, j in terms:
                    r ^= exp[c + j * n]
                if a1:
                    b ^= exp[log_a1 + n]
            if not b:
                yield (sqrt[r],)
            elif (z := half_root[exp[log[r] - 2 * log[b]] if r else 0]) is None:
                yield ()
            else:
                y = exp[log[b] + log[z]] if z else 0
                yield (y, y ^ b) if y < y ^ b else (y ^ b, y)
