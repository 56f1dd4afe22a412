"""Finite field arithmetic on explicit coefficient vectors.

A field F_{p^k} is realised as F_p[x] modulo a monic irreducible polynomial
of degree k.  Elements are length-k coefficient vectors over the prime
field, constant term first.  All choices (modulus, square roots, extension
embeddings) are made deterministically so that identical inputs always
produce identical outputs.
"""

from itertools import product

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


def _poly_is_irreducible(c, p):
    """Trial division test for a monic polynomial over F_p, constant first."""
    deg = len(c) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    # a root gives a linear factor
    for r in range(p):
        acc = 0
        for coef in reversed(c):
            acc = (acc * r + coef) % p
        if acc == 0:
            return False
    # remaining candidate factors have degree 2 .. deg//2
    for d in range(2, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            g = list(tail) + [1]
            _, rem = _poly_divmod(c, g, p)
            if not rem:
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
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        self._sqrt_table = None

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
        p = self.p
        prod = [0] * (2 * self.k - 1)
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce modulo the monic modulus
        for d in range(len(prod) - 1, self.k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for i in range(self.k + 1):
                    prod[d - self.k + i] = (prod[d - self.k + i] - c * self.modulus[i]) % p
        return FieldElement(self, prod[: self.k])

    def elements(self):
        """All field elements, coefficient vectors in lexicographic order."""
        if self._elements is None:
            self._elements = tuple(
                FieldElement(self, c) for c in product(range(self.p), repeat=self.k)
            )
        return self._elements

    def units(self):
        return tuple(a for a in self.elements() if not a.is_zero())

    def frobenius(self, a):
        return a ** self.p

    def trace_to_prime(self, a):
        """Absolute trace down to F_p, returned as a field element."""
        acc = self.zero
        b = a
        for _ in range(self.k):
            acc = acc + b
            b = b ** self.p
        return acc

    def sqrt(self, a):
        """A square root of a, or None.

        In odd characteristic the root with the lexicographically least
        coefficient vector is returned; in characteristic 2 squaring is a
        bijection and the unique root is returned.
        """
        a = self(a)
        if self.p == 2:
            return a ** (self.order // 2)
        if self._sqrt_table is None:
            table = {}
            for x in self.elements():
                sq = x * x
                if sq.coeffs not in table:
                    table[sq.coeffs] = x
            self._sqrt_table = table
        return self._sqrt_table.get(a.coeffs)

    def to_json(self):
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}


def make_field(p, k, ceiling=DEFAULT_ORDER_CEILING):
    """Construct F_{p^k} with the canonical modulus.

    The modulus is the first monic irreducible polynomial of degree k when
    the non-leading coefficient vectors (constant term first) are ordered
    lexicographically.

    >>> make_field(2, 2).modulus
    (1, 1, 1)
    >>> make_field(3, 2).modulus
    (1, 0, 1)
    """
    if not isinstance(p, int) or not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if k < 1:
        raise ValueError("k must be positive")
    if p ** k > ceiling:
        raise TooLargeError(f"field F_{p}^{k}", p ** k, ceiling)
    for tail in product(range(p), repeat=k):
        candidate = list(tail) + [1]
        if _poly_is_irreducible(candidate, p):
            return FiniteField(p, k, candidate)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldEmbedding:
    """A field homomorphism determined by the image of the generator.

    Maps sum(c_i * x^i) to sum(c_i * beta^i) where beta is a fixed root of
    the source modulus inside the target field.
    """

    def __init__(self, src, dst, beta):
        self.src = src
        self.dst = dst
        self.beta = beta
        self._powers = [dst.one]
        for _ in range(src.k - 1):
            self._powers.append(self._powers[-1] * beta)

    def __call__(self, a):
        a = self.src(a)
        acc = self.dst.zero
        for c, bpow in zip(a.coeffs, self._powers):
            if c:
                acc = acc + bpow * c
        return acc

    def image(self):
        """The embedded copy of the source field, as a set of target elements."""
        return {self(a) for a in self.src.elements()}


def quadratic_extension(field, ceiling=DEFAULT_ORDER_CEILING):
    """The degree-2 extension of a field together with the embedding into it.

    The extension is make_field(p, 2k); the embedding sends the source
    generator to the lexicographically least root of the source modulus in
    the extension.
    """
    ext = make_field(field.p, 2 * field.k, ceiling=ceiling)
    beta = None
    for z in ext.elements():
        acc = ext.zero
        for c in reversed(field.modulus):
            acc = acc * z + ext.from_int(c)
        if acc.is_zero():
            beta = z
            break
    if beta is None:
        raise AssertionError("modulus has no root in its quadratic extension")
    return ext, FieldEmbedding(field, ext, beta)


def solve_monic_quadratic(field, b, c):
    """All roots in the field of y^2 + b*y + c, sorted, without multiplicity.

    Odd characteristic goes through the discriminant and a table-based
    square root; characteristic 2 uses the Frobenius inverse when b = 0
    (one root) and the additive trace criterion otherwise (zero or two).

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
        z = next(z for z in field.elements() if (z * z + z + u).is_zero())
        roots = [b * z, b * z + b]
        return sorted(roots)
    disc = b * b - 4 * c
    s = field.sqrt(disc)
    if s is None:
        return []
    half = field.from_int(2).inverse()
    if s.is_zero():
        return [(-b) * half]
    return sorted([(-b + s) * half, (-b - s) * half])
