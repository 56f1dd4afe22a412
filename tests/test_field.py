"""Field arithmetic tests.

Root-finding is checked against exhaustive search, which is the oracle for
every frozen value below.
"""

from itertools import product

import pytest

from elltree.errors import TooLargeError
from elltree.field import (
    _generator,
    _is_prime,
    _poly_is_irreducible,
    _power_codes,
    make_field,
    solve_monic_quadratic,
)
from helpers import (
    first_irreducible_by_trial_division,
    frobenius,
    is_irreducible_by_trial_division,
)


def exhaustive_roots(field, b, c):
    """Oracle: scan the whole field for roots of y^2 + b*y + c."""
    return sorted(y for y in field.elements() if (y * y + b * y + c).is_zero())


def exhaustive_sqrts(field, a):
    return sorted(y for y in field.elements() if (y * y) == a)


def test_prime_field_arithmetic_matches_ints():
    F = make_field(7, 1)
    for a in range(7):
        for b in range(7):
            assert (F(a) + F(b)).coeffs[0] == (a + b) % 7
            assert (F(a) * F(b)).coeffs[0] == (a * b) % 7
            assert (F(a) - F(b)).coeffs[0] == (a - b) % 7


def test_make_field_rejects_composite_p():
    for p in (6, 65535, 1, 0, -7):
        with pytest.raises(ValueError, match=f"p = {p} is not prime"):
            make_field(p, 1)


def test_make_field_ceiling():
    with pytest.raises(TooLargeError):
        make_field(2, 17)
    make_field(2, 16)  # exactly at the default ceiling
    # the size is checked before primality: trial division of the prime
    # 2^61 - 1 would not finish, and a composite this large is refused too
    with pytest.raises(TooLargeError, match="size 2305843009213693951 exceeds ceiling 65536"):
        make_field(2**61 - 1, 1)
    with pytest.raises(TooLargeError):
        make_field(3 * 65537, 1)


def test_make_field_is_built_once_and_refuses_every_time():
    # the closed form of a quadratic-units stabilizer asks for its
    # extension field on every check, so the field is cached; a refusal
    # is an exception, which is not cached, so it is raised again
    assert make_field(5, 2) is make_field(5, 2)
    for _ in range(2):
        with pytest.raises(TooLargeError) as info:
            make_field(257, 2)
        assert str(info.value) == "field F_257^2: size 66049 exceeds ceiling 65536"


def test_make_field_refuses_huge_powers_without_forming_them():
    # 3^10000 has 4772 digits, more than Python converts to text by
    # default, and 3^(10^12) could not be built at all: both sizes print
    # as p^k, while the largest printable size still prints in full
    with pytest.raises(TooLargeError) as info:
        make_field(3, 10000)
    assert str(info.value) == "field F_3^10000: size 3^10000 exceeds ceiling 65536"
    with pytest.raises(TooLargeError) as info:
        make_field(3, 10**12)
    assert str(info.value) == (
        "field F_3^1000000000000: size 3^1000000000000 exceeds ceiling 65536")
    with pytest.raises(TooLargeError) as info:
        make_field(3, 9012)
    assert info.value.size == 3**9012 and len(str(3**9012)) == 4300
    with pytest.raises(TooLargeError, match=r"size 3\^9013 exceeds"):
        make_field(3, 9013)


def test_gf4_modulus_is_the_only_irreducible_quadratic():
    # oracle: list every monic quadratic over F_2 and test irreducibility
    # by exhaustive root search; only x^2 + x + 1 survives
    irreducible = []
    for c0 in range(2):
        for c1 in range(2):
            has_root = any((r * r + c1 * r + c0) % 2 == 0 for r in range(2))
            if not has_root:
                irreducible.append((c0, c1, 1))
    assert irreducible == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_gf9_modulus():
    # x^2 + 1: candidates with smaller coefficient vectors all have roots
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_rabin_test_agrees_with_trial_division():
    for p, max_k in [(2, 7), (3, 5), (5, 3), (7, 3)]:
        for k in range(1, max_k + 1):
            for tail in product(range(p), repeat=k):
                c = list(tail) + [1]
                assert _poly_is_irreducible(c, p) == is_irreducible_by_trial_division(c, p), c


def test_modulus_is_the_trial_division_choice():
    # every field up to order 4096, and two large ones where a slow test
    # used to dominate a refusal
    cases = [(p, k) for p in range(2, 4097) if _is_prime(p)
             for k in range(1, 13) if p ** k <= 4096]
    for p, k in cases + [(2, 16), (3, 10)]:
        assert make_field(p, k).modulus == first_irreducible_by_trial_division(p, k), (p, k)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_field_axioms_small(p, k):
    F = make_field(p, k)
    els = F.elements()
    assert len(els) == p ** k
    for a in els:
        assert a + F.zero == a
        assert a * F.one == a
        if not a.is_zero():
            assert a * a.inverse() == F.one
    # spot-check associativity and distributivity on all triples for tiny fields
    if p ** k <= 9:
        for a in els:
            for b in els:
                for c in els:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 1), (2, 3)])
def test_frobenius_is_automorphism_fixing_prime_field(p, k):
    F = make_field(p, k)
    for a in F.elements():
        for b in F.elements():
            assert frobenius(F, a * b) == frobenius(F, a) * frobenius(F, b)
            assert frobenius(F, a + b) == frobenius(F, a) + frobenius(F, b)
    for n in range(p):
        assert frobenius(F, F.from_int(n)) == F.from_int(n)


def test_sqrt_examples():
    F5 = make_field(5, 1)
    # oracle: squares mod 5 are {0, 1, 4}; sqrt(4) in {2, 3}, least is 2
    assert exhaustive_sqrts(F5, F5(4)) == [F5(2), F5(3)]
    assert F5.sqrt(F5(4)) == F5(2)
    assert F5.sqrt(F5(2)) is None


# 17, 97 and 3^4 have q - 1 divisible by 16 or more, so Tonelli-Shanks
# takes several rounds there
@pytest.mark.parametrize(
    "p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (17, 1), (97, 1), (3, 4)]
)
def test_sqrt_agrees_with_exhaustive_search(p, k):
    F = make_field(p, k)
    for a in F.elements():
        roots = exhaustive_sqrts(F, a)
        got = F.sqrt(a)
        if not roots:
            assert got is None
        else:
            assert got == roots[0]


def test_solve_quadratic_examples():
    F5 = make_field(5, 1)
    assert solve_monic_quadratic(F5, F5(0), F5(1)) == [F5(2), F5(3)]
    F2 = make_field(2, 1)
    assert solve_monic_quadratic(F2, F2(1), F2(1)) == []
    # b = 0 in characteristic 2: unique root via Frobenius inverse
    assert solve_monic_quadratic(F2, F2(0), F2(1)) == [F2(1)]


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_solve_quadratic_agrees_with_exhaustive_search(p, k):
    F = make_field(p, k)
    for b in F.elements():
        for c in F.elements():
            assert solve_monic_quadratic(F, b, c) == exhaustive_roots(F, b, c)


@pytest.mark.parametrize("k", range(1, 9))
def test_artin_schreier_roots_agree_with_scan(k):
    # y^2 + y = u, the case the closed-form root serves, for every u
    F = make_field(2, k)
    scan = {u: [] for u in F.elements()}
    for z in F.elements():
        scan[z * z + z].append(z)
    for u, roots in scan.items():
        assert solve_monic_quadratic(F, F.one, u) == sorted(roots)


def power_codes_by_polynomial_product(field, g):
    """Oracle: g^n as coefficient vectors, multiplied and reduced generically."""
    p, k = field.p, field.k
    g_terms = [(j, c) for j, c in enumerate(g.coeffs) if c]
    mod_terms = [(i, c) for i, c in enumerate(field.modulus[:k]) if c]
    v = [1] + [0] * (k - 1)
    codes = []
    for _ in range(field.order - 1):
        code = 0
        for c in v:
            code = code * p + c
        codes.append(code)
        prod = [0] * (2 * k - 1)
        for i, vi in enumerate(v):
            if vi:
                for j, gj in g_terms:
                    prod[i + j] += vi * gj
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % p
            if c:
                for i, m in mod_terms:
                    prod[d - k + i] -= c * m
        v = [c % p for c in prod[:k]]
    return codes


@pytest.mark.parametrize(
    "p,k", [(2, k) for k in range(1, 11)] + [(3, k) for k in range(1, 6)] + [(101, 2)]
)
def test_power_codes_match_polynomial_products(p, k):
    F = make_field(p, k)
    g = _generator(F)
    assert _power_codes(F, g) == power_codes_by_polynomial_product(F, g)
    # any unit, not only the generator: its powers cycle with its order
    h = F.elements()[-1]
    assert _power_codes(F, h) == power_codes_by_polynomial_product(F, h)


def test_element_serialization_round_trip():
    F = make_field(3, 2)
    for a in F.elements():
        assert F(list(a.coeffs)) == a
    assert F.to_json() == {"p": 3, "k": 2, "modulus": [1, 0, 1]}
