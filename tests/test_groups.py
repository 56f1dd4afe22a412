"""Group construction and bar-homology tests.

Homology facts asserted here come from independent closed forms (cyclic
groups), from abelianization computed by a separate algorithm, or from
exhaustive structure checks (isomorphism search against a permutation
model).  Induced maps are checked through functoriality and through
scalar-action identities on cyclic groups.
"""

from itertools import permutations

import pytest

from elltree.abelian import (
    AbHom,
    FgAbGroup,
    IntMatrix,
    TRIVIAL_GROUP,
    cyclic_group_homology,
)
from elltree.errors import TooLargeError
from elltree.field import make_field, quadratic_extension
from elltree.groups import (
    CHAIN_DATA,
    DEFAULT_LIMITS,
    PRESENTATION,
    BarLimits,
    FiniteGroup,
    abelianization,
    additive_group,
    additive_group_size,
    additive_to_cusp,
    bar_homology,
    check_ceilings,
    commutator_subgroup,
    cusp_chain_inclusion,
    cusp_group,
    cusp_group_size,
    cusp_to_pgl2,
    cyclic,
    cyclic_size,
    diagonal_to_triangular,
    direct_product,
    gl2,
    group_from_elements,
    hom_from_function,
    homology_presentation,
    induced_map,
    pgl2,
    pgl2_canonical,
    pgl2_size,
    quad_units_group,
    quad_units_size,
    quotient_by_central,
    quotient_by_normal,
    scalar_subgroup_indices,
    subgroup_closure,
    triangular_group,
    triangular_size,
    unit_group,
    unit_group_size,
    units_to_cusp,
)


def symmetric_group(n):
    """S_n on permutation tuples; an independent model for comparisons."""
    els = list(permutations(range(n)))
    return group_from_elements(
        els, lambda a, b: tuple(a[b[i]] for i in range(n)), name=f"S{n}"
    )


def groups_isomorphic(g, h):
    """Exhaustive isomorphism search; only usable for tiny groups."""
    if g.order != h.order:
        return False
    g_orders = sorted(_element_order(g, i) for i in range(g.order))
    h_orders = sorted(_element_order(h, i) for i in range(h.order))
    if g_orders != h_orders:
        return False
    for perm in permutations(range(h.order)):
        if perm[g.identity] != h.identity:
            continue
        if all(
            perm[g.table[a][b]] == h.table[perm[a]][perm[b]]
            for a in range(g.order)
            for b in range(g.order)
        ):
            return True
    return False


def _element_order(g, i):
    n = 1
    x = i
    while x != g.identity:
        x = g.table[x][i]
        n += 1
    return n


def homs_equal(f, g):
    assert f.source is g.source or f.source == g.source
    diff = IntMatrix(
        [[a - b for a, b in zip(fr, gr)] for fr, gr in zip(f.matrix.rows, g.matrix.rows)],
        f.matrix.nrows,
        f.matrix.ncols,
    )
    return AbHom(f.source, f.target, diff, check=False).is_zero_hom()


def scalar_hom(presented, m):
    n = presented.gens
    return AbHom(
        presented,
        presented,
        IntMatrix([[m if i == j else 0 for j in range(n)] for i in range(n)], n, n),
        check=False,
    )


# ---------------------------------------------------------------------------
# construction and verification


def test_cyclic_group_structure():
    g = cyclic(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.inverses[2] == 4
    assert g.is_abelian()


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([0, 1], [[0, 1], [1, 1]])


def test_non_associative_rejected():
    # subtraction mod 3 has an identity-like element but fails associativity
    with pytest.raises(ValueError):
        group_from_elements(range(3), lambda a, b: (a - b) % 3)


def test_hom_verification():
    c4, c2 = cyclic(4), cyclic(2)
    proj = hom_from_function(c4, c2, lambda a: a % 2)
    assert not proj.is_injective()
    with pytest.raises(ValueError):
        hom_from_function(c4, c2, lambda a: 1 if a == 2 else 0)


def test_direct_product():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert groups_isomorphic(g, cyclic(6))


def test_symmetric_group_model():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert not s3.is_abelian()
    assert sorted(_element_order(s3, i) for i in range(6)) == [1, 2, 2, 2, 3, 3]


# ---------------------------------------------------------------------------
# matrix groups over finite fields


def test_gl2_pgl2_orders():
    f2 = make_field(2, 1)
    f3 = make_field(3, 1)
    assert gl2(f2).order == 6
    assert pgl2(f2).order == 6
    assert gl2(f3).order == 48
    assert pgl2(f3).order == 24


def test_pgl2_f2_is_s3():
    assert groups_isomorphic(pgl2(make_field(2, 1)), symmetric_group(3))


def test_pgl2_canonical_representatives():
    f3 = make_field(3, 1)
    g = pgl2(f3)
    for m in g.elements:
        lead = next(v for v in m if not v.is_zero())
        assert lead == f3(1)
        assert pgl2_canonical(m) == m
    # two scalings of the same matrix share a representative
    two = f3(2)
    m = (f3(1), f3(2), f3(0), f3(1))
    assert pgl2_canonical(tuple(two * v for v in m)) == m


def test_triangular_group_order():
    for p, k, n in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1)]:
        f = make_field(p, k)
        q = p**k
        tri = triangular_group(f, n)
        assert tri.order == (q - 1) ** 2 * q**n
        scalars = scalar_subgroup_indices(tri)
        assert len(scalars) == q - 1


def test_triangular_matches_matrix_model():
    f = make_field(3, 1)
    tri = triangular_group(f, 1)
    g = gl2(f)

    def embed(key):
        p, s, (u,) = key
        return (p, u, f.zero, s)

    hom = hom_from_function(tri, g, embed)
    assert hom.is_injective()


def test_cusp_group_order():
    for p, k, n in [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (5, 1, 1)]:
        f = make_field(p, k)
        q = p**k
        cg, proj, tri = cusp_group(f, n)
        assert cg.order == (q - 1) * q**n
        assert len(set(proj.mapping)) == cg.order


def test_cusp_group_f2_is_cyclic_of_order_two_powers():
    f2 = make_field(2, 1)
    cg1, _, _ = cusp_group(f2, 1)
    assert groups_isomorphic(cg1, cyclic(2))
    cg2, _, _ = cusp_group(f2, 2)
    assert cg2.order == 4
    assert cg2.is_abelian()
    # unipotent depth-2 group over F2 is elementary abelian, not C4
    assert groups_isomorphic(cg2, direct_product(cyclic(2), cyclic(2)))


def test_quad_units_group():
    f2 = make_field(2, 1)
    q2, _ = quad_units_group(f2)
    assert groups_isomorphic(q2, cyclic(3))
    f3 = make_field(3, 1)
    q3, _ = quad_units_group(f3)
    assert groups_isomorphic(q3, cyclic(4))


def test_quad_units_order_is_q_plus_one():
    for p, k in [(2, 1), (3, 1), (5, 1), (2, 2)]:
        f = make_field(p, k)
        qg, _ = quad_units_group(f)
        assert qg.order == p**k + 1


# ---------------------------------------------------------------------------
# subgroups and quotients


def test_subgroup_closure():
    c12 = cyclic(12)
    assert subgroup_closure(c12, [4]) == [0, 4, 8]
    assert subgroup_closure(c12, [5]) == list(range(12))


def test_commutator_subgroup_s3():
    s3 = symmetric_group(3)
    comm = commutator_subgroup(s3)
    assert len(comm) == 3
    orders = sorted(_element_order(s3, i) for i in comm)
    assert orders == [1, 3, 3]


def test_quotient_s3_by_a3():
    s3 = symmetric_group(3)
    q, proj = quotient_by_normal(s3, commutator_subgroup(s3))
    assert groups_isomorphic(q, cyclic(2))
    assert proj.mapping[s3.identity] == q.identity


def test_quotient_rejects_non_normal():
    s3 = symmetric_group(3)
    transposition = next(i for i in range(6) if _element_order(s3, i) == 2)
    sub = subgroup_closure(s3, [transposition])
    with pytest.raises(ValueError):
        quotient_by_normal(s3, sub)


def test_central_quotient_rejects_non_central():
    s3 = symmetric_group(3)
    with pytest.raises(ValueError):
        quotient_by_central(s3, commutator_subgroup(s3))


# ---------------------------------------------------------------------------
# abelianization


def test_abelianization_examples():
    assert abelianization(cyclic(5)) == FgAbGroup(0, (5,))
    assert abelianization(symmetric_group(3)) == FgAbGroup(0, (2,))
    assert abelianization(symmetric_group(4)) == FgAbGroup(0, (2,))
    v4 = direct_product(cyclic(2), cyclic(2))
    assert abelianization(v4) == FgAbGroup(0, (2, 2))
    assert abelianization(cyclic(1)) == TRIVIAL_GROUP


def test_abelianization_pgl2_f3():
    # PGL2(F3) is a symmetric-group model of order 24
    g = pgl2(make_field(3, 1))
    assert abelianization(g) == FgAbGroup(0, (2,))


# ---------------------------------------------------------------------------
# bar homology against closed forms


def test_h0_is_z():
    assert bar_homology(cyclic(3), 0) == FgAbGroup(1, ())
    assert bar_homology(symmetric_group(3), 0) == FgAbGroup(1, ())


def test_negative_degree_trivial():
    assert bar_homology(cyclic(3), -1) == TRIVIAL_GROUP


def test_trivial_group_homology():
    t = cyclic(1)
    for q in range(4):
        expected = FgAbGroup(1, ()) if q == 0 else TRIVIAL_GROUP
        assert bar_homology(t, q) == expected


def test_cyclic_closed_form():
    for n in range(2, 9):
        g = cyclic(n)
        for q in range(4):
            assert bar_homology(g, q) == cyclic_group_homology(n, q), (n, q)


def test_h1_equals_abelianization():
    f2 = make_field(2, 1)
    f3 = make_field(3, 1)
    battery = [
        cyclic(2),
        cyclic(6),
        symmetric_group(3),
        direct_product(cyclic(2), cyclic(4)),
        pgl2(f2),
        cusp_group(f2, 1)[0],
        cusp_group(f2, 2)[0],
        cusp_group(f3, 1)[0],
        quad_units_group(f2)[0],
        unit_group(make_field(5, 1)),
        additive_group(make_field(3, 1)),
    ]
    for g in battery:
        assert bar_homology(g, 1) == abelianization(g), g.name


def test_h1_pgl2_f2():
    assert bar_homology(pgl2(make_field(2, 1)), 1) == FgAbGroup(0, (2,))


def test_s3_higher_homology():
    s3 = symmetric_group(3)
    assert bar_homology(s3, 2) == TRIVIAL_GROUP
    assert bar_homology(s3, 3) == FgAbGroup(0, (6,))


def test_kunneth_degree_one():
    # degree-one part of a product splits with no torsion product term
    from elltree.abelian import direct_sum_groups

    pairs = [(cyclic(2), cyclic(3)), (cyclic(2), cyclic(2)), (cyclic(4), cyclic(2))]
    for a, b in pairs:
        prod = direct_product(a, b)
        expected = direct_sum_groups([bar_homology(a, 1), bar_homology(b, 1)])
        assert bar_homology(prod, 1) == expected


def test_klein_four_degree_two():
    # Kunneth: H2(C2 x C2) has a single torsion product term C2 (x) C2
    v4 = direct_product(cyclic(2), cyclic(2))
    assert bar_homology(v4, 2) == FgAbGroup(0, (2,))


def test_dense_and_large_paths_agree():
    tight = BarLimits(max_order=24, max_degree=3, dense_columns=1)
    roomy = BarLimits(max_order=24, max_degree=3, dense_columns=10**6)
    for g in [cyclic(4), cyclic(6), symmetric_group(3)]:
        for q in (1, 2):
            assert bar_homology(g, q, tight) == bar_homology(g, q, roomy), (g.name, q)


def test_too_large_guards():
    with pytest.raises(TooLargeError):
        bar_homology(cyclic(30), 1)
    with pytest.raises(TooLargeError):
        bar_homology(cyclic(3), 4)
    with pytest.raises(TooLargeError):
        induced_map(hom_from_function(cyclic(3), cyclic(3), lambda a: a), 1,
                    BarLimits(max_order=24, max_degree=3, dense_columns=1))


def test_check_ceilings_order_of_checks():
    # max_order before max_degree before the tuple count; the dense check
    # only when asked for, under the name of what needs the chain data
    small = BarLimits(max_order=24, max_degree=3, dense_columns=600)
    cases = [
        ((25, 9, None), "bar homology of G: size 25 exceeds ceiling 24"),
        ((24, 4, PRESENTATION), "homology degree for G: size 4 exceeds ceiling 3"),
        ((6, 3, PRESENTATION), "homology presentation for G: size 625 exceeds ceiling 600"),
        ((6, 3, CHAIN_DATA), "induced map chain data for G: size 625 exceeds ceiling 600"),
    ]
    for (order, q, dense), text in cases:
        with pytest.raises(TooLargeError) as info:
            check_ceilings("G", order, q, small, dense)
        assert str(info.value) == text
    check_ceilings("G", 6, 3, small)
    check_ceilings("G", 6, 2, small, PRESENTATION)


def test_too_large_guards_apply_check_ceilings():
    # the built-group routines refuse with the texts of check_ceilings
    g = cyclic(30)
    for call in (lambda: bar_homology(g, 1), lambda: homology_presentation(g, 1),
                 lambda: induced_map(hom_from_function(g, g, lambda a: a), 1)):
        with pytest.raises(TooLargeError) as info:
            call()
        with pytest.raises(TooLargeError) as expected:
            check_ceilings(g.name, g.order, 1, DEFAULT_LIMITS)
        assert str(info.value) == str(expected.value)


# (p, k, largest vector depth n); GF(5) stops at n = 1 because Tri(GF(5),2)
# has 400 elements and its table alone takes seconds
CLOSED_FORM_FIELDS = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 1)]


@pytest.mark.parametrize("p,k,depth", CLOSED_FORM_FIELDS, ids=lambda v: str(v))
def test_closed_forms_match_built_groups(p, k, depth):
    f = make_field(p, k)
    pairs = [
        (pgl2_size(f), pgl2(f)),
        (unit_group_size(f), unit_group(f)),
        (additive_group_size(f), additive_group(f)),
        (quad_units_size(f), quad_units_group(f)[0]),
    ]
    for n in range(depth + 1):
        pairs.append((triangular_size(f, n), triangular_group(f, n)))
        if n:
            pairs.append((cusp_group_size(f, n), cusp_group(f, n)[0]))
    for closed, built in pairs:
        assert closed == (built.name, built.order)


def test_cyclic_closed_form_size():
    for n in (1, 2, 7):
        assert cyclic_size(n) == (cyclic(n).name, cyclic(n).order)


# ---------------------------------------------------------------------------
# induced maps


def test_induced_identity_is_isomorphism():
    c6 = cyclic(6)
    ident = hom_from_function(c6, c6, lambda a: a)
    for q in (1, 2):
        f = induced_map(ident, q)
        assert f.is_isomorphism()
        assert homs_equal(f, AbHom.identity(homology_presentation(c6, q)))
    c5 = cyclic(5)
    f = induced_map(hom_from_function(c5, c5, lambda a: a), 3)
    assert f.is_isomorphism()
    assert homs_equal(f, AbHom.identity(homology_presentation(c5, 3)))


def test_induced_functoriality():
    c2, c4, c8 = cyclic(2), cyclic(4), cyclic(8)
    incl_24 = hom_from_function(c2, c4, lambda a: 2 * a)
    incl_48 = hom_from_function(c4, c8, lambda a: 2 * a)
    incl_28 = hom_from_function(c2, c8, lambda a: 4 * a)
    lhs = induced_map(incl_28, 1)
    rhs = induced_map(incl_48, 1).compose(induced_map(incl_24, 1))
    assert homs_equal(lhs, rhs)
    # in degree 3 stay below the dense ceiling: compose with an automorphism
    aut = hom_from_function(c4, c4, lambda a: 3 * a % 4)
    for q in (1, 3):
        composite = hom_from_function(c2, c4, lambda a: 3 * 2 * a % 4)
        lhs = induced_map(composite, q)
        rhs = induced_map(aut, q).compose(induced_map(incl_24, q))
        assert homs_equal(lhs, rhs), q


def _cokernel(f):
    from elltree.abelian import PresentedGroup

    rel = f.target.relations
    stacked = f.matrix.hstack(rel) if rel.ncols else f.matrix
    return PresentedGroup(f.target.gens, stacked).canonical()


def test_induced_inclusion_h1():
    # the only nonzero hom Z/2 -> Z/4 lands on the index-two subgroup
    c2, c4 = cyclic(2), cyclic(4)
    incl = hom_from_function(c2, c4, lambda a: 2 * a)
    f = induced_map(incl, 1)
    assert not f.is_zero_hom()
    assert not f.is_isomorphism()
    assert _cokernel(f) == FgAbGroup(0, (2,))


def test_induced_projection_h1_surjective():
    c4, c2 = cyclic(4), cyclic(2)
    proj = hom_from_function(c4, c2, lambda a: a % 2)
    f = induced_map(proj, 1)
    assert not f.is_zero_hom()
    assert _cokernel(f) == TRIVIAL_GROUP


def test_scalar_action_on_cyclic_homology():
    """Automorphism x -> a*x of Z/n acts by a on H1 and by a^2 on H3."""
    c5 = cyclic(5)
    for a in (2, 3, 4):
        psi = hom_from_function(c5, c5, lambda x, a=a: (a * x) % 5)
        f1 = induced_map(psi, 1)
        assert homs_equal(f1, scalar_hom(f1.source, a)), a
        f3 = induced_map(psi, 3)
        assert homs_equal(f3, scalar_hom(f3.source, (a * a) % 5)), a


def test_inversion_acts_trivially_on_h3_of_c5():
    c5 = cyclic(5)
    inv = hom_from_function(c5, c5, lambda x: (-x) % 5)
    f3 = induced_map(inv, 3)
    assert f3.is_isomorphism()
    assert homs_equal(f3, AbHom.identity(f3.source))
    f1 = induced_map(inv, 1)
    assert not homs_equal(f1, AbHom.identity(f1.source))


# ---------------------------------------------------------------------------
# field-derived homomorphisms


def test_cusp_chain_inclusion_injective():
    f2 = make_field(2, 1)
    for n in (1, 2):
        inc = cusp_chain_inclusion(f2, n)
        assert inc.is_injective()
        assert inc.source.order * 2 == inc.target.order


def test_additive_to_cusp():
    f2 = make_field(2, 1)
    hom = additive_to_cusp(f2)
    assert hom.is_injective()
    assert hom.source.order == 2
    # over F2 the depth-1 cusp group is exactly the additive group
    assert hom.target.order == 2


def test_units_to_cusp():
    f3 = make_field(3, 1)
    hom = units_to_cusp(f3)
    assert hom.is_injective()
    assert hom.source.order == 2
    assert hom.target.order == 6


def test_cusp_to_pgl2_injective():
    for p in (2, 3):
        f = make_field(p, 1)
        hom = cusp_to_pgl2(f)
        assert hom.is_injective()
        assert hom.target.order == pgl2(f).order


def test_diagonal_to_triangular():
    f3 = make_field(3, 1)
    hom = diagonal_to_triangular(f3, 2)
    assert hom.is_injective()
    assert hom.source.order == 4
    assert hom.target.order == 4 * 9


def test_additive_group_of_extension_is_elementary():
    f4 = make_field(2, 2)
    g = additive_group(f4)
    assert groups_isomorphic(g, direct_product(cyclic(2), cyclic(2)))


def test_unit_group_cyclic():
    for p, k in [(3, 1), (5, 1), (2, 2), (3, 2)]:
        f = make_field(p, k)
        g = unit_group(f)
        assert any(_element_order(g, i) == g.order for i in range(g.order))


def test_quad_units_projection_kernel():
    f3 = make_field(3, 1)
    ext, emb = quadratic_extension(f3)
    qg, proj = quad_units_group(f3)
    big = unit_group(ext)
    kernel = [i for i in range(big.order) if proj.mapping[i] == qg.identity]
    assert len(kernel) == 2
    assert {big.elements[i] for i in kernel} == {emb(u) for u in f3.units()}
