"""Group construction and group-homology tests.

Homology facts asserted here come from independent closed forms (cyclic
groups), from abelianization computed by a separate algorithm, or from
exhaustive structure checks (isomorphism search against a permutation
model).  The free-resolution route is checked against the normalized
bar complex in helpers, and against known homology of S4, A4 and A5.
Induced maps are checked through functoriality, through scalar-action
identities on cyclic groups, and against the bar complex's induced maps.
"""

import hashlib
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from elltree import groups
from elltree.abelian import (
    AbHom,
    FgAbGroup,
    IntMatrix,
    PresentedGroup,
    TRIVIAL_GROUP,
    _SmithCoordinates,
    _engine_for,
    cyclic_group_homology,
)
from elltree.errors import TooLargeError
from elltree.field import make_field
from elltree.groups import (
    CHAIN_DATA,
    DEFAULT_LIMITS,
    PRESENTATION,
    BarLimits,
    FiniteGroup,
    GroupHom,
    _bar_data,
    _code_tables,
    _tuple_count,
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
    diagonal_reduction,
    group_from_elements,
    hom_from_function,
    homology_presentation,
    induced_map,
    pgl2,
    pgl2_size,
    quad_units_group,
    quad_units_size,
    quotient_by_central,
    quotient_by_normal,
    stabilizer,
    stabilizer_inclusion,
    stabilizer_size,
    subgroup_closure,
    triangular_size,
    unit_group,
    unit_group_size,
    units_to_cusp,
)
from elltree.resolution import _generating_set, chain_map
from elltree.selftest import _stabilizer_zoo
from helpers import (
    additive_group_by_elements,
    bar_data,
    bar_induced_map,
    compose,
    cusp_by_quotient,
    diagonal_to_triangular,
    direct_product,
    encode,
    gl2,
    is_abelian,
    is_associative,
    is_injective,
    is_isomorphism,
    is_zero_hom,
    kernel_basis,
    pgl2_by_elements,
    pgl2_canonical,
    quotient_by_scalars,
    rank_nullity_bar_homology,
    scalar_subgroup_indices,
    triangular_by_elements,
    triangular_group,
    unit_group_by_elements,
    units,
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
    return is_zero_hom(AbHom(f.source, f.target, diff, check=False))


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
    assert is_abelian(g)


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([0, 1], [[0, 1], [1, 1]])


def test_non_associative_rejected():
    # subtraction mod 3 has an identity-like element but fails associativity
    with pytest.raises(ValueError):
        group_from_elements(range(3), lambda a, b: (a - b) % 3)


def test_order_five_loop_is_not_associative():
    # a loop with identity 0 in which every element is its own inverse:
    # each row and column is a permutation, but no group has order 5 and
    # exponent 2
    rows = ["01234", "10342", "24013", "32401", "43120"]
    table = [[int(c) for c in row] for row in rows]
    assert not is_associative(table)
    with pytest.raises(ValueError, match="multiplication is not associative"):
        FiniteGroup(range(5), table)


def _loop_tables(draw):
    """A random table with two-sided identity 0 and two-sided inverses."""
    n = draw(st.integers(2, 9))
    if draw(st.booleans()):
        # a group table (C_n or S3) with one entry off the identity's row
        # and column moved to another non-identity value, or left as it is
        if draw(st.booleans()):
            table = [list(row) for row in symmetric_group(3).table]
        else:
            table = [[(a + b) % n for b in range(n)] for a in range(n)]
        n = len(table)
        if n > 2 and draw(st.booleans()):
            h, g = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
            if table[h][g] != 0:
                table[h][g] = draw(st.sampled_from(
                    [v for v in range(1, n) if v != table[h][g]]))
        return table
    # a random inverse pairing, then random non-identity products
    rest = list(range(1, n))
    order = draw(st.permutations(rest))
    inverse = {}
    for i in order:
        if i not in inverse:
            j = draw(st.sampled_from([j for j in rest if j not in inverse]))
            inverse[i], inverse[j] = j, i
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == 0 or b == 0:
                table[a][b] = a + b
            elif inverse[a] != b:
                table[a][b] = draw(st.integers(1, n - 1))
    return table


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_light_verdict_equals_the_triple_oracle(data):
    table = _loop_tables(data.draw)
    try:
        FiniteGroup(range(len(table)), table)
    except ValueError as exc:
        assert str(exc) == "multiplication is not associative"
        assert not is_associative(table)
    else:
        assert is_associative(table)


def test_hom_verification():
    c4, c2 = cyclic(4), cyclic(2)
    proj = hom_from_function(c4, c2, lambda a: a % 2)
    assert not is_injective(proj)
    with pytest.raises(ValueError):
        hom_from_function(c4, c2, lambda a: 1 if a == 2 else 0)


def test_direct_product():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    assert groups_isomorphic(g, cyclic(6))


def test_symmetric_group_model():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert not is_abelian(s3)
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
        lead = next(v for v in m if v)
        assert lead == f3.index(f3.one)
        matrix = tuple(f3.elements()[v] for v in m)
        assert pgl2_canonical(matrix) == matrix
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
    els = f.elements()

    def embed(key):
        p, s, (u,) = key
        return (els[p], els[u], f.zero, els[s])

    hom = hom_from_function(tri, g, embed)
    assert is_injective(hom)


def test_cusp_group_order():
    for p, k, n in [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (5, 1, 1)]:
        f = make_field(p, k)
        q = p**k
        cg = cusp_group(f, n)
        assert cg.order == (q - 1) * q**n
        quotient, proj = cusp_by_quotient(f, n)
        assert len(set(proj.mapping)) == cg.order
        assert (quotient.elements, quotient.table) == (cg.elements, cg.table)


def test_cusp_group_f2_is_cyclic_of_order_two_powers():
    f2 = make_field(2, 1)
    cg1 = cusp_group(f2, 1)
    assert groups_isomorphic(cg1, cyclic(2))
    cg2 = cusp_group(f2, 2)
    assert cg2.order == 4
    assert is_abelian(cg2)
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
        for q in range(6):
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
        cusp_group(f2, 1),
        cusp_group(f2, 2),
        cusp_group(f3, 1),
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


def test_bar_homology_agrees_with_rank_nullity():
    # dense_columns bounds only the chain-level entry points, and no degree
    # is refused for itself; C6 in degree 3 has 5^4 = 625 tuples, over the
    # default 600.  Above degree 3: H_4(S3) = 0, and H_4, H_5 of the Klein
    # four-group are (Z/2)^2 and (Z/2)^4 (Kunneth)
    tight = BarLimits(max_order=24, dense_columns=1)
    cases = [(g, q) for g in [cyclic(4), cyclic(6), symmetric_group(3)] for q in (1, 2)]
    assert _tuple_count(6, 4) > DEFAULT_LIMITS.dense_columns
    for g, q in cases + [(cyclic(6), 3)]:
        want = rank_nullity_bar_homology(g, q)
        assert bar_homology(g, q) == want, (g.name, q)
        assert bar_homology(g, q, tight) == want, (g.name, q)
    v4 = direct_product(cyclic(2), cyclic(2))
    for g, q, want in [(symmetric_group(3), 4, TRIVIAL_GROUP),
                       (v4, 4, FgAbGroup(0, (2,) * 2)), (v4, 5, FgAbGroup(0, (2,) * 4))]:
        assert rank_nullity_bar_homology(g, q) == want, (g.name, q)
        assert bar_homology(g, q, tight) == want, (g.name, q)


def test_too_large_guards():
    with pytest.raises(TooLargeError):
        bar_homology(cyclic(30), 1)
    with pytest.raises(TooLargeError):
        induced_map(hom_from_function(cyclic(3), cyclic(3), lambda a: a), 1,
                    BarLimits(max_order=24, dense_columns=1))


def test_check_ceilings_order_of_checks():
    # max_order before the tuple count, which alone bounds the degree; the
    # dense check only when asked for, under the name of what needs the
    # chain data
    small = BarLimits(max_order=24, dense_columns=600)
    cases = [
        ((25, 9, None), "bar homology of G: size 25 exceeds ceiling 24"),
        ((24, 4, PRESENTATION), "homology presentation for G: size 6436343 exceeds ceiling 600"),
        ((6, 3, PRESENTATION), "homology presentation for G: size 625 exceeds ceiling 600"),
        ((6, 3, CHAIN_DATA), "induced map chain data for G: size 625 exceeds ceiling 600"),
    ]
    for (order, q, dense), text in cases:
        with pytest.raises(TooLargeError) as info:
            check_ceilings("G", order, q, small, dense)
        assert str(info.value) == text
    check_ceilings("G", 6, 3, small)
    check_ceilings("G", 6, 2, small, PRESENTATION)
    check_ceilings("G", 2, 50, small, PRESENTATION)


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


# (p, k, largest vector depth n)
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
            pairs.append((cusp_group_size(f, n), cusp_group(f, n)))
    for closed, built in pairs:
        assert closed == (built.name, built.order)
    # every key kind has a closed form, and every inclusion builds (GroupHom
    # checks that it is multiplicative) between the groups its keys name
    keys = [("pgl2k",), ("units",), ("quad_units",), ("additive",)]
    keys += [("cusp", n) for n in range(1, depth + 1)]
    assert {key[0] for key in keys} == set(groups._STABILIZERS)
    for key in keys:
        assert stabilizer_size(f, key) == (stabilizer(f, key).name, stabilizer(f, key).order)
    edges = [(("additive",), ("cusp", 1)), (("units",), ("cusp", 1)), (("cusp", 1), ("cusp", 2)),
             (("cusp", 1), ("pgl2k",))]
    assert {(source[0], target[0]) for source, target in edges} == set(groups._INCLUSIONS)
    for source, target in edges:
        hom = stabilizer_inclusion(f, source, target)
        assert (hom.source, hom.target) == (stabilizer(f, source), stabilizer(f, target))


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
        assert is_isomorphism(f)
        assert homs_equal(f, AbHom.identity(homology_presentation(c6, q)))
    c5 = cyclic(5)
    f = induced_map(hom_from_function(c5, c5, lambda a: a), 3)
    assert is_isomorphism(f)
    assert homs_equal(f, AbHom.identity(homology_presentation(c5, 3)))


def test_induced_functoriality():
    c2, c4, c8 = cyclic(2), cyclic(4), cyclic(8)
    incl_24 = hom_from_function(c2, c4, lambda a: 2 * a)
    incl_48 = hom_from_function(c4, c8, lambda a: 2 * a)
    incl_28 = hom_from_function(c2, c8, lambda a: 4 * a)
    lhs = induced_map(incl_28, 1)
    rhs = compose(induced_map(incl_48, 1), induced_map(incl_24, 1))
    assert homs_equal(lhs, rhs)
    # in degree 3 stay below the dense ceiling: compose with an automorphism
    aut = hom_from_function(c4, c4, lambda a: 3 * a % 4)
    for q in (1, 3):
        composite = hom_from_function(c2, c4, lambda a: 3 * 2 * a % 4)
        lhs = induced_map(composite, q)
        rhs = compose(induced_map(aut, q), induced_map(incl_24, q))
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
    assert not is_zero_hom(f)
    assert not is_isomorphism(f)
    assert _cokernel(f) == FgAbGroup(0, (2,))


def test_induced_projection_h1_surjective():
    c4, c2 = cyclic(4), cyclic(2)
    proj = hom_from_function(c4, c2, lambda a: a % 2)
    f = induced_map(proj, 1)
    assert not is_zero_hom(f)
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
    assert is_isomorphism(f3)
    assert homs_equal(f3, AbHom.identity(f3.source))
    f1 = induced_map(inv, 1)
    assert not homs_equal(f1, AbHom.identity(f1.source))


# ---------------------------------------------------------------------------
# Smith-reduced presentations and functoriality

ROOMY = BarLimits(max_order=24, dense_columns=10**4)


def _reduced_cases():
    """(group, q, oracle): every cyclic n <= 8 in degrees 0..3 against the
    closed form, and every zoo group within the dense ceiling against the
    rank-nullity oracle, which never builds a presentation."""
    for n in range(1, 9):
        for q in range(4):
            yield cyclic(n), q, cyclic_group_homology(n, q)
    for g in _stabilizer_zoo():
        for q in range(1, 4):
            if _tuple_count(g.order, q + 1) <= DEFAULT_LIMITS.dense_columns:
                yield g, q, rank_nullity_bar_homology(g, q)


def test_reduced_presentations_are_canonical_and_invert():
    count = 0
    for g, q, oracle in _reduced_cases():
        presented = homology_presentation(g, q, ROOMY)
        want = PresentedGroup.from_group(oracle)
        assert (presented.gens, presented.relations) == (want.gens, want.relations), (g, q)
        cycles = _bar_data(g, q)
        for i in range(presented.gens):
            assert cycles.coords_of_cycle(cycles.cycle_of_generator(i)) == {i: 1}, (g, q, i)
        count += 1
    assert count > 32


def test_bar_homology_and_presentation_share_one_build(cold_caches):
    assert bar_homology(cyclic(6), 3) == FgAbGroup(0, (6,))
    presented = homology_presentation(cyclic(6), 3, ROOMY)
    assert presented.canonical() == FgAbGroup(0, (6,))
    info = _bar_data.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_coords_of_cycle_reduces_torsion_and_rejects_non_cycles():
    cycles = _bar_data(cyclic(4), 1)
    chain = cycles.cycle_of_generator(0)
    assert cycles.coords_of_cycle({k: 5 * v for k, v in chain.items()}) == {0: 1}
    assert cycles.coords_of_cycle({k: 4 * v for k, v in chain.items()}) == {}
    # the one degree-2 generator of C4's resolution has boundary 4 times
    # the degree-1 generator after tensoring, so it is no cycle
    h2 = _bar_data(cyclic(4), 2)
    with pytest.raises(AssertionError):
        h2.coords_of_cycle({0: 1})


def _compose(f, g):
    """The group hom f after g."""
    return GroupHom(g.source, f.target, [f.mapping[g.mapping[i]] for i in range(g.source.order)])


def _identity(group):
    return GroupHom(group, group, range(group.order))


def _check_functor(f, g, q):
    """id_* = id exactly, and (f g)_* = f_* g_* as maps of quotient groups."""
    for group in (g.source, g.target, f.target):
        ident = induced_map(_identity(group), q, ROOMY)
        assert ident.matrix == IntMatrix.identity(ident.source.gens)
    lhs = induced_map(_compose(f, g), q, ROOMY)
    rhs = compose(induced_map(f, q, ROOMY), induced_map(g, q, ROOMY))
    assert homs_equal(lhs, rhs)


@pytest.mark.parametrize("q", [0, 1, 2, 3])
def test_functoriality_along_the_gf2_cusp_chain(q):
    f2 = make_field(2, 1)
    _check_functor(cusp_chain_inclusion(f2, 2), cusp_chain_inclusion(f2, 1), q)


@pytest.mark.parametrize("q", [0, 1])
def test_functoriality_diagonal_into_triangular(q):
    # torus -> Tri(GF(3),1) -> its central quotient, the depth-1 cusp group
    f3 = make_field(3, 1)
    _check_functor(cusp_by_quotient(f3, 1)[1], diagonal_to_triangular(f3, 1), q)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_functoriality_of_cyclic_homs(data):
    # a -> s*a is a hom C_n -> C_m exactly when m | s*n
    def hom(n, m):
        s = data.draw(st.sampled_from([s for s in range(m) if s * n % m == 0]))
        return hom_from_function(cyclic(n), cyclic(m), lambda a: s * a % m)

    n, m, k = (data.draw(st.integers(1, 6)) for _ in range(3))
    q = data.draw(st.integers(0, 3))
    _check_functor(hom(m, k), hom(n, m), q)


# ---------------------------------------------------------------------------
# the free-resolution route against the bar complex and known groups


def test_resolution_homology_equals_the_bar_oracle():
    # every zoo group whose bar complex fits the default dense ceiling
    count = 0
    for g in _stabilizer_zoo():
        for q in range(1, 4):
            if _tuple_count(g.order, q + 1) <= DEFAULT_LIMITS.dense_columns:
                presented = homology_presentation(g, q)
                oracle = bar_data(g, q).presented
                assert (presented.gens, presented.relations) == (
                    oracle.gens, oracle.relations), (g.name, q)
                count += 1
    assert count >= 30


def _oracle_homs():
    """(name, hom) along the cusp chain and diagonal -> triangular, GF(2) and GF(3)."""
    for p in (2, 3):
        f = make_field(p, 1)
        yield f"additive_to_cusp({p})", additive_to_cusp(f)
        yield f"units_to_cusp({p})", units_to_cusp(f)
        yield f"cusp_to_pgl2({p})", cusp_to_pgl2(f)
        for n in (1, 2):
            yield f"cusp_chain_inclusion({p},{n})", cusp_chain_inclusion(f, n)
            yield f"diagonal_to_triangular({p},{n})", diagonal_to_triangular(f, n)


def test_induced_maps_agree_with_the_bar_oracle():
    # the zero and isomorphism answers, wherever both bar complexes fit
    count = 0
    for name, hom in _oracle_homs():
        for q in range(1, 4):
            if max(_tuple_count(g.order, q + 1) for g in (hom.source, hom.target)) > (
                    DEFAULT_LIMITS.dense_columns):
                continue
            got, want = induced_map(hom, q, ROOMY), bar_induced_map(hom, q)
            assert is_zero_hom(got) == is_zero_hom(want), (name, q)
            assert is_isomorphism(got) == is_isomorphism(want), (name, q)
            count += 1
    assert count >= 15


KNOWN_HOMOLOGY = [
    # PGL2(GF(3)) is S4, Tri(GF(4),1)/N3 is A4 and PGL2(GF(4)) is A5.
    # H_3(A5) = Z/30 by stable elements (Brown, Cohomology of Groups,
    # III.10): Z/2 from V4 under A4, and Z/3, Z/5 from cyclic Sylow
    # subgroups whose normalizers invert them, which fixes H_3
    (lambda: pgl2(make_field(3, 1)), [(0, (2,)), (0, (2,)), (0, (2, 12))]),
    (lambda: symmetric_group(4), [(0, (2,)), (0, (2,)), (0, (2, 12))]),
    (lambda: cusp_group(make_field(2, 2), 1), [(0, (3,)), (0, (2,)), (0, (6,))]),
    (lambda: pgl2(make_field(2, 2)), [(0, ()), (0, (2,)), (0, (30,))]),
]


@pytest.mark.parametrize("build,want", KNOWN_HOMOLOGY, ids=["S4", "S4-perm", "A4", "A5"])
def test_known_group_homology(build, want):
    g = build()
    limits = BarLimits(max_order=g.order)
    got = [bar_homology(g, q, limits) for q in range(1, len(want) + 1)]
    assert got == [FgAbGroup(*w) for w in want]


def _zoo_homs():
    f2, f3 = make_field(2, 1), make_field(3, 1)
    return [
        cusp_chain_inclusion(f2, 1), cusp_chain_inclusion(f2, 2), cusp_chain_inclusion(f3, 1),
        additive_to_cusp(f2), additive_to_cusp(f3), units_to_cusp(f3),
        cusp_to_pgl2(f2), cusp_to_pgl2(f3),
        diagonal_to_triangular(f2, 1), diagonal_to_triangular(f3, 1), cusp_by_quotient(f3, 1)[1],
    ]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10), st.integers(1, 3))
def test_lifted_chain_maps_commute_with_exact_resolutions(k, n):
    phi = chain_map(_zoo_homs()[k])
    phi.lift(n)
    src, tgt = phi.source, phi.target
    # d_n(phi_n(x)) = phi_(n-1)(d_n(x)) on every generator x of the source
    for image, boundary in zip(phi.images[n], src.images[n]):
        assert tgt.matrix(n).matvec(image) == phi.apply(n - 1, boundary)
    for res in (src, tgt):
        res.extend(n + 1)
        # d_n d_(n+1) = 0, and the translates of F_(n+1)'s generators span ker d_n
        assert (res.matrix(n) @ res.matrix(n + 1)).is_zero()
        span = _SmithCoordinates(_engine_for(res.matrix(n + 1)))
        assert all(span.contains(col) for col in kernel_basis(res.matrix(n)).cols)


# the greedy generating sets, as chosen before each scan stopped at the
# first element completing the group
GENERATING_SETS = {
    (2, 1): {"units": [], "additive": [1], "cusp1": [1], "quad_units": [0],
             "pgl2k": [1, 0], "cusp2": [1, 2], "tri1": [1]},
    (2, 2): {"units": [0], "additive": [1, 2], "cusp1": [4, 1], "quad_units": [0],
             "pgl2k": [1, 2], "cusp2": [16, 1, 4], "tri1": [1, 4]},
    (3, 1): {"units": [1], "additive": [1], "cusp1": [1, 3], "quad_units": [2],
             "pgl2k": [1, 0], "cusp2": [1, 3, 9], "tri1": [10, 3]},
    (5, 1): {"units": [1], "additive": [1], "cusp1": [1, 5], "quad_units": [4],
             "pgl2k": [7, 0], "cusp2": [1, 5, 25], "tri1": [26, 5]},
    (7, 1): {"units": [2], "additive": [1], "cusp1": [1, 14], "quad_units": [3],
             "pgl2k": [1, 0], "cusp2": [1, 7, 98], "tri1": [99, 14]},
    (2, 3): {"units": [0], "additive": [1, 2, 4], "cusp1": [8, 1], "quad_units": [0]},
    (3, 2): {"units": [3], "additive": [1, 3], "cusp1": [27, 1], "quad_units": [2]},
}

GENERATED_GROUPS = {
    "units": unit_group,
    "additive": additive_group,
    "cusp1": lambda f: cusp_group(f, 1),
    "quad_units": lambda f: quad_units_group(f)[0],
    "pgl2k": pgl2,
    "cusp2": lambda f: cusp_group(f, 2),
    "tri1": lambda f: triangular_group(f, 1),
}


@pytest.mark.parametrize("p,k", GENERATING_SETS, ids=str)
def test_generating_sets_are_pinned(p, k):
    field = make_field(p, k)
    for kind, want in GENERATING_SETS[p, k].items():
        g = GENERATED_GROUPS[kind](field)
        assert _generating_set(g) == want, kind
        assert len(subgroup_closure(g, want)) == g.order, kind


# ---------------------------------------------------------------------------
# field-derived homomorphisms


def test_cusp_chain_inclusion_injective():
    f2 = make_field(2, 1)
    for n in (1, 2):
        inc = cusp_chain_inclusion(f2, n)
        assert is_injective(inc)
        assert inc.source.order * 2 == inc.target.order


def test_additive_to_cusp():
    f2 = make_field(2, 1)
    hom = additive_to_cusp(f2)
    assert is_injective(hom)
    assert hom.source.order == 2
    # over F2 the depth-1 cusp group is exactly the additive group
    assert hom.target.order == 2


def test_units_to_cusp():
    f3 = make_field(3, 1)
    hom = units_to_cusp(f3)
    assert is_injective(hom)
    assert hom.source.order == 2
    assert hom.target.order == 6


def test_cusp_to_pgl2_injective():
    for p in (2, 3):
        f = make_field(p, 1)
        hom = cusp_to_pgl2(f)
        assert is_injective(hom)
        assert hom.target.order == pgl2(f).order


def test_diagonal_to_triangular():
    f3 = make_field(3, 1)
    hom = diagonal_to_triangular(f3, 2)
    assert is_injective(hom)
    assert hom.source.order == 4
    assert hom.target.order == 4 * 9


# (p, k, largest depth n) on which diagonal_reduction meets the lattice
# route through Tri(k, n), in degrees 1..3
DIAGONAL_FIELDS = [(2, 1, 3), (3, 1, 2), (2, 2, 1), (5, 1, 1)]


def test_diagonal_reduction_equals_the_induced_map():
    # the p-part of the cusp group's H_q against the iso answer of the map
    # that the torus's inclusion into Tri(k, n) induces
    limits = BarLimits(10**4, 10**30)
    for p, k, depth in DIAGONAL_FIELDS:
        f = make_field(p, k)
        for n in range(1, depth + 1):
            for q in range(1, 4):
                want = is_isomorphism(induced_map(diagonal_to_triangular(f, n), q, limits))
                assert diagonal_reduction(f, n, q, limits) == want, (p, k, n, q)
    # the torus is checked before Tri(k, n), as the inclusion's chain data was
    with pytest.raises(TooLargeError, match=r"^bar homology of Tri\(GF\(7\),0\): size 36 "):
        diagonal_reduction(make_field(7, 1), 1, 1)


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
    # the kernel is the copy of GF(q)^* in GF(q^2): with 0 it is closed
    # under addition, and it is the set of units fixed by x -> x^q
    for p, k in [(3, 1), (2, 2)]:
        f = make_field(p, k)
        ext = make_field(p, 2 * k)
        qg, proj = quad_units_group(f)
        big = unit_group(ext)
        kernel = {ext.elements()[big.elements[i]]
                  for i in range(big.order) if proj.mapping[i] == qg.identity}
        assert len(kernel) == f.order - 1
        subfield = kernel | {ext.zero}
        assert all(a + b in subfield for a in subfield for b in subfield)
        assert kernel == {x for x in units(ext) if x ** f.order == x}


# ---------------------------------------------------------------------------
# int-coded tables against the FieldElement oracle


def _oracle_cusp(field, n):
    tri = triangular_by_elements(field, n)
    return (*quotient_by_scalars(tri, field, n), tri)


def _oracle_quad_units(field):
    """The units of GF(q^2) fixed by x -> x^q, by FieldElement arithmetic."""
    big = unit_group_by_elements(make_field(field.p, 2 * field.k))
    fixed = [i for i, x in enumerate(big.elements) if x ** field.order == x]
    return quotient_by_central(big, fixed, quad_units_size(field)[0])


def _table_data(group, field=None):
    """With field set, the group's FieldElement keys are encoded as codes."""
    elements = group.elements if field is None else encode(field, group.elements)
    return elements, group.table, group.identity, group.name


# (p, k, largest vector depth n of the triangular and cusp groups); GF(5)
# stops at n = 1 because the oracle's Tri(GF(5),2) table takes seconds
ORACLE_FIELDS = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 1)]


@pytest.mark.parametrize("p,k,depth", ORACLE_FIELDS, ids=lambda v: str(v))
def test_coded_tables_equal_the_field_element_oracle(p, k, depth):
    f = make_field(p, k)
    pairs = [
        (pgl2(f), pgl2_by_elements(f)),
        (unit_group(f), unit_group_by_elements(f)),
        (additive_group(f), additive_group_by_elements(f)),
    ]
    for built, oracle in pairs:
        assert _table_data(built) == _table_data(oracle, f)
    quad, quad_proj = quad_units_group(f)
    oracle, oracle_proj = _oracle_quad_units(f)
    assert _table_data(quad) == _table_data(oracle, make_field(p, 2 * k))
    assert quad_proj.mapping == oracle_proj.mapping
    for n in range(depth + 1):
        oracle, oracle_proj, oracle_tri = _oracle_cusp(f, n)
        assert _table_data(triangular_group(f, n)) == _table_data(oracle_tri, f)
        if n:
            # the closed form, the quotient of the coded triangular group
            # and the quotient of the FieldElement one agree
            quotient, proj = cusp_by_quotient(f, n)
            assert _table_data(cusp_group(f, n)) == _table_data(quotient)
            assert _table_data(quotient) == _table_data(oracle, f)
            assert proj.mapping == oracle_proj.mapping


def _mapping(source, target, fn):
    return tuple(target.index[fn(key)] for key in source.elements)


@pytest.mark.parametrize("p,k,depth", ORACLE_FIELDS, ids=lambda v: str(v))
def test_inclusion_homs_are_unchanged(p, k, depth):
    # each hom's mapping, recomputed from its definition on the oracle groups
    f = make_field(p, k)
    zero, one = f.zero, f.one
    q1, proj1, tri1 = _oracle_cusp(f, 1)

    def to_q1(p_, s, vec):
        return q1.elements[proj1.mapping[tri1.index[(p_, s, vec)]]]

    assert additive_to_cusp(f).mapping == _mapping(
        additive_group_by_elements(f), q1, lambda u: to_q1(one, one, (u,))
    )
    assert units_to_cusp(f).mapping == _mapping(
        unit_group_by_elements(f), q1, lambda u: to_q1(u, one, (zero,))
    )
    assert cusp_to_pgl2(f).mapping == _mapping(
        q1, pgl2_by_elements(f), lambda key: pgl2_canonical((key[0], key[2][0], zero, key[1]))
    )
    for n in range(1, depth):
        q_n = _oracle_cusp(f, n)[0]
        q_next, proj_next, tri_next = _oracle_cusp(f, n + 1)
        assert cusp_chain_inclusion(f, n).mapping == _mapping(
            q_n, q_next,
            lambda key: q_next.elements[
                proj_next.mapping[tri_next.index[(key[0], key[1], key[2] + (zero,))]]
            ],
        )
    for n in range(1, depth + 1):
        if p ** k <= 4:
            assert diagonal_to_triangular(f, n).mapping == _mapping(
                triangular_by_elements(f, 0), triangular_by_elements(f, n),
                lambda key: (key[0], key[1], (zero,) * n),
            )


# sha256 of [(name, identity, table)] of the stabilizers, of [mapping] of
# the inclusions and of the quadratic-unit projection, per (p, k, depth);
# captured from the route through the triangular group and its quotient,
# on FieldElement keys, before the cusp groups took their closed form
TABLE_DIGESTS = {
    (2, 1, 4): ("8e74b6aa3b039aa8c4d5c8415abccc596831cc0ba4bacd8b13a374cc30bd44d9",
                "39fb61e9c00ef6a5d6497483229b8cb737783f43cc123e5806e486477e8ef524",
                "eae0f06c46ca0f14a374a87039c6d6a96af56215c1d208a1bf5776896e66137f"),
    (3, 1, 2): ("cf60c94ad06911bc2fccae2bfebdd300ccf1dc428676eb5cc5c450dd0f1d100d",
                "285e86c332fdb4e2b4ab70df8c039a4bc22f8fcef79f04a71da89e9e326ea771",
                "127780d4a9e868b410c57d4dd634b2cff216fbff6f7e6bc67aecc8e65d6fa0b2"),
    (2, 2, 2): ("40514494964b19922c037f800b41d046ac2d17669f1c5bcc6edf29bc12538bae",
                "a20e7475327c82cfa02e525e2c2e5a4ac5d867b707c068c047f38223bff779c9",
                "c58e84c68ce69afc3498136d7b36d2729232abc65cc86aae840ddc9a578676b4"),
    (5, 1, 1): ("50b258765c12bad0773ccb771bad60ee9f6c6c779dcc65d331e29bc3a1fa2acc",
                "c9893cecd4b1ee5acf4b7edf10e3f56e39193b8c360de8f362c9b63c8b004563",
                "2792bbea9b05861d3332e62bfeaa777063a4632b5464904ebe1c09704611d815"),
    (7, 1, 1): ("4b9537245bc23c85dc90ede0f069a0c849569e182af9d9adc5d526377f40d9de",
                "0b01f5355f789ffa1f5a708330a98e2a06462307c3b7608ab35cdf5d5f162c1e",
                "f9b80e705691a6d2be45802992228538638b0925619952215d8f3428036ce378"),
    (2, 3, 1): ("5316d5951135809a433484e5e819ede1ff92fb6b7a667f7feacde76022ca1a6f",
                "bbe8a4a272e6be12d7a82944423e1ea81fd34675f0ad29bbe0ffc0e398cdc8d4",
                "d2e6d7464cf5a0e0dfa1017d8aa04337d34042285f51ece952176aae93f7f987"),
    (3, 2, 1): ("c98c0458ea3db72f824871bff1e038dc56d0913f1495f986a2da0bb9cbb92fe9",
                "c422ded057b2f2aad69e59ec47df73ff0326ff673617b91a7d7582f7c4612f42",
                "d42b02dec220b05e9ee97892927b5421c03b35a69b3d0bbbb54b8ebee5bf9ffb"),
}


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("p,k,depth", list(TABLE_DIGESTS), ids=lambda v: str(v))
def test_tables_and_inclusions_match_their_pinned_digests(p, k, depth):
    f = make_field(p, k)
    quad, proj = quad_units_group(f)
    stabilizers = [pgl2(f), unit_group(f), additive_group(f), quad]
    stabilizers += [triangular_group(f, n) for n in range(depth + 1)]
    stabilizers += [cusp_group(f, n) for n in range(1, depth + 1)]
    homs = [additive_to_cusp(f), units_to_cusp(f), cusp_to_pgl2(f)]
    homs += [cusp_chain_inclusion(f, n) for n in range(1, depth)]
    homs += [diagonal_to_triangular(f, n) for n in range(1, depth + 1)]
    assert (
        _digest([(g.name, g.identity, g.table) for g in stabilizers]),
        _digest([h.mapping for h in homs]),
        _digest(proj.mapping),
    ) == TABLE_DIGESTS[p, k, depth]


def test_cusp_groups_build_no_triangular_group_and_no_quotient(cold_caches, monkeypatch):
    def refuse(*args):
        raise AssertionError("the cusp groups are built in closed form")

    for name in ("quotient_by_central", "quotient_by_normal"):
        monkeypatch.setattr(groups, name, refuse)
    f = make_field(3, 1)
    assert cusp_group(f, 2).order == 18
    for hom in (cusp_chain_inclusion(f, 1), additive_to_cusp(f), units_to_cusp(f),
                cusp_to_pgl2(f)):
        assert is_injective(hom)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_code_tables_match_field_element_arithmetic(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    k = data.draw(st.integers(1, 3))
    f = make_field(p, k)
    add, mul, inverse = _code_tables(f)
    els = f.elements()
    a = data.draw(st.integers(0, f.order - 1))
    b = data.draw(st.integers(0, f.order - 1))
    assert add[a][b] == f.index(els[a] + els[b])
    assert mul[a][b] == f.index(els[a] * els[b])
    assert inverse[a] == (f.index(els[a].inverse()) if a else None)
