"""Integer linear algebra and abelian group tests.

The Smith routine is verified against its defining equation (U M V = S with
unimodular U, V) on a randomized battery; group direct sums are checked
against a prime-factorization oracle; homology of free complexes is checked
against an independent rank-nullity computation over the rationals.
"""

import ast
import hashlib
import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

import elltree.resolution as resolution_module
from elltree import abelian, coefficients
from elltree.abelian import (
    AbHom,
    ChainComplexFg,
    CyclePresentation,
    FgAbGroup,
    IntMatrix,
    PresentedGroup,
    cyclic_group_homology,
    direct_sum_groups,
    homology_at,
    smith_normal_form,
    _SmithCoordinates,
    _SmithEngine,
    _dict_addmul,
    _engine_for,
    _transpose_dicts,
)
from elltree.field import make_field
from elltree.groups import cyclic, pgl2
from elltree.resolution import resolution
from elltree.selftest import _dense_product, _det_bareiss
from helpers import (
    _bar_boundary_cols,
    _bar_tuples,
    compose,
    homology_by_cycle_lattice,
    invariant_factors,
    is_isomorphism,
    is_isomorphism_by_elimination,
    is_zero_hom,
    kernel_basis,
    matrix_rank,
)


def rational_rank(mat):
    """Oracle: Gaussian elimination over Q."""
    rows = [[Fraction(v) for v in r] for r in mat.rows]
    rank = 0
    for j in range(mat.ncols):
        piv = next((i for i in range(rank, mat.nrows) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][j]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(mat.nrows):
            if i != rank and rows[i][j]:
                c = rows[i][j]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def crt_invariant_factors(orders):
    """Oracle: merge cyclic orders into invariant factors by prime powers."""
    primes = {}
    for n in orders:
        for p, e in sympy.factorint(n).items():
            primes.setdefault(p, []).append(e)
    width = max((len(v) for v in primes.values()), default=0)
    factors = []
    for slot in range(width):
        f = 1
        for p, exps in primes.items():
            exps = sorted(exps, reverse=True)
            if slot < len(exps):
                f *= p ** exps[slot]
        factors.append(f)
    return tuple(sorted(factors))


def check_snf(mat):
    U, S, V = smith_normal_form(mat)
    n = mat.ncols
    assert _dense_product(_dense_product(U.rows, mat.rows, n), V.rows, n) == S.rows
    assert abs(_det_bareiss(U)) == 1
    assert abs(_det_bareiss(V)) == 1
    dense = S.rows
    diag = [dense[i][i] for i in range(min(S.nrows, S.ncols))]
    for i in range(S.nrows):
        for j in range(S.ncols):
            if i != j:
                assert dense[i][j] == 0
    nz = [d for d in diag if d]
    assert diag[: len(nz)] == nz, "zeros must trail"
    for a, b in zip(nz, nz[1:]):
        assert a > 0 and b % a == 0
    return nz


def test_snf_examples():
    nz = check_snf(IntMatrix([[2, 0], [0, 3]]))
    assert nz == [1, 6]
    nz = check_snf(IntMatrix([[4, 6], [2, 2]]))
    assert nz == [2, 2]


def test_snf_empty_and_degenerate():
    assert check_snf(IntMatrix.zeros(0, 3)) == []
    assert check_snf(IntMatrix.zeros(3, 0)) == []
    assert check_snf(IntMatrix.zeros(2, 2)) == []
    assert check_snf(IntMatrix([[7]])) == [7]
    assert check_snf(IntMatrix([[-7]])) == [7]


def test_snf_randomized_battery():
    rng = random.Random(20230823)
    for _ in range(300):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        mat = IntMatrix(
            [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
        )
        nz = check_snf(mat)
        assert len(nz) == rational_rank(mat)


def test_snf_deterministic():
    mat = IntMatrix([[6, 4, 2], [2, 8, 4], [10, 2, 6]])
    runs = {smith_normal_form(mat)[1].rows for _ in range(3)}
    assert len(runs) == 1


def test_invariant_factors_conjugation_invariant():
    rng = random.Random(7)
    base = IntMatrix([[rng.randint(-5, 5) for _ in range(5)] for _ in range(4)])
    baseline = invariant_factors(base)
    # permuting rows and columns and flipping signs is unimodular
    rows = [list(r) for r in base.rows]
    rng.shuffle(rows)
    rows = [r[::-1] for r in rows]
    rows[0] = [-v for v in rows[0]]
    assert invariant_factors(IntMatrix(rows)) == baseline


def test_kernel_basis_property():
    rng = random.Random(11)
    for _ in range(50):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        K = kernel_basis(mat)
        assert (mat @ K).is_zero()
        assert K.ncols == n - rational_rank(mat)
        # basis vectors are independent over Q
        assert rational_rank(K) == K.ncols


def test_fgab_canonical_validation():
    with pytest.raises(ValueError):
        FgAbGroup(0, (3, 2))
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    assert repr(FgAbGroup(1, (2, 4))) == "Z + Z/2 + Z/4"


def test_direct_sum_crt_oracle():
    assert direct_sum_groups([FgAbGroup(0, (2,)), FgAbGroup(0, (3,))]) == FgAbGroup(0, (6,))
    rng = random.Random(5)
    for _ in range(40):
        orders = [rng.randint(2, 30) for _ in range(rng.randint(1, 5))]
        got = direct_sum_groups([FgAbGroup(0, (d,)) for d in orders])
        assert got.rank == 0
        assert tuple(sorted(got.torsion)) == crt_invariant_factors(orders)
        for a, b in zip(got.torsion, got.torsion[1:]):
            assert b % a == 0


# small orders, units, and prime powers far beyond what the diagonal's
# entries would reach by chance
ORDERS = st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 25, 30, 36, 2 ** 40, 3 ** 25, 7 ** 12, 10007 ** 2])


@settings(max_examples=150, deadline=None)
@given(orders=st.lists(ORDERS, max_size=8), ranks=st.lists(st.integers(0, 2), max_size=8))
def test_direct_sum_against_smith_on_the_diagonal(orders, ranks):
    groups = [FgAbGroup(r, (d,) if d > 1 else ()) for d, r in zip(orders, ranks + [0] * len(orders))]
    diag = IntMatrix.from_sparse_cols([{i: d} for i, d in enumerate(orders)], len(orders))
    want = FgAbGroup(sum(g.rank for g in groups), tuple(d for d in invariant_factors(diag) if d > 1))
    assert direct_sum_groups(groups) == want
    # splitting the summands differently gives the same sum
    assert direct_sum_groups([direct_sum_groups(groups[:2]), *groups[2:]]) == want


def test_lattice_coords_against_membership():
    """Lattice coordinates agree with relation-lattice membership and add up."""
    rng = random.Random(13)
    for _ in range(200):
        gens = rng.randint(1, 4)
        ncols = rng.randint(0, 4)
        rels = IntMatrix(
            [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(gens)], gens, ncols
        )
        P = PresentedGroup(gens, rels)
        lattice = P.lattice()
        group = lattice.group
        assert group == P.canonical()
        assert len(lattice.rows) == group.rank + len(group.torsion)

        def coords(vec):
            c = lattice.coords(vec)
            return tuple(c.get(k, 0) for k in range(len(lattice.rows)))

        x, y = ({i: v for i in range(gens) if (v := rng.randint(-3, 3))} for _ in "xy")
        cx = coords(x)
        free, tors = cx[:group.rank], cx[group.rank:]
        assert all(0 <= v < d for v, d in zip(tors, group.torsion))
        # n * x is a relation exactly when the order of its class divides n
        order = 0 if any(free) else lcm(*(d // gcd(v, d) for v, d in zip(tors, group.torsion)))
        for n in range(1, 13):
            nx = {i: n * v for i, v in x.items()}
            assert lattice.contains(nx) == (order != 0 and n % order == 0)
        cy = coords(y)
        xy = {i: x.get(i, 0) + y.get(i, 0) for i in range(gens)}
        cxy = coords({i: v for i, v in xy.items() if v})
        want = [a + b for a, b in zip(cx[:group.rank], cy[:group.rank])]
        want += [(a + b) % d for a, b, d in zip(tors, cy[group.rank:], group.torsion)]
        assert cxy == tuple(want)


def test_canonical_group_example():
    P = PresentedGroup(2, IntMatrix([[2, 0], [0, 3]]))
    assert P.canonical() == FgAbGroup(0, (6,))
    free = PresentedGroup(3)
    assert free.canonical() == FgAbGroup(3, ())


def test_presented_from_group_round_trip():
    for fg in [FgAbGroup(2, (2, 6)), FgAbGroup(0, ()), FgAbGroup(1, (5,))]:
        assert PresentedGroup.from_group(fg).canonical() == fg


def test_abhom_well_definedness():
    z2 = PresentedGroup(1, IntMatrix([[2]]))
    z4 = PresentedGroup(1, IntMatrix([[4]]))
    # Z/4 -> Z/2 reduction is fine
    AbHom(z4, z2, IntMatrix([[1]]))
    # Z/2 -> Z/4 sending the generator to the generator is not a hom
    with pytest.raises(ValueError):
        AbHom(z2, z4, IntMatrix([[1]]))
    # but doubling is
    AbHom(z2, z4, IntMatrix([[2]]))


def test_abhom_compose_and_zero():
    z6 = PresentedGroup(1, IntMatrix([[6]]))
    z3 = PresentedGroup(1, IntMatrix([[3]]))
    f = AbHom(z6, z3, IntMatrix([[1]]))
    g = AbHom(z3, z3, IntMatrix([[3]]))  # multiplication by 3 is zero on Z/3
    assert is_zero_hom(g)
    assert is_zero_hom(compose(g, f))


def test_abhom_compose_checks_middle_presentation():
    z4 = PresentedGroup(1, IntMatrix([[4]]))
    z2 = PresentedGroup(1, IntMatrix([[2]]))
    # the composite would be Z/2 -> Z/4 with 1 |-> 1, which is not a hom
    with pytest.raises(ValueError):
        compose(AbHom.identity(z4), AbHom.identity(z2))
    # a distinct object with the same relations is the same middle group
    z4_again = PresentedGroup(1, IntMatrix.from_sparse_cols([{0: 4}], 1))
    f = compose(AbHom.identity(z4), AbHom.identity(z4_again))
    assert f.source is z4_again and f.target is z4


def test_abhom_is_isomorphism():
    z6 = PresentedGroup(1, IntMatrix([[6]]))
    other = PresentedGroup(2, IntMatrix([[2, 0], [0, 3]]))  # Z/2 + Z/3 = Z/6
    h = AbHom(z6, other, IntMatrix([[1], [1]]))
    assert is_isomorphism(h)
    assert not is_isomorphism(AbHom(z6, z6, IntMatrix([[2]])))
    assert is_isomorphism(AbHom.identity(other))
    assert AbHom.identity(other) is AbHom.identity(other)
    # injective but not surjective on free parts
    z = PresentedGroup(1)
    assert not is_isomorphism(AbHom(z, z, IntMatrix([[2]])))


def _cyclic_sum(orders):
    """Z/s_1 + ... + Z/s_m, one generator per order (an order of 1 is 0)."""
    n = len(orders)
    return PresentedGroup(n, IntMatrix.from_sparse_cols([{j: s} for j, s in enumerate(orders)], n))


_SMALL_ORDERS = st.lists(st.integers(1, 8), max_size=3).filter(lambda s: prod(s) <= 64)


@st.composite
def _finite_homs(draw):
    """(source orders, target orders, 3 x 3 multipliers) of a well-defined hom."""
    s = draw(_SMALL_ORDERS)
    t = draw(st.one_of(_SMALL_ORDERS, st.permutations(s)))
    return s, t, draw(st.lists(st.integers(-3, 3), min_size=9, max_size=9))


@settings(max_examples=150, deadline=None)
@given(_finite_homs())
@example(([6], [2, 3], [1] * 9))
@example(([2, 4], [4, 2], [0, 1, 0, 1, 0, 0, 0, 0, 0]))
@example(([2, 4], [4, 2], [0, 1, 0, 1, 1, 0, 0, 0, 0]))
@example(([], [], [0] * 9))
def test_is_isomorphism_is_bijectivity_on_finite_groups(hom_data):
    # entry (i, j) is a multiple of t_i / gcd(s_j, t_i), so the generator of
    # order s_j goes to an element whose order divides s_j
    s, t, mult = hom_data
    rows = [[mult[3 * i + j] * (ti // gcd(sj, ti)) for j, sj in enumerate(s)]
            for i, ti in enumerate(t)]
    f = AbHom(_cyclic_sum(s), _cyclic_sum(t), IntMatrix(rows, len(t), len(s)))
    images = {
        tuple(sum(r * x for r, x in zip(row, xs)) % ti for row, ti in zip(rows, t))
        for xs in product(*[range(sj) for sj in s])
    }
    assert is_isomorphism(f) == (len(images) == prod(s) == prod(t))


_ENTRY = st.integers(-3, 3)


def _int_matrix(draw, nrows, ncols, entry=_ENTRY):
    return IntMatrix([draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)],
                     nrows, ncols)


@st.composite
def _presented(draw, max_gens=3):
    """Canonical, or random relations with a dependent column appended."""
    if draw(st.booleans()):
        torsion = draw(st.sampled_from([(), (2,), (3,), (2, 4), (2, 6)]))
        rank = draw(st.integers(0, max_gens - len(torsion)))
        return PresentedGroup.from_group(FgAbGroup(rank, torsion))
    gens = draw(st.integers(1, max_gens))
    rels = _int_matrix(draw, gens, draw(st.integers(0, 3)))
    if rels.ncols and draw(st.booleans()):
        # a combination of the columns already there, so they are dependent
        c = draw(st.lists(_ENTRY, min_size=rels.ncols, max_size=rels.ncols))
        combo = {}
        for col, a in zip(rels.cols, c):
            _dict_addmul(combo, col, a)
        rels = rels.hstack(IntMatrix.from_sparse_cols([combo], gens))
    return PresentedGroup(gens, rels)


def _cycles_of(draw, d, below, count):
    """count random combinations of the x-parts of ker [d | relations below],
    each of which d sends into the relation lattice below."""
    gens = [{i: v for i, v in col.items() if i < d.ncols}
            for col in kernel_basis(d.hstack(below.relations)).cols]
    out = []
    for _ in range(count):
        vec = {}
        for gen in gens:
            _dict_addmul(vec, gen, draw(_ENTRY))
        out.append(vec)
    return IntMatrix.from_sparse_cols(out, d.ncols)


@st.composite
def _presented_homs(draw):
    """A well-defined hom into a random presented group: either random, with
    the source relations drawn among the vectors it sends into the target's
    relations, or an isomorphism by construction, a unimodular matrix P with
    the source relations P^-1 (target relations)."""
    target = draw(_presented())
    g = target.gens
    if draw(st.booleans()):
        ops = draw(st.lists(st.tuples(st.integers(0, g - 1), st.integers(0, g - 1), _ENTRY),
                            max_size=5)) if g else []
        p, pinv = IntMatrix.identity(g), IntMatrix.identity(g)
        for i, j, c in ops:
            if i != j:
                # I + c E_ij and its inverse I - c E_ij
                e, einv = (IntMatrix.from_sparse_cols(
                    [{k: 1, i: a} if k == j else {k: 1} for k in range(g)], g) for a in (c, -c))
                p, pinv = e @ p, pinv @ einv
        source = PresentedGroup(g, pinv @ target.relations)
        return AbHom(source, target, p)
    matrix = _int_matrix(draw, g, draw(st.integers(0, 3)))
    rels = _cycles_of(draw, matrix, target, draw(st.integers(0, 3)))
    return AbHom(PresentedGroup(matrix.ncols, rels), target, matrix)


@settings(max_examples=200, deadline=None)
@given(_presented_homs())
@example(AbHom(PresentedGroup(2, IntMatrix([[0], [6]])), PresentedGroup(2, IntMatrix([[0], [6]])),
               IntMatrix([[1, 0], [1, 1]])))
@example(AbHom(PresentedGroup(2, IntMatrix([[0], [2]])), PresentedGroup(2, IntMatrix([[0], [4]])),
               IntMatrix([[1, 0], [0, 2]])))
def test_is_isomorphism_matches_one_elimination_on_presented_groups(f):
    assert is_isomorphism(f) == is_isomorphism_by_elimination(f)


def free_complex(mats):
    """Complex of free groups from boundary matrices d1, d2, ..."""
    groups = [PresentedGroup(mats[0].nrows)]
    for m in mats:
        groups.append(PresentedGroup(m.ncols))
    bnds = [
        AbHom(groups[i + 1], groups[i], m, check=False) for i, m in enumerate(mats)
    ]
    return ChainComplexFg(groups, bnds)


def test_homology_two_term_multiplication():
    cx = free_complex([IntMatrix([[2]])])
    assert homology_at(cx, 0) == FgAbGroup(0, (2,))
    assert homology_at(cx, 1) == FgAbGroup(0, ())


def test_homology_zero_map():
    cx = free_complex([IntMatrix([[0]])])
    assert homology_at(cx, 0) == FgAbGroup(1, ())
    assert homology_at(cx, 1) == FgAbGroup(1, ())


def test_homology_circle():
    # triangle as a graph: three vertices, three edges around
    d1 = IntMatrix([[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
    cx = free_complex([d1])
    assert homology_at(cx, 0) == FgAbGroup(1, ())
    assert homology_at(cx, 1) == FgAbGroup(1, ())


def test_homology_outside_range_is_zero():
    cx = free_complex([IntMatrix([[2]])])
    assert homology_at(cx, 5).is_trivial
    assert homology_at(cx, -1).is_trivial


def test_homology_with_presented_groups():
    # Z/4 --inclusion of 2Z/4-- ... check a small presented complex:
    # C1 = Z/2 -> C0 = Z/4 by doubling; kernel is 0, image is 2Z/4
    z4 = PresentedGroup(1, IntMatrix([[4]]))
    z2 = PresentedGroup(1, IntMatrix([[2]]))
    d1 = AbHom(z2, z4, IntMatrix([[2]]))
    cx = ChainComplexFg([z4, z2], [d1])
    assert homology_at(cx, 0) == FgAbGroup(0, (2,))
    assert homology_at(cx, 1) == FgAbGroup(0, ())


def test_homology_rank_nullity_oracle():
    """homology_at vs rank over Q plus torsion of d2, on random complexes."""
    rng = random.Random(20230824)
    count = 0
    while count < 100:
        n1 = rng.randint(1, 6)
        n0 = rng.randint(1, 6)
        d1 = IntMatrix([[rng.randint(-3, 3) for _ in range(n1)] for _ in range(n0)])
        K = kernel_basis(d1)
        if K.ncols == 0:
            d2 = IntMatrix.zeros(n1, 1)
        else:
            width = rng.randint(1, 4)
            R = IntMatrix(
                [[rng.randint(-3, 3) for _ in range(width)] for _ in range(K.ncols)]
            )
            d2 = K @ R
        assert (d1 @ d2).is_zero()
        cx = free_complex([d1, d2])
        got = homology_at(cx, 1)
        betti = n1 - rational_rank(d1) - rational_rank(d2)
        torsion = tuple(d for d in invariant_factors(d2) if d > 1)
        assert got == FgAbGroup(betti, torsion)
        count += 1


@st.composite
def _presented_complexes(draw):
    """C_0 <- C_1 or C_0 <- C_1 <- C_2 of presented groups: each boundary and
    each relation column is drawn among the vectors that the boundary below
    sends into the relation lattice below, so the complex is well defined."""
    c0 = draw(_presented())
    d1 = _int_matrix(draw, c0.gens, draw(st.integers(1, 3)))
    r1 = _cycles_of(draw, d1, c0, draw(st.integers(0, 3)))
    if r1.ncols and draw(st.booleans()):
        r1 = r1.hstack(IntMatrix.from_sparse_cols([r1.cols[-1]], r1.nrows))
    c1 = PresentedGroup(d1.ncols, r1)
    groups, bounds = [c0, c1], [AbHom(c1, c0, d1)]
    if draw(st.booleans()):
        d2 = _cycles_of(draw, d1, c0, draw(st.integers(1, 3)))
        c2 = PresentedGroup(d2.ncols, _cycles_of(draw, d2, c1, draw(st.integers(0, 2))))
        groups.append(c2)
        bounds.append(AbHom(c2, c1, d2))
    return ChainComplexFg(groups, bounds)


@settings(max_examples=200, deadline=None)
@given(_presented_complexes(), st.data())
def test_cycle_presentation_at_presented_positions(cx, data):
    for n in range(1, len(cx.groups)):
        group, below, d_n = cx.groups[n], cx.groups[n - 1], cx.boundaries[n - 1].matrix
        above = group.relations
        if n < len(cx.boundaries):
            above = cx.boundaries[n].matrix.hstack(above)
        h = CyclePresentation(group.gens, d_n, below, above)
        assert h.presented.canonical() == homology_by_cycle_lattice(cx, n) == homology_at(cx, n)
        if n == 1:
            assert h.cokernel.canonical() == homology_at(cx, 0)
        for i in range(h.presented.gens):
            assert h.coords_of_cycle(h.cycle_of_generator(i)) == {i: 1}
        # B reads zero, alone and added to a cycle
        cycle = _cycles_of(data.draw, d_n, below, 1).cols[0]
        for col in above.cols:
            assert h.coords_of_cycle(col) == {}
            moved = dict(cycle)
            _dict_addmul(moved, col, data.draw(_ENTRY))
            assert h.coords_of_cycle(moved) == h.coords_of_cycle(cycle)
        lattice = below.lattice()
        for j in range(group.gens):
            if not lattice.contains(d_n.matvec({j: 1})):
                with pytest.raises(AssertionError):
                    h.coords_of_cycle({j: 1})


def test_cycles_over_dependent_relations_below():
    # Z -> Z/<2, 4> by 1: the cycles are 2Z, a copy of Z, but the kernel of
    # [1 | 2 4] has rank 2; its vectors over x = 0, the (0, y) with
    # 2 y_1 + 4 y_2 = 0, must join the relations
    below, z = PresentedGroup(1, IntMatrix([[2, 4]])), PresentedGroup(1)
    h = CyclePresentation(1, IntMatrix([[1]]), below, IntMatrix.zeros(1, 0))
    assert h.presented.canonical() == FgAbGroup(1, ())
    assert h.cycle_of_generator(0) in ({0: 2}, {0: -2})
    cx = ChainComplexFg([below, z], [AbHom(z, below, IntMatrix([[1]]))])
    assert homology_at(cx, 1) == FgAbGroup(1, ())


def test_matrix_rank_matches_rational_rank():
    rng = random.Random(3)
    for _ in range(50):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        mat = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        assert matrix_rank(mat) == rational_rank(mat)


def test_cyclic_homology_closed_form():
    assert cyclic_group_homology(4, 0) == FgAbGroup(1, ())
    assert cyclic_group_homology(4, 1) == FgAbGroup(0, (4,))
    assert cyclic_group_homology(4, 2) == FgAbGroup(0, ())
    assert cyclic_group_homology(4, 3) == FgAbGroup(0, (4,))
    assert cyclic_group_homology(1, 2).is_trivial


def test_chain_complex_rejects_nonzero_composite():
    g = [PresentedGroup(1), PresentedGroup(1), PresentedGroup(1)]
    good = ChainComplexFg(
        g, [AbHom(g[1], g[0], IntMatrix([[2]]), check=False), AbHom(g[2], g[1], IntMatrix([[0]]), check=False)]
    )
    assert homology_at(good, 0) == FgAbGroup(0, (2,))
    with pytest.raises(ValueError):
        ChainComplexFg(
            g,
            [
                AbHom(g[1], g[0], IntMatrix([[2]]), check=False),
                AbHom(g[2], g[1], IntMatrix([[1]]), check=False),
            ],
        )


def test_block_diag_and_hstack_shapes():
    a = IntMatrix([[1, 2]])
    b = IntMatrix.zeros(0, 3)
    c = IntMatrix.block_diag([a, b])
    assert (c.nrows, c.ncols) == (1, 5)
    d = IntMatrix.zeros(1, 0).hstack(a)
    assert d == a


def test_indices_out_of_range_are_rejected():
    with pytest.raises(ValueError):
        IntMatrix.from_sparse_cols([{-1: 5}], 3)
    with pytest.raises(ValueError):
        IntMatrix.from_sparse_cols([{0: 1}, {3: 2}], 3)
    with pytest.raises(ValueError):
        IntMatrix.from_sparse_cols([{0: 1}], 0)
    assert IntMatrix.from_sparse_cols([{2: 5}], 3).rows == ((0,), (0,), (5,))
    with pytest.raises(ValueError):
        IntMatrix.identity(2).matvec({-1: 1})
    with pytest.raises(ValueError):
        IntMatrix.identity(2).matvec({2: 1})


# ---------------------------------------------------------------------------
# the sparse type against dense-list arithmetic


@st.composite
def dense(draw, nrows=None, ncols=None):
    """(nrows, ncols, rows) with mostly zero entries; either side may be 0."""
    m = draw(st.integers(0, 4)) if nrows is None else nrows
    n = draw(st.integers(0, 4)) if ncols is None else ncols
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return m, n, rows


def as_rows(rows):
    return tuple(map(tuple, rows))


@settings(max_examples=150, deadline=None)
@given(dense(), st.integers(0, 2**16))
def test_equality_and_hash_agree_across_construction_routes(mat, salt):
    m, n, rows = mat
    literal = IntMatrix(rows, m, n)
    # explicit zeros in the columns, at salt-chosen spots, must not count
    cols = [{i: rows[i][j] for i in range(m) if rows[i][j] or (salt >> (i + j)) & 1}
            for j in range(n)]
    adopted = IntMatrix.from_sparse_cols(cols, m)
    assert literal.rows == adopted.rows == as_rows(rows)
    assert literal == adopted and hash(literal) == hash(adopted)
    for export in smith_normal_form(literal):
        again = IntMatrix(export.rows, export.nrows, export.ncols)
        assert export == again and hash(export) == hash(again)
    kernel = kernel_basis(literal)
    assert kernel == IntMatrix(kernel.rows, kernel.nrows, kernel.ncols)
    if any(map(any, rows)):
        assert literal != IntMatrix.zeros(m, n)
    assert literal != IntMatrix.zeros(m + 1, n)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_agree_with_dense_arithmetic(data):
    m, k, a = data.draw(dense())
    _, n, b = data.draw(dense(nrows=k))
    A, B = IntMatrix(a, m, k), IntMatrix(b, k, n)
    assert (A @ B).rows == _dense_product(a, b, n)
    x = data.draw(st.dictionaries(st.integers(0, max(k - 1, 0)), st.integers(-3, 3)))
    x = {j: v for j, v in x.items() if j < k}
    want = [sum(a[i][j] * v for j, v in x.items()) for i in range(m)]
    assert A.matvec(x) == {i: w for i, w in enumerate(want) if w}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_hstack_and_block_diag_agree_with_dense_arithmetic(data):
    m, k, a = data.draw(dense())
    _, n, b = data.draw(dense(nrows=m))
    A, B = IntMatrix(a, m, k), IntMatrix(b, m, n)
    assert A.hstack(B).rows == tuple(tuple(ra + rb) for ra, rb in zip(a, b))
    assert (A.hstack(B).nrows, A.hstack(B).ncols) == (m, k + n)
    blocks = data.draw(st.lists(dense(), max_size=3))
    total = sum(c for _, c, _ in blocks)
    want, offset = [], 0
    for r, c, rows in blocks:
        want += [[0] * offset + row + [0] * (total - offset - c) for row in rows]
        offset += c
    got = IntMatrix.block_diag([IntMatrix(rows, r, c) for r, c, rows in blocks])
    assert (got.nrows, got.ncols) == (len(want), total)
    assert got.rows == as_rows(want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tracked_uinv_inverts_u(data):
    # Uinv is replayed from the same log as U, each row operation undone
    m, n, rows = data.draw(dense(nrows=data.draw(st.integers(0, 7)),
                                 ncols=data.draw(st.integers(0, 7))))
    mat = IntMatrix(rows, m, n)
    eng = _engine_for(mat)
    u, uinv = eng.u, eng.uinv
    ident = IntMatrix.identity(m).rows
    assert _dense_product(u.rows, uinv.rows, m) == ident
    assert _dense_product(uinv.rows, u.rows, m) == ident


# ---------------------------------------------------------------------------
# the Smith engine on sparse, mostly unit matrices like bar boundaries


@st.composite
def bar_like(draw):
    """A wide sparse matrix: up to 12 x 40, few entries per column, mostly +-1."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 40))
    entry = st.sampled_from([1, -1, 1, -1, 1, -1, 2, -2, 3])
    cols = draw(st.lists(st.dictionaries(st.integers(0, m - 1), entry, max_size=4),
                         min_size=n, max_size=n))
    return IntMatrix.from_sparse_cols(cols, m)


@settings(max_examples=100, deadline=None)
@given(bar_like())
def test_smith_on_bar_like_matrices(mat):
    nz = check_snf(mat)
    want = sympy_invariant_factors(sympy.Matrix(mat.rows), domain=sympy.ZZ)
    assert nz == [int(d) for d in want if d]
    assert invariant_factors(mat) == nz  # builds no transform
    # the route the package takes to the same diagonal
    canonical = PresentedGroup(mat.nrows, mat).canonical()
    assert canonical == FgAbGroup(mat.nrows - len(nz), tuple(d for d in nz if d > 1))


def _bar_boundary(group, q):
    prev = {t: i for i, t in enumerate(_bar_tuples(group, q - 1))}
    return IntMatrix.from_sparse_cols(
        _bar_boundary_cols(group, q, _bar_tuples(group, q), prev), len(prev))


def _transform_digest(mats):
    """sha256 over the rank, the diagonal and the columns of U, V, U^-1, V^-1."""
    parts = []
    for mat in mats:
        eng = _engine_for(mat)
        transforms = (eng.u, eng.v, eng.uinv, eng.vinv)
        parts.append((eng.rank, list(eng.diag),
                      [[sorted(col.items()) for col in t.cols] for t in transforms]))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def test_transforms_match_the_pinned_digest():
    # pinned from an engine that updated all four transforms inside each
    # elementary operation; the transforms replayed from the logs, with a
    # divisible pivot row cleared at once, must be the same matrices
    rng = random.Random(20)
    entries = [0, 1, -1, 2, -2, 3, 4, -6]
    mats = []
    for _ in range(200):
        m, n = rng.randint(0, 8), rng.randint(0, 12)
        mats.append(IntMatrix([[rng.choice(entries) for _ in range(n)] for _ in range(m)], m, n))
    mats += [_bar_boundary(cyclic(4), 3), _bar_boundary(cyclic(5), 2), _bar_boundary(cyclic(6), 2)]
    res = resolution(pgl2(make_field(3, 1)))
    res.extend(3)
    mats += [res.matrix(n) for n in (1, 2, 3)]
    assert _transform_digest(mats) == (
        "88036d4c7ad48d3a77d5ec7707e858cf82b7b4a5cb2eb4d498683a93dba73270")


@settings(max_examples=100, deadline=None)
@given(bar_like(), st.data())
def test_solve_reads_lattice_vectors_in_the_smith_basis(mat, data):
    eng = _engine_for(mat)
    lattice = _SmithCoordinates(eng)
    x = data.draw(st.dictionaries(st.integers(0, mat.ncols - 1), st.integers(-3, 3)))
    on = mat.matvec(x)
    off = dict(on)
    _dict_addmul(off, {data.draw(st.integers(0, mat.nrows - 1)): 1}, 1)
    assert lattice.contains(on)
    for vec in (on, off):
        if lattice.contains(vec):
            w = lattice.solve(vec)
            # U vec = S w, so U^-1 S w rebuilds vec, and so does M V w
            assert eng.uinv.matvec({i: eng.diag[i] * c for i, c in w.items()}) == vec
            assert mat.matvec(eng.v.matvec(w)) == vec
        else:
            with pytest.raises(AssertionError):
                lattice.solve(vec)


def test_pivot_choice_does_not_depend_on_dict_order():
    # the pivots follow row and column lengths and indices only, so column
    # dicts with the same entries in another key order give the same U and V
    for mat in (_bar_boundary(cyclic(4), 3), _bar_boundary(cyclic(3), 2),
                IntMatrix([[2, 1, 0, -1], [1, 0, 1, 1], [0, -1, 1, 2]])):
        shuffled = IntMatrix.from_sparse_cols(
            [dict(sorted(col.items(), reverse=True)) for col in mat.cols], mat.nrows)
        assert [list(c) for c in shuffled.cols] != [list(c) for c in mat.cols]
        a = _engine_for(mat)
        b = _engine_for(shuffled)
        # the engine's own row dicts, in reversed key order too
        rows = [dict(sorted(r.items(), reverse=True))
                for r in _transpose_dicts(mat.cols, mat.nrows)]
        c = _SmithEngine(rows, mat.nrows, mat.ncols).run()
        for eng in (b, c):
            assert eng.diag == a.diag
            assert eng.u == a.u
            assert eng.v == a.v


def test_unit_pivot_from_the_shortest_row_and_column():
    # row 2 is shorter but holds no unit, so row 1 is the shortest row
    # holding one; of its units, column 2 is shorter than column 0
    mat = IntMatrix([[2, 1, 1, 1], [-1, 0, 1, 3], [2, 0, 0, 2]])
    eng = _SmithEngine(_transpose_dicts(mat.cols, mat.nrows), mat.nrows, mat.ncols)
    assert eng._find_pivot(0) == (1, 2)
    # without a unit, the least |value|, lowest row then column first
    mat = IntMatrix([[4, 6], [3, 2], [2, 5]])
    eng = _SmithEngine(_transpose_dicts(mat.cols, mat.nrows), mat.nrows, mat.ncols)
    assert eng._find_pivot(0) == (1, 1)


# ---------------------------------------------------------------------------
# one reader of the elimination


def _callers(callee):
    """Where the package source calls callee by name: one 'module:scope'
    per enclosing class and def, the scope empty at module level."""
    found = set()

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name], module)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    found.add(f"{module}:{'.'.join(scope)}")
            visit(child, scope, module)

    for path in sorted(Path(abelian.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [], path.stem)
    return found


def test_presented_group_lattice_is_the_one_reader_of_an_elimination():
    # every elimination outside smith_normal_form is read through
    # PresentedGroup.lattice, E2 takes no route through homology_at, and
    # resolution reaches none of abelian's private names but the vector
    # helper
    assert _callers("_engine_for") == {"abelian:PresentedGroup.lattice", "abelian:smith_normal_form"}
    assert _callers("_SmithCoordinates") == {"abelian:PresentedGroup.lattice"}
    assert "invariant_factors" not in vars(abelian)
    assert {"ChainComplexFg", "homology_at"}.isdisjoint(vars(coefficients))
    private = [value for name, value in vars(abelian).items()
               if name.startswith("_") and not name.startswith("__")]
    bound = sorted(name for name, value in vars(resolution_module).items()
                   if any(value is obj for obj in private))
    assert bound == ["_dict_addmul"]
