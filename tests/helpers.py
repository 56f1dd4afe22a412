"""Helpers that only the tests use: brute-force models and structure checks.

The package never calls these; they live beside the tests that need them.
"""

from functools import lru_cache
from itertools import product

from elltree.abelian import (
    TRIVIAL_GROUP,
    AbHom,
    CyclePresentation,
    FgAbGroup,
    IntMatrix,
    _engine_for,
    invariant_factors,
)
from elltree.coefficients import BATTERY_A, TokenProvider, assemble_system, degree_zero_tokens, e2_pair
from elltree.curve import INFINITY_POINT, WeierstrassCurve
from elltree.field import _poly_divmod
from elltree.groups import (
    additive_group_size,
    group_from_elements,
    pgl2_canonical,
    pgl2_size,
    triangular_size,
    unit_group_size,
)


def matrix_rank(mat):
    """Rank over Z (and Q): the number of nonzero invariant factors."""
    return len(invariant_factors(mat))


def kernel_basis(mat):
    """Columns forming a basis of {x : mat @ x == 0}, as an IntMatrix."""
    return IntMatrix.from_sparse_cols(_engine_for(mat, want_v=True).kernel_cols(), mat.ncols)


def direct_product(g, h):
    return group_from_elements(
        [(a, b) for a in g.elements for b in h.elements],
        lambda x, y: (g.elements[g.table[g.index[x[0]]][g.index[y[0]]]],
                      h.elements[h.table[h.index[x[1]]][h.index[y[1]]]]),
        name=f"{g.name}x{h.name}",
    )


def is_injective(hom):
    return len(set(hom.mapping)) == hom.source.order


# The normalized inhomogeneous bar complex, the oracle for the package's
# free-resolution route: chains in degree q are spanned by q-tuples of
# non-identity elements, and tuples that acquire an identity entry under a
# face map are dropped.


def _bar_tuples(group, q):
    nonid = [i for i in range(group.order) if i != group.identity]
    return list(product(nonid, repeat=q))


def _bar_boundary_cols(group, q, tuples_q, prev_index):
    """Sparse columns of d_q : C_q -> C_{q-1} in the normalized complex."""
    e = group.identity
    t = group.table
    cols = []
    for tup in tuples_q:
        col = {}

        def add(key, c):
            v = col.get(key, 0) + c
            if v:
                col[key] = v
            else:
                col.pop(key, None)

        add(prev_index[tup[1:]], 1)
        sign = -1
        for i in range(1, q):
            m = t[tup[i - 1]][tup[i]]
            if m != e:
                add(prev_index[tup[: i - 1] + (m,) + tup[i + 1 :]], sign)
            sign = -sign
        add(prev_index[tup[:-1]], sign)
        cols.append(col)
    return cols


class BarHomology:
    """H_q(G; Z) of the bar complex, with chain-level access.

    Wraps a CyclePresentation over the bar complex so induced maps can
    translate between homology classes and explicit chains.
    """

    def __init__(self, group, q):
        self.group = group
        self.q = q
        self.tuples = _bar_tuples(group, q)
        self.tuple_index = {t: i for i, t in enumerate(self.tuples)}
        n_q = len(self.tuples)
        if q == 0:
            d_q = IntMatrix.zeros(0, 1)
        else:
            prev = _bar_tuples(group, q - 1)
            prev_index = {t: i for i, t in enumerate(prev)}
            d_q_cols = _bar_boundary_cols(group, q, self.tuples, prev_index)
            d_q = IntMatrix.from_sparse_cols(d_q_cols, len(prev))
        nxt = _bar_tuples(group, q + 1)
        d_next_cols = _bar_boundary_cols(group, q + 1, nxt, self.tuple_index)
        d_next = IntMatrix.from_sparse_cols(d_next_cols, n_q)
        self.cycles = CyclePresentation(n_q, d_q, d_next)
        self.presented = self.cycles.presented

    def canonical(self):
        return self.presented.canonical()


@lru_cache(maxsize=None)
def bar_data(group, q):
    return BarHomology(group, q)


def bar_induced_map(hom, q):
    """The induced map on H_q through the bar complexes: applying the hom
    entrywise is a chain map of normalized bar complexes."""
    src = bar_data(hom.source, q)
    tgt = bar_data(hom.target, q)
    cols = []
    e = hom.target.identity
    for i in range(src.presented.gens):
        chain = src.cycles.cycle_of_generator(i)
        pushed = {}
        for tidx, coeff in chain.items():
            image = tuple(hom.mapping[g] for g in src.tuples[tidx])
            if e in image:
                continue
            key = tgt.tuple_index[image]
            v = pushed.get(key, 0) + coeff
            if v:
                pushed[key] = v
            else:
                pushed.pop(key, None)
        cols.append(tgt.cycles.coords_of_cycle(pushed))
    matrix = IntMatrix.from_sparse_cols(cols, tgt.presented.gens)
    return AbHom(src.presented, tgt.presented, matrix)


@lru_cache(maxsize=None)
def rank_nullity_bar_homology(group, q):
    """H_q(G; Z) for q >= 1 from the rank of d_q and the Smith divisors of
    d_{q+1} of the normalized bar complex, with no cycle basis and no
    presentation: an oracle for groups.bar_homology."""
    tuples_q = _bar_tuples(group, q)
    if not tuples_q:
        return TRIVIAL_GROUP
    prev = _bar_tuples(group, q - 1)
    prev_index = {t: i for i, t in enumerate(prev)}
    d_q = IntMatrix.from_sparse_cols(
        _bar_boundary_cols(group, q, tuples_q, prev_index), len(prev)
    )
    tuple_index = {t: i for i, t in enumerate(tuples_q)}
    d_next_cols = _bar_boundary_cols(group, q + 1, _bar_tuples(group, q + 1), tuple_index)
    factors = invariant_factors(IntMatrix.from_sparse_cols(d_next_cols, len(tuples_q)))
    betti = len(tuples_q) - matrix_rank(d_q) - len(factors)
    return FgAbGroup(betti, tuple(d for d in factors if d > 1))


def frobenius(field, a):
    return a ** field.p


def gl2(field):
    """Invertible 2x2 matrices as (a, b, c, d) row-major tuples."""
    els = [
        m for m in product(field.elements(), repeat=4)
        if not (m[0] * m[3] - m[1] * m[2]).is_zero()
    ]

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    return group_from_elements(els, mul, name=f"GL2({field!r})")


def is_irreducible_by_trial_division(c, p):
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


def first_irreducible_by_trial_division(p, k):
    """make_field's modulus: the first irreducible monic candidate in its order."""
    return next(
        tuple(tail) + (1,) for tail in product(range(p), repeat=k)
        if is_irreducible_by_trial_division(list(tail) + [1], p)
    )


# Stabilizer tables built on FieldElement arithmetic, the oracles for the
# int-coded constructors in elltree.groups: same names, same elements in
# the same order, so the groups must come out equal table for table.
# Cached, as the package's constructors are, since several tests share them.


@lru_cache(maxsize=None)
def unit_group_by_elements(field):
    return group_from_elements(field.units(), lambda a, b: a * b, name=unit_group_size(field)[0])


@lru_cache(maxsize=None)
def additive_group_by_elements(field):
    return group_from_elements(
        field.elements(), lambda a, b: a + b, name=additive_group_size(field)[0]
    )


@lru_cache(maxsize=None)
def pgl2_by_elements(field):
    seen = {}
    for m in product(field.elements(), repeat=4):
        if not (m[0] * m[3] - m[1] * m[2]).is_zero():
            seen.setdefault(pgl2_canonical(m), None)
    els = sorted(seen, key=lambda m: tuple(v.coeffs for v in m))

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return pgl2_canonical((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    return group_from_elements(els, mul, name=pgl2_size(field)[0])


@lru_cache(maxsize=None)
def triangular_by_elements(field, n):
    units = field.units()
    vectors = list(product(field.elements(), repeat=n))
    els = [(p, s, q) for p in units for s in units for q in vectors]

    def mul(x, y):
        p1, s1, q1 = x
        p2, s2, q2 = y
        return (p1 * p2, s1 * s2, tuple(p1 * b + a * s2 for a, b in zip(q1, q2)))

    return group_from_elements(els, mul, name=triangular_size(field, n)[0])


def curve_from_json(field, data):
    return WeierstrassCurve(field, data["a1"], data["a2"], data["a3"], data["a4"], data["a6"])


def is_two_torsion(curve, point):
    return curve.negate(point) == point


def enumerate_points(curve):
    """All rational points, infinity first, then affine in (x, y) order."""
    points = [INFINITY_POINT]
    for x in curve.field.elements():
        points.extend(curve.points_on_line(x))
    return points


def is_tree(tree):
    """Connected and |edges| = |vertices| - 1, by breadth-first search."""
    n = len(tree.vertices)
    if len(tree.edges) != n - 1:
        return False
    adjacency = {v.vid: [] for v in tree.vertices}
    for e in tree.edges:
        adjacency[e.tail].append(e.head)
        adjacency[e.head].append(e.tail)
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == n


def tag_edge_set(tree):
    """Edges as (tail tag, head tag) pairs; id-independent structure."""
    tags = {v.vid: v.tag for v in tree.vertices}
    return {(tags[e.tail], tags[e.head]) for e in tree.edges}


def tag_set(tree):
    return {v.tag for v in tree.vertices}


def degree_zero_row(tree):
    """Row 0 of E2 on a whole tree: H_0 of every stabilizer, Z, with identity maps."""
    provider = TokenProvider(tree, degree_zero_tokens(tree), BATTERY_A)
    return e2_pair(assemble_system(tree, provider))
