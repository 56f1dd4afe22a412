"""Helpers that only the tests use: brute-force models and structure checks.

The package never calls these; they live beside the tests that need them.
"""

from functools import lru_cache
from itertools import product

from elltree.abelian import (
    TRIVIAL_GROUP,
    AbHom,
    ChainComplexFg,
    CyclePresentation,
    FgAbGroup,
    IntMatrix,
    PresentedGroup,
    _SmithCoordinates,
    _engine_for,
    homology_at,
)
from elltree import coefficients
from elltree.coefficients import BATTERY_A, TokenProvider, assemble_system, degree_zero_tokens, e2_pair
from elltree.curve import INFINITY_POINT, CurvePoint, WeierstrassCurve
from elltree.field import _poly_divmod
from elltree.groups import (
    DEFAULT_LIMITS,
    _code_tables,
    additive_group_size,
    cusp_group_size,
    group_from_elements,
    hom_from_function,
    homology_presentation,
    induced_map,
    pgl2_size,
    quotient_by_central,
    stabilizer,
    stabilizer_inclusion,
    triangular_size,
    unit_group_size,
)


def compose(f, g):
    """The hom f after g; g's target must be f's source, or present it by
    the same relations."""
    if g.target is not f.source and g.target.relations != f.source.relations:
        raise ValueError("composition mismatch")
    return AbHom(g.source, f.target, f.matrix @ g.matrix, check=False)


def is_zero_hom(f):
    """Whether every generator goes into the target's relation lattice."""
    lattice = f.target.lattice()
    return all(lattice.contains(col) for col in f.matrix.cols)


def homology_by_cycle_lattice(complex_, n):
    """H_n at n >= 1 by a second route, the oracle for abelian.homology_at:
    the cycles are the x-parts of the kernel of [d_n | relations below],
    eliminated once more for a Smith basis of the lattice they span, in
    which the image of d_(n+1) and the relations at n are then solved."""
    group = complex_.groups[n]
    g = group.gens
    d_n = complex_.boundaries[n - 1].matrix
    aug = d_n.hstack(complex_.groups[n - 1].relations)
    cycle_gens = [{i: v for i, v in col.items() if i < g}
                  for col in _engine_for(aug).kernel_cols()]
    cycles = _engine_for(IntMatrix.from_sparse_cols(cycle_gens, g))
    if cycles.rank == 0:
        return TRIVIAL_GROUP
    d_next = complex_.boundaries[n].matrix.cols if n < len(complex_.boundaries) else ()
    lattice = _SmithCoordinates(cycles)
    rels = IntMatrix.from_sparse_cols(map(lattice.solve, d_next + group.relations.cols), cycles.rank)
    return PresentedGroup(cycles.rank, rels).canonical()


def kernel_and_cokernel(f):
    """(kernel, cokernel) of an AbHom, canonical: H_1 and H_0 of the
    complex target <- source."""
    complex_ = ChainComplexFg([f.target, f.source], [f], check=False)
    return homology_at(complex_, 1), homology_at(complex_, 0)


def is_isomorphism(f):
    """Whether an AbHom is bijective on the underlying quotient groups: it
    has trivial kernel and cokernel."""
    return all(g.is_trivial for g in kernel_and_cokernel(f))


def is_isomorphism_by_elimination(f):
    """Bijectivity by one elimination of [matrix | target relations], the
    oracle for is_isomorphism: surjective when the invariant factors
    are all 1 and fill every row, injective when every kernel vector's
    source part is a source relation."""
    eng = _engine_for(f.matrix.hstack(f.target.relations))
    if eng.rank != f.target.gens or any(d != 1 for d in eng.diag[:eng.rank]):
        return False
    lattice, g = f.source.lattice(), f.source.gens
    return all(lattice.contains({i: v for i, v in col.items() if i < g})
               for col in eng.kernel_cols())


def invariant_factors(mat):
    """Nonzero diagonal of the Smith form, in divisibility order, read off
    the engine without building a transform; the oracle for
    PresentedGroup.canonical, which reads the same elimination through
    PresentedGroup.lattice."""
    return [d for d in _engine_for(mat).diag if d]


def matrix_rank(mat):
    """Rank over Z (and Q): the number of nonzero invariant factors."""
    return len(invariant_factors(mat))


def kernel_basis(mat):
    """Columns forming a basis of {x : mat @ x == 0}, as an IntMatrix."""
    return IntMatrix.from_sparse_cols(_engine_for(mat).kernel_cols(), mat.ncols)


def direct_product(g, h):
    return group_from_elements(
        [(a, b) for a in g.elements for b in h.elements],
        lambda x, y: (g.elements[g.table[g.index[x[0]]][g.index[y[0]]]],
                      h.elements[h.table[h.index[x[1]]][h.index[y[1]]]]),
        name=f"{g.name}x{h.name}",
    )


def is_injective(hom):
    return len(set(hom.mapping)) == hom.source.order


def is_abelian(group):
    t = group.table
    return all(t[i][j] == t[j][i] for i in range(group.order) for j in range(group.order))


def is_associative(table):
    """Every triple: row ab of the table must be row b read through row a.
    The O(n^3) oracle for FiniteGroup, which runs Light's test."""
    t = tuple(tuple(row) for row in table)
    for ta in t:
        through_a = ta.__getitem__
        for ab, tb in zip(ta, t):
            if t[ab] != tuple(map(through_a, tb)):
                return False
    return True


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
        self.cycles = CyclePresentation(n_q, d_q, PresentedGroup(d_q.nrows), d_next)
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


def units(field):
    return tuple(a for a in field.elements() if not a.is_zero())


def encode(field, key):
    """A key of FieldElements, nested in tuples, with each element replaced
    by its code field.index(element)."""
    if isinstance(key, tuple):
        return tuple(encode(field, v) for v in key)
    return field.index(key)


def pgl2_canonical(m):
    """Scale a nonzero 2x2 matrix of FieldElements so its first nonzero entry is 1."""
    lead = next(v for v in m if not v.is_zero())
    inv = lead.inverse()
    return tuple(v * inv for v in m)


def scalar_subgroup_indices(tri):
    """Indices of the scalar matrices (l, l, 0) inside a triangular group,
    keyed by codes or by FieldElements."""
    return [i for i, (p, s, v) in enumerate(tri.elements) if p == s and all(x == 0 for x in v)]


def quotient_by_scalars(tri, field, n):
    """(quotient, projection) of a triangular group by its scalars, named as
    the depth-n cusp group: the route groups.cusp_group takes in closed form."""
    return quotient_by_central(tri, scalar_subgroup_indices(tri), cusp_group_size(field, n)[0])


@lru_cache(maxsize=None)
def triangular_group(field, n):
    """Tri(k, n) on element codes: matrices [[p, q], [0, s]] with units p,
    s and q an n-vector entry, the oracle behind groups.diagonal_reduction
    and groups.cusp_group.

    Multiplication follows the 2x2 pattern with the vector slot acted on
    coordinatewise: (p1,s1,q1)(p2,s2,q2) = (p1p2, s1s2, p1*q2 + q1*s2).
    For n = 0 this is the diagonal torus, a product of two unit groups.
    """
    add, mul, _ = _code_tables(field)
    units = range(1, field.order)
    vectors = list(product(range(field.order), repeat=n))
    els = [(p, s, q) for p in units for s in units for q in vectors]

    def tri_mul(x, y):
        p1, s1, q1 = x
        p2, s2, q2 = y
        row = mul[p1]
        return row[p2], mul[s1][s2], tuple(add[row[b]][mul[a][s2]] for a, b in zip(q1, q2))

    return group_from_elements(els, tri_mul, name=triangular_size(field, n)[0])


@lru_cache(maxsize=None)
def diagonal_to_triangular(field, n):
    """The diagonal torus (p, s) included into the triangular group; the
    isomorphism answers of its induced maps are the oracle for
    groups.diagonal_reduction."""
    return hom_from_function(
        triangular_group(field, 0), triangular_group(field, n), lambda x: (x[0], x[1], (0,) * n)
    )


@lru_cache(maxsize=None)
def cusp_by_quotient(field, n):
    """(quotient, projection) of the coded triangular group by its scalars,
    the oracle for groups.cusp_group; the projection is the hom from
    triangular_group(field, n) onto it."""
    return quotient_by_scalars(triangular_group(field, n), field, n)


# Stabilizer tables built on FieldElement arithmetic, the oracles for the
# int-coded constructors in elltree.groups: same names, the same elements
# in the same order (once encoded), so the groups must come out equal
# table for table.  Cached, as the package's constructors are, since
# several tests share them.


@lru_cache(maxsize=None)
def unit_group_by_elements(field):
    return group_from_elements(units(field), lambda a, b: a * b, name=unit_group_size(field)[0])


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
    nonzero = units(field)
    vectors = list(product(field.elements(), repeat=n))
    els = [(p, s, q) for p in nonzero for s in nonzero for q in vectors]

    def mul(x, y):
        p1, s1, q1 = x
        p2, s2, q2 = y
        return (p1 * p2, s1 * s2, tuple(p1 * b + a * s2 for a, b in zip(q1, q2)))

    return group_from_elements(els, mul, name=triangular_size(field, n)[0])


def case_lines(summary, case):
    """The line classes of one case, in summary order."""
    return tuple(lc for lc in summary.lines if lc.case == case)


def total_points(summary):
    """Rational point count, from the point labels the lines carry."""
    return sum(len(lc.points) for lc in summary.lines)


def classify_payload_by_dicts(curve, summary):
    """The classify report as dicts and lists: one dict per line row.

    json.dumps(..., sort_keys=True, indent=2) of it, plus a newline, is
    the oracle for the bytes the CLI writes from line classes.
    """
    n1, n2, n3 = (len(case_lines(summary, case)) for case in (1, 2, 3))
    rows = [{"line": line, "case": case, "points": list(points)} for line, case, points in summary.lines]
    return {
        "mode": "classify",
        "curve": curve.to_json(),
        "field": curve.field.to_json(),
        "classification": {
            "lines": rows,
            "counts": {"case1": n1, "case2": n2, "case3": n3, "points": n2 + 2 * n3},
        },
        "cusp_count": n2 + 2 * n3,
    }


def curve_from_json(field, data):
    return WeierstrassCurve(field, data["a1"], data["a2"], data["a3"], data["a4"], data["a6"])


def negate(curve, point):
    """The inverse of a point in the group law: (x, -y - a1 x - a3)."""
    if point.is_infinity:
        return point
    return CurvePoint(point.x, -point.y - curve.a1 * point.x - curve.a3)


def is_two_torsion(curve, point):
    return negate(curve, point) == point


def equation_value(curve, x, y):
    """y^2 + a1*x*y + a3*y - x^3 - a2*x^2 - a4*x - a6; zero on the curve."""
    x, y = curve.field(x), curve.field(y)
    return (
        y * y + curve.a1 * x * y + curve.a3 * y
        - x ** 3 - curve.a2 * x * x - curve.a4 * x - curve.a6
    )


def contains(curve, point):
    """Whether a point lies on the curve; infinity always does."""
    return point.is_infinity or equation_value(curve, point.x, point.y).is_zero()


def cusp_count(summary):
    """Cusps of the tree: one per case-2 line, two per case-3 line."""
    _, n2, n3 = summary.case_counts()
    return n2 + 2 * n3


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


def assemble_uncontracted(tree, provider):
    """The boundary of a provider's system with nothing contracted: every
    vertex and edge group, the boundary of an edge being its map toward
    the head minus its map toward the tail.  The oracle for
    coefficients.assemble_system, which eliminates the identity edges."""
    vertex_groups = [provider.vertex_group(v.vid) for v in tree.vertices]
    offset = [0]
    for group in vertex_groups:
        offset.append(offset[-1] + group.gens)
    edge_groups, cols = [], []
    for e in tree.edges:
        group, to_tail, to_head = provider.edge_data(e.eid)
        edge_groups.append(group)
        for head_col, tail_col in zip(to_head.matrix.cols, to_tail.matrix.cols):
            col = {offset[e.head] + i: v for i, v in head_col.items()}
            col.update((offset[e.tail] + i, -v) for i, v in tail_col.items())
            cols.append(col)
    c0 = PresentedGroup.direct_sum(vertex_groups)
    c1 = PresentedGroup.direct_sum(edge_groups)
    return AbHom(c1, c0, IntMatrix.from_sparse_cols(cols, c0.gens))


def degree_zero_row(tree):
    """Row 0 of E2 on a whole tree: H_0 of every stabilizer, Z, with identity maps."""
    provider = TokenProvider(tree, degree_zero_tokens(tree), BATTERY_A)
    return e2_pair(assemble_system(tree, provider))


# The lattice route behind the stabilizer seam, deep cusp groups included:
# the oracle for groups.unipotent_rank's route.  use_lattice_seam patches
# it into the names coefficients binds, so a provider resolves every group.


def lattice_stabilizer_homology(field, key, q, limits=DEFAULT_LIMITS):
    if key is None:
        return PresentedGroup(0)
    return homology_presentation(stabilizer(field, key), q, limits)


def lattice_stabilizer_map(field, source, target, q, limits=DEFAULT_LIMITS):
    """Each map induced by stabilizer_inclusion, the cusp ray's by
    cusp_chain_inclusion; equal keys map by the one identity."""
    if source is None:
        return AbHom.zero(PresentedGroup(0), lattice_stabilizer_homology(field, target, q, limits))
    if source == target:
        return AbHom.identity(lattice_stabilizer_homology(field, source, q, limits))
    return induced_map(stabilizer_inclusion(field, source, target), q, limits)


def use_lattice_seam(monkeypatch):
    monkeypatch.setattr(coefficients, "stabilizer_homology", lattice_stabilizer_homology)
    monkeypatch.setattr(coefficients, "stabilizer_map", lattice_stabilizer_map)
