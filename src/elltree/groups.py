"""Finite groups by multiplication table, and their integral homology.

Groups are small enough here to store complete tables: group axioms are
verified exhaustively at construction (associativity up to a configurable
ceiling), and homomorphisms are verified to be multiplicative when built.

Homology is computed from the normalized inhomogeneous bar complex: chains
in degree q are spanned by q-tuples of non-identity elements, tuples that
acquire an identity entry under face maps are dropped, and the resulting
free complex is reduced with the exact integer machinery from the abelian
module.  Each H_q(G; Z) is built once, as a Smith-reduced presentation
with its cycle basis (_bar_data), and bar_homology, homology_presentation
and induced_map all read that one build.  Ceilings keep group order and
degree bounded, and the tuple count bounds what the chain-level entry
points may ask for.

Every stabilizer constructor has a closed form beside it, *_size(...) ->
(name, order), which builds nothing; the constructor takes its name from
it.  check_ceilings is the one ceiling test on (name, order, degree):
callers size a run from the closed forms and refuse before any table is
built, and the homology routines apply it again to the groups they get.

The stabilizers over a field build their tables on element codes, code i
standing for field.elements()[i], through q x q add and mul tables; each
group still publishes field elements (or tuples of them) as its keys.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .abelian import (
    CyclePresentation,
    FgAbGroup,
    IntMatrix,
    PresentedGroup,
    AbHom,
    TRIVIAL_GROUP,
)
from .errors import TooLargeError
from .field import coded_field, make_field, quadratic_extension


# The highest homology degree computed for any group, whatever its BarLimits.
MAX_DEGREE = 3


@dataclass(frozen=True)
class BarLimits:
    """Size ceilings for homology computations.

    max_order and MAX_DEGREE bound every homology computation;
    dense_columns bounds the tuple count (|G|-1)^(q+1) only for
    homology_presentation and induced_map.
    """

    max_order: int = 24
    dense_columns: int = 600


DEFAULT_LIMITS = BarLimits()

# What needs the chain data that dense_columns bounds, as check_ceilings
# names it in a refusal.
PRESENTATION = "homology presentation"
CHAIN_DATA = "induced map chain data"


def _tuple_count(order, q):
    """Normalized bar generators in degree q of a group of this order."""
    return max(order - 1, 1) ** q if order > 1 else (1 if q == 0 else 0)


def check_ceilings(name, order, q, limits, dense=None):
    """Refuse degree-q homology of a group of this name and order.

    max_order is checked first, then MAX_DEGREE; with dense set to what
    needs the chain data (PRESENTATION or CHAIN_DATA), also the tuple
    count (|G|-1)^(q+1) against dense_columns.

    >>> check_ceilings("PGL2(GF(5))", 120, 1, DEFAULT_LIMITS)
    Traceback (most recent call last):
    ...
    elltree.errors.TooLargeError: bar homology of PGL2(GF(5)): size 120 exceeds ceiling 24
    """
    if order > limits.max_order:
        raise TooLargeError(f"bar homology of {name}", order, limits.max_order)
    if q > MAX_DEGREE:
        raise TooLargeError(f"homology degree for {name}", q, MAX_DEGREE)
    count = _tuple_count(order, q + 1)
    if dense is not None and count > limits.dense_columns:
        raise TooLargeError(f"{dense} for {name}", count, limits.dense_columns)


class FiniteGroup:
    """Group given by its multiplication table over indexed elements.

    elements are arbitrary hashable keys (field elements, matrices as
    tuples, coset representatives); the table works on indices.  Equality
    and hashing use only the table and identity, so structurally identical
    groups share cached homology.
    """

    def __init__(self, elements, table, name="", assoc_ceiling=64):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        self.order = len(self.elements)
        self.table = tuple(tuple(row) for row in table)
        self.name = name or f"group({self.order})"
        if len(self.table) != self.order or any(len(r) != self.order for r in self.table):
            raise ValueError("table shape mismatch")
        ident = [
            i
            for i in range(self.order)
            if all(self.table[i][j] == j and self.table[j][i] == j for j in range(self.order))
        ]
        if len(ident) != 1:
            raise ValueError("group must have exactly one identity")
        self.identity = ident[0]
        e = self.identity
        self.inverses = []
        for i, row in enumerate(self.table):
            if row.count(e) != 1 or self.table[row.index(e)][i] != e:
                raise ValueError(f"element {i} has no two-sided inverse")
            self.inverses.append(row.index(e))
        self.inverses = tuple(self.inverses)
        if self.order <= assoc_ceiling:
            # row ab of the table must be row b read through row a
            t = self.table
            for ta in t:
                through_a = ta.__getitem__
                for ab, tb in zip(ta, t):
                    if t[ab] != tuple(map(through_a, tb)):
                        raise ValueError("multiplication is not associative")

    def mul(self, i, j):
        return self.table[i][j]

    def is_abelian(self):
        t = self.table
        return all(t[i][j] == t[j][i] for i in range(self.order) for j in range(self.order))

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table == other.table and self.identity == other.identity

    def __hash__(self):
        return hash((self.table, self.identity))

    def __repr__(self):
        return f"{self.name}[order {self.order}]"


def group_from_elements(elements, mul, name="", assoc_ceiling=64, key=None):
    """Build a FiniteGroup from elements and a multiplication function.

    The table is built on the elements as given; with key set, the group
    publishes key(e) in place of each element e.
    """
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    table = []
    for a in elements:
        row = [index.get(mul(a, b)) for b in elements]
        if None in row:
            c = mul(a, elements[row.index(None)])
            raise ValueError(f"product {c!r} escapes the element set")
        table.append(row)
    keys = elements if key is None else map(key, elements)
    return FiniteGroup(keys, table, name=name, assoc_ceiling=assoc_ceiling)


class GroupHom:
    """Homomorphism as an index mapping, verified multiplicative."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)
        if len(self.mapping) != source.order:
            raise ValueError("mapping length mismatch")
        if self.mapping[source.identity] != target.identity:
            raise ValueError("identity is not preserved")
        for a in range(source.order):
            for b in range(source.order):
                if self.mapping[source.table[a][b]] != target.table[self.mapping[a]][self.mapping[b]]:
                    raise ValueError("mapping is not multiplicative")

    def __call__(self, i):
        return self.mapping[i]


def hom_from_function(source, target, fn):
    """Hom from a function on element keys."""
    return GroupHom(source, target, [target.index[fn(e)] for e in source.elements])


# ---------------------------------------------------------------------------
# constructors


def cyclic_size(n):
    return f"C{n}", n


def cyclic(n):
    return group_from_elements(range(n), lambda a, b: (a + b) % n, name=cyclic_size(n)[0])


@lru_cache(maxsize=None)
def _code_tables(field):
    """(add, mul, inverse) on element codes, from coded_field's arithmetic.

    Code i stands for field.elements()[i], so code 0 is zero and codes
    sort as the elements do: a table built on codes lists its elements in
    the order of one built on field elements.  add and mul are q x q
    tuples, cached and shared; inverse[0] is None.
    """
    arith = coded_field(field)
    codes = range(field.order)
    add = tuple(tuple(arith.add(a, b) for b in codes) for a in codes)
    mul = tuple(tuple(arith.mul(a, b) for b in codes) for a in codes)
    inverse = (None,) + tuple(row.index(arith.one) for row in mul[1:])
    return add, mul, inverse


def unit_group_size(field):
    return f"{field!r}^*", field.order - 1


@lru_cache(maxsize=None)
def unit_group(field):
    mul = _code_tables(field)[1]
    return group_from_elements(
        range(1, field.order), lambda a, b: mul[a][b],
        name=unit_group_size(field)[0], key=field.elements().__getitem__,
    )


def additive_group_size(field):
    return f"{field!r}+", field.order


@lru_cache(maxsize=None)
def additive_group(field):
    add = _code_tables(field)[0]
    return group_from_elements(
        range(field.order), lambda a, b: add[a][b],
        name=additive_group_size(field)[0], key=field.elements().__getitem__,
    )


def pgl2_canonical(m):
    """Scale a nonzero 2x2 matrix so its first nonzero entry is 1."""
    lead = next(v for v in m if not v.is_zero())
    inv = lead.inverse()
    return tuple(v * inv for v in m)


def pgl2_size(field):
    q = field.order
    return f"PGL2({field!r})", q * (q * q - 1)


@lru_cache(maxsize=None)
def pgl2(field):
    """GL2 modulo scalars; elements are the scaled canonical representatives.

    The table is built on 4-tuples of codes whose first nonzero entry is
    the code of 1 (a or b, as the top row of an invertible matrix is not
    zero); the group publishes the same tuples of field elements.
    """
    add, mul, inverse = _code_tables(field)
    one = field.index(field.one)
    els = [
        m for m in product(range(field.order), repeat=4)
        if (m[0] or m[1]) == one and mul[m[0]][m[3]] != mul[m[1]][m[2]]
    ]

    def mat_mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        ra, rb, rc, rd = mul[a], mul[b], mul[c], mul[d]
        r0, r1 = add[ra[e]][rb[g]], add[ra[f]][rb[h]]
        r2, r3 = add[rc[e]][rd[g]], add[rc[f]][rd[h]]
        scale = mul[inverse[r0 or r1]]
        return scale[r0], scale[r1], scale[r2], scale[r3]

    decode = field.elements().__getitem__
    return group_from_elements(
        els, mat_mul, name=pgl2_size(field)[0], key=lambda m: tuple(map(decode, m))
    )


def triangular_size(field, n):
    q = field.order
    return f"Tri({field!r},{n})", (q - 1) ** 2 * q ** n


@lru_cache(maxsize=None)
def triangular_group(field, n):
    """Matrices [[p, q], [0, s]] with units p, s and q an n-vector entry.

    Multiplication follows the 2x2 pattern with the vector slot acted on
    coordinatewise: (p1,s1,q1)(p2,s2,q2) = (p1p2, s1s2, p1*q2 + q1*s2).
    For n = 0 this is the diagonal torus, a product of two unit groups.
    The table is built on codes; the group publishes field elements.
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

    decode = field.elements().__getitem__
    return group_from_elements(
        els, tri_mul, name=triangular_size(field, n)[0],
        key=lambda x: (decode(x[0]), decode(x[1]), tuple(map(decode, x[2]))),
    )


def scalar_subgroup_indices(tri):
    """Indices of the scalar matrices (l, l, 0) inside a triangular group."""
    out = []
    for i, (p, s, q) in enumerate(tri.elements):
        if p == s and all(v.is_zero() for v in q):
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# subgroups and quotients


def subgroup_closure(group, generator_indices):
    """Sorted indices of the subgroup generated by the given elements."""
    gens = set(generator_indices)
    gens |= {group.inverses[g] for g in gens}
    members = {group.identity} | gens
    frontier = list(members)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = group.table[a][g]
                if b not in members:
                    members.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(members)


def commutator_subgroup(group):
    comms = {
        group.table[group.table[a][b]][group.table[group.inverses[a]][group.inverses[b]]]
        for a in range(group.order)
        for b in range(group.order)
    }
    return subgroup_closure(group, comms)


def quotient_by_normal(group, subgroup_indices, name=None):
    """(quotient group, projection hom) for a normal subgroup.

    Coset representatives are the least member of each coset, so the
    construction is deterministic.  The quotient is named G/N|N| unless
    a name is given.
    """
    sub = set(subgroup_indices)
    if group.identity not in sub:
        raise ValueError("subgroup must contain the identity")
    for a in sub:
        for b in sub:
            if group.table[a][b] not in sub:
                raise ValueError("subset is not closed under multiplication")
    for g in range(group.order):
        gi = group.inverses[g]
        for n in sub:
            if group.table[group.table[g][n]][gi] not in sub:
                raise ValueError("subgroup is not normal")
    coset_of = {}
    reps = []
    for g in range(group.order):
        if g in coset_of:
            continue
        members = {group.table[g][n] for n in sub}
        for m in members:
            coset_of[m] = len(reps)
        reps.append(g)
    table = [
        [coset_of[group.table[a][b]] for b in reps]
        for a in reps
    ]
    quotient = FiniteGroup([group.elements[r] for r in reps], table,
                           name=name or f"{group.name}/N{len(sub)}")
    proj = GroupHom(group, quotient, [coset_of[g] for g in range(group.order)])
    return quotient, proj


def quotient_by_central(group, subgroup_indices, name=None):
    """Quotient by a subgroup required to be central."""
    for n in subgroup_indices:
        for g in range(group.order):
            if group.table[n][g] != group.table[g][n]:
                raise ValueError("subgroup is not central")
    return quotient_by_normal(group, subgroup_indices, name)


# ---------------------------------------------------------------------------
# bar homology


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
    """Homology of a group in one degree, with chain-level access.

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
def _bar_data(group, q):
    return BarHomology(group, q)


def bar_homology(group, q, limits=DEFAULT_LIMITS):
    """H_q(G; Z) from the normalized bar complex.

    Only max_order and MAX_DEGREE apply; degree q >= 1 reads the same
    cached presentation that homology_presentation returns.

    >>> bar_homology(cyclic(4), 1)
    Z/4
    >>> bar_homology(cyclic(4), 0)
    Z
    >>> bar_homology(cyclic(8), 3)
    Z/8
    """
    if q < 0:
        return TRIVIAL_GROUP
    if q == 0:
        return FgAbGroup(1, ())
    check_ceilings(group.name, group.order, q, limits)
    return _bar_data(group, q).canonical()


def induced_map(hom, q, limits=DEFAULT_LIMITS):
    """The map on degree-q homology induced by a group homomorphism.

    Needs the chain-level data on both sides, so both groups must be within
    the dense ceiling.  Entrywise application of the hom is a chain map of
    normalized bar complexes (tuples hitting the identity are dropped).
    """
    for g in (hom.source, hom.target):
        check_ceilings(g.name, g.order, q, limits, CHAIN_DATA)
    src = _bar_data(hom.source, q)
    tgt = _bar_data(hom.target, q)
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


def homology_presentation(group, q, limits=DEFAULT_LIMITS):
    """The presented homology group in degree q, within dense_columns."""
    check_ceilings(group.name, group.order, q, limits, PRESENTATION)
    return _bar_data(group, q).presented


def abelianization(group):
    """G/[G,G] as a canonical abelian group.

    The commutator subgroup is enumerated and closed off, the quotient
    group is formed, and its multiplication table is flattened into the
    relation lattice x_a + x_b - x_ab over the non-identity elements.
    """
    comm = commutator_subgroup(group)
    quotient, _ = quotient_by_normal(group, comm)
    nonid = [i for i in range(quotient.order) if i != quotient.identity]
    pos = {g: i for i, g in enumerate(nonid)}
    cols = []
    e = quotient.identity
    for a in nonid:
        for b in nonid:
            col = {}

            def add(g, c):
                if g == e:
                    return
                v = col.get(pos[g], 0) + c
                if v:
                    col[pos[g]] = v
                else:
                    col.pop(pos[g], None)

            add(a, 1)
            add(b, 1)
            add(quotient.table[a][b], -1)
            cols.append(col)
    return PresentedGroup(len(nonid), IntMatrix.from_sparse_cols(cols, len(nonid))).canonical()


# ---------------------------------------------------------------------------
# stabilizer-flavored constructions tied to a field


def cusp_group_size(field, n):
    q = field.order
    return f"{triangular_size(field, n)[0]}/N{q - 1}", (q - 1) * q ** n


@lru_cache(maxsize=None)
def cusp_group(field, n):
    """(quotient, projection, triangular parent) of the depth-n cusp group.

    The parent is the triangular group with an n-vector slot; the quotient
    removes the central scalars, which is the stabilizer seen by the
    projective action.
    """
    tri = triangular_group(field, n)
    quotient, proj = quotient_by_central(
        tri, scalar_subgroup_indices(tri), cusp_group_size(field, n)[0]
    )
    return quotient, proj, tri


@lru_cache(maxsize=None)
def cusp_chain_inclusion(field, n):
    """Depth-n cusp group into depth-(n+1), padding the vector with a zero."""
    q_n, proj_n, tri_n = cusp_group(field, n)
    q_next, proj_next, tri_next = cusp_group(field, n + 1)

    def fn(key):
        p, s, vec = key
        padded = tri_next.index[(p, s, vec + (field.zero,))]
        return q_next.elements[proj_next.mapping[padded]]

    return hom_from_function(q_n, q_next, fn)


@lru_cache(maxsize=None)
def additive_to_cusp(field):
    """k into the depth-1 cusp group as the unipotent part (1, 1, (u,))."""
    add = additive_group(field)
    q1, proj, tri = cusp_group(field, 1)

    def fn(u):
        return q1.elements[proj.mapping[tri.index[(field.one, field.one, (u,))]]]

    return hom_from_function(add, q1, fn)


@lru_cache(maxsize=None)
def units_to_cusp(field):
    """k^* into the depth-1 cusp group as (l, 1, (0,))."""
    units = unit_group(field)
    q1, proj, tri = cusp_group(field, 1)

    def fn(u):
        return q1.elements[proj.mapping[tri.index[(u, field.one, (field.zero,))]]]

    return hom_from_function(units, q1, fn)


@lru_cache(maxsize=None)
def cusp_to_pgl2(field):
    """Depth-1 cusp group onto the upper-triangular subgroup of PGL2."""
    q1, proj, tri = cusp_group(field, 1)
    target = pgl2(field)

    def fn(key):
        p, s, (u,) = key
        return pgl2_canonical((p, u, field.zero, s))

    return hom_from_function(q1, target, fn)


def quad_units_size(field):
    """Builds only the extension field, which refuses as quad_units_group does."""
    q = field.order
    ext = make_field(field.p, 2 * field.k)
    return f"{unit_group_size(ext)[0]}/N{q - 1}", q + 1


@lru_cache(maxsize=None)
def quad_units_group(field):
    """Units of the quadratic extension modulo the embedded base units."""
    ext, emb = quadratic_extension(field)
    big = unit_group(ext)
    embedded = sorted(big.index[emb(u)] for u in field.units())
    return quotient_by_central(big, embedded, quad_units_size(field)[0])


@lru_cache(maxsize=None)
def diagonal_to_triangular(field, n):
    """The diagonal torus (p, s) included into the triangular group."""
    torus = triangular_group(field, 0)
    tri = triangular_group(field, n)
    zero_vec = (field.zero,) * n

    def fn(key):
        p, s, _ = key
        return (p, s, zero_vec)

    return hom_from_function(torus, tri, fn)


# ---------------------------------------------------------------------------
# the tree's stabilizers by key: (kind, *arguments after the field)


# kind -> (constructor, closed form).  Constructors are looked up when
# called so that rebinding a module-level name (as perfbench/traced.py
# does) reaches them.
_STABILIZERS = {
    "pgl2": (lambda field: pgl2(field), pgl2_size),
    "units": (lambda field: unit_group(field), unit_group_size),
    "quad_units": (lambda field: quad_units_group(field)[0], quad_units_size),
    "additive": (lambda field: additive_group(field), additive_group_size),
    "cusp": (lambda field, n: cusp_group(field, n)[0], cusp_group_size),
}

# (source kind, target kind) -> the inclusion along a tree edge, called
# with the field and the source key
_INCLUSIONS = {
    ("additive", "cusp"): lambda field, source: additive_to_cusp(field),
    ("units", "cusp"): lambda field, source: units_to_cusp(field),
    ("cusp", "cusp"): lambda field, source: cusp_chain_inclusion(field, source[1]),
    ("cusp", "pgl2"): lambda field, source: cusp_to_pgl2(field),
}


def stabilizer(field, key):
    """The group a key names, such as ("pgl2",) or ("cusp", 2)."""
    return _STABILIZERS[key[0]][0](field, *key[1:])


def stabilizer_size(field, key):
    """(name, order) of stabilizer(field, key), in closed form."""
    return _STABILIZERS[key[0]][1](field, *key[1:])


def stabilizer_inclusion(field, source, target):
    """The hom from one stabilizer into another along a tree edge.

    The identity when the keys are equal; otherwise the inclusion of k or
    k^* as a depth-1 cusp group, of one cusp group into the next deeper
    one, or of the depth-1 cusp group into PGL2.
    """
    if source == target:
        group = stabilizer(field, source)
        return GroupHom(group, group, range(group.order))
    return _INCLUSIONS[source[0], target[0]](field, source)
