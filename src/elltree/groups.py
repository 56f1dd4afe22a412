"""Finite groups by multiplication table, and their integral homology.

Groups are small enough here to store complete tables: group axioms are
verified at construction (associativity by Light's test up to order 64),
and homomorphisms are verified to be multiplicative when built.

Homology is computed from a free ZG-resolution of each group, built by
the lattice method in the resolution module and extended on demand up to
degree q + 1; induced maps come from lifting a hom to a chain map of
resolutions.  Each H_q(G; Z) is built once, as a Smith-reduced
presentation with its cycle basis (_bar_data), and bar_homology,
homology_presentation and induced_map all read that one build.  Ceilings
keep group order bounded, and the tuple count of the normalized bar
complex, (|G|-1)^(q+1), bounds the chain-level entry points and so every
degree: BarLimits (presets DEFAULT_LIMITS, LARGE_LIMITS) sizes runs by
bar-tuple counts until the ceilings are re-derived from resolution sizes.

Every stabilizer constructor has a closed form beside it, *_size(...) ->
(name, order), which builds nothing; the constructor takes its name from
it.  check_ceilings is the one ceiling test on (name, order, degree).
Other modules name a stabilizer by key, ("cusp", 2) or None for the
trivial group, and ask stabilizer_homology and stabilizer_map, which
refuse from the key's closed form (size_check) before building a table.
No cusp group deeper than 1 is built: its H_q is depth 1's plus
(Z/p)^(d_n - d_1), d_n = unipotent_rank (a count of torus weights), and
the cusp ray maps by coordinate inclusions; the lattice route is the
tests' oracle.  diagonal_reduction answers whether the torus into
Tri(k, n) is an isomorphism on H_q from the same count.

The stabilizers over a field are built on element codes alone, code i
standing for field.elements()[i], through q x q add, mul and inverse
tables: each group publishes codes (or tuples of them) as its keys, each
cusp group is built in closed form on one representative per coset, and
each inclusion is a map of codes.  No FieldElement arithmetic is done.
"""

from functools import lru_cache
from itertools import product

from .abelian import (
    FgAbGroup,
    IntMatrix,
    PresentedGroup,
    AbHom,
    TRIVIAL_GROUP,
)
from .errors import TooLargeError
from .field import coded_field, make_field
from .value import Value


# Tables of at most this order are checked for associativity.
ASSOC_CEILING = 64


class BarLimits(Value):
    """Size ceilings for homology computations.

    max_order bounds every homology computation; dense_columns bounds
    the bar-complex tuple count (|G|-1)^(q+1), and so the degree, only
    for homology_presentation and induced_map.  Homology no longer builds
    the bar complex, but runs are still sized by these counts.
    """

    __slots__ = ("max_order", "dense_columns")

    def __init__(self, max_order=24, dense_columns=600):
        super().__init__(max_order, dense_columns)


DEFAULT_LIMITS = BarLimits()
LARGE_LIMITS = BarLimits(max_order=360, dense_columns=9000)

# What needs the chain data that dense_columns bounds, as check_ceilings
# names it in a refusal.
PRESENTATION = "homology presentation"
CHAIN_DATA = "induced map chain data"


def _tuple_count(order, q):
    """Normalized bar generators in degree q of a group of this order."""
    return max(order - 1, 1) ** q if order > 1 else (1 if q == 0 else 0)


def check_ceilings(name, order, q, limits, dense=None):
    """Refuse degree-q homology of a group of this name and order.

    max_order is checked first; with dense set to what needs the chain
    data (PRESENTATION or CHAIN_DATA), also the tuple count
    (|G|-1)^(q+1) against dense_columns, which grows exponentially in q.
    """
    if order > limits.max_order:
        raise TooLargeError(f"bar homology of {name}", order, limits.max_order)
    count = _tuple_count(order, q + 1)
    if dense is not None and count > limits.dense_columns:
        raise TooLargeError(f"{dense} for {name}", count, limits.dense_columns)


class FiniteGroup:
    """Group given by its multiplication table over indexed elements.

    elements are arbitrary hashable keys (element codes, matrices as
    tuples of codes, coset representatives); the table works on indices.
    Equality and hashing use only the table and identity, so structurally
    identical groups share cached homology.
    """

    def __init__(self, elements, table, name=""):
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
        if self.order <= ASSOC_CEILING:
            # Light's test: the g with (xg)y = x(gy) for all x, y (row xg is
            # row g read through row x) are closed under products, so it
            # suffices to test a greedy set that generates by right products
            t, reached, gens = self.table, {e}, []
            for g in range(self.order):
                if g in reached:
                    continue
                if any(t[tx[g]] != tuple(map(tx.__getitem__, t[g])) for tx in t):
                    raise ValueError("multiplication is not associative")
                gens.append(g)
                frontier = set(reached)
                while frontier:
                    frontier = {t[x][s] for x in frontier for s in gens} - reached
                    reached |= frontier

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.table == other.table and self.identity == other.identity

    def __hash__(self):
        return hash((self.table, self.identity))

    def __repr__(self):
        return f"{self.name}[order {self.order}]"


def group_from_elements(elements, mul, name=""):
    """Build a FiniteGroup from elements and a multiplication function."""
    elements = list(elements)
    index = {e: i for i, e in enumerate(elements)}
    table = []
    for a in elements:
        row = [index.get(mul(a, b)) for b in elements]
        if None in row:
            c = mul(a, elements[row.index(None)])
            raise ValueError(f"product {c!r} escapes the element set")
        table.append(row)
    return FiniteGroup(elements, table, name=name)


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

    Code i stands for field.elements()[i], so code 0 is zero, code 1 is
    the least unit and codes sort as the elements do.  add and mul are
    q x q tuples, cached and shared; inverse[0] is None.
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
        range(1, field.order), lambda a, b: mul[a][b], name=unit_group_size(field)[0]
    )


def additive_group_size(field):
    return f"{field!r}+", field.order


@lru_cache(maxsize=None)
def additive_group(field):
    add = _code_tables(field)[0]
    return group_from_elements(
        range(field.order), lambda a, b: add[a][b], name=additive_group_size(field)[0]
    )


def pgl2_size(field):
    q = field.order
    return f"PGL2({field!r})", q * (q * q - 1)


@lru_cache(maxsize=None)
def pgl2(field):
    """GL2 modulo scalars; elements are the scaled canonical representatives.

    The elements are 4-tuples of codes whose first nonzero entry is the
    code of 1 (a or b, as the top row of an invertible matrix is not
    zero).
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

    return group_from_elements(els, mat_mul, name=pgl2_size(field)[0])


def triangular_size(field, n):
    """The triangular group Tri(k, n) of matrices [[a, v], [0, d]], units
    a, d and v in k^n, in closed form only: no table of it is built.  It
    names the cusp groups, and diagonal_reduction checks its ceilings."""
    q = field.order
    return f"Tri({field!r},{n})", (q - 1) ** 2 * q ** n


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
# group homology


@lru_cache(maxsize=None)
def _bar_data(group, q):
    """H_q(G; Z) as a CyclePresentation, from the group's cached free
    ZG-resolution; bar_homology, homology_presentation and induced_map all
    read this one build.  The name stays for perfbench/traced.py, which
    hooks it."""
    # imported here, so that modes which compute no group homology never load it
    from .resolution import resolution

    return resolution(group).homology(q)


def bar_homology(group, q, limits=DEFAULT_LIMITS):
    """H_q(G; Z), from a free ZG-resolution.

    Only max_order applies (no degree is refused); degree q >= 1 reads
    the same cached presentation that homology_presentation returns.

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
    return _bar_data(group, q).presented.canonical()


def induced_map(hom, q, limits=DEFAULT_LIMITS):
    """The map on degree-q homology induced by a group homomorphism.

    Both groups must be within the dense ceiling.  The hom lifts to a
    chain map of the two resolutions (resolution.ChainMap); each source
    class is lifted to a cycle, pushed through Z (x) phi_q and read in the
    target's class coordinates.
    """
    from .resolution import chain_map

    for g in (hom.source, hom.target):
        check_ceilings(g.name, g.order, q, limits, CHAIN_DATA)
    src = _bar_data(hom.source, q)
    tgt = _bar_data(hom.target, q)
    phi = chain_map(hom).tensored(q)
    cols = [tgt.coords_of_cycle(phi.matvec(src.cycle_of_generator(i)))
            for i in range(src.presented.gens)]
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
    """The depth-n cusp group, the triangular group modulo its central
    scalars: the stabilizer seen by the projective action.

    Each coset of scalars has one member (c, s, v) whose first entry is
    c, the unit of code 1, so (c, s1, v1)(c, s2, v2) = (c, s1*s2/c,
    v2 + v1*s2/c).  Code 1 is the least unit, so that member is the
    coset's first when Tri(k, n) lists its (a, d, v) in code order.
    """
    add, mul, inverse = _code_tables(field)
    over_c = mul[inverse[1]]
    vectors = list(product(range(field.order), repeat=n))
    els = [(1, s, v) for s in range(1, field.order) for v in vectors]

    def cusp_mul(x, y):
        _, s1, v1 = x
        _, s2, v2 = y
        w = mul[over_c[s2]]  # times s2/c
        return 1, w[s1], tuple(add[b][w[a]] for a, b in zip(v1, v2))

    return group_from_elements(els, cusp_mul, name=cusp_group_size(field, n)[0])


# The inclusions map keys to keys.  A cusp group key (1, s, v) is the
# coset of [[c, v], [0, s]] with c the unit of code 1, which is the
# field's one only when k = 1; each image is scaled to its representative.


@lru_cache(maxsize=None)
def cusp_chain_inclusion(field, n):
    """Depth-n cusp group into depth-(n+1), padding the vector with a zero.
    The run path no longer calls it (stabilizer_map reads the cusp ray
    from unipotent_rank); it is the lattice oracle of that route."""
    return hom_from_function(
        cusp_group(field, n), cusp_group(field, n + 1), lambda x: (1, x[1], x[2] + (0,))
    )


@lru_cache(maxsize=None)
def additive_to_cusp(field):
    """k into the depth-1 cusp group as [[1, u], [0, 1]], or (c, c, (cu,))."""
    times_c = _code_tables(field)[1][1]
    return hom_from_function(
        additive_group(field), cusp_group(field, 1), lambda u: (1, 1, (times_c[u],))
    )


@lru_cache(maxsize=None)
def units_to_cusp(field):
    """k^* into the depth-1 cusp group as [[l, 0], [0, 1]], or (c, c/l, (0,))."""
    _, mul, inverse = _code_tables(field)
    return hom_from_function(
        unit_group(field), cusp_group(field, 1), lambda l: (1, mul[1][inverse[l]], (0,))
    )


@lru_cache(maxsize=None)
def cusp_to_pgl2(field):
    """Depth-1 cusp group onto the upper-triangular subgroup of PGL2."""
    _, mul, inverse = _code_tables(field)
    over_c, one = mul[inverse[1]], field.index(field.one)
    return hom_from_function(
        cusp_group(field, 1), pgl2(field), lambda x: (one, over_c[x[2][0]], 0, over_c[x[1]])
    )


def quad_units_size(field):
    """Builds only the extension field, which refuses as quad_units_group does."""
    q = field.order
    ext = make_field(field.p, 2 * field.k)
    return f"{unit_group_size(ext)[0]}/N{q - 1}", q + 1


@lru_cache(maxsize=None)
def quad_units_group(field):
    """Units of the quadratic extension modulo the base units, which are
    the units x with x^q = x; with the projection."""
    big = unit_group(make_field(field.p, 2 * field.k))
    t = big.table

    def frobenius_fixed(x):
        y = x
        for _ in range(field.order - 1):
            y = t[y][x]
        return y == x

    base = [x for x in range(big.order) if frobenius_fixed(x)]
    return quotient_by_central(big, base, quad_units_size(field)[0])


# ---------------------------------------------------------------------------
# stabilizers by key: (kind, *arguments after the field)


# kind -> (constructor, closed form); every role token of coefficients
# is a kind.  Constructors are looked up when called so that rebinding a
# module-level name (as perfbench/traced.py does) reaches them.
_STABILIZERS = {
    "pgl2k": (lambda field: pgl2(field), pgl2_size),
    "units": (lambda field: unit_group(field), unit_group_size),
    "quad_units": (lambda field: quad_units_group(field)[0], quad_units_size),
    "additive": (lambda field: additive_group(field), additive_group_size),
    "cusp": (lambda field, n: cusp_group(field, n), cusp_group_size),
}

# (source kind, target kind) -> the inclusion along a tree edge, called
# with the field and both keys; ("cusp", "cusp") is the tests' oracle
_INCLUSIONS = {
    ("additive", "cusp"): lambda field, source, target: additive_to_cusp(field),
    ("units", "cusp"): lambda field, source, target: units_to_cusp(field),
    ("cusp", "cusp"): lambda field, source, target: cusp_chain_inclusion(field, source[1]),
    ("cusp", "pgl2k"): lambda field, source, target: cusp_to_pgl2(field),
}


def stabilizer(field, key):
    """The group a key names, such as ("pgl2k",) or ("cusp", 2)."""
    return _STABILIZERS[key[0]][0](field, *key[1:])


def stabilizer_size(field, key):
    """(name, order) of stabilizer(field, key), in closed form."""
    return _STABILIZERS[key[0]][1](field, *key[1:])


def stabilizer_inclusion(field, source, target):
    """The hom from one stabilizer into another along a tree edge; the
    keys are distinct."""
    return _INCLUSIONS[source[0], target[0]](field, source, target)


def size_check(field, key, q, limits, dense=PRESENTATION):
    """check_ceilings on a keyed stabilizer's closed form; None passes."""
    if key is not None:
        check_ceilings(*stabilizer_size(field, key), q, limits, dense)


@lru_cache(maxsize=None)
def unipotent_rank(field, n, q):
    """The rank d_n of the F_p-space H_q(U_n; Z)_T, q >= 1: the p-part of
    H_q of the depth-n cusp group B_n = T x| U_n, T = k^*, U_n = (k+)^n.

    |T| is prime to p, so H_q(B_n) = H_q(T) + H_q(U_n; Z)_T
    (Lyndon-Hochschild-Serre; Brown, Cohomology of Groups, III.10).
    H_*(U_n; F_p) has a basis of monomials in weight vectors: exterior x's
    of degree 1 and polynomial y's of degree 2 for odd p, polynomial x's
    of degree 1 for p = 2 (Brown V.6; Adem and Milgram, Cohomology of
    Finite Groups, II.4).  T acts on v through a character chi of order
    |k| - 1; over the algebraic closure k+ splits into the chi^(p^j),
    j < k, so every x and y carries one chi^(p^j), each j n times, and a
    monomial is fixed iff sum c_j p^j = 0 mod |k| - 1, c_j counting its
    factors of class j.  Coinvariants are exact and H_q(U_n; Z) has
    exponent p for q >= 1, so universal coefficients give d = (fixed
    monomials of degree q) - (d in degree q - 1), nothing subtracted for
    q = 1.  The count runs over (degree, weight), listing no monomial.

    The projection B_n -> B_1 retracts the inclusion, so along the cusp
    ray H_q(B_n) = H_q(B_1) + a kernel, and the kernels form a chain of
    split injections of F_p-spaces, determined up to isomorphism by their
    dimensions: stabilizer_homology presents depth n >= 2 as depth 1's
    presentation plus (Z/p)^(d_n - d_1), and stabilizer_map includes the
    coordinates.  The lattice route is the oracle.

    >>> [unipotent_rank(make_field(3, 1), 1, q) for q in (1, 2, 3, 4)]
    [0, 0, 1, 0]
    >>> [unipotent_rank(make_field(2, 1), 3, q) for q in (1, 2, 3)]
    [3, 3, 7]
    """
    p, k = field.p, field.k
    m = field.order - 1  # counts[d][w]: monomials of degree d, weight w mod m
    counts = [[1] + [0] * (m - 1)] + [[0] * m for _ in range(q)]
    # (degree, loop order) per generator: downward takes an exterior x at
    # most once, upward a polynomial generator any number of times
    generators = ((1, reversed), (2, iter)) if p > 2 else ((1, iter),)
    for j in range(k * n):
        w = p ** (j % k) % m
        for e, order in generators:
            for d in order(range(e, q + 1)):
                row = counts[d]
                for x, c in enumerate(counts[d - e]):
                    row[(x + w) % m] += c
    rank = 0
    for row in counts[1:]:
        rank = row[0] - rank
    return rank


def _deep_cusp(key):
    return key is not None and key[0] == "cusp" and key[1] > 1


@lru_cache(maxsize=None)
def _deep_cusp_homology(field, n, q):
    """H_q of ("cusp", n), n >= 2, one object per key as assemble_system's
    contraction needs; depth 1 is smaller in order and tuple count, so it
    passes every ceiling the deep key passed."""
    extra = unipotent_rank(field, n, q) - unipotent_rank(field, 1, q)
    torsion = PresentedGroup.from_group(FgAbGroup(0, (field.p,) * extra))
    return PresentedGroup.direct_sum([_bar_data(cusp_group(field, 1), q).presented, torsion])


def stabilizer_homology(field, key, q, limits=DEFAULT_LIMITS):
    """H_q, q >= 1, of the stabilizer a key names, refused from the closed
    form before any table is built; one presentation per group and degree,
    a cusp group deeper than 1 from unipotent_rank.

    >>> stabilizer_homology(make_field(2, 1), ("cusp", 2), 1).canonical()
    Z/2 + Z/2
    >>> stabilizer_homology(make_field(5, 1), ("pgl2k",), 1)
    Traceback (most recent call last):
    ...
    elltree.errors.TooLargeError: bar homology of PGL2(GF(5)): size 120 exceeds ceiling 24
    """
    if key is None:
        return PresentedGroup(0)
    size_check(field, key, q, limits)
    if _deep_cusp(key):
        return _deep_cusp_homology(field, key[1], q)
    return homology_presentation(stabilizer(field, key), q, limits)


def stabilizer_map(field, source, target, q, limits=DEFAULT_LIMITS):
    """The map on H_q, q >= 1, induced by the inclusion of one keyed
    stabilizer into another: zero from the trivial group, the identity of
    the one presentation between equal keys (no hom is built), otherwise
    induced by stabilizer_inclusion once source and target pass size_check;
    into a deeper cusp group, the inclusion of coordinates (unipotent_rank),
    the only map that reaches or leaves a cusp group deeper than 1.
    """
    if source is None:
        return AbHom.zero(PresentedGroup(0), stabilizer_homology(field, target, q, limits))
    if source == target:
        return AbHom.identity(stabilizer_homology(field, source, q, limits))
    for key in (source, target):
        size_check(field, key, q, limits, CHAIN_DATA)
    if _deep_cusp(source) or _deep_cusp(target):
        if not (source[0] == target[0] == "cusp" and source[1] < target[1]):
            raise ValueError(f"no inclusion of {source} into {target}")
        src, tgt = (stabilizer_homology(field, key, q, limits) for key in (source, target))
        # the source's relations are the target's first columns
        cols = [{i: 1} for i in range(src.gens)]
        return AbHom(src, tgt, IntMatrix.from_sparse_cols(cols, tgt.gens), check=False)
    return induced_map(stabilizer_inclusion(field, source, target), q, limits)


def diagonal_reduction(field, n, q, limits=DEFAULT_LIMITS):
    """Whether the diagonal torus T into Tri(k, n) induces an isomorphism
    on H_q, for n, q >= 1, read off unipotent_rank: no group is built.

    Tri = T x| U with U = {(1, 1, v)} the unipotent radical, a p-group,
    and |T| prime to p, so H_q(Tri) = H_q(T) + H_q(U)_T, T's inclusion
    being onto the first summand (Lyndon-Hochschild-Serre; Brown,
    Cohomology of Groups, III.10): it is an isomorphism exactly when
    H_q(U)_T = 0.  The scalars are central, act trivially on U and have
    order prime to p, so H_q(U)_T is the p-part of H_q(Tri/scalars), the
    cusp group ("cusp", n), whose rank unipotent_rank counts.

    The ceilings are checked on Tri(k, 0) and then Tri(k, n) as for the
    inclusion's chain data, so a refusal names the triangular group.

    >>> f = make_field(2, 1)
    >>> [diagonal_reduction(f, 1, q) for q in (1, 2)]
    [False, True]
    """
    for m in (0, n):
        check_ceilings(*triangular_size(field, m), q, limits, CHAIN_DATA)
    return unipotent_rank(field, n, q) == 0
