"""Coefficient systems on the domain tree and the homology they assemble.

A coefficient system assigns an abelian group to every vertex and edge of
the tree and, for each edge, a map toward each endpoint.  A provider hands
them out per simplex, vertex_group(vid) and edge_data(eid) -> (edge group,
map toward tail, map toward head), and assemble_system builds the boundary
below from them.  A spec names a system and the report about it:
provider(tree, q) makes its degree-q provider, system_degree(q) names the
degree q' whose system stands for q >= 1, preflight(summary, depth,
attach, q_max) refuses what a report up to q_max would refuse before
anything is built, rhs_group(token, i) is the predicted degree-i group of
a role token, and report_fields(depth, q_max) gives its own report
fields.  Two specs:

  symbolic (Instantiation): groups are role tokens (one per stabilizer
    type) and maps are tags (iso / zero / unconstrained), instantiated
    through a battery that sends each role to a small group with coprime
    torsion so wiring mistakes show up in the canonical form; the system
    is the same in every degree q >= 1.

  concrete (ConcreteSpec): the same token system over a chosen field;
    each simplex's role token names a stabilizer key, and groups hands
    out its H_q and induced maps, refusing from closed forms before it
    builds a table.  The preflight walks the vertex keys of each line's
    own branch layout, checking each key's closed form, building nothing.

Each system yields a two-term chain complex: degree 0 sums the vertex
groups, degree 1 sums the edge groups, and the boundary of an edge is
(map toward head) minus (map toward tail) with edges oriented away from
the root.  assemble_system eliminates each edge that maps to its tail by
the identity, together with that tail, before any Smith elimination; the
homology stays, and a cusp ray costs time linear in its depth.  Writing
E0(q), E1(q) for the two homology groups in degree q, the assembled
group in degree i >= 1 is E0(i) + E1(i-1), flagged when E1(i-1) is
nonzero because the direct sum is then only one resolution of an
extension problem.  In degree 0 every stabilizer has H_0 = Z with
identity maps, the constant system Z on a tree, so E1(0) = 0; reports
take that as given, and the selftest computes it on whole trees from
degree_zero_tokens.

Reports never build the whole tree.  In every degree q >= 1 the root and
its edges carry 0, so the complex of the tree is the direct sum of its
line branches'.  Reports read the line classification and compute E2
once per branch shape (line case, depth, cap attachment, spec, q), on
one one-line tree per case; e2_whole_tree, on the whole tree,
cross-checks this.

The predicted decomposition has one projective-linear factor per point
fixed by negation, one units factor per line meeting the curve twice, and
one quadratic-units factor per line missing the curve entirely.

Excess theorem.  Let q >= 1, n the depth, T = k^*, U_n = (k+)^n and
B_n = T x| U_n the depth-n cusp group.  For either attach, every concrete
branch has E1 = 0, and E0 is H_q(k(w)^*/k^*) in case 1, H_q(T) +
2 H_q(U_n)_T in case 3, and H_q(PGL2(k)) + H_q(U_n)_T / H_q(U_1)_T in
case 2.  Proof sketch: |T| is prime to p, so H_q(B_n) = H_q(T) +
H_q(U_n)_T, T onto the first summand (Brown, Cohomology of Groups,
III.10), and H_q(U_n)_T is the p-part of H_q(B_n).  B_n -> B_(n+1) is
split by the projection onto the first n coordinates, so it is injective
on H_q.  Contracted, case 3 is T with two split edges into B_n, and case
2 one edge from B_1 into B_n + PGL2(k); their kernels and cokernels give
E2.  So no concrete report has a caveat-extension, and its verdicts are
read off the p-part of H_q(B_n).
"""

import io
from functools import lru_cache
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from math import gcd

from .abelian import (
    AbHom,
    CyclePresentation,
    FgAbGroup,
    IntMatrix,
    PresentedGroup,
    TRIVIAL_GROUP,
    direct_sum_groups,
)
from .curve import LineRows, synthetic_summary
from .errors import TooLargeError
from .groups import (
    DEFAULT_LIMITS,
    diagonal_reduction,
    size_check,
    stabilizer_homology,
    stabilizer_map,
)
from .tree import Vertex, branch_layout, branch_tree
from .value import Value

TOKEN_PGL2K = "pgl2k"
TOKEN_UNITS = "units"
TOKEN_QUAD = "quad_units"
TOKEN_ADDITIVE = "additive"
TOKEN_ZERO = "zero"
TOKEN_Z0 = "z0"

ISO = "iso"
ZERO_MAP = "zero"
UNCONSTRAINED = "unconstrained"


class Instantiation(Value):
    """Token-to-group assignment plus the unconstrained-map resolution.

    The four role groups must be pairwise non-isomorphic so that any
    mis-wiring of the system changes the assembled canonical form.  As a
    spec, it stands for the symbolic system of a tree.
    """

    __slots__ = ("name", "pgl2k", "units", "quad", "additive", "resolution")

    def __init__(self, name, pgl2k, units, quad, additive, resolution=ZERO_MAP):
        super().__init__(name, pgl2k, units, quad, additive, resolution)
        roles = [pgl2k, units, quad, additive]
        for i in range(len(roles)):
            for j in range(i + 1, len(roles)):
                if roles[i] == roles[j]:
                    raise ValueError("instantiation roles must be distinguishable")
        if resolution not in (ZERO_MAP, ISO):
            raise ValueError("resolution must be the zero or the canonical map")

    def group_for(self, token):
        return {
            TOKEN_PGL2K: self.pgl2k,
            TOKEN_UNITS: self.units,
            TOKEN_QUAD: self.quad,
            TOKEN_ADDITIVE: self.additive,
            TOKEN_ZERO: TRIVIAL_GROUP,
            TOKEN_Z0: FgAbGroup(1, ()),
        }[token]

    def with_resolution(self, resolution):
        return Instantiation(self.name, self.pgl2k, self.units, self.quad, self.additive, resolution)

    def system_degree(self, q):
        """The symbolic system is the same in every degree q >= 1."""
        return 1

    def provider(self, tree, q):
        return TokenProvider(tree, symbolic_tokens(tree), self)

    def preflight(self, summary, depth, attach, q_max):
        """Token systems build no finite group, so nothing to refuse."""

    def rhs_group(self, token, i):
        return self.group_for(token)

    def report_fields(self, depth, q_max):
        return {"mode": "symbolic", "battery": self.name, "resolution": self.resolution}


BATTERY_A = Instantiation(
    "A",
    pgl2k=FgAbGroup(1, (3,)),
    units=FgAbGroup(0, (5,)),
    quad=FgAbGroup(0, (7,)),
    additive=FgAbGroup(0, (11,)),
)

BATTERY_B = Instantiation(
    "B",
    pgl2k=FgAbGroup(0, (5,)),
    units=FgAbGroup(1, (3,)),
    quad=FgAbGroup(0, (11,)),
    additive=FgAbGroup(0, (7,)),
)

BATTERIES = {"A": BATTERY_A, "B": BATTERY_B}


def canonical_max_hom(src, dst):
    """The canonical hom between canonical presentations of two groups.

    Free generators align index-wise; leftover source free generators map
    onto the target's torsion generators with coefficient 1; torsion
    generators align largest-to-largest, scaled by the least multiplier
    that makes the assignment well defined.  Equals the identity when the
    groups coincide.
    """
    src_fg, dst_fg = src.canonical(), dst.canonical()
    cols = []
    for j in range(src_fg.rank):
        if j < dst_fg.rank:
            cols.append({j: 1})
        elif j - dst_fg.rank < len(dst_fg.torsion):
            cols.append({dst_fg.rank + (j - dst_fg.rank): 1})
        else:
            cols.append({})
    ts, td = src_fg.torsion, dst_fg.torsion
    for i in range(len(ts)):
        dj = len(td) - (len(ts) - i)
        if dj < 0:
            cols.append({})
            continue
        scale = td[dj] // gcd(ts[i], td[dj])
        if scale % td[dj]:
            cols.append({dst_fg.rank + dj: scale})
        else:
            cols.append({})
    return AbHom(src, dst, IntMatrix.from_sparse_cols(cols, dst.gens))


# ---------------------------------------------------------------------------
# token-level systems


class EdgeTokens(Value):
    __slots__ = ("token", "toward_tail", "toward_head")


class TokenSystem(Value):
    """Role tokens per vertex and per edge, keyed by tree ids."""

    __slots__ = ("vertex_tokens", "edge_tokens")

    def with_flipped_tag(self, eid, side, new_tag):
        """A copy with one endpoint tag replaced; for detectability tests."""
        if side not in ("tail", "head"):
            raise ValueError(f"side must be 'tail' or 'head', got {side!r}")
        edges = dict(self.edge_tokens)
        old = edges[eid]
        if side == "tail":
            edges[eid] = EdgeTokens(old.token, new_tag, old.toward_head)
        else:
            edges[eid] = EdgeTokens(old.token, old.toward_tail, new_tag)
        return TokenSystem(dict(self.vertex_tokens), edges)


_LINE_TOKEN_BY_CASE = {1: TOKEN_QUAD, 2: TOKEN_ADDITIVE, 3: TOKEN_UNITS}


def _vertex_token(v, case):
    """The role token of a vertex of a line of this case."""
    if v.kind == "line":
        return _LINE_TOKEN_BY_CASE[case]
    return {"root": TOKEN_ZERO, "cusp": TOKEN_UNITS, "cap": TOKEN_PGL2K}[v.kind]


def symbolic_tokens(tree):
    """The role-token system of a tree, uniform in the homology degree.

    >>> tree = branch_tree(synthetic_summary(case2=1).lines[0], 2)  # case 2
    >>> edge_tokens = symbolic_tokens(tree).edge_tokens
    >>> for e in tree.edges:
    ...     et = edge_tokens[e.eid]
    ...     print(e.kind, et.token, et.toward_tail, et.toward_head)
    root-line zero zero zero
    line-cusp additive iso zero
    cusp-cusp units iso iso
    cusp-cap units iso unconstrained
    """
    case_of_line = {lc.line: lc.case for lc in tree.summary.lines}
    vertex_tokens = {v.vid: _vertex_token(v, case_of_line.get(v.line)) for v in tree.vertices}
    edge_tokens = {}
    for e in tree.edges:
        if e.kind == "root-line":
            edge_tokens[e.eid] = EdgeTokens(TOKEN_ZERO, ZERO_MAP, ZERO_MAP)
        elif e.kind == "line-cusp":
            if case_of_line[e.line] == 2:
                edge_tokens[e.eid] = EdgeTokens(TOKEN_ADDITIVE, ISO, ZERO_MAP)
            else:
                edge_tokens[e.eid] = EdgeTokens(TOKEN_UNITS, ISO, ISO)
        elif e.kind == "cusp-cusp":
            edge_tokens[e.eid] = EdgeTokens(TOKEN_UNITS, ISO, ISO)
        else:
            edge_tokens[e.eid] = EdgeTokens(TOKEN_UNITS, ISO, UNCONSTRAINED)
    return TokenSystem(vertex_tokens, edge_tokens)


def degree_zero_tokens(tree):
    """Constant unit system: H_0 of every stabilizer with identity maps."""
    return TokenSystem(
        {v.vid: TOKEN_Z0 for v in tree.vertices},
        {e.eid: EdgeTokens(TOKEN_Z0, ISO, ISO) for e in tree.edges},
    )


class TokenProvider:
    """A token system resolved through an instantiation.

    Presented groups are shared per token, so iso-tagged maps run between
    the very same presentation.
    """

    def __init__(self, tree, tokens, inst):
        self.tree = tree
        self.tokens = tokens
        self.inst = inst
        self.presented = {}

    def _group(self, token):
        if token not in self.presented:
            self.presented[token] = PresentedGroup.from_group(self.inst.group_for(token))
        return self.presented[token]

    def _map(self, tag, token, vid):
        """The map a tag names, from token's group to the group of vertex vid."""
        source = self._group(token)
        target_token = self.tokens.vertex_tokens[vid]
        target = self._group(target_token)
        if tag == ISO:
            if token != target_token:
                raise ValueError("iso tag between different tokens")
            return AbHom.identity(source)
        if tag == ZERO_MAP or self.inst.resolution == ZERO_MAP:
            return AbHom.zero(source, target)
        return canonical_max_hom(source, target)

    def vertex_group(self, vid):
        return self._group(self.tokens.vertex_tokens[vid])

    def edge_data(self, eid):
        e = self.tree.edges[eid]
        et = self.tokens.edge_tokens[eid]
        to_tail = self._map(et.toward_tail, et.token, e.tail)
        return self._group(et.token), to_tail, self._map(et.toward_head, et.token, e.head)


# ---------------------------------------------------------------------------
# concrete systems over a finite field


def _stabilizer_key(simplex, token):
    """The groups.stabilizer key of a simplex with this role token, or None
    for TOKEN_ZERO's trivial group.  A cusp-cusp edge carries its tail's
    group and a cap edge the depth-1 group, whatever the attachment."""
    if token == TOKEN_ZERO:
        return None
    if simplex.kind in ("cusp", "cusp-cusp"):
        return ("cusp", simplex.depth)
    if simplex.kind == "cusp-cap":
        return ("cusp", 1)
    return (token,)


class ConcreteProvider:
    """Degree-q homology of the stabilizers over a field, with induced maps,
    asked of groups by the stabilizer key of each simplex's role token; a
    refusal comes before anything is built."""

    def __init__(self, tree, field, q, limits):
        self.tree = tree
        self.field = field
        self.q = q
        self.limits = limits
        tokens = symbolic_tokens(tree)
        self.vertex_keys = [_stabilizer_key(v, tokens.vertex_tokens[v.vid]) for v in tree.vertices]
        self.edge_keys = [_stabilizer_key(e, tokens.edge_tokens[e.eid].token) for e in tree.edges]

    def vertex_group(self, vid):
        return stabilizer_homology(self.field, self.vertex_keys[vid], self.q, self.limits)

    def edge_data(self, eid):
        e, key = self.tree.edges[eid], self.edge_keys[eid]
        group = stabilizer_homology(self.field, key, self.q, self.limits)
        to_tail, to_head = (stabilizer_map(self.field, key, self.vertex_keys[v], self.q, self.limits)
                            for v in (e.tail, e.head))
        return group, to_tail, to_head


class ConcreteSpec(Value):
    """The concrete system over a field, within the homology ceilings."""

    __slots__ = ("field", "limits")

    def __init__(self, field, limits=DEFAULT_LIMITS):
        super().__init__(field, limits)

    def system_degree(self, q):
        return q

    def provider(self, tree, q):
        return ConcreteProvider(tree, self.field, q, self.limits)

    def preflight(self, summary, depth, attach, q_max):
        """Refuse as the run up to q_max would, from closed-form sizes only.

        Degrees 1..q_max, lines in order, and the vertices of each line's
        own branch_layout in assemble_system's order and tags: the first
        refusal is the run's own, and the walk stops there.  Edges need no
        check: an edge's key is its tail's, or for a cap edge the depth-1
        cusp's, a vertex assemble_system asks for before any edge.
        """
        def walk(line):
            for v in branch_layout(line, depth, attach):
                if not isinstance(v, Vertex):
                    continue
                key = _stabilizer_key(v, _vertex_token(v, line.case))
                try:
                    size_check(self.field, key, q, self.limits)
                except TooLargeError as exc:
                    raise exc.at(f"vertex {v.tag}") from exc
            return TRIVIAL_GROUP, TRIVIAL_GROUP

        for q in range(1, q_max + 1):
            assemble_over_branches(summary, walk)

    def rhs_group(self, token, i):
        # the preflight has checked each token as a vertex key in degree i
        return stabilizer_homology(self.field, (token,), i, self.limits).canonical()

    def report_fields(self, depth, q_max):
        diagonal = measure_diagonal_reduction(self.field, depth, q_max, self.limits)
        return {"mode": "concrete", "battery": None, "resolution": None, "diagonal_reduction": diagonal}


# ---------------------------------------------------------------------------
# assembled systems and their two-term complex


def assemble_system(tree, provider):
    """The boundary (vertex sum) <- (edge sum) of a provider's system, with
    its identity edges contracted, as an AbHom checked to be well defined.

    The provider is asked for every vertex of the tree first, then every
    edge; a TooLargeError it raises gains the tag of the simplex.

    Then, outward from the root, an edge is contracted when its group is
    the tail's own presentation object, its map toward the tail is that
    presentation's AbHom.identity, and the tail is not yet contracted.  With
    the edge's columns and the tail's rows first, the boundary is
    [[A, B], [C, D]] with A = -id, and the complex is isomorphic to A plus
    D - C A^-1 B = D + C B.  So the edge and its tail go, and every other
    edge at the tail moves to the edge's head: its map into the tail is
    composed with the edge's map toward the head, and its orientation is
    kept.  The homology is unchanged (Serre, Trees, I.4; Kaczynski, Mrozek
    and Slusarek, Comput. Math. Appl. 35, 1998; Skoldberg, Trans. AMS 358,
    2006).  Every cusp-cusp edge carries its tail's group with the
    identity, so a cusp ray reaches the Smith elimination as a few
    generators, and a row -> columns incidence map keeps the walk linear
    in the ray's depth.
    """
    vertex_groups, edge_data = [], []
    for v in tree.vertices:
        try:
            vertex_groups.append(provider.vertex_group(v.vid))
        except TooLargeError as exc:
            raise exc.at(f"vertex {v.tag}") from exc
    for e in tree.edges:
        try:
            edge_data.append(provider.edge_data(e.eid))
        except TooLargeError as exc:
            tag = f"{tree.vertices[e.tail].tag}--{tree.vertices[e.head].tag}"
            raise exc.at(f"edge {tag}") from exc
    offset = list(accumulate((g.gens for g in vertex_groups), initial=0))
    start = list(accumulate((d[0].gens for d in edge_data), initial=0))
    cols, incidence = [], {}
    for e, (_, to_tail, to_head) in zip(tree.edges, edge_data):
        for head_col, tail_col in zip(to_head.matrix.cols, to_tail.matrix.cols):
            col = {offset[e.head] + i: v for i, v in head_col.items()}
            col.update((offset[e.tail] + i, -v) for i, v in tail_col.items())
            for r in col:
                incidence.setdefault(r, set()).add(len(cols))
            cols.append(col)
    merged, contracted = set(), set()
    for e, (group, to_tail, _) in zip(tree.edges, edge_data):
        own = group is vertex_groups[e.tail] and to_tail is AbHom.identity(group)
        if e.tail in merged or not own:
            continue
        merged.add(e.tail)
        contracted.add(e.eid)
        for j in range(group.gens):
            c, pivot = start[e.eid] + j, offset[e.tail] + j
            head, cols[c] = cols[c], None
            del head[pivot]
            for r in head:
                incidence[r].remove(c)
            for d in incidence.pop(pivot):
                if d == c:
                    continue
                col = cols[d]
                b = col.pop(pivot)
                for r, v in head.items():
                    val = col.get(r, 0) + b * v
                    if val:
                        col[r] = val
                        incidence.setdefault(r, set()).add(d)
                    else:
                        del col[r]
                        incidence[r].remove(d)
    rows = [offset[v] + i for v, g in enumerate(vertex_groups) if v not in merged for i in range(g.gens)]
    row = {r: k for k, r in enumerate(rows)}
    c0 = PresentedGroup.direct_sum([g for v, g in enumerate(vertex_groups) if v not in merged])
    c1 = PresentedGroup.direct_sum([d[0] for eid, d in enumerate(edge_data) if eid not in contracted])
    kept = ({row[r]: v for r, v in col.items()} for col in cols if col is not None)
    matrix = IntMatrix.from_sparse_cols(kept, c0.gens)
    return AbHom(c1, c0, matrix)


def e2_pair(boundary):
    """Homology (degree 0, degree 1) of the two-term complex of a boundary,
    both from one elimination: the cokernel and the presented group of its
    CyclePresentation.  Without edge generators it is (C_0, 0)."""
    c1, c0 = boundary.source, boundary.target
    if not c1.gens:
        return c0.canonical(), TRIVIAL_GROUP
    cp = CyclePresentation(c1.gens, boundary.matrix, c0, c1.relations)
    return cp.cokernel.canonical(), cp.presented.canonical()


def e2_whole_tree(tree, spec, q):
    """(H0, H1) of spec's degree-q system, q >= 1, assembled on a whole tree.

    On the tree of a summary it is the reference for e2; on a line's
    branch_tree it is the E2 of that line's branch.
    """
    return e2_pair(assemble_system(tree, spec.provider(tree, _system_degree(spec, q))))


def _system_degree(spec, q):
    """The degree whose system stands for spec's degree q >= 1."""
    if q < 1:
        raise ValueError(f"E2 is assembled in degrees q >= 1, got {q}")
    return spec.system_degree(q)


# ---------------------------------------------------------------------------
# E2 as a direct sum over line branches


def assemble_over_branches(summary, branch_e2):
    """(H0, H1) of the tree: the direct sums of branch_e2(line) over its lines.

    In degrees q >= 1 the root and its edges carry 0, so the complex of
    the tree is the direct sum of its branches'.  A TooLargeError from a
    branch gains the tag of its line.
    """
    branches = []
    for lc in summary.lines:
        try:
            branches.append(branch_e2(lc))
        except TooLargeError as exc:
            raise exc.at(f"line x={lc.line}") from exc
    return direct_sum_groups([b[0] for b in branches]), direct_sum_groups([b[1] for b in branches])


# One synthetic line per case stands for every line of that case.
_CASE_LINES = {line.case: line for line in synthetic_summary(1, 1, 1).lines}


@lru_cache(maxsize=None)
def _branch_e2(spec, case, depth, attach, q):
    """E2 of the branch of every line of a case, computed once."""
    return e2_whole_tree(branch_tree(_CASE_LINES[case], depth, attach), spec, q)


def e2(summary, depth, attach, spec, q):
    """(H0, H1) of spec's degree-q system, q >= 1, on the tree of a line
    classification: the direct sum over its line branches.

    Branches are shared by every summary, and every degree, with the same
    system.
    """
    q = _system_degree(spec, q)
    return assemble_over_branches(summary, lambda line: _branch_e2(spec, line.case, depth, attach, q))


# ---------------------------------------------------------------------------
# predicted decomposition


def rhs_tokens(summary):
    """Labeled token factors of the predicted decomposition, in line order.

    One projective-linear factor per negation-fixed point, one units
    factor per twice-meeting line, one quadratic-units factor per line
    missing the curve.
    """
    out = []
    for lc in summary.lines:
        if lc.case == 2:
            out.append((TOKEN_PGL2K, lc.points[0]))
        elif lc.case == 3:
            out.append((TOKEN_UNITS, f"x={lc.line}"))
        else:
            out.append((TOKEN_QUAD, f"x={lc.line}"))
    return out


def predicted(summary, spec, i):
    """The predicted degree-i group: the sum of spec's rhs token groups."""
    return direct_sum_groups([spec.rhs_group(t, i) for t, _ in rhs_tokens(summary)])


# ---------------------------------------------------------------------------
# reports


def _verdict(assembled, predicted, extension_part):
    if not extension_part.is_trivial:
        return "caveat-extension"
    return "match" if assembled == predicted else "mismatch"


def _degree_entry(i, e20, e21_prev, predicted, rhs):
    assembled = direct_sum_groups([e20, e21_prev])
    return {
        "i": i,
        "assembled": assembled.to_json(),
        "e2": {"col0": e20.to_json(), "col1": e21_prev.to_json()},
        "rhs": [{"token": t, "label": l} for t, l in rhs],
        "verdict": _verdict(assembled, predicted, e21_prev),
    }


def measure_diagonal_reduction(field, depth, q_max, limits=DEFAULT_LIMITS):
    """Whether torus-into-triangular induces isomorphisms on homology.

    Asked of the matrix-level groups (before the central quotient): the
    inclusion (a, d) -> (a, d, 0) of the diagonal torus into the depth-n
    triangular group Tri(k, n).  groups.diagonal_reduction reads the
    answer off the p-part of the depth-n cusp group's H_q, which the run
    resolves anyway, and builds no triangular group.  Entries that exceed
    the ceilings of Tri(k, 0) or Tri(k, n) are recorded as skipped rather
    than guessed, before anything is built.
    """
    out = []
    for n in range(1, depth + 1):
        for q in range(1, q_max + 1):
            entry = {"depth": n, "degree": q}
            try:
                entry["isomorphism"] = diagonal_reduction(field, n, q, limits)
            except TooLargeError as exc:
                entry["skipped"] = str(exc)
            out.append(entry)
    return out


def report(summary, depth, attach, spec, q_max, curve=None):
    """Per-degree comparison of spec's assembled homology with the prediction.

    The spec's preflight first refuses what the run would refuse, before
    anything is built.  E2 and the prediction are computed once per
    distinct system, and E2 of every degree 1..q_max before any
    prediction, so a refusal comes from the tree's stabilizers first.
    Degrees whose extension part is nonzero are flagged instead of
    asserted.
    """
    spec.preflight(summary, depth, attach, q_max)
    system = [_system_degree(spec, q) for q in range(1, q_max + 1)]
    e2_of = {s: e2(summary, depth, attach, spec, s) for s in dict.fromkeys(system)}
    predicted_of = {s: predicted(summary, spec, s) for s in e2_of}
    # E1(0) = 0: degree 0 is the constant system Z on a tree
    e1 = [TRIVIAL_GROUP] + [e2_of[s][1] for s in system]
    rhs = rhs_tokens(summary)
    degrees = [
        _degree_entry(i, e2_of[s][0], e1[i - 1], predicted_of[s], rhs)
        for i, s in enumerate(system, 1)
    ]
    return {
        "curve": curve.to_json() if curve is not None else None,
        "field": curve.field.to_json() if curve is not None else None,
        "depth": depth,
        "attach": attach,
        "degrees": degrees,
        **spec.report_fields(depth, q_max),
    }


def report_to_json_text(report):
    """Canonical serialization: sorted keys, two-space indent, newline.

    The text is json.dumps(report, sort_keys=True, indent=2) plus a
    newline, written directly: json.dumps falls back to its pure-Python
    encoder whenever indent is set, and holds every piece of the text in
    a list until the end.  Reports hold dicts with str keys, lists,
    tuples, str, int, bool, None and curve.LineRows, which writes its own
    text; any other type raises TypeError.
    """
    buf = io.StringIO()
    _write_json(report, "\n", buf.write)
    buf.write("\n")
    return buf.getvalue()


def _write_json(value, newline, write):
    """Write the indented JSON of value; newline ends each of its lines."""
    if isinstance(value, str):
        write(encode_basestring_ascii(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report key {key!r} is not a str")
            write(sep)
            write(encode_basestring_ascii(key))
            write(": ")
            _write_json(value[key], inner, write)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_json(item, inner, write)
            sep = "," + inner
        write(newline + "]")
    elif isinstance(value, LineRows):
        value.write_json(newline, write)
    else:
        raise TypeError(f"cannot write {type(value).__name__} to a report")


_GROUP_SCHEMA = {
    "type": "object",
    "required": ["rank", "torsion"],
    "properties": {
        "rank": {"type": "integer", "minimum": 0},
        "torsion": {"type": "array", "items": {"type": "integer", "minimum": 2}},
    },
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["mode", "curve", "field", "depth", "degrees"],
    "properties": {
        "mode": {"enum": ["symbolic", "concrete"]},
        "curve": {"type": ["object", "null"]},
        "field": {"type": ["object", "null"]},
        "depth": {"type": "integer", "minimum": 1},
        "attach": {"enum": [1, 2]},
        "battery": {"type": ["string", "null"]},
        "resolution": {"type": ["string", "null"]},
        "degrees": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["i", "assembled", "rhs", "verdict"],
                "properties": {
                    "i": {"type": "integer", "minimum": 1},
                    "assembled": _GROUP_SCHEMA,
                    "e2": {
                        "type": "object",
                        "required": ["col0", "col1"],
                        "properties": {"col0": _GROUP_SCHEMA, "col1": _GROUP_SCHEMA},
                    },
                    "rhs": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["token", "label"],
                            "properties": {
                                "token": {"type": "string"},
                                "label": {"type": "string"},
                            },
                        },
                    },
                    "verdict": {"enum": ["match", "mismatch", "caveat-extension"]},
                },
            },
        },
        "diagonal_reduction": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["depth", "degree"],
                "properties": {
                    "depth": {"type": "integer", "minimum": 1},
                    "degree": {"type": "integer", "minimum": 1},
                    "isomorphism": {"type": "boolean"},
                    "skipped": {"type": "string"},
                },
            },
        },
    },
}
