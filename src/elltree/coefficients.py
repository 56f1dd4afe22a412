"""Coefficient systems on the domain tree and the homology they assemble.

A coefficient system assigns an abelian group to every vertex and edge of
the tree and, for each edge, a map toward each endpoint.  A provider hands
them out per simplex, vertex_group(vid) and edge_data(eid) -> (edge group,
map toward tail, map toward head), and assemble_system builds the complex
below from them.  A spec names a system and the report about it:
provider(tree, q) makes its degree-q provider, system_degree(q) names the
degree q' whose system stands for q >= 1, preflight(tree, q_max) refuses
what a report up to q_max would refuse before anything is built,
rhs_group(token, i) is the predicted degree-i group of a role token, and
report_fields(depth, q_max) gives its own report fields.  Two specs:

  symbolic (Instantiation): groups are role tokens (one per stabilizer
    type) and maps are tags (iso / zero / unconstrained), instantiated
    through a battery that sends each role to a small group with coprime
    torsion so wiring mistakes show up in the canonical form; the system
    is the same in every degree q >= 1.

  concrete (ConcreteSpec): groups are the integral homology of actual
    finite stabilizer groups over a chosen field, and maps are induced by
    explicit inclusion homomorphisms.  Its preflight assembles the same
    system with SizingProvider, which checks the ceilings on each
    stabilizer's closed-form (name, order) and builds nothing.

In degree 0 every spec has the constant unit system Z (UNIT_SYSTEM); _system
maps (spec, q) to the system that is computed.  Each system yields a
two-term chain complex: degree 0 sums the vertex groups, degree 1 sums the
edge groups, and the boundary of an edge is (map toward head) minus (map
toward tail) with edges oriented away from the root.  Writing E0(q),
E1(q) for its two homology groups in degree q, the assembled group in
degree i >= 1 is E0(i) + E1(i-1), flagged when E1(i-1) is nonzero because
the direct sum is then only one resolution of an extension problem.

E2 is computed once per branch shape (line case, depth, cap attachment,
spec, q) and glued at the root; e2_whole_tree cross-checks this.

The predicted decomposition has one projective-linear factor per point
fixed by negation, one units factor per line meeting the curve twice, and
one quadratic-units factor per line missing the curve entirely.
"""

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd

from .abelian import (
    AbHom,
    ChainComplexFg,
    FgAbGroup,
    IntMatrix,
    PresentedGroup,
    TRIVIAL_GROUP,
    canonical_with_class,
    direct_sum_groups,
    homology_at,
)
from .curve import synthetic_summary
from .errors import TooLargeError
from .groups import (
    CHAIN_DATA,
    DEFAULT_LIMITS,
    PRESENTATION,
    bar_homology,
    check_ceilings,
    diagonal_to_triangular,
    homology_presentation,
    induced_map,
    stabilizer,
    stabilizer_inclusion,
    stabilizer_size,
    triangular_size,
)
from .tree import build_domain, point_label

TOKEN_PGL2K = "pgl2k"
TOKEN_UNITS = "units"
TOKEN_QUAD = "quad_units"
TOKEN_ADDITIVE = "additive"
TOKEN_ZERO = "zero"
TOKEN_Z0 = "z0"

ISO = "iso"
ZERO_MAP = "zero"
UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True)
class Instantiation:
    """Token-to-group assignment plus the unconstrained-map resolution.

    The four role groups must be pairwise non-isomorphic so that any
    mis-wiring of the system changes the assembled canonical form.  As a
    spec, it stands for the symbolic system of a tree.
    """

    name: str
    pgl2k: FgAbGroup
    units: FgAbGroup
    quad: FgAbGroup
    additive: FgAbGroup
    resolution: str = ZERO_MAP

    def __post_init__(self):
        roles = [self.pgl2k, self.units, self.quad, self.additive]
        for i in range(len(roles)):
            for j in range(i + 1, len(roles)):
                if roles[i] == roles[j]:
                    raise ValueError("instantiation roles must be distinguishable")
        if self.resolution not in (ZERO_MAP, ISO):
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
        return replace(self, resolution=resolution)

    def system_degree(self, q):
        """The symbolic system is the same in every degree q >= 1."""
        return 1

    def provider(self, tree, q):
        return TokenProvider(tree, symbolic_tokens(tree), self)

    def preflight(self, tree, q_max):
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


@dataclass(frozen=True)
class EdgeTokens:
    token: str
    toward_tail: str
    toward_head: str


@dataclass
class TokenSystem:
    """Role tokens per vertex and per edge, keyed by tree ids."""

    vertex_tokens: dict
    edge_tokens: dict

    def with_flipped_tag(self, eid, side, new_tag):
        """A copy with one endpoint tag replaced; for detectability tests."""
        if side not in ("tail", "head"):
            raise ValueError(f"side must be 'tail' or 'head', got {side!r}")
        edges = dict(self.edge_tokens)
        old = edges[eid]
        if side == "tail":
            edges[eid] = replace(old, toward_tail=new_tag)
        else:
            edges[eid] = replace(old, toward_head=new_tag)
        return TokenSystem(dict(self.vertex_tokens), edges)


_LINE_TOKEN_BY_CASE = {1: TOKEN_QUAD, 2: TOKEN_ADDITIVE, 3: TOKEN_UNITS}


def symbolic_tokens(tree):
    """The role-token system of a tree, uniform in the homology degree."""
    case_of_line = {lc.label: lc.case for lc in tree.summary.lines}
    vertex_tokens = {}
    for v in tree.vertices:
        if v.kind == "root":
            vertex_tokens[v.vid] = TOKEN_ZERO
        elif v.kind == "line":
            vertex_tokens[v.vid] = _LINE_TOKEN_BY_CASE[case_of_line[v.line]]
        elif v.kind == "cusp":
            vertex_tokens[v.vid] = TOKEN_UNITS
        else:
            vertex_tokens[v.vid] = TOKEN_PGL2K
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
            return AbHom(source, target, IntMatrix.identity(source.gens), check=False)
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


# The stabilizer kind (see groups.stabilizer) behind each role token.
_KIND_OF_TOKEN = {
    TOKEN_PGL2K: "pgl2",
    TOKEN_UNITS: "units",
    TOKEN_QUAD: "quad_units",
    TOKEN_ADDITIVE: "additive",
}


def _vertex_stabilizer(vertex, case_of_line):
    if vertex.kind == "root":
        return ("trivial",)
    if vertex.kind == "line":
        return (_KIND_OF_TOKEN[_LINE_TOKEN_BY_CASE[case_of_line[vertex.line]]],)
    if vertex.kind == "cusp":
        return ("cusp", vertex.depth)
    return ("pgl2",)


def _edge_stabilizer(edge, case_of_line):
    """The key of a non-root edge's group; it maps into both endpoints'."""
    if edge.kind == "line-cusp":
        return ("additive",) if case_of_line[edge.line] == 2 else ("units",)
    if edge.kind == "cusp-cusp":
        return ("cusp", edge.depth)
    # cusp-cap: the depth-1 group, included up to the attachment depth
    # toward the cusp and into the full projective group toward the cap
    return ("cusp", 1)


class ConcreteProvider:
    """Degree-q homology of the stabilizers over a field, with induced maps.

    Raises TooLargeError when a stabilizer exceeds the homology ceilings.
    """

    def __init__(self, tree, field, q, limits):
        self.tree = tree
        self.field = field
        self.q = q
        self.limits = limits
        self.case_of_line = {lc.label: lc.case for lc in tree.summary.lines}
        self.presented = {}

    def _vertex_key(self, vid):
        return _vertex_stabilizer(self.tree.vertices[vid], self.case_of_line)

    def vertex_group(self, vid):
        if vid not in self.presented:
            self.presented[vid] = self._presentation(self._vertex_key(vid))
        return self.presented[vid]

    def edge_data(self, eid):
        e = self.tree.edges[eid]
        if e.kind == "root-line":
            trivial = PresentedGroup(0)
            tail, head = self.vertex_group(e.tail), self.vertex_group(e.head)
            return trivial, AbHom.zero(trivial, tail), AbHom.zero(trivial, head)
        key = _edge_stabilizer(e, self.case_of_line)
        return (
            self._presentation(key),
            self._induced(key, self._vertex_key(e.tail)),
            self._induced(key, self._vertex_key(e.head)),
        )

    def _presentation(self, key):
        return homology_presentation(stabilizer(self.field, key), self.q, self.limits)

    def _induced(self, source, target):
        hom = stabilizer_inclusion(self.field, source, target)
        return induced_map(hom, self.q, self.limits)


class SizingProvider(ConcreteProvider):
    """ConcreteProvider's ceiling checks on closed-form sizes; builds nothing.

    Every group it hands out is 0, so assembling its system walks and tags
    the simplices as the real system would, at almost no cost.
    """

    def _presentation(self, key):
        check_ceilings(*stabilizer_size(self.field, key), self.q, self.limits, PRESENTATION)
        return PresentedGroup(0)

    def _induced(self, source, target):
        for key in (source, target):
            check_ceilings(*stabilizer_size(self.field, key), self.q, self.limits, CHAIN_DATA)
        return AbHom.zero(PresentedGroup(0), PresentedGroup(0))


@dataclass(frozen=True)
class _Sizing:
    field: object
    limits: object

    def provider(self, tree, q):
        return SizingProvider(tree, self.field, q, self.limits)


@dataclass(frozen=True)
class ConcreteSpec:
    """The concrete system over a field, within the homology ceilings."""

    field: object
    limits: object = DEFAULT_LIMITS

    def system_degree(self, q):
        return q

    def provider(self, tree, q):
        return ConcreteProvider(tree, self.field, q, self.limits)

    def preflight(self, tree, q_max):
        """Refuse as the run up to q_max would, from closed-form sizes only.

        Degrees 1..q_max, branches in line order, each through the real
        assembler, so the first refusal and its tags are the run's own.
        """
        sizing = _Sizing(self.field, self.limits)
        for q in range(1, q_max + 1):
            _system_e2(tree, sizing, q, _branch_system_e2)

    def rhs_group(self, token, i):
        return bar_homology(stabilizer(self.field, (_KIND_OF_TOKEN[token],)), i, self.limits)

    def report_fields(self, depth, q_max):
        diagonal = measure_diagonal_reduction(self.field, depth, q_max, self.limits)
        return {"mode": "concrete", "battery": None, "resolution": None, "diagonal_reduction": diagonal}


# ---------------------------------------------------------------------------
# assembled systems and their two-term complex


def assemble_system(tree, provider, vertex_ids=None, edge_ids=None):
    """The two-term complex (vertex sum) <- (edge sum) of a provider's system.

    vertex_ids and edge_ids restrict to a subtree; default is the whole
    tree.  The provider is asked for the vertices first, then the edges; a
    TooLargeError it raises gains the tag of the simplex.
    """
    if vertex_ids is None:
        vertex_ids = [v.vid for v in tree.vertices]
    if edge_ids is None:
        edge_ids = [e.eid for e in tree.edges]
    vertex_groups, offset, gens = [], {}, 0
    for vid in vertex_ids:
        try:
            vertex_groups.append(provider.vertex_group(vid))
        except TooLargeError as exc:
            raise exc.at(f"vertex {tree.vertices[vid].tag}") from exc
        offset[vid] = gens
        gens += vertex_groups[-1].gens
    edge_groups, cols = [], []
    for eid in edge_ids:
        e = tree.edges[eid]
        try:
            group, to_tail, to_head = provider.edge_data(eid)
        except TooLargeError as exc:
            tag = f"{tree.vertices[e.tail].tag}--{tree.vertices[e.head].tag}"
            raise exc.at(f"edge {tag}") from exc
        edge_groups.append(group)
        for head_col, tail_col in zip(to_head.matrix.cols, to_tail.matrix.cols):
            col = {offset[e.head] + i: v for i, v in head_col.items()}
            for i, v in tail_col.items():
                key = offset[e.tail] + i
                val = col.get(key, 0) - v
                if val:
                    col[key] = val
                else:
                    col.pop(key, None)
            cols.append(col)
    c0 = PresentedGroup.direct_sum(vertex_groups) if vertex_groups else PresentedGroup(0)
    c1 = PresentedGroup.direct_sum(edge_groups) if edge_groups else PresentedGroup(0)
    return ChainComplexFg([c0, c1], [AbHom(c1, c0, IntMatrix.from_sparse_cols(cols, c0.gens))])


def e2_pair(complex_):
    """Homology of a two-term complex: (degree 0, degree 1)."""
    return homology_at(complex_, 0), homology_at(complex_, 1)


# ---------------------------------------------------------------------------
# E2 split over line branches, glued at the root


def assemble_over_branches(tree, branch_e2, root_carries_z=False):
    """(H0, H1) of the tree from branch_e2(view) of each line branch.

    If the root and its edges carry 0 (degrees q >= 1), branch_e2 gives
    (H0, H1) and E2 is the direct sum.  If they carry Z, it gives (H0, H1, c)
    as rooted_branch_e2 does; the pair (tree, branches + root) then leaves
    Z_root + sum H0 <-- Z^(root edges), edge |-> c - root, whose H0 is the
    tree's and whose H1, free, splits off the tree's H1 beside sum H1.
    """
    branches = []
    for view in tree.subtrees():
        try:
            branches.append(branch_e2(view))
        except TooLargeError as exc:
            raise exc.at(f"line x={view.line_class.label}") from exc
    h1s = [b[1] for b in branches]
    if not root_carries_z:
        return direct_sum_groups([b[0] for b in branches]), direct_sum_groups(h1s)
    h0s = [PresentedGroup.free(1)] + [PresentedGroup.from_group(b[0]) for b in branches]
    cols, offset = [], 1
    for _, _, c in branches:
        cols.append({0: -1, **{offset + i: v for i, v in enumerate(c) if v}})
        offset += len(c)
    c0, c1 = PresentedGroup.direct_sum(h0s), PresentedGroup.free(len(branches))
    glue = ChainComplexFg([c0, c1], [AbHom(c1, c0, IntMatrix.from_sparse_cols(cols, c0.gens))])
    return homology_at(glue, 0), direct_sum_groups(h1s + [homology_at(glue, 1)])


def rooted_branch_e2(tree, provider, view):
    """(H0, H1, c) of a branch; c is the class its root edge hits in H0.

    The root and root edge must carry Z, the edge mapping identically to
    the root.  c is in the canonical presentation of H0.
    """
    edge_group, to_root, to_line = provider.edge_data(view.root_edge_id)
    free = not (provider.vertex_group(0).relations.ncols or edge_group.relations.ncols)
    if not free or to_root.matrix != IntMatrix.identity(1):
        raise ValueError("the root and its edges must carry Z, mapped identically")
    complex_ = assemble_system(tree, provider, view.vertex_ids, view.edge_ids)
    c0, d1 = complex_.groups[0], complex_.boundaries[0].matrix
    cokernel = PresentedGroup(c0.gens, d1.hstack(c0.relations))
    h0, c = canonical_with_class(cokernel, to_line.matrix.cols[0])
    return h0, homology_at(complex_, 1), c


class _UnitSystem:
    """The constant unit system Z with identity maps: degree 0 of every spec."""

    def provider(self, tree, q):
        return TokenProvider(tree, degree_zero_tokens(tree), BATTERY_A)


UNIT_SYSTEM = _UnitSystem()


def _system(spec, q):
    """(spec, degree) of the system that stands for spec's degree q."""
    return (UNIT_SYSTEM, 0) if q == 0 else (spec, spec.system_degree(q))


def _branch_tree(case, depth, attach):
    """A one-line tree whose branch stands for every line of that case."""
    summary = synthetic_summary(**{f"case{case}": 1})
    return build_domain(summary, depth, attach if case == 2 else 1)


def _branch_system_e2(spec, case, depth, attach, q):
    """(H0, H1) of one branch of a system that _system names, and for the
    unit system also the class c of its root edge (rooted_branch_e2)."""
    tree = _branch_tree(case, depth, attach)
    view = tree.subtrees()[0]
    provider = spec.provider(tree, q)
    if spec is UNIT_SYSTEM:
        return rooted_branch_e2(tree, provider, view)
    return e2_pair(assemble_system(tree, provider, view.vertex_ids, view.edge_ids))


_branch_e2 = lru_cache(maxsize=None)(_branch_system_e2)


def _system_e2(tree, spec, q, branch_e2=None):
    """E2 glued from branch_e2 per branch, by default the cached _branch_e2."""
    branch_e2 = branch_e2 or _branch_e2
    return assemble_over_branches(
        tree,
        lambda v: branch_e2(spec, v.line_class.case, tree.depth, tree.attach, q),
        root_carries_z=spec is UNIT_SYSTEM,
    )


def e2(tree, spec, q):
    """(H0, H1) of spec's degree-q system, split over line branches.

    Branches are shared by every tree, and every degree, with the same
    system; degree 0 shares them between specs too.
    """
    return _system_e2(tree, *_system(spec, q))


def e2_whole_tree(tree, spec, q):
    """E2 assembled on the whole tree at once; the reference for e2."""
    spec, q = _system(spec, q)
    return e2_pair(assemble_system(tree, spec.provider(tree, q)))


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
            out.append((TOKEN_PGL2K, point_label(lc.points[0])))
        elif lc.case == 3:
            out.append((TOKEN_UNITS, f"x={lc.label}"))
        else:
            out.append((TOKEN_QUAD, f"x={lc.label}"))
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

    Measured on the matrix-level groups (before the central quotient):
    the inclusion (a, d) -> (a, d, 0) of the diagonal into the depth-n
    triangular group.  Entries that exceed the ceilings are recorded as
    skipped rather than guessed, from the groups' closed-form sizes
    before either is built.
    """
    out = []
    for n in range(1, depth + 1):
        for q in range(1, q_max + 1):
            entry = {"depth": n, "degree": q}
            try:
                for name, order in (triangular_size(field, 0), triangular_size(field, n)):
                    check_ceilings(name, order, q, limits, CHAIN_DATA)
                f = induced_map(diagonal_to_triangular(field, n), q, limits)
                entry["isomorphism"] = f.is_isomorphism()
            except TooLargeError as exc:
                entry["skipped"] = str(exc)
            out.append(entry)
    return out


def report(tree, spec, q_max, curve=None):
    """Per-degree comparison of spec's assembled homology with the prediction.

    The spec's preflight first refuses what the run would refuse, before
    anything is built.  E2 and the prediction are computed once per
    distinct system, and E2 of every degree 0..q_max before any
    prediction, so a refusal comes from the tree's stabilizers first.
    Degrees whose extension part is nonzero are flagged instead of
    asserted.
    """
    spec.preflight(tree, q_max)
    system = [_system(spec, q) for q in range(q_max + 1)]
    e2_of = {s: _system_e2(tree, *s) for s in dict.fromkeys(system)}
    predicted_of = {s: predicted(tree.summary, spec, s[1]) for s in dict.fromkeys(system[1:])}
    rhs = rhs_tokens(tree.summary)
    degrees = [
        _degree_entry(i, e2_of[system[i]][0], e2_of[system[i - 1]][1], predicted_of[system[i]], rhs)
        for i in range(1, q_max + 1)
    ]
    return {
        "curve": curve.to_json() if curve is not None else None,
        "field": curve.field.to_json() if curve is not None else None,
        "depth": tree.depth,
        "attach": tree.attach,
        "degrees": degrees,
        **spec.report_fields(tree.depth, q_max),
    }


def report_to_json_text(report):
    """Canonical serialization: sorted keys, two-space indent, newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


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
