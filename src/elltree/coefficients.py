"""Coefficient systems on the domain tree and the homology they assemble.

A coefficient system assigns an abelian group to every vertex and edge of
the tree and, for each edge, a map toward each endpoint.  Two assignments
are provided:

  symbolic: groups are role tokens (one per stabilizer type) and maps are
    tags (iso / zero / unconstrained); tokens are instantiated through a
    battery that sends each role to a small group with coprime torsion so
    wiring mistakes show up in the canonical form.

  concrete: groups are the integral homology of actual finite stabilizer
    groups over a chosen field, and maps are induced by explicit inclusion
    homomorphisms.

Either way the system yields a two-term chain complex: degree 0 sums the
vertex groups, degree 1 sums the edge groups, and the boundary of an edge
is (map toward head) minus (map toward tail) with edges oriented away
from the root.  Homology in degree 0 and 1 of this complex is what the
spectral-sequence assembly consumes: writing E0(q), E1(q) for the two
homology groups of the degree-q system, the assembled group in degree
i >= 1 is E0(i) + E1(i-1), flagged when E1(i-1) is nonzero because the
direct sum is then only one resolution of an extension problem.

A branch's E2 depends only on its line's case, the depth and the cap
attachment, so E2 is computed once per branch shape and glued at the root
(assemble_over_branches); the *_monolithic routines cross-check this.

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
    DEFAULT_LIMITS,
    GroupHom,
    additive_group,
    additive_to_cusp,
    bar_homology,
    cusp_chain_inclusion,
    cusp_group,
    cusp_to_pgl2,
    cyclic,
    diagonal_to_triangular,
    homology_presentation,
    induced_map,
    pgl2,
    quad_units_group,
    unit_group,
    units_to_cusp,
)
from .tree import build_domain

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
    mis-wiring of the system changes the assembled canonical form.
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
        if token == TOKEN_PGL2K:
            return self.pgl2k
        if token == TOKEN_UNITS:
            return self.units
        if token == TOKEN_QUAD:
            return self.quad
        if token == TOKEN_ADDITIVE:
            return self.additive
        if token == TOKEN_ZERO:
            return TRIVIAL_GROUP
        if token == TOKEN_Z0:
            return FgAbGroup(1, ())
        raise KeyError(f"unknown token {token!r}")

    def with_resolution(self, resolution):
        return replace(self, resolution=resolution)


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


# ---------------------------------------------------------------------------
# assembled systems and their two-term complex


@dataclass
class AssembledSystem:
    """Presented groups per simplex plus wired edge maps.

    edge_wiring[j] = (tail position, head position, map toward tail,
    map toward head) for the j-th included edge.
    """

    vertex_groups: list
    edge_groups: list
    edge_wiring: list


def _resolve_tag(tag, source, target, same_token, resolution):
    if tag == ZERO_MAP:
        return AbHom.zero(source, target)
    if tag == ISO:
        if not same_token:
            raise ValueError("iso tag between different tokens")
        return AbHom(source, target, IntMatrix.identity(source.gens), check=False)
    if resolution == ZERO_MAP:
        return AbHom.zero(source, target)
    return canonical_max_hom(source, target)


def instantiate_tokens(tree, tokens, inst, vertex_ids=None, edge_ids=None):
    """Resolve a token system into presented groups and checked maps.

    vertex_ids and edge_ids restrict to a subtree; default is the whole
    tree.  Presented groups are shared per token so edge maps line up.
    """
    if vertex_ids is None:
        vertex_ids = [v.vid for v in tree.vertices]
    if edge_ids is None:
        edge_ids = [e.eid for e in tree.edges]
    presented = {}

    def presented_for(token):
        if token not in presented:
            presented[token] = PresentedGroup.from_group(inst.group_for(token))
        return presented[token]

    vpos = {vid: i for i, vid in enumerate(vertex_ids)}
    vertex_groups = [presented_for(tokens.vertex_tokens[vid]) for vid in vertex_ids]
    edge_groups = []
    wiring = []
    for eid in edge_ids:
        e = tree.edges[eid]
        et = tokens.edge_tokens[eid]
        eg = presented_for(et.token)
        edge_groups.append(eg)
        tail_token = tokens.vertex_tokens[e.tail]
        head_token = tokens.vertex_tokens[e.head]
        to_tail = _resolve_tag(
            et.toward_tail, eg, presented_for(tail_token),
            et.token == tail_token, inst.resolution,
        )
        to_head = _resolve_tag(
            et.toward_head, eg, presented_for(head_token),
            et.token == head_token, inst.resolution,
        )
        wiring.append((vpos[e.tail], vpos[e.head], to_tail, to_head))
    return AssembledSystem(vertex_groups, edge_groups, wiring)


def two_column_complex(system):
    """The chain complex (vertex sum) <- (edge sum) of an assembled system."""
    c0 = PresentedGroup.direct_sum(system.vertex_groups) if system.vertex_groups else PresentedGroup(0)
    c1 = PresentedGroup.direct_sum(system.edge_groups) if system.edge_groups else PresentedGroup(0)
    v_off = []
    acc = 0
    for g in system.vertex_groups:
        v_off.append(acc)
        acc += g.gens
    cols = []
    for eg, (tp, hp, to_tail, to_head) in zip(system.edge_groups, system.edge_wiring):
        tail_cols = to_tail.matrix.cols
        head_cols = to_head.matrix.cols
        for j in range(eg.gens):
            col = {}
            for i, v in head_cols[j].items():
                col[v_off[hp] + i] = col.get(v_off[hp] + i, 0) + v
            for i, v in tail_cols[j].items():
                key = v_off[tp] + i
                val = col.get(key, 0) - v
                if val:
                    col[key] = val
                else:
                    col.pop(key, None)
            cols.append(col)
    d1 = AbHom(c1, c0, IntMatrix.from_sparse_cols(cols, c0.gens))
    return ChainComplexFg([c0, c1], [d1])


def e2_pair(system):
    """Homology of the two-term complex: (degree 0, degree 1)."""
    complex_ = two_column_complex(system)
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
            raise TooLargeError(
                f"{exc.what} [line x={view.line_class.label}]", exc.size, exc.ceiling
            ) from exc
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


def rooted_branch_e2(tree, tokens, inst, view):
    """(H0, H1, c) of a branch; c is the class its root edge hits in H0.

    The root and root edge must carry Z, the edge mapping identically to
    the root.  c is in the canonical presentation of H0.
    """
    stub = instantiate_tokens(tree, tokens, inst, (0, view.vertex_ids[0]), (view.root_edge_id,))
    _, _, to_root, to_line = stub.edge_wiring[0]
    free = not (stub.vertex_groups[0].relations.ncols or stub.edge_groups[0].relations.ncols)
    if not free or to_root.matrix != IntMatrix.identity(1):
        raise ValueError("the root and its edges must carry Z, mapped identically")
    system = instantiate_tokens(tree, tokens, inst, view.vertex_ids, view.edge_ids)
    complex_ = two_column_complex(system)
    c0, d1 = complex_.groups[0], complex_.boundaries[0].matrix
    cokernel = PresentedGroup(c0.gens, d1.hstack(c0.relations))
    h0, c = canonical_with_class(cokernel, to_line.matrix.cols[0])
    return h0, homology_at(complex_, 1), c


def _branch_tree(case, depth, attach):
    """A one-line tree whose branch stands for every line of that case."""
    summary = synthetic_summary(**{f"case{case}": 1})
    return build_domain(summary, depth, attach if case == 2 else 1)


@lru_cache(maxsize=None)
def _symbolic_branch_e2(case, depth, attach, inst):
    tree = _branch_tree(case, depth, attach)
    view = tree.subtrees()[0]
    tokens = symbolic_tokens(tree)
    return e2_pair(instantiate_tokens(tree, tokens, inst, view.vertex_ids, view.edge_ids))


@lru_cache(maxsize=None)
def _degree_zero_branch_e2(case, depth, attach):
    tree = _branch_tree(case, depth, attach)
    return rooted_branch_e2(tree, degree_zero_tokens(tree), BATTERY_A, tree.subtrees()[0])


def symbolic_e2(tree, inst):
    """E2 of the full degree-q system (q >= 1), split over line branches."""
    return assemble_over_branches(
        tree, lambda v: _symbolic_branch_e2(v.line_class.case, tree.depth, tree.attach, inst)
    )


def symbolic_e2_monolithic(tree, inst):
    """E2 computed on the whole tree at once; cross-check for the split."""
    return e2_pair(instantiate_tokens(tree, symbolic_tokens(tree), inst))


def degree_zero_e2(tree):
    """E2 of the constant unit system, split over line branches.

    The root and its edges carry Z here, so the branches are glued at the
    root.  The cost grows with the number of lines, not of vertices.
    """
    return assemble_over_branches(
        tree,
        lambda v: _degree_zero_branch_e2(v.line_class.case, tree.depth, tree.attach),
        root_carries_z=True,
    )


def degree_zero_e2_monolithic(tree):
    """The constant unit system on the whole tree; cross-check for the split."""
    return e2_pair(instantiate_tokens(tree, degree_zero_tokens(tree), BATTERY_A))


# ---------------------------------------------------------------------------
# concrete systems over a finite field


def _identity_hom(group):
    return GroupHom(group, group, range(group.order))


def _concrete_vertex_group(vertex, case_of_line, field):
    if vertex.kind == "root":
        return cyclic(1)
    if vertex.kind == "line":
        case = case_of_line[vertex.line]
        if case == 1:
            return quad_units_group(field)[0]
        if case == 2:
            return additive_group(field)
        return unit_group(field)
    if vertex.kind == "cusp":
        return cusp_group(field, vertex.depth)[0]
    return pgl2(field)


def _concrete_edge_data(edge, case_of_line, field):
    """(edge group, hom toward tail, hom toward head) for one edge.

    Root edges carry the trivial group and are wired by the caller.
    """
    if edge.kind == "line-cusp":
        if case_of_line[edge.line] == 2:
            g = additive_group(field)
            return g, _identity_hom(g), additive_to_cusp(field)
        g = unit_group(field)
        return g, _identity_hom(g), units_to_cusp(field)
    if edge.kind == "cusp-cusp":
        g = cusp_group(field, edge.depth)[0]
        return g, _identity_hom(g), cusp_chain_inclusion(field, edge.depth)
    # cusp-cap: the edge carries the depth-1 group; toward the cusp it
    # includes up to the attachment depth, toward the cap it maps into
    # the full projective group
    g = cusp_group(field, 1)[0]
    if edge.depth == 1:
        to_tail = _identity_hom(g)
    else:
        to_tail = cusp_chain_inclusion(field, 1)
    return g, to_tail, cusp_to_pgl2(field)


def concrete_system(tree, q, field, limits=DEFAULT_LIMITS, vertex_ids=None, edge_ids=None):
    """Induced-homology system in degree q over an explicit field.

    Raises TooLargeError naming the offending simplex when a stabilizer
    exceeds the homology ceilings.
    """
    if vertex_ids is None:
        vertex_ids = [v.vid for v in tree.vertices]
    if edge_ids is None:
        edge_ids = [e.eid for e in tree.edges]
    case_of_line = {lc.label: lc.case for lc in tree.summary.lines}
    vpos = {vid: i for i, vid in enumerate(vertex_ids)}
    vertex_groups = []
    for vid in vertex_ids:
        v = tree.vertices[vid]
        try:
            vertex_groups.append(
                homology_presentation(_concrete_vertex_group(v, case_of_line, field), q, limits)
            )
        except TooLargeError as exc:
            raise TooLargeError(f"{exc.what} [vertex {v.tag}]", exc.size, exc.ceiling)
    edge_groups = []
    wiring = []
    trivial = PresentedGroup(0)
    for eid in edge_ids:
        e = tree.edges[eid]
        if e.kind == "root-line":
            edge_groups.append(trivial)
            wiring.append(
                (
                    vpos[e.tail],
                    vpos[e.head],
                    AbHom.zero(trivial, vertex_groups[vpos[e.tail]]),
                    AbHom.zero(trivial, vertex_groups[vpos[e.head]]),
                )
            )
            continue
        group, hom_tail, hom_head = _concrete_edge_data(e, case_of_line, field)
        try:
            edge_groups.append(homology_presentation(group, q, limits))
            wiring.append(
                (
                    vpos[e.tail],
                    vpos[e.head],
                    induced_map(hom_tail, q, limits),
                    induced_map(hom_head, q, limits),
                )
            )
        except TooLargeError as exc:
            tag = f"{tree.vertices[e.tail].tag}--{tree.vertices[e.head].tag}"
            raise TooLargeError(f"{exc.what} [edge {tag}]", exc.size, exc.ceiling)
    return AssembledSystem(vertex_groups, edge_groups, wiring)


@lru_cache(maxsize=None)
def _concrete_branch_e2(case, depth, attach, field, q, limits):
    tree = _branch_tree(case, depth, attach)
    view = tree.subtrees()[0]
    system = concrete_system(tree, q, field, limits, view.vertex_ids, view.edge_ids)
    return e2_pair(system)


def concrete_e2(tree, q, field, limits=DEFAULT_LIMITS):
    """E2 of the concrete degree-q system (q >= 1), split over line branches."""
    return assemble_over_branches(
        tree,
        lambda v: _concrete_branch_e2(v.line_class.case, tree.depth, tree.attach, field, q, limits),
    )


def concrete_e2_monolithic(tree, q, field, limits=DEFAULT_LIMITS):
    return e2_pair(concrete_system(tree, q, field, limits))


# ---------------------------------------------------------------------------
# predicted decomposition


def rhs_tokens(summary):
    """Labeled token factors of the predicted decomposition, in line order.

    One projective-linear factor per negation-fixed point, one units
    factor per twice-meeting line, one quadratic-units factor per line
    missing the curve.
    """
    from .tree import point_label

    out = []
    for lc in summary.lines:
        if lc.case == 2:
            out.append((TOKEN_PGL2K, point_label(lc.points[0])))
        elif lc.case == 3:
            out.append((TOKEN_UNITS, f"x={lc.label}"))
        else:
            out.append((TOKEN_QUAD, f"x={lc.label}"))
    return out


def instantiated_rhs(summary, inst):
    return direct_sum_groups([inst.group_for(t) for t, _ in rhs_tokens(summary)])


def concrete_token_group(token, field, i, limits=DEFAULT_LIMITS):
    if token == TOKEN_PGL2K:
        return bar_homology(pgl2(field), i, limits)
    if token == TOKEN_UNITS:
        return bar_homology(unit_group(field), i, limits)
    if token == TOKEN_QUAD:
        return bar_homology(quad_units_group(field)[0], i, limits)
    raise KeyError(f"token {token!r} has no concrete counterpart")


def concrete_rhs(summary, field, i, limits=DEFAULT_LIMITS):
    return direct_sum_groups(
        [concrete_token_group(t, field, i, limits) for t, _ in rhs_tokens(summary)]
    )


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


def symbolic_report(summary, depth, inst, q_max=5, attach=1, curve=None, field=None):
    """Per-degree comparison of assembled homology against the prediction.

    The symbolic system is degree-independent, so one E2 computation
    serves every degree; only the degree-1 entry differs, borrowing its
    extension part from the constant unit system.  Both E2 computations
    are split over line branches, so the cost grows with the number of
    lines and the depth, not with the size of the assembled tree.
    """
    tree = build_domain(summary, depth, attach)
    e20, e21 = symbolic_e2(tree, inst)
    _, z_e21 = degree_zero_e2(tree)
    rhs = rhs_tokens(summary)
    predicted = instantiated_rhs(summary, inst)
    degrees = []
    for i in range(1, q_max + 1):
        prev = z_e21 if i == 1 else e21
        degrees.append(_degree_entry(i, e20, prev, predicted, rhs))
    return {
        "mode": "symbolic",
        "curve": curve.to_json() if curve is not None else None,
        "field": field.to_json() if field is not None else None,
        "depth": depth,
        "attach": attach,
        "battery": inst.name,
        "resolution": inst.resolution,
        "degrees": degrees,
    }


def measure_diagonal_reduction(field, depth, q_max, limits=DEFAULT_LIMITS):
    """Whether torus-into-triangular induces isomorphisms on homology.

    Measured on the matrix-level groups (before the central quotient):
    the inclusion (a, d) -> (a, d, 0) of the diagonal into the depth-n
    triangular group.  Entries that exceed the ceilings are recorded as
    skipped rather than guessed.
    """
    out = []
    for n in range(1, depth + 1):
        for q in range(1, q_max + 1):
            entry = {"depth": n, "degree": q}
            try:
                f = induced_map(diagonal_to_triangular(field, n), q, limits)
                entry["isomorphism"] = f.is_isomorphism()
            except TooLargeError as exc:
                entry["skipped"] = str(exc)
            out.append(entry)
    return out


def concrete_report(curve, depth, q_max=2, attach=1, limits=DEFAULT_LIMITS):
    """Full concrete pipeline over the curve's field.

    The prediction is instantiated with the honest finite-group homology
    of the role groups; degrees where the extension part is nonzero are
    flagged instead of asserted.
    """
    field = curve.field
    summary = curve.classify_all()
    tree = build_domain(summary, depth, attach)
    e2_by_q = {0: degree_zero_e2(tree)}
    for q in range(1, q_max + 1):
        e2_by_q[q] = concrete_e2(tree, q, field, limits)
    rhs = rhs_tokens(summary)
    degrees = []
    for i in range(1, q_max + 1):
        predicted = concrete_rhs(summary, field, i, limits)
        degrees.append(
            _degree_entry(i, e2_by_q[i][0], e2_by_q[i - 1][1], predicted, rhs)
        )
    return {
        "mode": "concrete",
        "curve": curve.to_json(),
        "field": field.to_json(),
        "depth": depth,
        "attach": attach,
        "battery": None,
        "resolution": None,
        "degrees": degrees,
        "diagonal_reduction": measure_diagonal_reduction(field, depth, q_max, limits),
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
