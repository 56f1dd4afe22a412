"""Tests for token systems, their instantiations, and the two-column E2.

Expected groups for the concrete runs over GF(2) are frozen from hand
computations with standard finite-group homology: the depth-n upper
triangular quotients are elementary abelian 2-groups C2^n, so a chain of
them contributes (Z/2)^N in degree 1 and (Z/2)^(N(N-1)/2) in degree 2
once consecutive inclusions are glued.
"""

import hashlib
import json
import random
import re
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from elltree.abelian import (
    AbHom,
    ChainComplexFg,
    FgAbGroup,
    IntMatrix,
    PresentedGroup,
    TRIVIAL_GROUP,
    direct_sum_groups,
    homology_at,
    prime_powers,
)
from elltree.coefficients import (
    BATTERIES,
    BATTERY_A,
    BATTERY_B,
    ISO,
    MAX_REPORT_ROWS,
    REPORT_SCHEMA,
    TOKEN_ADDITIVE,
    TOKEN_PGL2K,
    TOKEN_QUAD,
    TOKEN_UNITS,
    TOKEN_Z0,
    TOKEN_ZERO,
    UNCONSTRAINED,
    ZERO_MAP,
    ConcreteProvider,
    ConcreteSpec,
    EdgeTokens,
    Instantiation,
    TokenProvider,
    assemble_over_branches,
    assemble_system,
    canonical_max_hom,
    e2,
    e2_pair,
    e2_whole_tree,
    measure_diagonal_reduction,
    predicted,
    report,
    report_to_json_text,
    rhs_tokens,
    symbolic_tokens,
)
from elltree import abelian, cli, coefficients, groups
from elltree.cli import LARGE_LIMITS
from elltree.coefficients import _branch_e2
from elltree.curve import ClassificationSummary, WeierstrassCurve, synthetic_summary
from elltree.errors import TooLargeError
from elltree.field import make_field
from elltree.groups import DEFAULT_LIMITS, BarLimits
from elltree.tree import branch_tree, build_domain
from helpers import assemble_uncontracted, degree_zero_row, is_zero_hom, kernel_basis, use_lattice_seam


def fg(rank, *torsion):
    return FgAbGroup(rank, tuple(torsion))


def corpus():
    return [
        WeierstrassCurve(make_field(3, 1), 0, 0, 0, -1, 0),
        WeierstrassCurve(make_field(5, 1), 0, 0, 0, -1, 0),
        WeierstrassCurve(make_field(7, 1), 0, 0, 0, -1, 0),
        WeierstrassCurve(make_field(5, 1), 0, 0, 0, 1, 1),
        WeierstrassCurve(make_field(2, 1), 0, 0, 1, 0, 0),
        WeierstrassCurve(make_field(2, 1), 1, 0, 0, 0, 1),
    ]


F2 = make_field(2, 1)
CURVE_F2_A = WeierstrassCurve(F2, 0, 0, 1, 0, 0)
CURVE_F2_B = WeierstrassCurve(F2, 1, 0, 0, 0, 1)


# ---------------------------------------------------------------------------
# instantiations


def test_battery_groups():
    assert BATTERY_A.group_for(TOKEN_PGL2K) == fg(1, 3)
    assert BATTERY_A.group_for(TOKEN_UNITS) == fg(0, 5)
    assert BATTERY_A.group_for(TOKEN_QUAD) == fg(0, 7)
    assert BATTERY_A.group_for(TOKEN_ADDITIVE) == fg(0, 11)
    assert BATTERY_B.group_for(TOKEN_PGL2K) == fg(0, 5)
    assert BATTERY_B.group_for(TOKEN_UNITS) == fg(1, 3)
    assert BATTERY_A.group_for(TOKEN_ZERO) == TRIVIAL_GROUP
    assert BATTERY_A.group_for(TOKEN_Z0) == fg(1)
    assert set(BATTERIES) == {"A", "B"}


def test_battery_roles_must_differ():
    with pytest.raises(ValueError):
        Instantiation("bad", fg(0, 5), fg(0, 5), fg(0, 7), fg(0, 11))


def test_with_resolution():
    assert BATTERY_A.resolution == ZERO_MAP
    alt = BATTERY_A.with_resolution(ISO)
    assert alt.resolution == ISO
    assert alt.group_for(TOKEN_PGL2K) == BATTERY_A.group_for(TOKEN_PGL2K)


@pytest.mark.parametrize("fits,over", [
    ((1, MAX_REPORT_ROWS), (1, MAX_REPORT_ROWS + 1)),
    ((100, 10**4), (101, 9901)),
])
def test_symbolic_preflight_refuses_past_the_row_ceiling(fits, over):
    # one rhs row per line and degree: exactly the ceiling passes, one row
    # more refuses
    assert (fits[0] * fits[1], over[0] * over[1]) == (MAX_REPORT_ROWS, MAX_REPORT_ROWS + 1)
    BATTERY_A.preflight(synthetic_summary(case1=fits[0]), 2, 1, fits[1])
    with pytest.raises(TooLargeError) as info:
        BATTERY_A.preflight(synthetic_summary(case1=over[0]), 2, 1, over[1])
    assert str(info.value) == (f"symbolic report rows ({over[0]} lines, q-max {over[1]}): "
                               f"size {MAX_REPORT_ROWS + 1} exceeds ceiling {MAX_REPORT_ROWS}")


# ---------------------------------------------------------------------------
# the canonical maximal hom used by the iso resolution


def test_canonical_hom_identity_when_equal():
    g = PresentedGroup.from_group(fg(1, 3))
    f = canonical_max_hom(g, g)
    assert f.matrix.cols == ({0: 1}, {1: 1})


def test_canonical_hom_free_onto_torsion():
    # Z + Z/3 -> Z/5: the free generator lands on the torsion generator,
    # the Z/3 part admits no nonzero image.
    src = PresentedGroup.from_group(fg(1, 3))
    dst = PresentedGroup.from_group(fg(0, 5))
    f = canonical_max_hom(src, dst)
    assert f.matrix.cols == ({0: 1}, {})
    assert not is_zero_hom(f)


def test_canonical_hom_coprime_torsion_is_zero():
    src = PresentedGroup.from_group(fg(0, 5))
    dst = PresentedGroup.from_group(fg(1, 3))
    f = canonical_max_hom(src, dst)
    assert is_zero_hom(f)


def test_canonical_hom_torsion_scaling():
    # Z/4 -> Z/8 needs the doubling map to be well defined.
    src = PresentedGroup.from_group(fg(0, 4))
    dst = PresentedGroup.from_group(fg(0, 8))
    f = canonical_max_hom(src, dst)
    assert f.matrix.cols == ({0: 2},)


def test_canonical_hom_well_defined_battery():
    pool = [fg(1, 3), fg(0, 5), fg(0, 7), fg(0, 11), fg(2), fg(0, 2, 4), fg(0)]
    for a in pool:
        for b in pool:
            # construction verifies well-definedness eagerly
            canonical_max_hom(PresentedGroup.from_group(a), PresentedGroup.from_group(b))


# ---------------------------------------------------------------------------
# symbolic branch results


@pytest.mark.parametrize("case,token", [(1, TOKEN_QUAD), (2, TOKEN_PGL2K), (3, TOKEN_UNITS)])
@pytest.mark.parametrize("depth", [1, 2, 5])
@pytest.mark.parametrize("battery", ["A", "B"])
@pytest.mark.parametrize("resolution", [ZERO_MAP, ISO])
def test_branch_collapses_to_single_token(case, token, depth, battery, resolution):
    inst = BATTERIES[battery].with_resolution(resolution)
    h0, h1 = _branch_e2(inst, case, depth, 1, 1)
    assert h0 == inst.group_for(token)
    assert h1 == TRIVIAL_GROUP


@pytest.mark.parametrize("depth", [2, 5])
@pytest.mark.parametrize("battery", ["A", "B"])
@pytest.mark.parametrize("resolution", [ZERO_MAP, ISO])
def test_branch_cap_attachment_insensitive(depth, battery, resolution):
    inst = BATTERIES[battery].with_resolution(resolution)
    assert _branch_e2(inst, 2, depth, 2, 1) == _branch_e2(inst, 2, depth, 1, 1)


def test_degree_zero_row_is_contractible():
    shapes = [synthetic_summary(case1=2, case2=1, case3=1, include_infinity_line=True)]
    shapes += [c.classify_all() for c in corpus()[:2]]
    for summary in shapes:
        for depth in (1, 3):
            assert degree_zero_row(build_domain(summary, depth)) == (fg(1), TRIVIAL_GROUP)


def test_empty_summary_degenerates():
    empty = ClassificationSummary(())
    assert e2(empty, 1, 1, BATTERY_A, 1) == (TRIVIAL_GROUP, TRIVIAL_GROUP)
    assert e2_whole_tree(build_domain(empty, 1), BATTERY_A, 1) == (TRIVIAL_GROUP, TRIVIAL_GROUP)
    assert degree_zero_row(build_domain(empty, 1)) == (fg(1), TRIVIAL_GROUP)


@pytest.mark.parametrize("spec", [BATTERY_A, ConcreteSpec(F2)], ids=["symbolic", "concrete"])
def test_e2_takes_degrees_from_one(spec):
    summary = CURVE_F2_A.classify_all()
    with pytest.raises(ValueError):
        e2(summary, 1, 1, spec, 0)
    with pytest.raises(ValueError):
        e2_whole_tree(build_domain(summary, 1), spec, 0)


def test_report_builds_no_degree_zero_system(monkeypatch):
    # E1(0) is the H1 of the constant system Z on a tree, so it is 0
    # without computing it
    def refuse(tree):
        raise AssertionError("a report built the degree-0 system")

    monkeypatch.setattr(coefficients, "degree_zero_tokens", refuse)
    summary = synthetic_summary(case1=2, case2=1, case3=1)
    for spec, q_max in ((BATTERY_A, 3), (BATTERY_B.with_resolution(ISO), 2), (ConcreteSpec(F2), 2)):
        rep = report(summary, 2, 1, spec, q_max)
        assert rep["degrees"][0]["e2"]["col1"] == {"rank": 0, "torsion": []}


@settings(max_examples=60, deadline=None)
@given(
    counts=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    depth=st.integers(1, 4),
    attach=st.sampled_from([1, 2]),
)
def test_branch_sum_equals_whole_tree_on_synthetic_trees(counts, depth, attach):
    attach = min(attach, depth)
    summary = synthetic_summary(*counts)
    tree = build_domain(summary, depth, attach)
    for inst in (BATTERY_A, BATTERY_B.with_resolution(ISO)):
        assert e2(summary, depth, attach, inst, 1) == e2_whole_tree(tree, inst, 1)
    assert degree_zero_row(tree) == (fg(1), TRIVIAL_GROUP)


# Pairwise distinct roles with free parts and torsion, so that branch H0s
# carry both kinds of coordinate.
DESIGNED = Instantiation(
    "designed", pgl2k=fg(1, 4), units=fg(0, 6), quad=fg(2), additive=fg(1), resolution=ISO
)


# A system on three branches of synthetic_summary(case1=3, case2=1,
# case3=2), rewired by hand, by tag; the root and its edges carry 0, as
# in every degree q >= 1.
#
# The line s1.0 carries Z/6 and s1.1 carries Z^2.  The branch of s3.0
# (depth 2) has L - a1 - a2 and L - b1 - b2 with L = Z + Z/4, a1 = b2 = Z,
# a2 = Z/6, b1 = Z^2: L-a1 glues a1 to the free generator of L, a1-a2
# kills a2, b1-b2 kills b1, and the L-b1 edge plus b1-b2 then close a
# cycle, so H0 = Z^2 + Z/4 and H1 = Z.
L, A1, A2 = "line[s3.0]", "cusp[pt3.0+,1]", "cusp[pt3.0+,2]"
B1, B2 = "cusp[pt3.0-,1]", "cusp[pt3.0-,2]"
DESIGNED_VERTICES = {
    "line[s1.0]": TOKEN_UNITS, "line[s1.1]": TOKEN_QUAD,
    L: TOKEN_PGL2K, A1: TOKEN_ADDITIVE, A2: TOKEN_UNITS, B1: TOKEN_QUAD, B2: TOKEN_ADDITIVE,
}
DESIGNED_EDGES = {
    (L, A1): EdgeTokens(TOKEN_ADDITIVE, UNCONSTRAINED, ISO),
    (A1, A2): EdgeTokens(TOKEN_UNITS, UNCONSTRAINED, ISO),
    (L, B1): EdgeTokens(TOKEN_ADDITIVE, ZERO_MAP, UNCONSTRAINED),
    (B1, B2): EdgeTokens(TOKEN_QUAD, ISO, ZERO_MAP),
}


def designed_provider(tree):
    """The designed system on the whole tree of that summary or on a branch tree."""
    tokens = symbolic_tokens(tree)
    for v in tree.vertices:
        tokens.vertex_tokens[v.vid] = DESIGNED_VERTICES.get(v.tag, tokens.vertex_tokens[v.vid])
    for e in tree.edges:
        key = (tree.vertices[e.tail].tag, tree.vertices[e.head].tag)
        tokens.edge_tokens[e.eid] = DESIGNED_EDGES.get(key, tokens.edge_tokens[e.eid])
    return TokenProvider(tree, tokens, DESIGNED)


@pytest.mark.parametrize("attach", [1, 2])
def test_root_gluing_on_designed_branches(attach):
    # with 0 at the root, the branches meet there as a direct sum
    summary = synthetic_summary(case1=3, case2=1, case3=2)

    def branch_e2(line):
        tree = branch_tree(line, 2, attach)
        return e2_pair(assemble_system(tree, designed_provider(tree)))

    branches = {lc.line: branch_e2(lc) for lc in summary.lines}
    assert branches["s1.0"] == (fg(0, 6), TRIVIAL_GROUP)
    assert branches["s1.1"] == (fg(2), TRIVIAL_GROUP)
    assert branches["s3.0"] == (fg(2, 4), fg(1))
    summed = assemble_over_branches(summary, branch_e2)
    tree = build_domain(summary, 2, attach)
    assert summed == e2_pair(assemble_system(tree, designed_provider(tree)))
    assert summed[1] == fg(1)


# ---------------------------------------------------------------------------
# full-tree symbolic assembly


@pytest.mark.parametrize("battery", ["A", "B"])
@pytest.mark.parametrize("resolution", [ZERO_MAP, ISO])
def test_symbolic_matches_prediction_on_corpus(battery, resolution):
    inst = BATTERIES[battery].with_resolution(resolution)
    for curve in corpus():
        summary = curve.classify_all()
        h0, h1 = e2(summary, 2, 1, inst, 1)
        assert h0 == predicted(summary, inst, 1)
        assert h1 == TRIVIAL_GROUP


def test_split_equals_monolithic():
    for curve in corpus():
        summary = curve.classify_all()
        tree = build_domain(summary, 2)
        for inst in (BATTERY_A, BATTERY_B.with_resolution(ISO)):
            assert e2(summary, 2, 1, inst, 1) == e2_whole_tree(tree, inst, 1)


def test_truncation_invariance():
    curve = corpus()[1]
    summary = curve.classify_all()
    reports = [
        report(summary, depth, 1, BATTERY_A, 5, curve) for depth in (1, 2, 5, 10)
    ]
    for rep in reports[1:]:
        assert rep["degrees"] == reports[0]["degrees"]


def test_attachment_invariance():
    for curve in corpus()[:2]:
        summary = curve.classify_all()
        inst = BATTERY_B.with_resolution(ISO)
        assert e2(summary, 3, 1, inst, 1) == e2(summary, 3, 2, inst, 1)


def test_battery_sensitivity():
    # the two batteries assign different groups, so a curve with both
    # point-fixing and twice-meeting lines assembles differently
    curve = corpus()[1]
    summary = curve.classify_all()
    a = e2(summary, 2, 1, BATTERY_A, 1)[0]
    b = e2(summary, 2, 1, BATTERY_B, 1)[0]
    assert a != b
    assert a.rank == 4 and b.rank == 2


def test_branch_cache_one_miss_per_shape():
    # the cost of a symbolic report grows with the branch shapes, not the
    # lines or degrees, and degree 0 is not computed at all
    summary = synthetic_summary(case1=2, case2=3, case3=2)
    shapes = 3
    _branch_e2.cache_clear()
    report(summary, 2, 1, BATTERY_A, 5)
    assert _branch_e2.cache_info().misses == shapes
    report(summary, 2, 1, BATTERY_B, 5)
    assert _branch_e2.cache_info().misses == 2 * shapes
    report(summary, 2, 1, ConcreteSpec(F2), 2)
    assert _branch_e2.cache_info().misses == 4 * shapes  # degrees 1 and 2


# ---------------------------------------------------------------------------
# predicted decomposition tokens


def test_rhs_tokens_all_two_torsion():
    curve = corpus()[0]
    assert rhs_tokens(curve.classify_all()) == [
        (TOKEN_PGL2K, "(0,0)"),
        (TOKEN_PGL2K, "(1,0)"),
        (TOKEN_PGL2K, "(2,0)"),
        (TOKEN_PGL2K, "inf"),
    ]


def test_rhs_tokens_mixed_cases():
    curve = corpus()[1]
    assert rhs_tokens(curve.classify_all()) == [
        (TOKEN_PGL2K, "(0,0)"),
        (TOKEN_PGL2K, "(1,0)"),
        (TOKEN_UNITS, "x=2"),
        (TOKEN_UNITS, "x=3"),
        (TOKEN_PGL2K, "(4,0)"),
        (TOKEN_PGL2K, "inf"),
    ]


def test_rhs_tokens_with_empty_line():
    assert rhs_tokens(CURVE_F2_A.classify_all()) == [
        (TOKEN_UNITS, "x=0"),
        (TOKEN_QUAD, "x=1"),
        (TOKEN_PGL2K, "inf"),
    ]


def test_instantiated_rhs_canonical_form():
    summary = CURVE_F2_A.classify_all()
    for i in (1, 4):
        assert predicted(summary, BATTERY_A, i) == fg(1, 105)
        assert predicted(summary, BATTERY_B, i) == fg(1, 165)


# ---------------------------------------------------------------------------
# corruption is detected


def test_flipped_tag_changes_assembly():
    curve = corpus()[0]
    summary = curve.classify_all()
    tree = build_domain(summary, 1)
    tokens = symbolic_tokens(tree)
    eid = next(e.eid for e in tree.edges if e.kind == "line-cusp")
    flipped = tokens.with_flipped_tag(eid, "tail", ZERO_MAP)
    clean = e2_pair(assemble_system(tree, TokenProvider(tree, tokens, BATTERY_A)))
    broken = e2_pair(assemble_system(tree, TokenProvider(tree, flipped, BATTERY_A)))
    assert clean[0] == predicted(summary, BATTERY_A, 1)
    assert clean[1] == TRIVIAL_GROUP
    # the uncancelled additive factor shows up in both columns
    assert broken[0] != clean[0]
    assert broken[1] != TRIVIAL_GROUP


def test_flip_requires_real_edge_side():
    tree = build_domain(corpus()[0].classify_all(), 1)
    tokens = symbolic_tokens(tree)
    with pytest.raises(KeyError):
        tokens.with_flipped_tag(10_000, "tail", ZERO_MAP)
    eid = tree.edges[0].eid
    with pytest.raises(ValueError):
        tokens.with_flipped_tag(eid, "middle", ZERO_MAP)


# ---------------------------------------------------------------------------
# the contracted assembly against the uncontracted oracle


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_contraction_keeps_symbolic_e2(data):
    # 0-3 lines of each case, batteries A and B with both resolutions, and
    # in half the examples one edge tag flipped, which can make a cusp-cusp
    # map toward its tail non-identity and so leave that edge in place
    counts = [data.draw(st.integers(0, 3), label=f"case{c}") for c in (1, 2, 3)]
    depth = data.draw(st.integers(1, 12), label="depth")
    attach = data.draw(st.integers(1, min(2, depth)), label="attach")
    inst = BATTERIES[data.draw(st.sampled_from("AB"))].with_resolution(
        data.draw(st.sampled_from([ZERO_MAP, ISO])))
    tree = build_domain(synthetic_summary(*counts), depth, attach)
    tokens = symbolic_tokens(tree)
    if tree.edges and data.draw(st.booleans(), label="flip"):
        eid = data.draw(st.integers(0, len(tree.edges) - 1), label="edge")
        side = data.draw(st.sampled_from(["tail", "head"]))
        tokens = tokens.with_flipped_tag(eid, side, data.draw(st.sampled_from([ZERO_MAP, UNCONSTRAINED])))
    provider = TokenProvider(tree, tokens, inst)
    assert e2_pair(assemble_system(tree, provider)) == e2_pair(assemble_uncontracted(tree, provider))


_ROLES = [TOKEN_PGL2K, TOKEN_UNITS, TOKEN_QUAD, TOKEN_ADDITIVE]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_contraction_keeps_e2_of_random_systems(data):
    # random role tokens on every simplex off the root, through DESIGNED,
    # whose canonical maps between differing roles carry free parts and
    # multipliers such as Z/6 -> Z + Z/4, 1 -> 2: an edge sharing its
    # tail's token is tagged iso toward it and contracts, and the maps it
    # composes into the moved edges are not all identities
    counts = [data.draw(st.integers(0, 2), label=f"case{c}") for c in (1, 2, 3)]
    depth = data.draw(st.integers(1, 6), label="depth")
    tree = build_domain(synthetic_summary(*counts), depth, data.draw(st.integers(1, min(2, depth))))
    tokens = symbolic_tokens(tree)
    role = st.sampled_from(_ROLES)
    for v in tree.vertices[1:]:
        tokens.vertex_tokens[v.vid] = data.draw(role)
    for e in tree.edges:
        if e.tail == 0:
            continue
        ends = [tokens.vertex_tokens[e.tail], tokens.vertex_tokens[e.head]]
        token = data.draw(st.sampled_from(ends + _ROLES))
        tail, head = (ISO if end == token else data.draw(st.sampled_from([ZERO_MAP, UNCONSTRAINED]))
                      for end in ends)
        tokens.edge_tokens[e.eid] = EdgeTokens(token, tail, head)
    provider = TokenProvider(tree, tokens, DESIGNED)
    assert e2_pair(assemble_system(tree, provider)) == e2_pair(assemble_uncontracted(tree, provider))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_contraction_keeps_concrete_e2(data):
    # inclusions between cusp groups of different depths are not the
    # identity, so only the edges whose group is their tail's contract
    field = data.draw(st.sampled_from([F2, make_field(3, 1)]), label="field")
    counts = [data.draw(st.integers(0, 1), label=f"case{c}") for c in (1, 2, 3)]
    depth = data.draw(st.integers(1, 3), label="depth")
    attach = data.draw(st.integers(1, min(2, depth)), label="attach")
    q = data.draw(st.integers(1, 2), label="q")
    tree = build_domain(synthetic_summary(*counts), depth, attach)
    provider = ConcreteProvider(tree, field, q, BarLimits(max_order=400, dense_columns=10**9))
    assert e2_pair(assemble_system(tree, provider)) == e2_pair(assemble_uncontracted(tree, provider))


def _boundary_record(b):
    def cols(x):
        return tuple(tuple(sorted(c.items())) for c in x.cols)

    def rels(p):
        return (p.gens, cols(p.relations))

    return (b.matrix.nrows, b.matrix.ncols, cols(b.matrix), rels(b.source), rels(b.target))


def _records_digest(boundaries):
    return hashlib.sha256(repr([_boundary_record(b) for b in boundaries]).encode()).hexdigest()


def _concrete_branch_systems():
    """(spec, tree, q) of the pinned concrete one-line branches, each field
    at depth, attach, case, q."""
    limits = BarLimits(max_order=10**4, dense_columns=10**30)
    for (p, k), depths, qs in [((2, 1), (1, 2, 3), (1, 2, 3)), ((3, 1), (1, 2), (1, 2)), ((2, 2), (1,), (1, 2))]:
        spec = ConcreteSpec(make_field(p, k), limits)
        for depth in depths:
            for attach in range(1, min(2, depth) + 1):
                for case in (1, 2, 3):
                    tree = branch_tree(coefficients._CASE_LINES[case], depth, attach)
                    for q in qs:
                        yield spec, tree, q


def test_assembled_boundaries_are_pinned():
    # the matrices the Smith engine receives, not only their E2: whole
    # symbolic trees under both batteries and resolutions plus degree 0,
    # then concrete one-line branches.  The concrete half was re-pinned
    # when deep cusp groups came to be presented from unipotent_rank; the
    # lattice route's boundaries keep the old digest, and their E2 is
    # checked equal in the test below
    symbolic = []
    for counts in [(1, 1, 1), (0, 2, 3), (3, 1, 2)]:
        for depth, attach in [(1, 1), (2, 1), (2, 2), (5, 1), (5, 2)]:
            tree = build_domain(synthetic_summary(*counts, include_infinity_line=True), depth, attach)
            tokens = symbolic_tokens(tree)
            for inst in (BATTERY_A, BATTERY_B):
                for resolution in (ZERO_MAP, ISO):
                    provider = TokenProvider(tree, tokens, inst.with_resolution(resolution))
                    symbolic.append(assemble_system(tree, provider))
            provider = TokenProvider(tree, coefficients.degree_zero_tokens(tree), BATTERY_A)
            symbolic.append(assemble_system(tree, provider))
    concrete = [assemble_system(tree, spec.provider(tree, q)) for spec, tree, q in _concrete_branch_systems()]
    assert (len(symbolic), len(concrete)) == (75, 69)
    assert _records_digest(symbolic) == "e93e32d6552fbe95a38e4dec43007580f98daed93cfbc8eb2de8eaccd3f7a7ee"
    assert _records_digest(concrete) == "8991b35616ba05b440c2e66d0b884d3ceeb5533835a02c0f53a092e5be3cbee7"


def test_concrete_boundaries_have_the_lattice_routes_e2(monkeypatch):
    # each pinned concrete branch against the same tree assembled with
    # every stabilizer resolved, whose boundaries are the pre-count ones
    systems = list(_concrete_branch_systems())
    counted = [e2_pair(assemble_system(tree, spec.provider(tree, q))) for spec, tree, q in systems]
    use_lattice_seam(monkeypatch)
    lattice = [assemble_system(tree, spec.provider(tree, q)) for spec, tree, q in systems]
    assert _records_digest(lattice) == "a95803a478945916dd1dd18b4dc7de2929e80a36612144b52b0edaa580e86c25"
    assert counted == [e2_pair(b) for b in lattice]


def test_elimination_size_does_not_grow_with_depth(cold_caches, monkeypatch):
    # a structural guard, not a timing: with the cusp rays contracted, the
    # largest matrix a symbolic report eliminates does not depend on depth
    cells = []
    init = abelian._SmithEngine.__init__

    def recorded(self, row_dicts, nrows, ncols):
        cells.append(nrows * ncols)
        init(self, row_dicts, nrows, ncols)

    monkeypatch.setattr(abelian._SmithEngine, "__init__", recorded)
    summary = synthetic_summary(1, 1, 1)
    largest = {}
    for depth in (5, 200):
        cells.clear()
        for inst in (BATTERY_A, BATTERY_B.with_resolution(ISO)):
            report(summary, depth, 1, inst, 5)
            report(summary, depth, 2, inst, 5)
        largest[depth] = max(cells)
    assert largest[200] == largest[5]


# ---------------------------------------------------------------------------
# E2 from one elimination


def _random_boundary(rng):
    """C_0 <- C_1 of presented groups, with any of n_0, n_1 and the relation
    counts 0: the relations of C_1 are drawn among the chains that d sends
    into the relation lattice of C_0, so the AbHom check passes."""
    n0, n1, r0 = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 3)
    entries = [0, 0, 1, -1, 2, -3, 4, 6]
    rels0 = IntMatrix([[rng.choice(entries) for _ in range(r0)] for _ in range(n0)], n0, r0)
    d = IntMatrix([[rng.choice(entries) for _ in range(n1)] for _ in range(n0)], n0, n1)
    cycles = [{i: v for i, v in col.items() if i < n1} for col in kernel_basis(d.hstack(rels0)).cols]
    rels1 = []
    for _ in range(rng.randint(0, 3) if cycles else 0):
        col = {}
        for cycle in cycles:
            c = rng.randint(-2, 2)
            for i, v in cycle.items():
                col[i] = col.get(i, 0) + c * v
        rels1.append(col)
    c0, c1 = PresentedGroup(n0, rels0), PresentedGroup(n1, IntMatrix.from_sparse_cols(rels1, n1))
    return AbHom(c1, c0, d)


def test_e2_pair_matches_homology_at_position_by_position():
    rng = random.Random(31)
    boundaries = [_random_boundary(rng) for _ in range(300)]
    # no edge generators, dependent relations below; no vertex generators
    z = PresentedGroup(1, IntMatrix([[2, 4]]))
    boundaries.append(AbHom(PresentedGroup(0), z, IntMatrix.zeros(1, 0)))
    boundaries.append(AbHom(PresentedGroup(2, IntMatrix([[3], [0]])), PresentedGroup(0),
                            IntMatrix.zeros(0, 2)))
    for boundary in boundaries:
        cx = ChainComplexFg([boundary.target, boundary.source], [boundary])
        assert e2_pair(boundary) == (homology_at(cx, 0), homology_at(cx, 1))
    assert e2_pair(boundaries[-2]) == (fg(0, 2), TRIVIAL_GROUP)


def test_e2_pair_eliminates_d_beside_the_relations_below_once(monkeypatch):
    # H_0 is the cokernel of [d | relations of C_0], and the kernel of the
    # same matrix gives the cycles of H_1: one elimination serves both
    c0 = PresentedGroup(2, IntMatrix([[4, 0], [0, 6]]))
    c1 = PresentedGroup(2, IntMatrix([[2], [0]]))
    boundary = AbHom(c1, c0, IntMatrix([[2, 2], [3, 0]]))
    beside = boundary.matrix.hstack(c0.relations)
    seen = []
    engine_for = abelian._engine_for

    def counted(mat):
        seen.append(mat)
        return engine_for(mat)

    monkeypatch.setattr(abelian, "_engine_for", counted)
    got = e2_pair(boundary)
    assert seen.count(beside) == 1
    monkeypatch.undo()
    cx = ChainComplexFg([c0, c1], [boundary])
    assert got == (homology_at(cx, 0), homology_at(cx, 1))
    assert not got[0].is_trivial and not got[1].is_trivial


# The excess theorem (see the coefficients module docstring), on the grid
# where its cusp groups are small: (field, top depth for q = 1, ..., 5),
# 0 for a degree left out.
_EXCESS_GRID = [
    ((2, 1), (3, 3, 3, 3, 3)),
    ((3, 1), (3, 3, 2, 2, 2)),
    ((2, 2), (2, 2, 1, 1, 0)),
    ((5, 1), (2, 2, 0, 1, 0)),
]
_EXCESS_LIMITS = BarLimits(10**4, 10**30)


def _excess_formula(field, case, depth, q):
    """A branch's first E2 column from stabilizer_homology of the keys
    alone: case 1 is H_q(k(w)^*/k^*); case 3 is H_q(T) plus twice the
    p-part P_n of H_q of the depth-n cusp group; case 2 is H_q(PGL2(k))
    plus P_n less P_1, which it must contain.  P_n is read off the lattice
    route, so the formula shares nothing with groups.unipotent_rank."""
    def h(key):
        return groups.stabilizer_homology(field, key, q, _EXCESS_LIMITS).canonical()

    def p_part(n):
        cusp = groups.homology_presentation(groups.cusp_group(field, n), q, _EXCESS_LIMITS)
        return Counter(power for d in cusp.canonical().torsion
                       for r, power in prime_powers(d) if r == field.p)

    if case == 1:
        return h((TOKEN_QUAD,))
    excess = p_part(depth)
    if case == 3:
        head, excess = h((TOKEN_UNITS,)), excess + excess
    else:
        depth_one = p_part(1)
        assert depth_one <= excess, (field, depth, q)
        head, excess = h((TOKEN_PGL2K,)), excess - depth_one
    return direct_sum_groups([head] + [fg(0, d) for d in excess.elements()])


def test_branch_e2_is_the_excess_theorem(cold_caches):
    # an oracle for the assembly, the contraction and e2_pair that reads
    # only the stabilizers' homology, never a boundary
    cells, wrong = 0, []
    for (p, k), tops in _EXCESS_GRID:
        field = make_field(p, k)
        spec = ConcreteSpec(field, _EXCESS_LIMITS)
        for q, top in enumerate(tops, 1):
            for depth in range(1, top + 1):
                for case in (1, 2, 3):
                    for attach in (1, 2) if case == 2 and depth >= 2 else (1,):
                        cells += 1
                        want = (_excess_formula(field, case, depth, q), TRIVIAL_GROUP)
                        got = _branch_e2(spec, case, depth, attach, q)
                        if got != want:
                            wrong.append((f"GF({p}^{k})", case, depth, attach, q, got, want))
    assert cells == 135
    assert wrong == []


# ---------------------------------------------------------------------------
# symbolic reports


def test_symbolic_report_all_match():
    for curve in corpus():
        summary = curve.classify_all()
        rep = report(summary, 2, 1, BATTERY_A, 5, curve)
        assert rep["mode"] == "symbolic"
        assert rep["battery"] == "A"
        assert rep["resolution"] == ZERO_MAP
        assert [d["i"] for d in rep["degrees"]] == [1, 2, 3, 4, 5]
        for entry in rep["degrees"]:
            assert entry["verdict"] == "match"
            assert entry["e2"]["col1"] == {"rank": 0, "torsion": []}


def test_symbolic_report_serialization_stable():
    curve = corpus()[0]
    summary = curve.classify_all()
    one = report_to_json_text(report(summary, 2, 1, BATTERY_A, 3, curve))
    two = report_to_json_text(report(summary, 2, 1, BATTERY_A, 3, curve))
    assert one == two
    parsed = json.loads(one)
    assert parsed["degrees"][0]["assembled"] == {"rank": 4, "torsion": [3, 3, 3, 3]}


# ---------------------------------------------------------------------------
# concrete runs over GF(2)


def concrete_report(curve, depth, q_max):
    return report(curve.classify_all(), depth, 1, ConcreteSpec(curve.field), q_max, curve)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_concrete_branch_closed_forms_degree_one(depth):
    limits = BarLimits()
    pairs = depth * (depth - 1) // 2
    assert _branch_e2(ConcreteSpec(F2, limits), 1, depth, 1, 1) == (fg(0, 3), TRIVIAL_GROUP)
    assert _branch_e2(ConcreteSpec(F2, limits), 2, depth, 1, 1) == (
        fg(0, *(2,) * depth),
        TRIVIAL_GROUP,
    )
    assert _branch_e2(ConcreteSpec(F2, limits), 3, depth, 1, 1) == (
        fg(0, *(2,) * (2 * depth)),
        TRIVIAL_GROUP,
    )
    assert _branch_e2(ConcreteSpec(F2, limits), 1, depth, 1, 2) == (TRIVIAL_GROUP, TRIVIAL_GROUP)
    assert _branch_e2(ConcreteSpec(F2, limits), 2, depth, 1, 2) == (
        fg(0, *(2,) * pairs),
        TRIVIAL_GROUP,
    )
    assert _branch_e2(ConcreteSpec(F2, limits), 3, depth, 1, 2) == (
        fg(0, *(2,) * (2 * pairs)),
        TRIVIAL_GROUP,
    )


def test_concrete_split_equals_monolithic():
    for curve in (CURVE_F2_A, CURVE_F2_B):
        for depth in (1, 2):
            summary = curve.classify_all()
            tree = build_domain(summary, depth)
            for q in (1, 2):
                split = e2(summary, depth, 1, ConcreteSpec(F2), q)
                mono = e2_whole_tree(tree, ConcreteSpec(F2), q)
                assert split == mono


def test_concrete_full_tree_frozen_values():
    summary = CURVE_F2_A.classify_all()
    assert e2(summary, 2, 1, ConcreteSpec(F2), 1)[0] == fg(0, 2, 2, 2, 2, 2, 6)
    assert e2(summary, 2, 1, ConcreteSpec(F2), 2)[0] == fg(0, 2, 2, 2)
    # two point-fixing lines and one twice-meeting line, each chain C2
    assert e2(CURVE_F2_B.classify_all(), 1, 1, ConcreteSpec(F2), 1)[0] == fg(0, 2, 2, 2, 2)


def test_concrete_rhs_over_f2():
    summary = CURVE_F2_A.classify_all()
    assert predicted(summary, ConcreteSpec(F2), 1) == fg(0, 6)
    assert predicted(summary, ConcreteSpec(F2), 2) == TRIVIAL_GROUP


def test_concrete_report_verdicts_honest():
    rep1 = concrete_report(CURVE_F2_A, 1, 2)
    assert [d["verdict"] for d in rep1["degrees"]] == ["mismatch", "match"]
    rep2 = concrete_report(CURVE_F2_A, 2, 2)
    assert [d["verdict"] for d in rep2["degrees"]] == ["mismatch", "mismatch"]
    assert rep2["battery"] is None and rep2["resolution"] is None


def test_concrete_report_schema_and_determinism():
    jsonschema = pytest.importorskip("jsonschema")
    rep = concrete_report(CURVE_F2_A, 2, 2)
    jsonschema.validate(rep, REPORT_SCHEMA)
    text = report_to_json_text(rep)
    again = report_to_json_text(concrete_report(CURVE_F2_A, 2, 2))
    assert text == again
    sym = report(CURVE_F2_A.classify_all(), 2, 1, BATTERY_A, 3)
    jsonschema.validate(sym, REPORT_SCHEMA)


def test_diagonal_reduction_measured_values():
    entries = measure_diagonal_reduction(F2, 2, 2)
    assert entries == [
        {"depth": 1, "degree": 1, "isomorphism": False},
        {"depth": 1, "degree": 2, "isomorphism": True},
        {"depth": 2, "degree": 1, "isomorphism": False},
        {"depth": 2, "degree": 2, "isomorphism": False},
    ]


def test_diagonal_reduction_skips_when_large():
    entries = measure_diagonal_reduction(make_field(3, 1), 2, 1)
    assert entries[0]["depth"] == 1 and "isomorphism" in entries[0]
    assert entries[1]["depth"] == 2 and "skipped" in entries[1]
    assert "ceiling" in entries[1]["skipped"]


def test_too_large_names_offending_line():
    curve = corpus()[1]
    with pytest.raises(TooLargeError) as exc:
        e2(curve.classify_all(), 1, 1, ConcreteSpec(curve.field), 1)
    msg = str(exc.value)
    assert "PGL2" in msg
    assert "[line x=" in msg


def _first_refusal(run):
    try:
        run()
    except TooLargeError as exc:
        return str(exc)
    return None


# (curve, depth, attach, q_max, limits, refuses): at a cap, at a cusp, in
# degree 3 after two degrees of work, in degree 2 with raised ceilings;
# then runs that complete
PREFLIGHT_CASES = [
    (corpus()[1], 1, 1, 1, DEFAULT_LIMITS, True),
    (corpus()[2], 1, 1, 1, DEFAULT_LIMITS, True),
    (CURVE_F2_A, 1, 1, 4, DEFAULT_LIMITS, True),
    (corpus()[0], 2, 1, 2, LARGE_LIMITS, True),
    (CURVE_F2_B, 2, 1, 2, DEFAULT_LIMITS, False),
    (corpus()[0], 1, 1, 1, DEFAULT_LIMITS, False),
]
PREFLIGHT_IDS = ["gf5-cap", "gf7-cusp", "gf2-degree3", "gf3-large-degree2", "gf2-completes",
                 "gf3-completes"]

# A grid that meets the dense ceiling at a cusp vertex, at the cap and at a
# depth-2 attachment; whether each case refuses is left to the run, which
# the preflight must match (it checks each vertex's own key only)
_GRID_CURVES = {
    "gf2": CURVE_F2_A,
    "gf3": corpus()[0],
    "gf4": WeierstrassCurve(make_field(2, 2), 0, 0, 1, 0, 0),
}
_GRID_LIMITS = [DEFAULT_LIMITS, BarLimits(60, 600), BarLimits(24, 50), BarLimits(60, 10**4)]
_GRID = [
    (name, curve, depth, attach, q_max, limits)
    for name, curve in _GRID_CURVES.items()
    for limits in _GRID_LIMITS
    for depth in (1, 2, 3)
    for attach in range(1, min(2, depth) + 1)
    for q_max in (1, 2, 3)
]
PREFLIGHT_CASES += [(c, d, a, q, limits, None) for _, c, d, a, q, limits in _GRID]
PREFLIGHT_IDS += [f"grid-{n}-d{d}a{a}-q{q}-{limits.max_order}x{limits.dense_columns}"
                  for n, _, d, a, q, limits in _GRID]


@pytest.mark.parametrize("curve,depth,attach,q_max,limits,refuses", PREFLIGHT_CASES,
                         ids=PREFLIGHT_IDS)
def test_preflight_refuses_exactly_as_the_run(curve, depth, attach, q_max, limits, refuses):
    # the closed-form walk against the built groups' own checks, which the
    # real providers apply as they meet the stabilizers of each line's own
    # branch; e2 meets the same ones on its cached branch per case, whose
    # simplex tags name a synthetic line's points instead
    summary = curve.classify_all()
    spec = ConcreteSpec(curve.field, limits)
    degrees = range(1, q_max + 1)
    sized = _first_refusal(lambda: spec.preflight(summary, depth, attach, q_max))
    built = _first_refusal(lambda: [
        assemble_over_branches(
            summary, lambda line: e2_whole_tree(branch_tree(line, depth, attach), spec, q)
        )
        for q in degrees
    ])
    cached = _first_refusal(lambda: [e2(summary, depth, attach, spec, q) for q in degrees])
    assert sized == built
    if refuses is not None:
        assert (sized is not None) == refuses

    def untagged(text):
        return text and re.sub(r" \[(vertex|edge) .*?\]\]", "", text)

    assert untagged(cached) == untagged(sized)


@pytest.mark.parametrize("p,case", [(5, 2), (7, 2), (7, 3)])
def test_provider_refuses_before_it_builds(monkeypatch, cold_caches, p, case):
    # with no preflight, the run's own provider refuses a stabilizer over
    # the ceilings from its closed form, before building its table
    build = groups.group_from_elements

    def guarded(elements, mul, name="", **kwargs):
        elements = list(elements)
        assert len(elements) <= DEFAULT_LIMITS.max_order, f"built {name} before refusing it"
        return build(elements, mul, name=name, **kwargs)

    monkeypatch.setattr(groups, "group_from_elements", guarded)
    tree = branch_tree(coefficients._CASE_LINES[case], 2)
    provider = ConcreteProvider(tree, make_field(p, 1), 1, DEFAULT_LIMITS)
    with pytest.raises(TooLargeError, match="exceeds ceiling 24"):
        for v in tree.vertices:
            provider.vertex_group(v.vid)


def test_the_seam_is_the_only_door_to_group_homology():
    # coefficients and cli name stabilizers by key and reach their homology
    # only through groups.stabilizer_homology and stabilizer_map
    inner = {"stabilizer", "stabilizer_size", "stabilizer_inclusion", "check_ceilings",
             "homology_presentation", "induced_map", "bar_homology", "triangular_size",
             "diagonal_to_triangular", "CHAIN_DATA", "PRESENTATION"}
    for module in (coefficients, cli):
        assert sorted(inner.intersection(vars(module))) == [], module.__name__


def test_diagonal_skip_builds_nothing(monkeypatch, cold_caches):
    build = groups.group_from_elements

    def guarded(elements, mul, name="", **kwargs):
        elements = list(elements)
        assert len(elements) <= 24, f"built {name} for a skipped entry"
        return build(elements, mul, name=name, **kwargs)

    monkeypatch.setattr(groups, "group_from_elements", guarded)
    entries = measure_diagonal_reduction(make_field(3, 1), 2, 1)
    assert entries[1] == {
        "depth": 2,
        "degree": 1,
        "skipped": "bar homology of Tri(GF(3),2): size 36 exceeds ceiling 24",
    }


def test_diagonal_reduction_builds_no_triangular_group(monkeypatch, cold_caches):
    # the answer is read off the cusp groups Tri(k, n)/N, never Tri(k, n)
    build = groups.group_from_elements

    def guarded(elements, mul, name="", **kwargs):
        assert not (name.startswith("Tri(") and "/N" not in name), f"built {name}"
        return build(elements, mul, name=name, **kwargs)

    monkeypatch.setattr(groups, "group_from_elements", guarded)
    entries = measure_diagonal_reduction(make_field(3, 1), 2, 2, BarLimits(10**4, 10**30))
    assert [e["isomorphism"] for e in entries] == [True, True, True, False]


def test_report_builds_each_group_once(monkeypatch, cold_caches):
    # the table constructors are cached, so a GF(4) run builds PGL2(GF(4))
    # once for the cap and the prediction's factors alike
    build = groups.group_from_elements
    names = []

    def counted(elements, mul, name="", **kwargs):
        names.append(name)
        return build(elements, mul, name=name, **kwargs)

    monkeypatch.setattr(groups, "group_from_elements", counted)
    curve = WeierstrassCurve(make_field(2, 2), 0, 0, 1, 0, 0)
    report(curve.classify_all(), 1, 1, ConcreteSpec(curve.field, LARGE_LIMITS), 1, curve)
    assert "PGL2(GF(2^2))" in names
    assert sorted(names) == sorted(set(names))


def test_equal_stabilizer_keys_map_by_the_identity(monkeypatch):
    # a cusp-cusp edge carries its tail's group; the map toward the tail is
    # the identity of the cached presentation, and no hom is built for it
    include = groups.stabilizer_inclusion

    def distinct_only(field, source, target):
        assert source != target, "built a hom between equal keys"
        return include(field, source, target)

    monkeypatch.setattr(groups, "stabilizer_inclusion", distinct_only)
    curve = WeierstrassCurve(make_field(2, 1), 0, 0, 1, 0, 0)
    identities = 0
    for line in curve.classify_all().lines:
        tree = branch_tree(line, 3)
        provider = ConcreteSpec(curve.field).provider(tree, 1)
        for e in tree.edges:
            group, to_tail, to_head = provider.edge_data(e.eid)
            for f in (to_tail, to_head):
                if f.source is f.target:
                    assert f.source is group and f.matrix == IntMatrix.identity(group.gens)
                    identities += 1
    assert identities >= 4


# The stabilizer key of every non-root simplex of each case's depth-3
# branch, by simplex tag, as the per-kind walk that the token-driven
# ConcreteProvider replaced gave them (its "pgl2" read as "pgl2k").
_LINE_BRANCH_KEYS = {
    1: {"vertex line[s1.0]": ("quad_units",)},
    2: {
        "vertex line[s2.0]": ("additive",),
        "vertex cusp[pt2.0,1]": ("cusp", 1),
        "vertex cusp[pt2.0,2]": ("cusp", 2),
        "vertex cusp[pt2.0,3]": ("cusp", 3),
        "vertex cap[pt2.0]": ("pgl2k",),
        "edge line[s2.0]--cusp[pt2.0,1]": ("additive",),
        "edge cusp[pt2.0,1]--cusp[pt2.0,2]": ("cusp", 1),
        "edge cusp[pt2.0,2]--cusp[pt2.0,3]": ("cusp", 2),
    },
    3: {
        "vertex line[s3.0]": ("units",),
        "vertex cusp[pt3.0+,1]": ("cusp", 1),
        "vertex cusp[pt3.0+,2]": ("cusp", 2),
        "vertex cusp[pt3.0+,3]": ("cusp", 3),
        "vertex cusp[pt3.0-,1]": ("cusp", 1),
        "vertex cusp[pt3.0-,2]": ("cusp", 2),
        "vertex cusp[pt3.0-,3]": ("cusp", 3),
        "edge line[s3.0]--cusp[pt3.0+,1]": ("units",),
        "edge cusp[pt3.0+,1]--cusp[pt3.0+,2]": ("cusp", 1),
        "edge cusp[pt3.0+,2]--cusp[pt3.0+,3]": ("cusp", 2),
        "edge line[s3.0]--cusp[pt3.0-,1]": ("units",),
        "edge cusp[pt3.0-,1]--cusp[pt3.0-,2]": ("cusp", 1),
        "edge cusp[pt3.0-,2]--cusp[pt3.0-,3]": ("cusp", 2),
    },
}
# the cap edge of the case-2 branch leaves the cusp vertex at the attachment depth
_CAP_EDGE_KEYS = {
    1: {"edge cusp[pt2.0,1]--cap[pt2.0]": ("cusp", 1)},
    2: {"edge cusp[pt2.0,2]--cap[pt2.0]": ("cusp", 1)},
}


def _simplex_keys(tree, provider):
    """{simplex tag: stabilizer key} of a provider, in assemble_system's tags."""
    keys = {f"vertex {v.tag}": provider.vertex_keys[v.vid] for v in tree.vertices}
    for e in tree.edges:
        tag = f"{tree.vertices[e.tail].tag}--{tree.vertices[e.head].tag}"
        keys[f"edge {tag}"] = provider.edge_keys[e.eid]
    return keys


@pytest.mark.parametrize("attach", [1, 2])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_stabilizer_keys_follow_role_tokens(case, attach):
    tree = branch_tree(coefficients._CASE_LINES[case], 3, attach)
    keys = _simplex_keys(tree, ConcreteSpec(F2).provider(tree, 1))
    # the root and its edge carry TOKEN_ZERO, whose group is trivial
    line = tree.vertices[1].tag
    assert keys.pop("vertex root") is None
    assert keys.pop(f"edge root--{line}") is None
    expected = dict(_LINE_BRANCH_KEYS[case], **(_CAP_EDGE_KEYS[attach] if case == 2 else {}))
    assert keys == expected


def test_every_edge_key_is_a_vertex_key_of_its_branch():
    # the preflight checks vertex keys only, which covers the edges because
    # every edge carries the key of a vertex of its own branch
    branches = 0
    for case, line in coefficients._CASE_LINES.items():
        for depth in range(1, 7):
            for attach in range(1, min(2, depth) + 1):
                tree = branch_tree(line, depth, attach)
                provider = ConcreteProvider(tree, F2, 1, DEFAULT_LIMITS)
                assert set(provider.edge_keys) <= set(provider.vertex_keys), (case, depth, attach)
                branches += 1
    assert branches == 33


def test_preflight_checks_the_vertex_keys_of_the_run(monkeypatch):
    # per degree, the walk asks for the keys the run's provider holds, vertex
    # by vertex and line by line, the quadratic units of a case-1 line too
    checked = []
    monkeypatch.setattr(coefficients, "size_check",
                        lambda field, key, q, limits: checked.append((q, key)))
    summary = synthetic_summary(1, 1, 1)
    ConcreteSpec(F2).preflight(summary, 3, 2, 2)
    keys = [key for line in summary.lines
            for key in ConcreteProvider(branch_tree(line, 3, 2), F2, 1, DEFAULT_LIMITS).vertex_keys]
    assert checked == [(q, key) for q in (1, 2) for key in keys]


def _valuation(n, ell):
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def _order(group):
    fg_ = group.canonical()
    assert fg_.rank == 0, "H_q of a finite group is finite for q >= 1"
    return prod(fg_.torsion)


@pytest.mark.parametrize(
    "p,k,depth,q_max",
    [(2, 1, 3, 3), (3, 1, 3, 2), (2, 2, 2, 2), (5, 1, 2, 2)],
    ids=["gf2", "gf3", "gf4", "gf5"],
)
@pytest.mark.parametrize("attach", [1, 2])
def test_symbolic_tags_hold_ell_locally(p, k, depth, q_max, attach):
    # Each iso / zero tag of the symbolic system is a claim about the map
    # the concrete system induces on H_q along that edge; it holds after
    # localizing at every prime ell != p dividing |PGL2(GF(q))| = q(q^2-1),
    # the coefficients of the rigidity question.  From orders alone, with C
    # the cokernel: iso iff v(|C|) = 0 and v(|src|) = v(|tgt|), zero iff
    # v(|C|) = v(|tgt|).  Unconstrained maps (cusp -> PGL2) are not checked.
    field = make_field(p, k)
    order = field.order
    ells = [ell for ell, _ in prime_powers(order * (order ** 2 - 1)) if ell != p]
    limits = BarLimits(max_order=400, dense_columns=10**9)
    checked = 0
    for case, line in coefficients._CASE_LINES.items():
        tree = branch_tree(line, depth, attach)
        tokens = symbolic_tokens(tree)
        for q in range(1, q_max + 1):
            provider = ConcreteProvider(tree, field, q, limits)
            for e in tree.edges:
                _, to_tail, to_head = provider.edge_data(e.eid)
                et = tokens.edge_tokens[e.eid]
                for tag, f in ((et.toward_tail, to_tail), (et.toward_head, to_head)):
                    if tag == UNCONSTRAINED:
                        continue
                    cok = PresentedGroup(f.target.gens, f.matrix.hstack(f.target.relations))
                    src, tgt, c = _order(f.source), _order(f.target), _order(cok)
                    for ell in ells:
                        where = (case, e.kind, q, ell, tag)
                        if tag == ISO:
                            assert _valuation(c, ell) == 0, where
                            assert _valuation(src, ell) == _valuation(tgt, ell), where
                        else:
                            assert _valuation(c, ell) == _valuation(tgt, ell), where
                        checked += 1
    assert checked > 0


def test_larger_ceiling_admits_larger_fields():
    # raising the order ceiling lets the GF(3) cap through at depth 1
    limits = BarLimits(max_order=360, dense_columns=600)
    field = make_field(3, 1)
    h0, h1 = _branch_e2(ConcreteSpec(field, limits), 1, 1, 1, 1)
    assert h0 == fg(0, 4)
    assert h1 == TRIVIAL_GROUP
