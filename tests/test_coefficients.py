"""Tests for token systems, their instantiations, and the two-column E2.

Expected groups for the concrete runs over GF(2) are frozen from hand
computations with standard finite-group homology: the depth-n upper
triangular quotients are elementary abelian 2-groups C2^n, so a chain of
them contributes (Z/2)^N in degree 1 and (Z/2)^(N(N-1)/2) in degree 2
once consecutive inclusions are glued.
"""

import json

import pytest

from elltree.abelian import FgAbGroup, PresentedGroup, TRIVIAL_GROUP, direct_sum_groups
from elltree.coefficients import (
    BATTERIES,
    BATTERY_A,
    BATTERY_B,
    ISO,
    REPORT_SCHEMA,
    TOKEN_ADDITIVE,
    TOKEN_PGL2K,
    TOKEN_QUAD,
    TOKEN_UNITS,
    TOKEN_Z0,
    TOKEN_ZERO,
    UNCONSTRAINED,
    ZERO_MAP,
    EdgeTokens,
    Instantiation,
    TokenSystem,
    assemble_over_branches,
    canonical_max_hom,
    concrete_e2,
    concrete_e2_monolithic,
    concrete_report,
    concrete_rhs,
    degree_zero_e2,
    degree_zero_e2_monolithic,
    degree_zero_tokens,
    e2_pair,
    instantiate_tokens,
    instantiated_rhs,
    measure_diagonal_reduction,
    report_to_json_text,
    rhs_tokens,
    rooted_branch_e2,
    symbolic_e2,
    symbolic_e2_monolithic,
    symbolic_report,
    symbolic_tokens,
)
from elltree.coefficients import _concrete_branch_e2, _symbolic_branch_e2
from elltree.curve import ClassificationSummary, WeierstrassCurve, synthetic_summary
from elltree.errors import TooLargeError
from elltree.field import make_field
from elltree.groups import BarLimits
from elltree.selftest import corpus_curves
from elltree.tree import build_domain


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
    assert not f.is_zero_hom()


def test_canonical_hom_coprime_torsion_is_zero():
    src = PresentedGroup.from_group(fg(0, 5))
    dst = PresentedGroup.from_group(fg(1, 3))
    f = canonical_max_hom(src, dst)
    assert f.is_zero_hom()


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
    h0, h1 = _symbolic_branch_e2(case, depth, 1, inst)
    assert h0 == inst.group_for(token)
    assert h1 == TRIVIAL_GROUP


@pytest.mark.parametrize("depth", [2, 5])
@pytest.mark.parametrize("battery", ["A", "B"])
@pytest.mark.parametrize("resolution", [ZERO_MAP, ISO])
def test_branch_cap_attachment_insensitive(depth, battery, resolution):
    inst = BATTERIES[battery].with_resolution(resolution)
    assert _symbolic_branch_e2(2, depth, 2, inst) == _symbolic_branch_e2(2, depth, 1, inst)


def test_degree_zero_row_is_contractible():
    shapes = [synthetic_summary(case1=2, case2=1, case3=1, include_infinity_line=True)]
    shapes += [c.classify_all() for c in corpus()[:2]]
    for summary in shapes:
        for depth in (1, 3):
            h0, h1 = degree_zero_e2(build_domain(summary, depth))
            assert h0 == fg(1)
            assert h1 == TRIVIAL_GROUP


def test_empty_summary_degenerates():
    tree = build_domain(ClassificationSummary(()), 1)
    assert symbolic_e2(tree, BATTERY_A) == (TRIVIAL_GROUP, TRIVIAL_GROUP)
    assert symbolic_e2_monolithic(tree, BATTERY_A) == (TRIVIAL_GROUP, TRIVIAL_GROUP)
    assert degree_zero_e2(tree) == (fg(1), TRIVIAL_GROUP)


@pytest.mark.parametrize("depth,attach", [(1, 1), (3, 1), (3, 2)])
def test_degree_zero_split_equals_monolithic(depth, attach):
    shapes = [c.classify_all() for c in corpus_curves()]
    shapes += [
        synthetic_summary(case1=2, case2=1, case3=1, include_infinity_line=True),
        ClassificationSummary(()),
    ]
    for summary in shapes:
        tree = build_domain(summary, depth, attach)
        assert degree_zero_e2(tree) == degree_zero_e2_monolithic(tree)


# Pairwise distinct roles with free parts and torsion, so that branch H0s
# and the classes glued at the root carry both kinds of coordinate.
DESIGNED = Instantiation(
    "designed", pgl2k=fg(1, 4), units=fg(0, 6), quad=fg(2), additive=fg(1), resolution=ISO
)


def designed_tokens(tree):
    """The constant unit system with two branches rewired by hand.

    The first case-1 line vertex carries Z/6, reached from the root at its
    generator; the second carries Z^2 but its root edge maps to 0 there, so
    that edge bounds the root alone and, together with the Z/6 line's edge
    (whose class is torsion), adds a free cycle through the root.

    The first case-3 branch (depth 2) has L - a1 - a2 and L - b1 - b2 with
    L = Z + Z/4, a1 = b2 = Z, a2 = Z/6, b1 = Z^2: L-a1 glues a1 to the free
    generator of L, a1-a2 kills a2, b1-b2 kills b1, and the L-b1 edge plus
    b1-b2 then close a cycle, so H0 = Z^2 + Z/4 and H1 = Z.
    """
    v = dict(degree_zero_tokens(tree).vertex_tokens)
    e = dict(degree_zero_tokens(tree).edge_tokens)
    lone, cut = [s for s in tree.subtrees() if s.line_class.case == 1][:2]
    v[lone.vertex_ids[0]] = TOKEN_UNITS
    e[lone.root_edge_id] = EdgeTokens(TOKEN_Z0, ISO, UNCONSTRAINED)
    v[cut.vertex_ids[0]] = TOKEN_QUAD
    e[cut.root_edge_id] = EdgeTokens(TOKEN_Z0, ISO, ZERO_MAP)
    branch = next(s for s in tree.subtrees() if s.line_class.case == 3)
    line, a1, a2, b1, b2 = branch.vertex_ids
    la, aa, lb, bb = branch.edge_ids
    v.update({line: TOKEN_PGL2K, a1: TOKEN_ADDITIVE, a2: TOKEN_UNITS,
              b1: TOKEN_QUAD, b2: TOKEN_ADDITIVE})
    e[branch.root_edge_id] = EdgeTokens(TOKEN_Z0, ISO, UNCONSTRAINED)
    e[la] = EdgeTokens(TOKEN_ADDITIVE, UNCONSTRAINED, ISO)
    e[aa] = EdgeTokens(TOKEN_UNITS, UNCONSTRAINED, ISO)
    e[lb] = EdgeTokens(TOKEN_ADDITIVE, ZERO_MAP, UNCONSTRAINED)
    e[bb] = EdgeTokens(TOKEN_QUAD, ISO, ZERO_MAP)
    return TokenSystem(v, e), lone, cut, branch


@pytest.mark.parametrize("attach", [1, 2])
def test_root_gluing_on_designed_branches(attach):
    tree = build_domain(synthetic_summary(case1=3, case2=1, case3=2), 2, attach)
    tokens, lone, cut, branch = designed_tokens(tree)
    views = tree.subtrees()
    branches = [rooted_branch_e2(tree, tokens, DESIGNED, view) for view in views]
    assert branches[views.index(lone)] == (fg(0, 6), TRIVIAL_GROUP, (1,))
    assert branches[views.index(cut)] == (fg(2), TRIVIAL_GROUP, (0, 0))
    h0, h1, _ = branches[views.index(branch)]
    assert (h0, h1) == (fg(2, 4), fg(1))
    glued = assemble_over_branches(
        tree, lambda view: rooted_branch_e2(tree, tokens, DESIGNED, view), root_carries_z=True
    )
    assert glued == e2_pair(instantiate_tokens(tree, tokens, DESIGNED))


def test_root_gluing_needs_z_at_the_root():
    tree = build_domain(synthetic_summary(case1=1), 1)
    tokens = degree_zero_tokens(tree)
    view = tree.subtrees()[0]
    tokens.edge_tokens[view.root_edge_id] = EdgeTokens(TOKEN_QUAD, ZERO_MAP, ZERO_MAP)
    with pytest.raises(ValueError):
        rooted_branch_e2(tree, tokens, DESIGNED, view)


# ---------------------------------------------------------------------------
# full-tree symbolic assembly


@pytest.mark.parametrize("battery", ["A", "B"])
@pytest.mark.parametrize("resolution", [ZERO_MAP, ISO])
def test_symbolic_matches_prediction_on_corpus(battery, resolution):
    inst = BATTERIES[battery].with_resolution(resolution)
    for curve in corpus():
        summary = curve.classify_all()
        tree = build_domain(summary, 2)
        h0, h1 = symbolic_e2(tree, inst)
        assert h0 == instantiated_rhs(summary, inst)
        assert h1 == TRIVIAL_GROUP


def test_split_equals_monolithic():
    for curve in corpus():
        tree = build_domain(curve.classify_all(), 2)
        for inst in (BATTERY_A, BATTERY_B.with_resolution(ISO)):
            assert symbolic_e2(tree, inst) == symbolic_e2_monolithic(tree, inst)


def test_truncation_invariance():
    curve = corpus()[1]
    summary = curve.classify_all()
    reports = [
        symbolic_report(summary, depth, BATTERY_A, q_max=5, curve=curve, field=curve.field)
        for depth in (1, 2, 5, 10)
    ]
    for rep in reports[1:]:
        assert rep["degrees"] == reports[0]["degrees"]


def test_attachment_invariance():
    for curve in corpus()[:2]:
        summary = curve.classify_all()
        t1 = build_domain(summary, 3, attach=1)
        t2 = build_domain(summary, 3, attach=2)
        inst = BATTERY_B.with_resolution(ISO)
        assert symbolic_e2(t1, inst) == symbolic_e2(t2, inst)


def test_battery_sensitivity():
    # the two batteries assign different groups, so a curve with both
    # point-fixing and twice-meeting lines assembles differently
    curve = corpus()[1]
    tree = build_domain(curve.classify_all(), 2)
    a = symbolic_e2(tree, BATTERY_A)[0]
    b = symbolic_e2(tree, BATTERY_B)[0]
    assert a != b
    assert a.rank == 4 and b.rank == 2


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
    assert instantiated_rhs(summary, BATTERY_A) == fg(1, 105)
    assert instantiated_rhs(summary, BATTERY_B) == fg(1, 165)


# ---------------------------------------------------------------------------
# corruption is detected


def test_flipped_tag_changes_assembly():
    curve = corpus()[0]
    summary = curve.classify_all()
    tree = build_domain(summary, 1)
    tokens = symbolic_tokens(tree)
    eid = next(e.eid for e in tree.edges if e.kind == "line-cusp")
    flipped = tokens.with_flipped_tag(eid, "tail", ZERO_MAP)
    clean = e2_pair(instantiate_tokens(tree, tokens, BATTERY_A))
    broken = e2_pair(instantiate_tokens(tree, flipped, BATTERY_A))
    assert clean[0] == instantiated_rhs(summary, BATTERY_A)
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
# symbolic reports


def test_symbolic_report_all_match():
    for curve in corpus():
        summary = curve.classify_all()
        rep = symbolic_report(summary, 2, BATTERY_A, q_max=5, curve=curve, field=curve.field)
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
    args = dict(q_max=3, curve=curve, field=curve.field)
    one = report_to_json_text(symbolic_report(summary, 2, BATTERY_A, **args))
    two = report_to_json_text(symbolic_report(summary, 2, BATTERY_A, **args))
    assert one == two
    parsed = json.loads(one)
    assert parsed["degrees"][0]["assembled"] == {"rank": 4, "torsion": [3, 3, 3, 3]}


# ---------------------------------------------------------------------------
# concrete runs over GF(2)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_concrete_branch_closed_forms_degree_one(depth):
    limits = BarLimits()
    pairs = depth * (depth - 1) // 2
    assert _concrete_branch_e2(1, depth, 1, F2, 1, limits) == (fg(0, 3), TRIVIAL_GROUP)
    assert _concrete_branch_e2(2, depth, 1, F2, 1, limits) == (
        fg(0, *(2,) * depth),
        TRIVIAL_GROUP,
    )
    assert _concrete_branch_e2(3, depth, 1, F2, 1, limits) == (
        fg(0, *(2,) * (2 * depth)),
        TRIVIAL_GROUP,
    )
    assert _concrete_branch_e2(1, depth, 1, F2, 2, limits) == (TRIVIAL_GROUP, TRIVIAL_GROUP)
    assert _concrete_branch_e2(2, depth, 1, F2, 2, limits) == (
        fg(0, *(2,) * pairs),
        TRIVIAL_GROUP,
    )
    assert _concrete_branch_e2(3, depth, 1, F2, 2, limits) == (
        fg(0, *(2,) * (2 * pairs)),
        TRIVIAL_GROUP,
    )


def test_concrete_split_equals_monolithic():
    for curve in (CURVE_F2_A, CURVE_F2_B):
        for depth in (1, 2):
            tree = build_domain(curve.classify_all(), depth)
            for q in (1, 2):
                split = concrete_e2(tree, q, F2)
                mono = concrete_e2_monolithic(tree, q, F2)
                assert split == mono


def test_concrete_full_tree_frozen_values():
    tree = build_domain(CURVE_F2_A.classify_all(), 2)
    assert concrete_e2(tree, 1, F2)[0] == fg(0, 2, 2, 2, 2, 2, 6)
    assert concrete_e2(tree, 2, F2)[0] == fg(0, 2, 2, 2)
    tree_b = build_domain(CURVE_F2_B.classify_all(), 1)
    # two point-fixing lines and one twice-meeting line, each chain C2
    assert concrete_e2(tree_b, 1, F2)[0] == fg(0, 2, 2, 2, 2)


def test_concrete_rhs_over_f2():
    summary = CURVE_F2_A.classify_all()
    assert concrete_rhs(summary, F2, 1) == fg(0, 6)
    assert concrete_rhs(summary, F2, 2) == TRIVIAL_GROUP


def test_concrete_report_verdicts_honest():
    rep1 = concrete_report(CURVE_F2_A, 1, q_max=2)
    assert [d["verdict"] for d in rep1["degrees"]] == ["mismatch", "match"]
    rep2 = concrete_report(CURVE_F2_A, 2, q_max=2)
    assert [d["verdict"] for d in rep2["degrees"]] == ["mismatch", "mismatch"]
    assert rep2["battery"] is None and rep2["resolution"] is None


def test_concrete_report_schema_and_determinism():
    jsonschema = pytest.importorskip("jsonschema")
    rep = concrete_report(CURVE_F2_A, 2, q_max=2)
    jsonschema.validate(rep, REPORT_SCHEMA)
    text = report_to_json_text(rep)
    again = report_to_json_text(concrete_report(CURVE_F2_A, 2, q_max=2))
    assert text == again
    sym = symbolic_report(CURVE_F2_A.classify_all(), 2, BATTERY_A, q_max=3)
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
    tree = build_domain(curve.classify_all(), 1)
    with pytest.raises(TooLargeError) as exc:
        concrete_e2(tree, 1, curve.field)
    msg = str(exc.value)
    assert "PGL2" in msg
    assert "[line x=" in msg


def test_larger_ceiling_admits_larger_fields():
    # raising the order ceiling lets the GF(3) cap through at depth 1
    limits = BarLimits(max_order=360, max_degree=3, dense_columns=600)
    field = make_field(3, 1)
    h0, h1 = _concrete_branch_e2(1, 1, 1, field, 1, limits)
    assert h0 == fg(0, 4)
    assert h1 == TRIVIAL_GROUP
