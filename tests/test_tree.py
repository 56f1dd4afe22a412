"""Domain-tree construction tests.

Vertex and edge counts are checked against hand-derived formulas from
the construction rules, and against the classification of real curves.
"""

import pytest

from elltree.curve import (
    INFINITY,
    WeierstrassCurve,
    synthetic_summary,
)
from elltree.field import make_field
from elltree.tree import branch_tree, build_domain, domain_size
from helpers import enumerate_points, is_tree, tag_edge_set, tag_set


def curve_f3():
    return WeierstrassCurve(make_field(3, 1), 0, 0, 0, -1, 0)


def curve_f5():
    return WeierstrassCurve(make_field(5, 1), 0, 0, 0, -1, 0)


def expected_counts(n1, n2, n3, depth):
    """Vertex and edge counts from the construction rules.

    Per line: 1 line vertex.  Case-2 adds depth cusp vertices and a cap;
    case-3 adds two depth-length chains.  Edges: one per non-root vertex.
    """
    vertices = 1 + n1 + n2 * (1 + depth + 1) + n3 * (1 + 2 * depth)
    return vertices, vertices - 1


def test_f3_counts_frozen():
    # all four lines are case 2; 17 vertices and 16 edges at depth 2
    summary = curve_f3().classify_all()
    tree = build_domain(summary, 2)
    assert len(tree.vertices) == 17
    assert len(tree.edges) == 16
    assert summary.cusp_count == 4
    assert is_tree(tree)


def test_counts_formula():
    for n1, n2, n3 in [(0, 4, 0), (1, 1, 1), (3, 2, 2), (0, 1, 0)]:
        for depth in (1, 2, 5):
            summary = synthetic_summary(n1, n2, n3, include_infinity_line=True)
            tree = build_domain(summary, depth)
            v, e = expected_counts(n1, n2, n3, depth)
            assert len(tree.vertices) == v, (n1, n2, n3, depth)
            assert domain_size(summary, depth) == v
            assert len(tree.edges) == e
            assert is_tree(tree)


def test_all_case1_star():
    summary = synthetic_summary(case1=5)
    tree = build_domain(summary, 3)
    assert len(tree.vertices) == 6
    assert len(tree.edges) == 5
    assert all(v.kind in ("root", "line") for v in tree.vertices)


def test_empty_summary_single_vertex():
    tree = build_domain(synthetic_summary(), 1)
    assert len(tree.vertices) == 1
    assert len(tree.edges) == 0
    assert tree.summary.cusp_count == 0
    assert is_tree(tree)


def test_f5_cusp_count_matches_points():
    curve = curve_f5()
    summary = curve.classify_all()
    tree = build_domain(summary, 1)
    cusps = sum(1 for v in tree.vertices if v.kind == "cusp")
    assert cusps == summary.cusp_count == len(enumerate_points(curve)) == 8


def test_orientation_away_from_root():
    summary = curve_f5().classify_all()
    tree = build_domain(summary, 3)
    dist = {0: 0}
    changed = True
    while changed:
        changed = False
        for e in tree.edges:
            if e.tail in dist and e.head not in dist:
                dist[e.head] = dist[e.tail] + 1
                changed = True
    # every head is strictly farther from the root than its tail
    assert len(dist) == len(tree.vertices)
    for e in tree.edges:
        assert dist[e.head] == dist[e.tail] + 1


def test_subtree_partition():
    # the one-line trees of the lines' branches, glued at the root, are
    # the whole tree: same simplices, none in two branches
    summary = curve_f5().classify_all()
    for attach in (1, 2):
        tree = build_domain(summary, 2, attach)
        vertices, edges = set(), set()
        for lc in summary.lines:
            branch = branch_tree(lc, 2, attach)
            assert is_tree(branch)
            assert branch.vertices[0].tag == "root" and branch.edges[0].kind == "root-line"
            assert not (tag_set(branch) - {"root"}) & vertices
            vertices |= tag_set(branch) - {"root"}
            edges |= tag_edge_set(branch)
        assert vertices == tag_set(tree) - {"root"}
        assert edges == tag_edge_set(tree)


def test_subtree_shapes():
    # a branch is every simplex but the root and the root edge
    summary = synthetic_summary(1, 1, 1, include_infinity_line=False)
    by_case = {lc.case: branch_tree(lc, 3) for lc in summary.lines}
    assert len(by_case[1].vertices) - 1 == 1
    assert len(by_case[1].edges) - 1 == 0
    # case 2 at depth 3: line vertex + 3 cusp vertices + cap
    assert len(by_case[2].vertices) - 1 == 5
    assert len(by_case[2].edges) - 1 == 4
    # case 3 at depth 3: line vertex + two chains
    assert len(by_case[3].vertices) - 1 == 7
    assert len(by_case[3].edges) - 1 == 6


def test_chain_depths_and_edge_kinds():
    summary = synthetic_summary(case2=1, include_infinity_line=False)
    tree = build_domain(summary, 4)
    kinds = [e.kind for e in tree.edges]
    assert kinds == ["root-line", "line-cusp", "cusp-cusp", "cusp-cusp", "cusp-cusp", "cusp-cap"]
    chain_depths = [e.depth for e in tree.edges if e.kind == "cusp-cusp"]
    assert chain_depths == [1, 2, 3]
    cap = next(e for e in tree.edges if e.kind == "cusp-cap")
    assert cap.depth == 1


def test_attach_variant():
    summary = synthetic_summary(case2=1)
    t1 = build_domain(summary, 3, attach=1)
    t2 = build_domain(summary, 3, attach=2)
    cap1 = next(e for e in t1.edges if e.kind == "cusp-cap")
    cap2 = next(e for e in t2.edges if e.kind == "cusp-cap")
    assert cap1.depth == 1
    assert cap2.depth == 2
    tail2 = t2.vertices[cap2.tail]
    assert tail2.kind == "cusp" and tail2.depth == 2
    assert is_tree(t2)


def test_attach_requires_depth():
    with pytest.raises(ValueError):
        build_domain(synthetic_summary(case2=1), 1, attach=2)
    with pytest.raises(ValueError):
        build_domain(synthetic_summary(case2=1), 0)
    with pytest.raises(ValueError):
        build_domain(synthetic_summary(case2=1), 2, attach=3)


def test_truncation_prefix():
    summary = curve_f5().classify_all()
    small = build_domain(summary, 2)
    large = build_domain(summary, 5)

    def within(tag_pair, limit):
        def depth_of(tag):
            if tag.startswith("cusp["):
                return int(tag[:-1].rsplit(",", 1)[1])
            return 0

        return all(depth_of(t) <= limit for t in tag_pair)

    truncated = {e for e in tag_edge_set(large) if within(e, 2)}
    assert truncated == tag_edge_set(small)
    small_tags = {t for t in tag_set(large) if within((t,), 2)}
    assert small_tags == tag_set(small)


def test_graph_dump_deterministic():
    summary = curve_f3().classify_all()
    a = build_domain(summary, 2).graph_dump()
    b = build_domain(curve_f3().classify_all(), 2).graph_dump()
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0] == "vertex 0 root"
    assert all(l.startswith(("vertex ", "edge ")) for l in lines)
    assert sum(1 for l in lines if l.startswith("vertex ")) == 17
    assert sum(1 for l in lines if l.startswith("edge ")) == 16


def test_infinity_line_tagged():
    summary = curve_f3().classify_all()
    tree = build_domain(summary, 1)
    assert f"line[{INFINITY}]" in tag_set(tree)
    assert f"cap[{INFINITY}]" in tag_set(tree)
