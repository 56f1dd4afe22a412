"""Helpers that only the tests use: brute-force models and structure checks.

The package never calls these; they live beside the tests that need them.
"""

from itertools import product

from elltree.abelian import invariant_factors
from elltree.curve import INFINITY_POINT, WeierstrassCurve
from elltree.groups import group_from_elements


def matrix_rank(mat):
    """Rank over Z (and Q): the number of nonzero invariant factors."""
    return len(invariant_factors(mat))


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


def curve_from_json(field, data):
    return WeierstrassCurve(field, data["a1"], data["a2"], data["a3"], data["a4"], data["a6"])


def is_two_torsion(curve, point):
    return curve.negate(point) == point


def enumerate_points(curve):
    """All rational points, infinity first, then affine in (x, y) order."""
    points = [INFINITY_POINT]
    for x in curve.field.elements():
        points.extend(curve.classify_line(x).points)
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
