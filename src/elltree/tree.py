"""Truncated fundamental-domain tree over a line classification.

Each vertical line contributes a branch hanging off a shared root vertex,
shaped by the line's case:

  case 1: the line vertex alone,
  case 2: the line vertex, one cusp path of the configured depth, and a
          cap vertex closing the cusp off near its start,
  case 3: the line vertex with two cusp paths, one per point met.

Cusp paths are conceptually infinite; the tree stores a finite depth-N
truncation.  Edges are oriented away from the root (tail is the endpoint
nearer the root), which fixes the boundary sign convention downstream.

The whole tree serves the domain dump and the whole-tree reference
assembly; build_domain counts its vertices from the summary and refuses
it before building when there are too many.  Reports need only
branch_tree: a branch depends on its line's case, the depth and the cap
attachment, so one one-line tree stands for every line of a case.  A
branch is refused by the same count, so no report builds a tree over
the ceiling.
"""

from .curve import ClassificationSummary
from .errors import TooLargeError
from .value import Value

# A whole tree takes about 0.7 KB of memory per vertex, so this bounds a
# domain run near 700 MB.
MAX_DOMAIN_VERTICES = 1_000_000


class Vertex(Value):
    """A tree vertex; line/point/depth narrow down its role.

    kind is one of root, line, cusp, cap.  line is the owning line's
    label (empty for the root); point and depth are set on cusp vertices,
    and cap vertices carry the point they close off.
    """

    __slots__ = ("vid", "kind", "line", "point", "depth")

    def __init__(self, vid, kind, line="", point="", depth=0):
        super().__init__(vid, kind, line, point, depth)

    @property
    def tag(self):
        if self.kind == "root":
            return "root"
        if self.kind == "line":
            return f"line[{self.line}]"
        if self.kind == "cusp":
            return f"cusp[{self.point},{self.depth}]"
        return f"cap[{self.point}]"


class Edge(Value):
    """Oriented edge: tail is nearer the root than head.

    kind is root-line, line-cusp, cusp-cusp, or cusp-cap.  depth is the
    tail's cusp depth for cusp-cusp and cusp-cap edges, otherwise 0.
    """

    __slots__ = ("eid", "tail", "head", "kind", "line", "depth")

    def __init__(self, eid, tail, head, kind, line="", depth=0):
        super().__init__(eid, tail, head, kind, line, depth)


class DomainTree:
    """The truncated tree for a classification summary.

    attach selects the cusp vertex carrying the cap in case 2 (depth 1 by
    default; 2 is a structural variant used to show the choice does not
    affect homology).
    """

    def __init__(self, summary, depth, attach=1):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if attach not in (1, 2):
            raise ValueError("cap attachment depth must be 1 or 2")
        if attach > depth:
            raise ValueError("cap attachment exceeds the truncation depth")
        self.summary = summary
        self.depth = depth
        self.attach = attach
        vertices = [Vertex(0, "root")]
        edges = []

        def new_vertex(kind, line="", point="", d=0):
            v = Vertex(len(vertices), kind, line, point, d)
            vertices.append(v)
            return v

        def new_edge(tail, head, kind, line="", d=0):
            edges.append(Edge(len(edges), tail.vid, head.vid, kind, line, d))

        for lc in summary.lines:
            lbl = lc.line
            v_line = new_vertex("line", line=lbl)
            new_edge(vertices[0], v_line, "root-line", line=lbl)
            for plbl in lc.points:
                chain = [new_vertex("cusp", line=lbl, point=plbl, d=n) for n in range(1, depth + 1)]
                new_edge(v_line, chain[0], "line-cusp", line=lbl)
                for n in range(1, depth):
                    new_edge(chain[n - 1], chain[n], "cusp-cusp", line=lbl, d=n)
                if lc.case == 2:
                    cap = new_vertex("cap", line=lbl, point=plbl)
                    new_edge(chain[attach - 1], cap, "cusp-cap", line=lbl, d=attach)
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)

    def graph_dump(self):
        """Line-oriented text dump: vertices then edges, creation order."""
        out = [f"vertex {v.vid} {v.tag}" for v in self.vertices]
        out.extend(f"edge {e.tail} {e.head}" for e in self.edges)
        return "\n".join(out) + "\n"


def domain_size(summary, depth):
    """The vertex count of the whole tree: the root, one vertex per line,
    a cusp path per point and a cap per case-2 line."""
    _, n2, n3 = summary.case_counts()
    return 1 + len(summary.lines) + depth * (n2 + 2 * n3) + n2


def build_domain(summary, depth, attach=1):
    """The whole tree, refused before it is built when it would have more
    than MAX_DOMAIN_VERTICES vertices."""
    size = domain_size(summary, depth)
    if size > MAX_DOMAIN_VERTICES:
        what = f"domain tree vertices ({len(summary.lines)} lines, depth {depth})"
        raise TooLargeError(what, size, MAX_DOMAIN_VERTICES)
    return DomainTree(summary, depth, attach)


def branch_tree(line_class, depth, attach=1):
    """The one-line tree of a line's branch, refused as build_domain refuses
    a whole tree, before it is built.

    Its root is vertex 0 and its root edge is edge 0; every other simplex
    belongs to the branch.  In degrees q >= 1 the root and its edge carry
    0, so assembling this whole tree gives the branch's E2.
    """
    return build_domain(ClassificationSummary((line_class,)), depth, attach)
