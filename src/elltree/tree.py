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

DomainTree collects the generator layout, which yields the vertices and
edges in creation order.  The whole tree serves the domain dump and the
whole-tree reference assembly; build_domain counts its vertices from the
summary and refuses it before building when there are too many.  Reports
need only branch_tree, or branch_layout to walk one lazily: a branch
depends on its line's case, the depth and the cap attachment, so one
one-line tree stands for every line of a case, refused by the same count.
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
    """The truncated tree of a classification summary, collected from layout.

    attach selects the cusp vertex carrying the cap in case 2 (depth 1 by
    default; 2 is a structural variant used to show the choice does not
    affect homology).
    """

    def __init__(self, summary, depth, attach=1):
        self.summary = summary
        simplices = list(layout(summary, depth, attach))
        self.vertices = tuple(s for s in simplices if isinstance(s, Vertex))
        self.edges = tuple(s for s in simplices if isinstance(s, Edge))

    def graph_dump(self):
        """Line-oriented text dump: vertices then edges, creation order."""
        out = [f"vertex {v.vid} {v.tag}" for v in self.vertices]
        out.extend(f"edge {e.tail} {e.head}" for e in self.edges)
        return "\n".join(out) + "\n"


def layout(summary, depth, attach=1):
    """The Vertex and Edge records of the tree, yielded in creation order:
    the root, then per line its vertex and root edge, and per point its
    cusp path, the path's edges and, in case 2, the cap and its edge."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if attach not in (1, 2):
        raise ValueError("cap attachment depth must be 1 or 2")
    if attach > depth:
        raise ValueError("cap attachment exceeds the truncation depth")
    # an edge follows its head, the one vertex it adds: its eid is head - 1
    vid = 0
    yield Vertex(vid, "root")
    for lc in summary.lines:
        line = vid = vid + 1
        yield Vertex(line, "line", lc.line)
        yield Edge(line - 1, 0, line, "root-line", lc.line)
        for plbl in lc.points:
            ray = vid  # the cusp at depth n is vertex ray + n
            for n in range(1, depth + 1):
                yield Vertex(ray + n, "cusp", lc.line, plbl, n)
            yield Edge(ray, line, ray + 1, "line-cusp", lc.line)
            for n in range(1, depth):
                yield Edge(ray + n, ray + n, ray + n + 1, "cusp-cusp", lc.line, n)
            vid = ray + depth
            if lc.case == 2:
                vid += 1
                yield Vertex(vid, "cap", lc.line, plbl)
                yield Edge(vid - 1, ray + attach, vid, "cusp-cap", lc.line, attach)


def domain_size(summary, depth):
    """The vertex count of the whole tree: the root, one vertex per line,
    a cusp path per point and a cap per case-2 line."""
    _, n2, n3 = summary.case_counts()
    return 1 + len(summary.lines) + depth * (n2 + 2 * n3) + n2


def _check_size(summary, depth):
    """Refuse a tree of more than MAX_DOMAIN_VERTICES vertices."""
    size = domain_size(summary, depth)
    if size > MAX_DOMAIN_VERTICES:
        what = f"domain tree vertices ({len(summary.lines)} lines, depth {depth})"
        raise TooLargeError(what, size, MAX_DOMAIN_VERTICES)


def build_domain(summary, depth, attach=1):
    """The whole tree, refused by _check_size before it is built."""
    _check_size(summary, depth)
    return DomainTree(summary, depth, attach)


def branch_tree(line_class, depth, attach=1):
    """The one-line tree of a line's branch, refused as build_domain refuses
    a whole tree, before it is built.

    Its root is vertex 0 and its root edge is edge 0; every other simplex
    belongs to the branch.  In degrees q >= 1 the root and its edge carry
    0, so assembling this whole tree gives the branch's E2.
    """
    return build_domain(ClassificationSummary((line_class,)), depth, attach)


def branch_layout(line_class, depth, attach=1):
    """The layout of branch_tree(line_class, depth, attach), refused as it is."""
    summary = ClassificationSummary((line_class,))
    _check_size(summary, depth)
    return layout(summary, depth, attach)
