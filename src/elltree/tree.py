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
"""

from dataclasses import dataclass

from .curve import CurvePoint


def point_label(p):
    return p.label() if isinstance(p, CurvePoint) else str(p)


@dataclass(frozen=True)
class Vertex:
    """A tree vertex; line/point/depth narrow down its role.

    kind is one of root, line, cusp, cap.  line is the owning line's
    label (empty for the root); point and depth are set on cusp vertices,
    and cap vertices carry the point they close off.
    """

    vid: int
    kind: str
    line: str = ""
    point: str = ""
    depth: int = 0

    @property
    def tag(self):
        if self.kind == "root":
            return "root"
        if self.kind == "line":
            return f"line[{self.line}]"
        if self.kind == "cusp":
            return f"cusp[{self.point},{self.depth}]"
        return f"cap[{self.point}]"


@dataclass(frozen=True)
class Edge:
    """Oriented edge: tail is nearer the root than head.

    kind is root-line, line-cusp, cusp-cusp, or cusp-cap.  depth is the
    tail's cusp depth for cusp-cusp and cusp-cap edges, otherwise 0.
    """

    eid: int
    tail: int
    head: int
    kind: str
    line: str = ""
    depth: int = 0


@dataclass(frozen=True)
class SubtreeView:
    """The branch belonging to one line: its class, vertices, edges.

    root_edge_id is the edge joining the root to the line vertex; it is
    not part of the branch itself.
    """

    line_class: object
    vertex_ids: tuple
    edge_ids: tuple
    root_edge_id: int


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
        subtrees = {}
        order = []

        def new_vertex(kind, line="", point="", d=0):
            v = Vertex(len(vertices), kind, line, point, d)
            vertices.append(v)
            return v

        def new_edge(tail, head, kind, line="", d=0):
            e = Edge(len(edges), tail.vid, head.vid, kind, line, d)
            edges.append(e)
            return e

        for lc in summary.lines:
            lbl = lc.label
            sub_vertices = []
            sub_edges = []
            v_line = new_vertex("line", line=lbl)
            sub_vertices.append(v_line)
            root_edge = new_edge(vertices[0], v_line, "root-line", line=lbl)
            for p in lc.points:
                plbl = point_label(p)
                chain = []
                for n in range(1, depth + 1):
                    chain.append(new_vertex("cusp", line=lbl, point=plbl, d=n))
                sub_vertices.extend(chain)
                sub_edges.append(new_edge(v_line, chain[0], "line-cusp", line=lbl))
                for n in range(1, depth):
                    sub_edges.append(
                        new_edge(chain[n - 1], chain[n], "cusp-cusp", line=lbl, d=n)
                    )
                if lc.case == 2:
                    cap = new_vertex("cap", line=lbl, point=plbl)
                    sub_vertices.append(cap)
                    sub_edges.append(
                        new_edge(chain[attach - 1], cap, "cusp-cap", line=lbl, d=attach)
                    )
            subtrees[lbl] = SubtreeView(
                lc,
                tuple(v.vid for v in sub_vertices),
                tuple(e.eid for e in sub_edges),
                root_edge.eid,
            )
            order.append(lbl)
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self._subtrees = subtrees
        self.line_order = tuple(order)

    @property
    def cusp_count(self):
        return self.summary.cusp_count

    def subtree(self, label):
        if label not in self._subtrees:
            raise KeyError(f"no line with label {label!r}")
        return self._subtrees[label]

    def subtrees(self):
        return [self._subtrees[lbl] for lbl in self.line_order]

    def graph_dump(self):
        """Line-oriented text dump: vertices then edges, creation order."""
        out = [f"vertex {v.vid} {v.tag}" for v in self.vertices]
        out.extend(f"edge {e.tail} {e.head}" for e in self.edges)
        return "\n".join(out) + "\n"


def build_domain(summary, depth, attach=1):
    return DomainTree(summary, depth, attach)
