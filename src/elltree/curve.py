"""Weierstrass curves over finite fields and the vertical-line classifier.

A curve y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 is nonsingular when
its discriminant is nonzero.  Each vertical line x = l (including l at
infinity) is classified by how many rational points of the curve it meets:

  case 1: none,
  case 2: exactly one (necessarily 2-torsion; the line at infinity always
          lands here, through the point at infinity),
  case 3: two, which are each other's negatives.

The classification summary is the only curve data the downstream tree and
coefficient-system stages consume, so it can also be built synthetically.
A line class carries labels only: the line's label and the labels of the
points it meets, which is all that reports, tree tags and refusal texts
print.  WeierstrassCurve.points_on_line gives the points as CurvePoint
objects.
"""

from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .field import coded_field, solve_monic_quadratic
from .value import Value

INFINITY = "inf"


class SingularCurveError(ValueError):
    pass


class CurvePoint:
    """Affine point (x, y) or the point at infinity (x is None)."""

    __slots__ = ("x", "y")

    def __init__(self, x=None, y=None):
        self.x = x
        self.y = y

    @property
    def is_infinity(self):
        return self.x is None

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        return (self.x, self.y) == (other.x, other.y)

    def __hash__(self):
        return hash((None, None) if self.is_infinity else (self.x.coeffs, self.y.coeffs))

    def label(self):
        if self.is_infinity:
            return INFINITY
        return f"({self.x!r},{self.y!r})"

    def __repr__(self):
        return self.label()


INFINITY_POINT = CurvePoint()


def line_label(l):
    """Canonical printable label for a vertical line x = l."""
    return str(l)


class LineClass(NamedTuple):
    """Classification of one vertical line: its label, case, and the
    labels of the points met."""

    line: str  # a field element's label, or INFINITY
    case: int
    points: tuple  # () for case 1, (p,) for case 2, (p, q) for case 3


class ClassificationSummary(Value):
    """Per-line classification plus derived counts.

    lines are ordered with affine lines first (coefficient vectors in
    lexicographic order) and the line at infinity last.  Synthetic
    summaries, used for infinite-field style experiments, carry made-up
    labels.
    """

    __slots__ = ("lines",)  # lines: a tuple of LineClass

    def case_counts(self):
        """The number of lines of case 1, 2 and 3."""
        cases = [lc.case for lc in self.lines]
        return cases.count(1), cases.count(2), cases.count(3)

    def to_json(self):
        n1, n2, n3 = self.case_counts()
        return {
            "lines": LineRows(self.lines),
            "counts": {"case1": n1, "case2": n2, "case3": n3, "points": n2 + 2 * n3},
        }


class LineRows(Value):
    """Line classes as report rows {"case", "line", "points"}.

    The report writer has them write themselves, from one text template
    per case, so no dict is built per row.
    """

    __slots__ = ("lines",)  # lines: a tuple of LineClass

    def write_json(self, newline, write):
        """Write the rows as an indented JSON list whose lines end with newline."""
        if not self.lines:
            write("[]")
            return
        row, key, item = newline + "  ", newline + "    ", newline + "      "
        head, mid = f'{row}{{{key}"case": ', f',{key}"line": '
        points_at, end = f',{key}"points": [{item}', f"{key}]{row}}}"
        empty = f',{key}"points": []{row}}}'
        enc = encode_basestring_ascii
        texts = [
            f"{head}1{mid}{enc(line)}{empty}" if case == 1
            else f"{head}2{mid}{enc(line)}{points_at}{enc(points[0])}{end}" if case == 2
            else f"{head}3{mid}{enc(line)}{points_at}{enc(points[0])},{item}{enc(points[1])}{end}"
            for line, case, points in self.lines
        ]
        write("[")
        write(",".join(texts))
        write(newline + "]")


def synthetic_summary(case1=0, case2=0, case3=0, include_infinity_line=False):
    """A summary with made-up labels, for runs not backed by a curve.

    Case labels are strings; case-2 entries get one synthetic point each
    and case-3 entries a point pair.  When include_infinity_line is set,
    the last case-2 entry is the line at infinity through the infinite
    point, mirroring real summaries.
    """
    lines = []
    for i in range(case1):
        lines.append(LineClass(f"s1.{i}", 1, ()))
    n2 = case2 - 1 if include_infinity_line else case2
    for i in range(n2):
        lines.append(LineClass(f"s2.{i}", 2, (f"pt2.{i}",)))
    for i in range(case3):
        lines.append(LineClass(f"s3.{i}", 3, (f"pt3.{i}+", f"pt3.{i}-")))
    if include_infinity_line:
        lines.append(LineClass(INFINITY, 2, (INFINITY,)))
    return ClassificationSummary(tuple(lines))


class WeierstrassCurve:
    """Nonsingular Weierstrass curve over a finite field."""

    def __init__(self, field, a1, a2, a3, a4, a6):
        self.field = field
        self.a1 = field(a1)
        self.a2 = field(a2)
        self.a3 = field(a3)
        self.a4 = field(a4)
        self.a6 = field(a6)
        if self.discriminant().is_zero():
            raise SingularCurveError("curve is singular (discriminant is zero)")

    def discriminant(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return -(b2 * b2 * b8) - 8 * (b4 ** 3) - 27 * (b6 * b6) + 9 * b2 * b4 * b6

    def _ys_on_line(self, l):
        # on x = l the equation becomes y^2 + (a1*l + a3)*y - rhs(l) = 0
        b = self.a1 * l + self.a3
        c = -(l ** 3 + self.a2 * l * l + self.a4 * l + self.a6)
        return solve_monic_quadratic(self.field, b, c)

    def points_on_line(self, l):
        """The rational points on the vertical line x = l (l may be INFINITY),
        affine ones sorted by y."""
        if l == INFINITY:
            return (INFINITY_POINT,)
        l = self.field(l)
        return tuple(CurvePoint(l, y) for y in self._ys_on_line(l))

    def classify_line(self, l):
        """LineClass of the vertical line x = l (l may be INFINITY), from
        field elements and curve points."""
        points = self.points_on_line(l)
        line = INFINITY if l == INFINITY else line_label(self.field(l))
        return LineClass(line, len(points) + 1, tuple(p.label() for p in points))

    def classify_all(self):
        """Summary over every line, affine lines in element order, infinity last.

        One batch of root codes (field.coded_field) whose labels come from
        the field's label table, so no field element or curve point is
        built per line; classify_line, line by line, is the reference.
        """
        field = self.field
        coeffs = map(field.index, (self.a1, self.a2, self.a3, self.a4, self.a6))
        labels = field.labels()
        lines, new = [], tuple.__new__  # LineClass(...) minus its Python-level __new__
        for x, ys in zip(labels, coded_field(field).affine_roots(*coeffs)):
            if not ys:
                lines.append(new(LineClass, (x, 1, ())))
            elif len(ys) == 1:
                lines.append(new(LineClass, (x, 2, (f"({x},{labels[ys[0]]})",))))
            else:
                y, z = ys
                lines.append(new(LineClass, (x, 3, (f"({x},{labels[y]})", f"({x},{labels[z]})"))))
        lines.append(self.classify_line(INFINITY))
        return ClassificationSummary(tuple(lines))

    def to_json(self):
        return {
            "a1": list(self.a1.coeffs),
            "a2": list(self.a2.coeffs),
            "a3": list(self.a3.coeffs),
            "a4": list(self.a4.coeffs),
            "a6": list(self.a6.coeffs),
        }
