"""Curve and line-classification tests.

Point counts are checked against brute-force enumeration of the equation
(the oracle), and the standard corpus values are frozen from it.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from elltree.curve import (
    INFINITY,
    INFINITY_POINT,
    ClassificationSummary,
    CurvePoint,
    SingularCurveError,
    WeierstrassCurve,
    line_label,
    synthetic_summary,
)
from elltree.cli import main
from elltree.field import FiniteField, make_field
from helpers import case_lines, curve_from_json, enumerate_points, is_two_torsion, negate, total_points


def brute_force_points(curve):
    """Oracle: test every (x, y) pair against the curve equation."""
    pts = [INFINITY_POINT]
    for x in curve.field.elements():
        for y in curve.field.elements():
            if curve.equation_value(x, y).is_zero():
                pts.append(CurvePoint(x, y))
    return pts


def cubic_curve(p, k, coeffs):
    F = make_field(p, k)
    return WeierstrassCurve(F, *[F(c) for c in coeffs])


def test_singular_curve_rejected():
    # y^2 = x^3 has discriminant 0
    with pytest.raises(SingularCurveError):
        cubic_curve(5, 1, [0, 0, 0, 0, 0])


def test_discriminant_example():
    # y^2 = x^3 - x over F_5: delta = -8*b4^3 = -8*(-2)^3 = 64 = 4 mod 5
    c = cubic_curve(5, 1, [0, 0, 0, -1, 0])
    assert c.discriminant() == c.field(4)


def test_point_membership_example():
    c = cubic_curve(5, 1, [0, 0, 0, -1, 0])
    F = c.field
    assert c.contains(CurvePoint(F(2), F(1)))
    assert not c.contains(CurvePoint(F(2), F(2)))
    assert c.contains(INFINITY_POINT)


def test_point_counts_match_brute_force():
    corpus = [
        (3, 1, [0, 0, 0, -1, 0]),
        (5, 1, [0, 0, 0, -1, 0]),
        (7, 1, [0, 0, 0, -1, 0]),
        (5, 1, [0, 0, 0, 1, 1]),
        (2, 1, [0, 0, 1, 0, 0]),
        (2, 1, [1, 0, 0, 0, 1]),
        (2, 2, [0, 0, 1, 0, 0]),
    ]
    for p, k, coeffs in corpus:
        c = cubic_curve(p, k, coeffs)
        assert enumerate_points(c) == brute_force_points(c)


def test_frozen_point_counts():
    # frozen from the brute-force oracle above
    assert len(enumerate_points(cubic_curve(3, 1, [0, 0, 0, -1, 0]))) == 4
    assert len(enumerate_points(cubic_curve(5, 1, [0, 0, 0, -1, 0]))) == 8
    assert len(enumerate_points(cubic_curve(2, 1, [0, 0, 1, 0, 0]))) == 3


def test_hasse_bound():
    for p, k, coeffs in [
        (3, 1, [0, 0, 0, -1, 0]),
        (5, 1, [0, 0, 0, -1, 0]),
        (7, 1, [0, 0, 0, -1, 0]),
        (5, 1, [0, 0, 0, 1, 1]),
        (2, 1, [0, 0, 1, 0, 0]),
        (2, 1, [1, 0, 0, 0, 1]),
        (2, 2, [0, 0, 1, 0, 0]),
        (3, 2, [0, 0, 0, -1, 0]),
    ]:
        c = cubic_curve(p, k, coeffs)
        q = c.field.order
        n = len(enumerate_points(c))
        assert abs(n - (q + 1)) <= 2 * math.sqrt(q)


def test_negation_is_involution_and_fixes_curve():
    for p, k, coeffs in [(5, 1, [0, 0, 0, -1, 0]), (2, 1, [1, 0, 0, 0, 1]), (2, 1, [0, 0, 1, 0, 0])]:
        c = cubic_curve(p, k, coeffs)
        for pt in enumerate_points(c):
            npt = negate(c, pt)
            assert c.contains(npt)
            assert negate(c, npt) == pt


def test_negate_example():
    c = cubic_curve(5, 1, [0, 0, 0, -1, 0])
    F = c.field
    assert negate(c, CurvePoint(F(2), F(1))) == CurvePoint(F(2), F(4))


def test_two_torsion_example():
    c = cubic_curve(5, 1, [0, 0, 0, -1, 0])
    F = c.field
    assert is_two_torsion(c, CurvePoint(F(1), F(0)))
    assert not is_two_torsion(c, CurvePoint(F(2), F(1)))
    assert is_two_torsion(c, INFINITY_POINT)


def test_classification_f3():
    c = cubic_curve(3, 1, [0, 0, 0, -1, 0])
    summary = c.classify_all()
    assert [lc.case for lc in summary.lines] == [2, 2, 2, 2]
    assert summary.lines[-1].line == INFINITY
    assert total_points(summary) == 4


def test_classification_f5():
    c = cubic_curve(5, 1, [0, 0, 0, -1, 0])
    summary = c.classify_all()
    F = c.field
    cases = {lc.line: lc.case for lc in summary.lines}
    assert cases == {"0": 2, "1": 2, "2": 3, "3": 3, "4": 2, INFINITY: 2}
    # case-3 points on a line are negatives of each other
    for l, lc in zip(F.elements(), summary.lines):
        if lc.case == 3:
            p, q = c.points_on_line(l)
            assert negate(c, p) == q
            assert (p.label(), q.label()) == lc.points
    assert total_points(summary) == 8
    # the case-2 point on l=1 is (1, 0)
    (pt,) = c.points_on_line(F(1))
    assert pt == CurvePoint(F(1), F(0))
    assert c.classify_line(F(1)).points == ("(1,0)",)


def test_case1_example():
    c = cubic_curve(5, 1, [0, 0, 0, 1, 1])
    F = c.field
    # on x = 1 the equation needs y^2 = 3, and 3 is not a square mod 5
    assert c.classify_line(F(1)).case == 1
    assert len(case_lines(c.classify_all(), 2)) == 1  # only the line at infinity


def test_case2_points_are_two_torsion():
    for p, k, coeffs in [
        (3, 1, [0, 0, 0, -1, 0]),
        (5, 1, [0, 0, 0, -1, 0]),
        (7, 1, [0, 0, 0, -1, 0]),
        (2, 1, [0, 0, 1, 0, 0]),
        (2, 1, [1, 0, 0, 0, 1]),
        (2, 2, [0, 0, 1, 0, 0]),
    ]:
        c = cubic_curve(p, k, coeffs)
        lines = c.field.elements() + (INFINITY,)
        for l, lc in zip(lines, c.classify_all().lines):
            if lc.case == 2:
                (pt,) = c.points_on_line(l)
                assert is_two_torsion(c, pt)
                assert lc.points == (pt.label(),)


def test_two_torsion_count_matches_case2_count():
    # the case-2 lines (infinity included) are exactly the 2-torsion points
    for p, k, coeffs in [
        (3, 1, [0, 0, 0, -1, 0]),
        (5, 1, [0, 0, 0, -1, 0]),
        (5, 1, [0, 0, 0, 1, 1]),
        (2, 1, [0, 0, 1, 0, 0]),
        (2, 1, [1, 0, 0, 0, 1]),
    ]:
        c = cubic_curve(p, k, coeffs)
        summary = c.classify_all()
        torsion = [pt for pt in enumerate_points(c) if is_two_torsion(c, pt)]
        assert len(case_lines(summary, 2)) == len(torsion)
        assert len(case_lines(summary, 2)) in {1, 2, 4}


def test_lines_partition_points():
    # every affine point lies on exactly one line; totals agree
    for p, k, coeffs in [(5, 1, [0, 0, 0, -1, 0]), (7, 1, [0, 0, 0, -1, 0]), (2, 2, [0, 0, 1, 0, 0])]:
        c = cubic_curve(p, k, coeffs)
        summary = c.classify_all()
        affine_case2 = [lc for lc in case_lines(summary, 2) if lc.line != INFINITY]
        assert total_points(summary) == 1 + len(affine_case2) + 2 * len(case_lines(summary, 3))
        assert total_points(summary) == len(enumerate_points(c))


def test_char2_corpus_curves_nonsingular():
    cubic_curve(2, 1, [0, 0, 1, 0, 0])  # y^2 + y = x^3
    cubic_curve(2, 1, [1, 0, 0, 0, 1])  # y^2 + xy = x^3 + 1


def test_classification_char2():
    c = cubic_curve(2, 1, [0, 0, 1, 0, 0])
    summary = c.classify_all()
    # a3 = 1 means b = 1 on every affine line, so each has 0 or 2 points
    assert {lc.case for lc in summary.lines[:-1]} <= {1, 3}
    assert summary.lines[-1].case == 2


def test_synthetic_summary_shape():
    s = synthetic_summary(case1=2, case2=1, case3=1, include_infinity_line=True)
    assert len(case_lines(s, 1)) == 2
    assert len(case_lines(s, 2)) == 1
    assert len(case_lines(s, 3)) == 1
    assert s.cusp_count == 3
    empty = synthetic_summary()
    assert empty.lines == ()


def test_curve_json_round_trip():
    F = make_field(2, 2)
    c = WeierstrassCurve(F, F(0), F(0), F(1), F(0), F([0, 1]))
    data = c.to_json()
    c2 = curve_from_json(F, data)
    assert c2.to_json() == data


def test_line_label_of_synthetic_line_has_no_quotes():
    assert line_label("s2.0") == "s2.0"
    assert synthetic_summary(case2=1).lines[0].line == "s2.0"
    assert line_label(INFINITY) == INFINITY
    F = make_field(3, 2)
    assert line_label(F([1, 2])) == "1:2"


# ---------------------------------------------------------------------------
# the int-coded classifier against classify_line, line by line


ODD_PRIMES_BELOW_200 = [p for p in range(3, 200, 2) if all(p % d for d in range(3, p, 2))]
CLASSIFY_FIELDS = (
    [(p, 1) for p in ODD_PRIMES_BELOW_200]
    + [(2, k) for k in range(1, 7)]
    + [(3, k) for k in range(2, 5)]
    + [(5, 2), (7, 2), (5, 3)]
)


def per_line_summary(curve):
    """Oracle: classify_line on every line, in the order classify_all uses."""
    lines = [curve.classify_line(l) for l in curve.field.elements()]
    return ClassificationSummary(tuple(lines + [curve.classify_line(INFINITY)]))


@pytest.mark.parametrize("p,k", CLASSIFY_FIELDS, ids=[f"{p}^{k}" for p, k in CLASSIFY_FIELDS])
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_classify_all_matches_classify_line(p, k, data):
    F = make_field(p, k)
    elements = F.elements()
    a1, a2, a3, a4, a6 = (data.draw(st.sampled_from(elements)) for _ in "12346")
    if data.draw(st.booleans()):  # a short curve, as the large-field benchmarks run
        a1 = a2 = a3 = F.zero
    try:
        curve = WeierstrassCurve(F, a1, a2, a3, a4, a6)
    except SingularCurveError:
        assume(False)
    got, want = curve.classify_all(), per_line_summary(curve)
    assert got == want
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize(
    "p,coeffs",
    [(16381, (0, 0, 0, 14615, 8137)), (16381, (3, 5, 7, 11, 13)),
     (65521, (0, 0, 0, -1, 0)), (65521, (65520, 2, 1, 0, 65519))],
)
def test_classify_all_matches_classify_line_at_both_ends_of_large_prime_fields(p, coeffs):
    curve = WeierstrassCurve(make_field(p, 1), *coeffs)
    got = curve.classify_all().lines
    ends = list(range(300)) + list(range(p - 300, p))
    assert [got[l] for l in ends] == [curve.classify_line(l) for l in ends]
    assert got[p:] == (curve.classify_line(INFINITY),)


@pytest.mark.parametrize("p,k", CLASSIFY_FIELDS, ids=[f"{p}^{k}" for p, k in CLASSIFY_FIELDS])
def test_label_table_matches_element_reprs(p, k):
    F = make_field(p, k)
    assert F.labels() == tuple(map(repr, F.elements()))


def test_classify_builds_no_elements_or_points(monkeypatch, tmp_path):
    # the whole classify run over GF(101^2) works from codes and labels
    def refuse(self):
        raise AssertionError("FiniteField.elements called")

    built = []
    point_init = CurvePoint.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        point_init(self, *args, **kwargs)

    monkeypatch.setattr(FiniteField, "elements", refuse)
    monkeypatch.setattr(CurvePoint, "__init__", counted)
    argv = ["classify", "--p", "101", "--k", "2", "--curve", "0:0,0:0,0:0,70:4,0:30"]
    assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
    assert built == []
    assert json.loads((tmp_path / "report.json").read_text())["cusp_count"] > 0
