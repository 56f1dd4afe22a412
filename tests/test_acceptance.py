"""Acceptance gate: one test per criterion, each with its runtime budget.

Every test prints a single PASS line with its measured time; a failing
criterion fails its test outright.  Budgets are generous upper bounds,
asserted so a performance regression cannot slip through silently.
"""

import json
import time

import pytest

from elltree import cli
from elltree.abelian import FgAbGroup, TRIVIAL_GROUP
from elltree.coefficients import (
    BATTERIES,
    ISO,
    REPORT_SCHEMA,
    TOKEN_PGL2K,
    TOKEN_QUAD,
    TOKEN_UNITS,
    ZERO_MAP,
    ConcreteSpec,
    TokenProvider,
    assemble_system,
    e2_pair,
    predicted,
    report,
    report_to_json_text,
    symbolic_tokens,
)
from elltree.curve import SingularCurveError, WeierstrassCurve
from elltree.field import make_field
from elltree.groups import abelianization, bar_homology, pgl2
from elltree.selftest import (
    _stabilizer_zoo,
    complex_battery,
    corpus_curves,
    cyclic_battery,
    snf_battery,
)
from elltree.tree import MAX_DOMAIN_VERTICES, DomainTree, branch_tree, build_domain
from helpers import case_lines, degree_zero_row, enumerate_points, is_two_torsion, total_points


class _Clock:
    def __init__(self, budget, label):
        self.budget = budget
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert self.elapsed < self.budget, (
                f"{self.label}: {self.elapsed:.2f}s exceeds {self.budget}s budget"
            )
            print(f"PASS {self.label} ({self.elapsed:.2f}s < {self.budget}s)")
        return False


def test_criterion_1_symbolic_reproduction():
    with _Clock(10.0, "criterion 1: symbolic reproduction of the prediction"):
        for curve in corpus_curves():
            summary = curve.classify_all()
            for depth in (1, 2, 5, 10):
                for inst in BATTERIES.values():
                    expected = predicted(summary, inst, 1)
                    rep = report(summary, depth, 1, inst, 5, curve)
                    for entry in rep["degrees"]:
                        assert entry["verdict"] == "match"
                        assert entry["assembled"] == expected.to_json()


def test_criterion_2_subtree_collapse():
    expected_token = {1: TOKEN_QUAD, 2: TOKEN_PGL2K, 3: TOKEN_UNITS}
    with _Clock(5.0, "criterion 2: per-subtree collapse, both resolutions"):
        for curve in corpus_curves():
            for line in curve.classify_all().lines:
                tree = branch_tree(line, 2)
                tokens = symbolic_tokens(tree)
                token = expected_token[line.case]
                for resolution in (ZERO_MAP, ISO):
                    inst = BATTERIES["A"].with_resolution(resolution)
                    h0, h1 = e2_pair(assemble_system(tree, TokenProvider(tree, tokens, inst)))
                    assert h0 == inst.group_for(token)
                    assert h1 == TRIVIAL_GROUP


def test_criterion_3_degree_zero_row():
    with _Clock(1.0, "criterion 3: degree-0 row is (Z, 0)"):
        for curve in corpus_curves():
            tree = build_domain(curve.classify_all(), 2)
            assert degree_zero_row(tree) == (FgAbGroup(1, ()), TRIVIAL_GROUP)


def test_criterion_4_counting_identities():
    with _Clock(1.0, "criterion 4: counting identities and Hasse bound"):
        for curve in corpus_curves():
            summary = curve.classify_all()
            n1 = len(case_lines(summary, 1))
            n2 = len(case_lines(summary, 2))
            n3 = len(case_lines(summary, 3))
            q = curve.field.order
            assert n1 + n2 + n3 == q + 1
            points = total_points(summary)
            affine_case2 = sum(
                1 for lc in case_lines(summary, 2) if lc.line != "inf"
            )
            assert points == 1 + affine_case2 + 2 * n3
            assert points == summary.cusp_count
            two_torsion = sum(
                1 for p in enumerate_points(curve) if is_two_torsion(curve, p)
            )
            assert two_torsion == n2
            assert two_torsion in (1, 2, 4)
            assert (points - q - 1) ** 2 <= 4 * q


def test_criterion_5_exact_linear_algebra():
    with _Clock(30.0, "criterion 5: SNF battery and designed complexes"):
        ok, detail = snf_battery(trials=500, max_dim=12)
        assert ok, detail
        ok, detail = complex_battery(trials=100)
        assert ok, detail


def test_criterion_6_group_homology_oracles():
    with _Clock(120.0, "criterion 6: bar homology against closed forms"):
        ok, detail = cyclic_battery()
        assert ok, detail
        for group in _stabilizer_zoo():
            assert group.order <= 24
            assert bar_homology(group, 1) == abelianization(group)
        assert bar_homology(pgl2(make_field(2, 1)), 1) == FgAbGroup(0, (2,))


def test_criterion_7_concrete_experiment():
    jsonschema = pytest.importorskip("jsonschema")
    f2_curves = [c for c in corpus_curves() if c.field.order == 2]
    assert len(f2_curves) == 2
    with _Clock(300.0, "criterion 7: concrete pipeline over GF(2)"):
        for curve in f2_curves:
            for depth in (1, 2, 3):
                rep = report(curve.classify_all(), depth, 1, ConcreteSpec(curve.field), 2, curve)
                jsonschema.validate(rep, REPORT_SCHEMA)
                assert [d["i"] for d in rep["degrees"]] == [1, 2]
                for entry in rep["degrees"]:
                    assert entry["verdict"] in ("match", "mismatch", "caveat-extension")
                assert len(rep["diagonal_reduction"]) == 2 * depth
                again = report(curve.classify_all(), depth, 1, ConcreteSpec(curve.field), 2, curve)
                assert report_to_json_text(rep) == report_to_json_text(again)


def test_criterion_8_robustness():
    with _Clock(1.0, "criterion 8: singular rejection and corruption detection"):
        with pytest.raises(SingularCurveError):
            WeierstrassCurve(make_field(5, 1), 0, 0, 0, 0, 0)
        curve = corpus_curves()[0]
        summary = curve.classify_all()
        tree = build_domain(summary, 1)
        tokens = symbolic_tokens(tree)
        inst = BATTERIES["A"]
        expected = predicted(summary, inst, 1)
        clean = e2_pair(assemble_system(tree, TokenProvider(tree, tokens, inst)))
        assert clean[0] == expected and clean[1] == TRIVIAL_GROUP
        eid = next(e.eid for e in tree.edges if e.kind == "line-cusp")
        flipped = tokens.with_flipped_tag(eid, "tail", ZERO_MAP)
        h0, h1 = e2_pair(assemble_system(tree, TokenProvider(tree, flipped, inst)))
        verdict = "match" if (h0, h1) == (expected, TRIVIAL_GROUP) else "mismatch"
        assert verdict == "mismatch"


def test_reach_symbolic_p251_depth_50():
    curve = WeierstrassCurve(make_field(251, 1), 0, 0, 0, -1, 0)
    with _Clock(10.0, "reach: symbolic p=251, depth 50"):
        summary = curve.classify_all()
        rep = report(summary, 50, 1, BATTERIES["A"], 5, curve)
        assert [d["i"] for d in rep["degrees"]] == [1, 2, 3, 4, 5]
        assert all(d["verdict"] != "mismatch" for d in rep["degrees"])


def test_refusals_before_building(capsys, cold_caches):
    # item 5: a refusal is decided from closed-form sizes, so it costs
    # classification and a walk of the tree, never a group table
    e5 = "0,0,0,-1,0"
    depth1 = ["--depth", "1", "--q-max", "1"]
    runs = [
        ["concrete", "--p", "5", "--curve", e5] + depth1,
        ["concrete", "--p", "7", "--curve", e5] + depth1,
        ["concrete", "--p", "2", "--k", "3", "--curve", "0,0,1,0,0"] + depth1,
        ["concrete", "--p", "3", "--k", "2", "--curve", e5] + depth1,
        ["concrete", "--p", "3", "--curve", e5, "--depth", "2", "--q-max", "2", "--allow-large"],
    ]
    with _Clock(1.0, "refusals: five concrete runs refused before building"):
        for argv in runs:
            assert cli.main(argv) == 3
            assert capsys.readouterr().err.startswith("too large: ")


def test_reach_symbolic_p16381_depth_2(tmp_path):
    # item 2: classification, the elementary-divisor sums and the
    # closed-form root glue make a field of 16381 lines cost its case counts
    out = tmp_path / "report.json"
    argv = ["symbolic", "--p", "16381", "--curve", "0,0,0,-1,0", "--depth", "2", "--out", str(out)]
    with _Clock(20.0, "reach: symbolic p=16381, depth 2"):
        assert cli.main(argv) == 0
    degrees = json.loads(out.read_text())["degrees"]
    assert [d["i"] for d in degrees] == [1, 2, 3, 4, 5]
    assert all(d["verdict"] != "mismatch" for d in degrees)


def test_reach_symbolic_deep_ray(tmp_path):
    # item 7: with the cusp rays contracted before elimination, a report's
    # cost is linear in depth
    out = tmp_path / "report.json"
    argv = ["symbolic", "--p", "101", "--curve", "0,0,0,-1,0", "--depth", "2000", "--out", str(out)]
    with _Clock(2.0, "reach: symbolic p=101, depth 2000"):
        assert cli.main(argv) == 0
    degrees = json.loads(out.read_text())["degrees"]
    assert [d["verdict"] for d in degrees] == ["match"] * 5


def test_ray_over_the_tree_ceiling_refused_before_building(capsys, monkeypatch):
    # a case-2 branch has depth + 3 vertices and a case-3 branch 2 depth + 2,
    # so at this depth every ray is over the ceiling and no tree is built
    def refuse(*args):
        raise AssertionError("a tree over the ceiling is refused before it is built")

    monkeypatch.setattr(DomainTree, "__init__", refuse)
    depth = str(MAX_DOMAIN_VERTICES - 2)
    runs = [
        (["symbolic", "--p", "5", "--curve", "0,0,0,-1,0", "--depth", depth], 1000001),
        (["concrete", "--p", "2", "--curve", "0,0,1,0,0", "--depth", depth, "--q-max", "1"], 1999998),
    ]
    for argv, size in runs:
        with _Clock(0.05, f"refusal: {argv[0]} at depth {depth} before building the ray"):
            assert cli.main(argv) == 3
        assert capsys.readouterr().err == (
            f"too large: domain tree vertices (1 lines, depth {depth}) [line x=0]: "
            f"size {size} exceeds ceiling 1000000\n"
        )


def test_deep_ray_refused_before_building(capsys, monkeypatch):
    # the preflight walks each branch's vertex keys lazily and stops at the
    # first refused cusp, so a depth under the tree ceiling costs only the
    # prefix it reads
    def refuse(*args):
        raise AssertionError("the preflight builds no tree")

    monkeypatch.setattr(DomainTree, "__init__", refuse)
    runs = [
        (["concrete", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "100000", "--q-max", "1"],
         "too large: bar homology of Tri(GF(2),5)/N1 [vertex cusp[(0,0),5]] [line x=0]: "
         "size 32 exceeds ceiling 24\n"),
        (["concrete", "--p", "3", "--curve", "0,0,0,-1,0", "--depth", "5000", "--q-max", "2",
          "--allow-large"],
         "too large: homology presentation for Tri(GF(3),4)/N2 [vertex cusp[(0,0),4]] "
         "[line x=0]: size 25921 exceeds ceiling 9000\n"),
    ]
    for argv, err in runs:
        with _Clock(0.05, f"refusal: {' '.join(argv)} before building the ray"):
            assert cli.main(argv) == 3
        assert capsys.readouterr().err == err


def test_large_field_refused_before_classifying(capsys, cold_caches):
    # item 5: the line x = 0 alone settles the refusal, so 65521 lines are
    # never classified
    argv = ["concrete", "--p", "65521", "--curve", "0,0,0,-1,0", "--depth", "1", "--q-max", "1"]
    with _Clock(0.05, "refusal: GF(65521) before classifying every line"):
        assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith("too large: bar homology of GF(65521)+ ")
