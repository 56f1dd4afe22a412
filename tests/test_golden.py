"""Golden CLI reports: byte equality with outputs frozen before refactors.

The files under tests/golden/ were written by the CLI before the
refactors they guard: the symbolic and first concrete and classify cases
before the degree-zero row was split over line branches, the compare,
degree-3, GF(3) and GF(4) cases before IntMatrix became sparse, the
two cap-attachment-2 cases before symbolic and concrete systems shared
one assembler, and the GF(3) depth-2 case, whose diagonal reduction has
a skipped entry, before refusals were decided from closed-form sizes.
Any later change must reproduce them byte for byte, exit code included.
Larger reports are pinned by digest and exit code instead.  A second
test runs the CLI in fresh interpreters under several hash seeds, since
determinism within one process says nothing about set or dict ordering
that depends on PYTHONHASHSEED.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from elltree import cli
from elltree.cli import main
from elltree.coefficients import report_to_json_text
from elltree.curve import LineClass, LineRows, WeierstrassCurve, synthetic_summary
from elltree.field import make_field
from helpers import classify_payload_by_dicts

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
E5 = "0,0,0,-1,0"

CASES = [
    ("symbolic_p101_e5_d30.json", 0,
     ["symbolic", "--p", "101", "--curve", E5, "--depth", "30"]),
    ("symbolic_p5_e5_d2_A_zero.json", 0,
     ["symbolic", "--p", "5", "--curve", E5, "--q-max", "3", "--depth", "2",
      "--battery", "A", "--resolution", "zero"]),
    ("symbolic_p5_e5_d2_B_iso.json", 0,
     ["symbolic", "--p", "5", "--curve", E5, "--q-max", "3", "--depth", "2",
      "--battery", "B", "--resolution", "iso"]),
    ("concrete_p2_d2_q2.json", 2,
     ["concrete", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "2", "--q-max", "2"]),
    ("classify_p3_e5.json", 0, ["classify", "--p", "3", "--curve", E5]),
    ("compare_p2_d1_q1.json", 2,
     ["compare", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "1", "--q-max", "1"]),
    ("concrete_p2_d2_q3_large.json", 2,
     ["concrete", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "2", "--q-max", "3",
      "--allow-large"]),
    ("concrete_p3_e5_d1_q1.json", 0,
     ["concrete", "--p", "3", "--curve", E5, "--depth", "1", "--q-max", "1"]),
    ("concrete_p2_k2_d1_q1.json", 0,
     ["concrete", "--p", "2", "--k", "2", "--curve", "0,0,1,0,0", "--depth", "1",
      "--q-max", "1", "--allow-large"]),
    ("symbolic_p5_e5_d3_attach2.json", 0,
     ["symbolic", "--p", "5", "--curve", E5, "--depth", "3", "--attach", "2", "--q-max", "3"]),
    ("concrete_p2_d2_attach2_q2.json", 2,
     ["concrete", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "2", "--attach", "2",
      "--q-max", "2"]),
    ("concrete_p3_e5_d2_q1.json", 0,
     ["concrete", "--p", "3", "--curve", E5, "--depth", "2", "--q-max", "1"]),
]


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, code, argv, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# Reports too large to keep as files, pinned by the sha256 of their bytes
# and the exit code.  The symbolic ones were written before the classifier
# became int-coded and before the elementary-divisor sums and the
# closed-form root glue; the concrete and compare ones before bar homology
# presentations were Smith-reduced; the classify ones before reports were
# written without json.dumps.
DIGESTS = [
    ("symbolic-p1009-d20", 0,
     "c192ff96e7a0e43aa5cf71e1796106bcf79010b53c987f081938d8e1caa7ea72",
     ["symbolic", "--p", "1009", "--curve", E5, "--depth", "20"]),
    ("symbolic-p4099-d2", 0,
     "6861641ecdac30aaae1428d0ffb18f940296dbb67c8808e0eaf2d7b685d868da",
     ["symbolic", "--p", "4099", "--curve", E5, "--depth", "2"]),
    ("concrete-p2-d3-q3-large", 2,
     "424a4790b68832f47a7f043dc68b278d7ec1c47d160df85170fbdfc8b7347366",
     ["concrete", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "3", "--q-max", "3",
      "--allow-large"]),
    ("concrete-p2-k2-d1-q1-large", 0,
     "b8ceda65a91a0e08be6a87e5d2b0d1fdcf50990e533fe46651ce0e88b9e498e4",
     ["concrete", "--p", "2", "--k", "2", "--curve", "0:0,0:0,1:0,0:0,1:0", "--depth", "1",
      "--q-max", "1", "--allow-large"]),
    ("compare-p2-d3-q2", 2,
     "4cead3b56ae0f0ee50b27831fc0d533726af0c243bbb9f5be8ee002a1ba53a31",
     ["compare", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "3", "--q-max", "2"]),
    ("classify-p16381", 0,
     "a4c78ecc62784961ab15b629a39768786eeba5c8e95a88474eb94d90b382066e",
     ["classify", "--p", "16381", "--curve", "0,0,0,14615,8137"]),
    ("classify-p101-k2", 0,
     "ede4bd1441489eb9f12dee25cad6453b067fca2db8c0854ba41e7a3daaa6362e",
     ["classify", "--p", "101", "--k", "2", "--curve", "0:0,0:0,0:0,70:4,0:30"]),
    # written before line classes carried labels instead of field
    # elements and curve points: the domain dumps' vertex tags carry point
    # labels, and the classify reports cover the binary and Zech codes
    ("domain-p5-d2", 0,
     "0be15fe3b84bbabaa64f7352193a102be1748269c4512f16d21712b03d048bbb",
     ["domain", "--p", "5", "--curve", E5, "--depth", "2"]),
    ("domain-p3-k2-d2", 0,
     "67323c326a9b382d04a867ec3d9724079de3112d5aa26a9981adeebd13ff1b1c",
     ["domain", "--p", "3", "--k", "2", "--curve", E5, "--depth", "2"]),
    ("domain-p2-k3-d2", 0,
     "eea730ea533503c84b4f25e5153ba50fd0559d9bbbc1c97599248268bb70bd81",
     ["domain", "--p", "2", "--k", "3", "--curve", "0,0,1,0,0", "--depth", "2"]),
    ("classify-p2-k10", 0,
     "62d31dd2933e796419f869759716be6d2c4f8d680fa84adffdac02d31a1e7f18",
     ["classify", "--p", "2", "--k", "10", "--curve", "0,0,1,0,0"]),
    ("classify-p5-k3", 0,
     "a5d47e88657a7a2355ba1fe2ed16545608f1442677e1dc19a210ddd7a5631a06",
     ["classify", "--p", "5", "--k", "3", "--curve", E5]),
    # written before the degree-0 row and the root glue were dropped from
    # reports: battery B with the iso resolution, extension fields, and a
    # concrete and a compare run that complete
    ("symbolic-p101-d30-B-iso", 0,
     "a909f2a8b4e24d87d5c14816458ee09b56174889caf63d5bf28b3b7725e09e22",
     ["symbolic", "--p", "101", "--curve", E5, "--depth", "30", "--battery", "B",
      "--resolution", "iso"]),
    ("symbolic-p3-k2-d2", 0,
     "e32dd02436e8fc2ca9169f6db3a7690fc4edab42002dc21de87dd7d1aba755ff",
     ["symbolic", "--p", "3", "--k", "2", "--curve", E5, "--depth", "2"]),
    ("symbolic-p2-k3-d4", 0,
     "9f98515847a991a83ad80ab828cd61beff96bbca9be44543fdb0e2009056c65c",
     ["symbolic", "--p", "2", "--k", "3", "--curve", "0,0,1,0,0", "--depth", "4"]),
    ("concrete-p2-k2-d2-q1-large", 0,
     "d77a7a7c80fd3bbb60538096c775678c1dbda7bf2a50eeb642550d8d211314c7",
     ["concrete", "--p", "2", "--k", "2", "--curve", "0,0,1,0,0", "--depth", "2",
      "--q-max", "1", "--allow-large"]),
    ("compare-p3-d1-q1", 0,
     "a2cefeabb5d73d04b2c9641ff187b16064bdb79ca23472f8df96293ffab088ef",
     ["compare", "--p", "3", "--curve", E5, "--depth", "1", "--q-max", "1"]),
    # written before the cusp rays were contracted ahead of elimination,
    # when this run eliminated a 400-row triangle per ray
    ("symbolic-p101-d400", 0,
     "ee0a15b6a899a9aeb710ba43d722205fbd109f24a3bc31e2cf4648a6c2454d1d",
     ["symbolic", "--p", "101", "--curve", E5, "--depth", "400"]),
    # the first concrete run past degree 3: its degrees 1-3 and its
    # degree <= 3 diagonal_reduction entries equal the q-max 3 report's,
    # and its degree 4, (Z/2)^6, is what the excess theorem predicts from
    # H_4(S3) = 0 and H_4((Z/2)^2) = (Z/2)^2
    ("concrete-p2-d2-q4-large", 2,
     "e98639af6ec280b4f5f4d80e26290e8be6dafb58579938d2ac94344394864a3b",
     ["concrete", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "2", "--q-max", "4",
      "--allow-large"]),
    # written before every Smith elimination was read through
    # PresentedGroup.lattice; each battery runs such a reader
    ("selftest", 0,
     "c5729e3bd6f4621bf4bdc7d7fb4594e3ab6aee320764d69019b67bf4ac46a41e",
     ["selftest"]),
]


@pytest.mark.parametrize("code,digest,argv", [d[1:] for d in DIGESTS],
                         ids=[d[0] for d in DIGESTS])
def test_report_matches_pinned_digest(code, digest, argv, tmp_path):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["symbolic", "--p", "101", "--curve", E5, "--depth", "30"],
        ["concrete", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "1", "--q-max", "1"],
        ["compare", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "1", "--q-max", "1"],
    ],
    ids=["symbolic-p101-d30", "concrete-p2-d1", "compare-p2-d1"],
)
def test_bytes_identical_across_hash_seeds(argv):
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "elltree.cli", *argv],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode in (0, 2), proc.stderr.decode()
        assert proc.stdout
        outputs.add((proc.returncode, proc.stdout))
    assert len(outputs) == 1


def _json_dumps_text(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", [c[0] for c in CASES])
def test_report_writer_matches_json_dumps_on_goldens(name):
    report = json.loads((GOLDEN / name).read_text())
    assert report_to_json_text(report) == _json_dumps_text(report)


def test_report_writer_matches_json_dumps_on_a_classify_report(tmp_path):
    # the CLI writes the line rows from line classes; the oracle is the
    # same report as one dict per row, through json.dumps
    coeffs = "0:0,0:0,0:0,70:4,0:30"
    argv = ["classify", "--p", "101", "--k", "2", "--curve", coeffs]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    curve = WeierstrassCurve(make_field(101, 2), *cli.parse_curve_coefficients(coeffs, 2))
    oracle = classify_payload_by_dicts(curve, curve.classify_all())
    assert out.read_text() == _json_dumps_text(oracle)


@pytest.mark.parametrize("indent", ["\n", "\n    "])
def test_line_rows_match_json_dumps_of_row_dicts(indent):
    # labels that need escaping, every case, and no rows at all
    lines = (
        LineClass('say "hi"', 1, ()),
        LineClass("back\\slash", 2, ("caf\u00e9 \u2203",)),
        LineClass("\n\t", 3, ("\x00", "\U0001f600")),
        *synthetic_summary(2, 2, 2, include_infinity_line=True).lines,
    )
    for rows in (lines, ()):
        dicts = [{"line": line, "case": case, "points": list(points)} for line, case, points in rows]
        pieces = []
        LineRows(rows).write_json(indent, pieces.append)
        text = "".join(pieces)
        want = json.dumps(dicts, sort_keys=True, indent=2).replace("\n", indent)
        assert text == want
        report = {"rows": LineRows(rows), "deeper": {"rows": LineRows(rows)}}
        dict_report = {"rows": dicts, "deeper": {"rows": dicts}}
        assert report_to_json_text(report) == _json_dumps_text(dict_report)


# lists of rows: uniform and mixed key sets, nesting, escapes and tuples
ROW_PAYLOADS = {
    "uniform-leaves": [
        {"s": "a", "i": -3, "t": True, "f": False, "n": None, "l": ["x", "y"]},
        {"s": "", "i": 10 ** 30, "t": False, "f": True, "n": None, "l": []},
        {"s": "b", "i": 0, "t": True, "f": False, "n": None, "l": ["z"]},
    ],
    "key-sets-differ": [{"a": 1, "b": 2}, {"a": 1}, {"a": 1, "c": 2}],
    "same-size-key-sets-differ": [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
    "nested-dict": [{"a": 1, "b": "x"}, {"a": 2, "b": {"c": [1, {"d": None}]}}],
    "escapes": [
        {"q": 'say "hi"', "b": "back\\slash", "u": "caf\u00e9 \u2203", "l": ["\n\t", "\x00"]},
        {"q": "", "b": "/", "u": "\U0001f600", "l": ['"']},
    ],
    "tuples": [{"a": ("x", "y")}, {"a": ("z",)}],
    "tuple-rows": ({"a": 1}, {"a": 2}),
    "empty-lists": [{"a": [], "b": [[]]}, {"a": [], "b": []}],
    "mixed-items": [{"a": 1}, 2, "x", None, [{"a": 1}]],
    "list-of-non-str": [{"a": ["x", 1]}, {"a": []}],
    "empty-row": [{}, {}],
    "one-row": [{"only": "row"}],
}


@pytest.mark.parametrize("name", sorted(ROW_PAYLOADS))
def test_report_writer_matches_json_dumps_on_rows(name):
    rows = ROW_PAYLOADS[name]
    for report in (rows, {"rows": rows, "deeper": {"rows": rows}}):
        assert report_to_json_text(report) == _json_dumps_text(report)


@pytest.mark.parametrize(
    "value",
    [1.5, {1, 2}, {1: "a"}, b"x", [{"a": 1}, {"a": 1.5}], [{"a": 1}, {1: 2}]],
    ids=repr,
)
def test_report_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        report_to_json_text({"x": [value]})
