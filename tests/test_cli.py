"""End-to-end tests of the command-line front end and its exit codes."""

import json
import re

import pytest

from elltree import groups
from elltree.cli import main, parse_curve_coefficients, CliError
from elltree.coefficients import REPORT_SCHEMA


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# happy paths


def test_classify_counts(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--p", "3", "--k", "1", "--curve", "0,0,0,-1,0"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["mode"] == "classify"
    assert payload["classification"]["counts"] == {
        "case1": 0,
        "case2": 4,
        "case3": 0,
        "points": 4,
    }
    assert payload["cusp_count"] == 4


def test_domain_dump_format(capsys):
    code, out, err = run_cli(
        capsys, "domain", "--p", "2", "--k", "1", "--curve", "0,0,1,0,0",
        "--depth", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertex 0 root"
    pattern = re.compile(r"^(vertex \d+ \S+|edge \d+ \d+)$")
    assert all(pattern.match(line) for line in lines)
    assert sum(1 for l in lines if l.startswith("vertex ")) == 11
    assert sum(1 for l in lines if l.startswith("edge ")) == 10


def test_symbolic_match_exit_zero(capsys):
    code, out, err = run_cli(
        capsys, "symbolic", "--p", "5", "--k", "1", "--curve", "0,0,0,-1,0",
        "--q-max", "3", "--depth", "2",
    )
    assert code == 0
    report = json.loads(out)
    assert [d["verdict"] for d in report["degrees"]] == ["match"] * 3
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report, REPORT_SCHEMA)


def test_symbolic_deterministic_bytes(tmp_path, capsys):
    args = [
        "symbolic", "--p", "5", "--k", "1", "--curve", "0,0,0,1,1",
        "--q-max", "4", "--depth", "3", "--battery", "B", "--resolution", "iso",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_concrete_f2_mismatch_exit_two(capsys):
    code, out, err = run_cli(
        capsys, "concrete", "--p", "2", "--k", "1", "--curve", "0,0,1,0,0",
        "--depth", "2", "--q-max", "2",
    )
    assert code == 2
    report = json.loads(out)
    assert "mismatch" in [d["verdict"] for d in report["degrees"]]
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report, REPORT_SCHEMA)


def test_concrete_f3_depth_one_matches(capsys):
    code, out, err = run_cli(
        capsys, "concrete", "--p", "3", "--k", "1", "--curve", "0,0,0,-1,0",
        "--depth", "1", "--q-max", "1",
    )
    assert code == 0
    report = json.loads(out)
    entry = report["degrees"][0]
    assert entry["verdict"] == "match"
    assert entry["assembled"] == {"rank": 0, "torsion": [2, 2, 2, 2]}


def test_concrete_deterministic_bytes(capsys):
    args = ["concrete", "--p", "2", "--k", "1", "--curve", "1,0,0,0,1",
            "--depth", "2", "--q-max", "2"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 2
    assert out1 == out2


def test_compare_structure(capsys):
    code, out, err = run_cli(
        capsys, "compare", "--p", "2", "--k", "1", "--curve", "1,0,0,0,1",
        "--depth", "1", "--q-max", "2",
    )
    assert code == 2
    payload = json.loads(out)
    assert sorted(payload) == ["agreement", "concrete", "mode", "symbolic"]
    assert payload["agreement"] == [
        {"i": 1, "symbolic": "match", "concrete": "mismatch", "agree": False},
        {"i": 2, "symbolic": "match", "concrete": "match", "agree": True},
    ]


def test_out_file_equals_stdout(tmp_path, capsys):
    args = ["classify", "--p", "5", "--k", "1", "--curve", "0,0,0,-1,0"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    path = tmp_path / "r.json"
    assert main(args + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == out


def test_selftest_passes(capsys):
    code, out, err = run_cli(capsys, "selftest")
    assert code == 0
    assert out.strip().splitlines()[-1] == "selftest: PASS"


def test_extension_field_curve(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--p", "2", "--k", "2", "--curve", "0:0,0,0:1,0,1:1"
    )
    assert code == 0
    payload = json.loads(out)
    counts = payload["classification"]["counts"]
    assert counts["case1"] + counts["case2"] + counts["case3"] == 5


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"p": 5, "k": 1, "curve": "0,0,0,-1,0", "depth": 2, "q_max": 2}
    ))
    code, out, _ = run_cli(capsys, "symbolic", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["depth"] == 2
    code, out, _ = run_cli(
        capsys, "symbolic", "--config", str(cfg), "--depth", "4"
    )
    assert code == 0
    assert json.loads(out)["depth"] == 4


# ---------------------------------------------------------------------------
# failure paths


def test_singular_curve_exit_one(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--p", "5", "--k", "1", "--curve", "0,0,0,0,0"
    )
    assert code == 1
    assert "singular" in err
    assert "discriminant" in err


def test_missing_field_exit_one(capsys):
    code, out, err = run_cli(capsys, "symbolic", "--curve", "0,0,0,-1,0")
    assert code == 1
    assert "--p" in err


def test_bad_mode_exit_one(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 1


def test_nonprime_characteristic_exit_one(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--p", "6", "--k", "1", "--curve", "0,0,1,0,0"
    )
    assert code == 1


def test_wrong_coefficient_count_exit_one(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--p", "5", "--k", "1", "--curve", "1,2,3"
    )
    assert code == 1
    assert "5" in err


def test_attach_beyond_depth_exit_one(capsys):
    code, out, err = run_cli(
        capsys, "symbolic", "--p", "5", "--k", "1", "--curve", "0,0,0,-1,0",
        "--depth", "1", "--attach", "2",
    )
    assert code == 1


def test_too_large_exit_three(capsys):
    code, out, err = run_cli(
        capsys, "concrete", "--p", "5", "--k", "1", "--curve", "0,0,0,-1,0",
        "--depth", "1", "--q-max", "1",
    )
    assert code == 3
    assert "PGL2" in err


def test_bad_config_exit_one(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "selftest", "--config", str(missing))
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "selftest", "--config", str(bad))
    assert code == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"battery": "A", "frob": 1}))
    code, _, err = run_cli(capsys, "selftest", "--config", str(unknown))
    assert code == 1 and "frob" in err


@pytest.mark.parametrize(
    "content",
    [
        b'{"battery": "Z"}',
        b'{"resolution": "bogus"}',
        b'{"attach": 0}',
        b'{"attach": 3, "depth": 3}',
        b'{"depth": true}',
        b'{"curve": "\xff"}',
    ],
    ids=["battery", "resolution", "attach-0", "attach-3", "bool-depth", "not-utf8"],
)
def test_bad_config_value_exit_one(tmp_path, capsys, content):
    # values from a config file get the same checks as the flags
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code, out, err = run_cli(
        capsys, "symbolic", "--p", "5", "--curve", "0,0,0,-1,0", "--config", str(cfg)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unwritable_out_exit_one(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.json"
    code, out, err = run_cli(
        capsys, "classify", "--p", "3", "--curve", "0,0,0,-1,0", "--out", str(target)
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {target}") and err.count("\n") == 1


# Refusal texts captured from the CLI before the symbolic and concrete
# systems shared one assembler (GF(5), GF(7)), and before refusals were
# decided from closed-form sizes (the rest); the bracketed tags name the
# simplex and line.
GF5_REFUSAL = (
    "too large: bar homology of PGL2(GF(5)) [vertex cap[pt2.0]] [line x=0]: "
    "size 120 exceeds ceiling 24\n"
)
GF7_REFUSAL = (
    "too large: bar homology of Tri(GF(7),1)/N6 [vertex cusp[pt2.0,1]] [line x=0]: "
    "size 42 exceeds ceiling 24\n"
)
GF8_REFUSAL = (
    "too large: bar homology of Tri(GF(2^3),1)/N7 [vertex cusp[pt3.0+,1]] [line x=0:0:0]: "
    "size 56 exceeds ceiling 24\n"
)
GF9_REFUSAL = (
    "too large: bar homology of Tri(GF(3^2),1)/N8 [vertex cusp[pt2.0,1]] [line x=0:0]: "
    "size 72 exceeds ceiling 24\n"
)
GF3_LARGE_REFUSAL = (
    "too large: homology presentation for PGL2(GF(3)) [vertex cap[pt2.0]] [line x=0]: "
    "size 12167 exceeds ceiling 9000\n"
)
GF2_Q4_REFUSAL = (
    "too large: homology presentation for PGL2(GF(2)) [vertex cap[pt2.0]] [line x=inf]: "
    "size 625 exceeds ceiling 600\n"
)

E5 = "0,0,0,-1,0"
DEPTH1 = ("--depth", "1", "--q-max", "1")
# (argv, stderr, ceiling on group order in force)
REFUSALS = {
    "concrete-gf5": (("concrete", "--p", "5", "--curve", E5) + DEPTH1, GF5_REFUSAL, 24),
    "concrete-gf7": (("concrete", "--p", "7", "--curve", E5) + DEPTH1, GF7_REFUSAL, 24),
    "compare-gf5": (("compare", "--p", "5", "--curve", E5) + DEPTH1, GF5_REFUSAL, 24),
    "concrete-gf8": (
        ("concrete", "--p", "2", "--k", "3", "--curve", "0,0,1,0,0") + DEPTH1, GF8_REFUSAL, 24,
    ),
    "concrete-gf9": (
        ("concrete", "--p", "3", "--k", "2", "--curve", E5) + DEPTH1, GF9_REFUSAL, 24,
    ),
    "concrete-gf3-large": (
        ("concrete", "--p", "3", "--curve", E5, "--depth", "2", "--q-max", "2", "--allow-large"),
        GF3_LARGE_REFUSAL,
        360,
    ),
    "concrete-gf2-q4": (
        ("concrete", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "1", "--q-max", "4"),
        GF2_Q4_REFUSAL,
        24,
    ),
}


@pytest.mark.parametrize("argv,text", [r[:2] for r in REFUSALS.values()], ids=list(REFUSALS))
def test_refusal_text_is_pinned(capsys, argv, text):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", text)


@pytest.mark.parametrize("argv,text,max_order", REFUSALS.values(), ids=list(REFUSALS))
def test_refusal_builds_no_refused_group(capsys, monkeypatch, cold_caches, argv, text, max_order):
    # a group over the order ceiling, or the group the refusal names, may
    # not even get a multiplication table
    build = groups.group_from_elements

    def guarded(elements, mul, name="", **kwargs):
        elements = list(elements)
        if len(elements) > max_order or f" {name} [" in text:
            raise AssertionError(f"built {name} ({len(elements)} elements) before refusing")
        return build(elements, mul, name=name, **kwargs)

    monkeypatch.setattr(groups, "group_from_elements", guarded)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", text)


# ---------------------------------------------------------------------------
# coefficient parsing details


def test_parse_integers():
    assert parse_curve_coefficients("0,0,0,-1,0", 1) == [0, 0, 0, -1, 0]


def test_parse_vectors():
    assert parse_curve_coefficients("1:0,0,0:1,0,1:1", 2) == [
        (1, 0), (0,), (0, 1), (0,), (1, 1),
    ]


def test_parse_rejects_garbage():
    with pytest.raises(CliError):
        parse_curve_coefficients("a,b,c,d,e", 1)
    with pytest.raises(CliError):
        parse_curve_coefficients("1,2,3,4", 1)
