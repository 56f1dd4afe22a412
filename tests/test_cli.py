"""End-to-end tests of the command-line front end and its exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from elltree import coefficients, groups, tree
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


# (p, attach) -> depths whose symbolic E5 reports agree once the depth key
# is dropped: the truncation depth does not change the symbolic answer
DEPTH_FREE_RUNS = {
    ("101", "1"): ("1", "3", "30", "400"),
    ("101", "2"): ("2", "30", "400"),
    ("5", "1"): ("1", "2", "50"),
    ("5", "2"): ("2", "50"),
}


@pytest.mark.parametrize("p,attach", list(DEPTH_FREE_RUNS), ids=lambda v: str(v))
def test_symbolic_reports_do_not_depend_on_the_depth(capsys, p, attach):
    digests = set()
    for depth in DEPTH_FREE_RUNS[p, attach]:
        code, out, err = run_cli(capsys, "symbolic", "--p", p, "--curve", "0,0,0,-1,0",
                                 "--depth", depth, "--attach", attach)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report.pop("depth") == int(depth)
        digests.add(hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
    assert len(digests) == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        ("symbolic", "--p", "5", "--curve", "0,0,0,-1,0", "--depth", "3", "--q-max", "3"),
        ("concrete", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "2", "--q-max", "2"),
        ("compare", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "1", "--q-max", "1"),
    ],
    ids=["symbolic", "concrete", "compare"],
)
def test_reports_build_no_whole_tree(capsys, monkeypatch, cold_caches, argv):
    # a report reads the line classification and one branch tree per case;
    # only domain mode builds a tree of every line
    lines_built = []
    init = tree.DomainTree.__init__

    def recorded(self, summary, *args, **kwargs):
        lines_built.append(len(summary.lines))
        init(self, summary, *args, **kwargs)

    monkeypatch.setattr(tree.DomainTree, "__init__", recorded)
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2) and err == ""
    assert lines_built and max(lines_built) == 1


def test_selftest_passes(capsys):
    code, out, err = run_cli(capsys, "selftest")
    assert code == 0
    assert out.strip().splitlines()[-1] == "selftest: PASS"


def test_selftest_stdout_is_deterministic(capsys):
    # no battery line carries a wall time
    first = run_cli(capsys, "selftest")
    assert run_cli(capsys, "selftest") == first


@pytest.mark.parametrize("flag", ["--curve", "--p", "--k", "--out", "--config"])
def test_double_dash_value_exits_one(capsys, flag):
    argv = {"--p": "2", "--curve": "0,0,1,0,0", flag: "--"}
    args = [f"{key}={value}" for key, value in argv.items()]
    code, out, err = run_cli(capsys, "classify", *args)
    assert (code, out) == (1, "")
    assert f"argument {flag}: expected one argument" in err


@pytest.mark.parametrize("curve", ["-1,0,0,-1,0", "-1:0,0,0,-1:1,0"], ids=["prime", "colon"])
def test_negative_first_coefficient_in_either_form(capsys, curve):
    # argparse would take "-1,..." after --curve for an option
    p = ["--p", "7"] if ":" not in curve else ["--p", "3", "--k", "2"]
    two_tokens = run_cli(capsys, "classify", *p, "--curve", curve)
    assert two_tokens[0] == 0 and two_tokens[2] == ""
    assert run_cli(capsys, "classify", *p, f"--curve={curve}") == two_tokens


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


def test_oversized_domain_refused_before_building(capsys, monkeypatch):
    # the vertex count comes from the classification: 1 + lines +
    # depth * cusps + case-2 lines, checked before any tree is built
    built = []
    init = tree.DomainTree.__init__

    def recorded(self, summary, *args, **kwargs):
        built.append(len(summary.lines))
        init(self, summary, *args, **kwargs)

    monkeypatch.setattr(tree.DomainTree, "__init__", recorded)
    code, out, err = run_cli(capsys, "domain", "--p", "1009", "--curve", "0,0,0,-1,0",
                             "--depth", "2000")
    assert (code, out, built) == (3, "", [])
    assert err == (
        "too large: domain tree vertices (1010 lines, depth 2000): "
        "size 2081015 exceeds ceiling 1000000\n"
    )
    code, out, err = run_cli(capsys, "domain", "--p", "101", "--curve", "0,0,0,-1,0",
                             "--depth", "2000")
    assert (code, err, built) == (0, "", [102])
    assert out.count("vertex ") == 208107


def test_huge_prime_refused_by_size_exit_three(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--p", "2305843009213693951", "--curve", "0,0,0,-1,0"
    )
    assert (code, out) == (3, "")
    assert err == (
        "too large: field F_2305843009213693951^1: "
        "size 2305843009213693951 exceeds ceiling 65536\n"
    )


@pytest.mark.parametrize("k", [10000, 10**12])
def test_unprintable_field_size_refused_exit_three(capsys, k):
    code, out, err = run_cli(capsys, "classify", "--p", "3", "--k", str(k),
                             "--curve", "0,0,0,-1,0")
    assert (code, out) == (3, "")
    assert err == f"too large: field F_3^{k}: size 3^{k} exceeds ceiling 65536\n"


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
# systems shared one assembler (GF(5), GF(7)), before refusals were decided
# from closed-form sizes (GF(8), GF(9), the GF(3) and GF(2) cases) and
# before the CLI checked the line x = 0 ahead of classifying every line
# (GF(65521)).  Each was re-captured, changed only inside its vertex tag,
# once the preflight walked each line's own branch: the bracketed tags name
# the simplex, by the line's own points, and the line.
GF5_REFUSAL = (
    "too large: bar homology of PGL2(GF(5)) [vertex cap[(0,0)]] [line x=0]: "
    "size 120 exceeds ceiling 24\n"
)
GF7_REFUSAL = (
    "too large: bar homology of Tri(GF(7),1)/N6 [vertex cusp[(0,0),1]] [line x=0]: "
    "size 42 exceeds ceiling 24\n"
)
GF8_REFUSAL = (
    "too large: bar homology of Tri(GF(2^3),1)/N7 [vertex cusp[(0:0:0,0:0:0),1]] "
    "[line x=0:0:0]: size 56 exceeds ceiling 24\n"
)
GF9_REFUSAL = (
    "too large: bar homology of Tri(GF(3^2),1)/N8 [vertex cusp[(0:0,0:0),1]] [line x=0:0]: "
    "size 72 exceeds ceiling 24\n"
)
GF3_LARGE_REFUSAL = (
    "too large: homology presentation for PGL2(GF(3)) [vertex cap[(0,0)]] [line x=0]: "
    "size 12167 exceeds ceiling 9000\n"
)
GF2_Q4_REFUSAL = (
    "too large: homology presentation for PGL2(GF(2)) [vertex cap[inf]] [line x=inf]: "
    "size 625 exceeds ceiling 600\n"
)
# The tuple count alone bounds the degree: S3 = PGL2(GF(2)) refuses at
# q = 5 under the large limits, 5^6 = 15625 > 9000.
GF2_Q5_LARGE_REFUSAL = (
    "too large: homology presentation for PGL2(GF(2)) [vertex cap[inf]] [line x=inf]: "
    "size 15625 exceeds ceiling 9000\n"
)
GF65521_REFUSAL = (
    "too large: bar homology of GF(65521)+ [vertex line[0]] [line x=0]: "
    "size 65521 exceeds ceiling 24\n"
)
# One rhs row per line and degree, 6 lines over GF(5): refused before any
# report is built.
SYMBOLIC_ROWS_REFUSAL = (
    "too large: symbolic report rows (6 lines, q-max 10000000): "
    "size 60000000 exceeds ceiling 1000000\n"
)

E5 = "0,0,0,-1,0"
DEPTH1 = ("--depth", "1", "--q-max", "1")
# (argv, stderr, ceiling on group order in force; 0 where no group may be
# built at all)
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
    "concrete-gf2-q5-large": (
        ("concrete", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "1", "--q-max", "5",
         "--allow-large"),
        GF2_Q5_LARGE_REFUSAL,
        360,
    ),
    "concrete-gf65521": (("concrete", "--p", "65521", "--curve", E5) + DEPTH1, GF65521_REFUSAL, 24),
    "compare-gf65521": (("compare", "--p", "65521", "--curve", E5) + DEPTH1, GF65521_REFUSAL, 24),
    "symbolic-rows": (
        ("symbolic", "--p", "5", "--curve", E5, "--depth", "1", "--q-max", "10000000"),
        SYMBOLIC_ROWS_REFUSAL,
        0,
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


@pytest.mark.parametrize(
    "argv",
    [
        ("--p", "3", "--curve", E5, "--depth", "1", "--q-max", "10000000"),
        ("--p", "5", "--curve", "0,0,0,0,2", "--depth", "600000", "--q-max", "1"),
    ],
    ids=["q-max", "deep-ray"],
)
def test_compare_refuses_as_concrete_does(capsys, monkeypatch, cold_caches, argv):
    # compare runs its concrete report first, so it refuses with the
    # concrete text before the symbolic report is even preflighted
    def unreached(self, *args):
        raise AssertionError("compare started its symbolic report before refusing")

    monkeypatch.setattr(coefficients.Instantiation, "preflight", unreached)
    code, out, err = run_cli(capsys, "concrete", *argv)
    assert (code, out) == (3, "")
    assert run_cli(capsys, "compare", *argv) == (3, "", err)


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


# ---------------------------------------------------------------------------
# malformed argv and config: every one ends in exit 1 or 3, never a traceback

FUZZ_MODES = ("classify", "domain", "symbolic", "concrete", "compare")
BAD_P = (-3, 0, 1, 4)
NON_INT_TOKENS = ("x", "1.5", "", " ", "0x1", "1:a", "--", "1e3", "+-1")
# (config key, a value of the wrong JSON type); the key's flag is then
# left off the command line, so the config value is the one in force
WRONG_TYPES = (
    ("p", "5"), ("k", [2]), ("curve", 5), ("depth", True), ("depth", 2.0),
    ("q_max", None), ("battery", 3), ("resolution", ["zero"]), ("attach", "1"),
    ("allow_large", 1),
)
BAD_CONFIG_TEXTS = ("[1]", "3", "null", '"x"', "{", "", '{"frob": 1}')
BAD_FLAGS = (("--frob",), ("--depth=x",), ("--k=two",), ("--attach=3",), ("--depth",))
FAULTS = ("bad-p", "count", "long-vector", "non-int", "config-type", "config-text",
          "config-dir", "config-missing", "out-dir", "flag")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def malformed_runs(draw):
    """argv, an optional config text and extra flags, with one or two
    malformed inputs; the rest would make a valid run."""
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2, unique=True))
    p = draw(st.sampled_from(BAD_P if "bad-p" in faults else (2, 3, 5)))
    k = draw(st.sampled_from((1, 2)))

    def coefficient(length):
        return ":".join(str(draw(st.integers(-3, 6))) for _ in range(length))

    coeffs = [coefficient(draw(st.integers(1, k))) for _ in range(5)]
    flags = {
        "p": p, "k": k, "depth": draw(st.integers(1, 3)), "q_max": draw(st.integers(1, 2)),
    }
    config, extra = None, []
    if "count" in faults:
        n = draw(st.sampled_from((1, 2, 4, 6, 7)))
        coeffs = (coeffs * 2)[:n]
    if "long-vector" in faults:
        i = draw(st.integers(0, len(coeffs) - 1))
        coeffs[i] = coefficient(draw(st.integers(k + 1, k + 3)))
    if "non-int" in faults:
        i = draw(st.integers(0, len(coeffs) - 1))
        coeffs[i] = draw(st.sampled_from(NON_INT_TOKENS))
    flags["curve"] = ",".join(coeffs)
    if "config-type" in faults:
        key, value = draw(st.sampled_from(WRONG_TYPES))
        flags.pop(key, None)
        config = json.dumps({key: value})
    elif "config-text" in faults:
        config = draw(st.sampled_from(BAD_CONFIG_TEXTS))
    if "config-dir" in faults:
        extra.append(("--config", "."))
    elif "config-missing" in faults:
        extra.append(("--config", "missing.json"))
    if "out-dir" in faults:
        extra.append(("--out", "."))
    if "flag" in faults:
        extra.append(draw(st.sampled_from(BAD_FLAGS)))
    argv = [draw(st.sampled_from(FUZZ_MODES))]
    argv += [f"--{key.replace('_', '-')}={value}" for key, value in flags.items()]
    return argv, config, extra


@settings(max_examples=120, deadline=None)
@given(run=malformed_runs())
def test_malformed_input_exits_one_or_three(fuzz_dir, run):
    argv, config, extra = run
    if config is not None:
        path = fuzz_dir / "config.json"
        path.write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(path)]
    for item in extra:
        # "." names the fuzz directory itself, "missing.json" a file not in it
        argv = argv + [str(fuzz_dir / a) if a in (".", "missing.json") else a for a in item]
    assert main(argv) in (1, 3)


# ---------------------------------------------------------------------------
# the trace channel: perfbench/traced.py runs the CLI with its layers hooked

ROOT = Path(__file__).resolve().parents[1]
# hooks that traced.py still names but the package no longer defines
GONE_HOOKS = {
    "coefficients.degree_zero_e2", "coefficients.symbolic_e2", "coefficients.instantiate_tokens",
    "coefficients.concrete_e2", "coefficients.concrete_rhs", "coefficients._symbolic_branch_e2",
    "coefficients._concrete_branch_e2", "groups._bar_invariants_large",
    "groups.diagonal_to_triangular",
}


def test_traced_run_keeps_its_hooks_and_the_report_bytes(tmp_path):
    argv = ["concrete", "--p", "2", "--k", "2", "--curve", "0:0,0:0,1:0,0:0,1:0",
            "--depth", "1", "--q-max", "1", "--allow-large"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(out), "job"] + argv,
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    assert traced.returncode == 0, traced.stderr.decode()
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result["missing"]) <= GONE_HOOKS
    plain = subprocess.run([sys.executable, "-m", "elltree.cli"] + argv,
                           cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert plain.returncode == result["exit"] == 0
    assert result["stdout_sha256"] == hashlib.sha256(plain.stdout).hexdigest()
