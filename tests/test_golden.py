"""Golden CLI reports: byte equality with outputs frozen before refactors.

The files under tests/golden/ were written by the CLI before the
refactors they guard: the symbolic and first concrete and classify cases
before the degree-zero row was split over line branches, the compare,
degree-3, GF(3) and GF(4) cases before IntMatrix became sparse, the
two cap-attachment-2 cases before symbolic and concrete systems shared
one assembler, and the GF(3) depth-2 case, whose diagonal reduction has
a skipped entry, before refusals were decided from closed-form sizes.
Any later change must reproduce them byte for byte, exit code included.
A second
test runs the CLI in fresh interpreters under several hash seeds, since
determinism within one process says nothing about set or dict ordering
that depends on PYTHONHASHSEED.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from elltree.cli import main

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


@pytest.mark.parametrize(
    "argv",
    [
        ["symbolic", "--p", "101", "--curve", E5, "--depth", "30"],
        ["concrete", "--p", "2", "--curve", "0,0,1,0,0", "--depth", "1", "--q-max", "1"],
    ],
    ids=["symbolic-p101-d30", "concrete-p2-d1"],
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
