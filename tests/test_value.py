"""Value semantics of the record classes, and what importing the CLI loads.

The records are plain __slots__ classes on elltree.value.Value; these
tests pin the frozen-dataclass behaviour they keep: equality and hash by
fields within one class, no assignment, the Name(field=value, ...) repr,
FgAbGroup ordering and the constructors' validation.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from elltree.abelian import FgAbGroup
from elltree.coefficients import (
    BATTERY_A,
    ISO,
    UNCONSTRAINED,
    ZERO_MAP,
    ConcreteSpec,
    EdgeTokens,
    Instantiation,
    TokenSystem,
)
from elltree.curve import ClassificationSummary, LineClass, LineRows
from elltree.field import make_field
from elltree.groups import BarLimits
from elltree.tree import Edge, Vertex
from elltree.value import Value

ROOT = Path(__file__).resolve().parent.parent

LINE = LineClass("1", 3, ("(1,2)", "(1,3)"))
LINE_TEXT = "LineClass(line='1', case=3, points=('(1,2)', '(1,3)'))"

# name: (build a record, build one that differs in one field, its repr)
CASES = {
    "FgAbGroup": (
        lambda: FgAbGroup(1, (2, 4)),
        lambda: FgAbGroup(1, (2, 8)),
        "Z + Z/2 + Z/4",
    ),
    "Instantiation": (
        lambda: Instantiation("A", FgAbGroup(1, (3,)), FgAbGroup(0, (5,)),
                              FgAbGroup(0, (7,)), FgAbGroup(0, (11,))),
        lambda: BATTERY_A.with_resolution(ISO),
        "Instantiation(name='A', pgl2k=Z + Z/3, units=Z/5, quad=Z/7, additive=Z/11, "
        "resolution='zero')",
    ),
    "EdgeTokens": (
        lambda: EdgeTokens("units", ISO, ZERO_MAP),
        lambda: EdgeTokens("units", ISO, ISO),
        "EdgeTokens(token='units', toward_tail='iso', toward_head='zero')",
    ),
    "TokenSystem": (
        lambda: TokenSystem({0: "pgl2k"}, {0: EdgeTokens("units", ISO, ISO)}),
        lambda: TokenSystem({0: "pgl2k"}, {0: EdgeTokens("units", ISO, ZERO_MAP)}),
        "TokenSystem(vertex_tokens={0: 'pgl2k'}, "
        "edge_tokens={0: EdgeTokens(token='units', toward_tail='iso', toward_head='iso')})",
    ),
    "ConcreteSpec": (
        lambda: ConcreteSpec(make_field(3, 1)),
        lambda: ConcreteSpec(make_field(3, 1), BarLimits(360, 9000)),
        "ConcreteSpec(field=GF(3), limits=BarLimits(max_order=24, dense_columns=600))",
    ),
    "ClassificationSummary": (
        lambda: ClassificationSummary((LINE,)),
        lambda: ClassificationSummary(()),
        f"ClassificationSummary(lines=({LINE_TEXT},))",
    ),
    "LineRows": (
        lambda: LineRows((LINE,)),
        lambda: LineRows((LINE, LINE)),
        f"LineRows(lines=({LINE_TEXT},))",
    ),
    "BarLimits": (
        lambda: BarLimits(),
        lambda: BarLimits(max_order=360),
        "BarLimits(max_order=24, dense_columns=600)",
    ),
    "Vertex": (
        lambda: Vertex(3, "cusp", "1", "(1,2)", 2),
        lambda: Vertex(3, "cusp", "1", "(1,2)", 1),
        "Vertex(vid=3, kind='cusp', line='1', point='(1,2)', depth=2)",
    ),
    "Edge": (
        lambda: Edge(4, 2, 3, "cusp-cusp", "1", 1),
        lambda: Edge(4, 2, 3, "cusp-cusp", "1"),
        "Edge(eid=4, tail=2, head=3, kind='cusp-cusp', line='1', depth=1)",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_records_compare_by_fields_within_their_class(name):
    build, other, _ = CASES[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != other()
    # a record never equals a tuple of its fields, nor a record of
    # another class with the same fields
    fields = tuple(getattr(a, f) for f in type(a).__slots__)
    assert a != fields
    assert a != type(name, (Value,), {"__slots__": type(a).__slots__})(*fields)
    if name == "TokenSystem":
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(fields)
        assert len({a, b, other()}) == 2


@pytest.mark.parametrize("name", list(CASES))
def test_records_refuse_assignment(name):
    record = CASES[name][0]()
    field = type(record).__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", list(CASES))
def test_record_repr(name):
    build, _, text = CASES[name]
    assert repr(build()) == text


def test_records_take_their_fields_by_position_or_keyword():
    assert BarLimits(dense_columns=9000, max_order=360) == BarLimits(360, 9000)
    assert Vertex(0, "root") == Vertex(vid=0, kind="root", line="", point="", depth=0)
    assert FgAbGroup(2) == FgAbGroup(rank=2, torsion=())
    with pytest.raises(TypeError):
        EdgeTokens("units", ISO)
    with pytest.raises(TypeError):
        LineRows((LINE,), ())


def test_fg_ab_groups_sort_by_rank_then_torsion():
    groups = [FgAbGroup(1, (2,)), FgAbGroup(0, (6,)), FgAbGroup(0, (2, 4)), FgAbGroup(0), FgAbGroup(1)]
    assert [repr(g) for g in sorted(groups)] == ["0", "Z/2 + Z/4", "Z/6", "Z", "Z + Z/2"]
    assert FgAbGroup(0, (2,)) <= FgAbGroup(0, (2,)) < FgAbGroup(0, (3,))
    assert FgAbGroup(1) > FgAbGroup(0, (2,)) >= FgAbGroup(0, (2,))
    with pytest.raises(TypeError):
        FgAbGroup(0) < (0, ())


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: FgAbGroup(-1), "negative rank"),
        (lambda: FgAbGroup(0, (1,)), "torsion factors must be >= 2"),
        (lambda: FgAbGroup(0, (4, 2)), "torsion factors must form a divisibility chain"),
        (lambda: Instantiation("X", FgAbGroup(1), FgAbGroup(1), FgAbGroup(0, (2,)), FgAbGroup(0, (3,))),
         "instantiation roles must be distinguishable"),
        (lambda: BATTERY_A.with_resolution(UNCONSTRAINED),
         "resolution must be the zero or the canonical map"),
    ],
    ids=["negative-rank", "torsion-1", "divisibility", "roles", "resolution"],
)
def test_record_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_copies_with_one_field_changed():
    iso = BATTERY_A.with_resolution(ISO)
    assert (iso.resolution, BATTERY_A.resolution) == (ISO, ZERO_MAP)
    assert iso.with_resolution(ZERO_MAP) == BATTERY_A
    system = CASES["TokenSystem"][0]()
    tail = system.with_flipped_tag(0, "tail", ZERO_MAP)
    head = system.with_flipped_tag(0, "head", UNCONSTRAINED)
    assert tail.edge_tokens[0] == EdgeTokens("units", ZERO_MAP, ISO)
    assert head.edge_tokens[0] == EdgeTokens("units", ISO, UNCONSTRAINED)
    assert system == CASES["TokenSystem"][0]()
    assert tail.vertex_tokens == system.vertex_tokens and tail.vertex_tokens is not system.vertex_tokens


def test_cli_import_loads_no_dataclasses_and_no_selftest():
    # -S keeps site packages, which may import dataclasses themselves, out;
    # groups imports resolution only when it first computes group homology
    code = (
        "import sys, elltree.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'elltree.selftest', 'elltree.resolution')"
        " if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
