"""Seeded workloads for the elltree CLI benchmark, with output oracles.

A workload is a list of CLI jobs.  The seed picks the curves; the sizes
(field, depth, degree) are fixed, and every curve a seed can pick shares
the property that sets the job's cost (the multiset of line cases, or
the point count within a narrow window), so different seeds do the same
amount of work.  The curve arithmetic here uses plain ints only and
checks nonsingularity itself; the CLI receives only the generated flags.

Each job carries a check(rc, stdout, stderr) that returns None when the
output is right and a one-line reason otherwise.  The checks do not call
into the package, except that reports are validated against the
package's published REPORT_SCHEMA.
"""

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable


# ---------------------------------------------------------------------------
# finite fields on plain ints: elements are coefficient tuples, constant
# term first, enumerated in the same lexicographic order as the package


class PlainField:
    def __init__(self, p, k):
        self.p, self.k, self.q = p, k, p**k
        self.modulus = self._first_irreducible() if k > 1 else None
        self.zero = (0,) * k

    def _first_irreducible(self):
        # degree 2 and 3 polynomials are irreducible iff they have no root
        if self.k > 3:
            raise ValueError("only extension degrees up to 3 are supported")
        p = self.p
        for tail in product(range(p), repeat=self.k):
            poly = list(tail) + [1]
            if all(sum(c * x**i for i, c in enumerate(poly)) % p for x in range(p)):
                return poly
        raise AssertionError("no irreducible polynomial")

    def elements(self):
        return product(range(self.p), repeat=self.k)

    def const(self, n):
        return (n % self.p,) + (0,) * (self.k - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return ((a[0] * b[0]) % p,)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                for i in range(k + 1):
                    prod[d - k + i] -= c * self.modulus[i]
        return tuple(c % p for c in prod[:k])

    def scale(self, n, a):
        return tuple((n * x) % self.p for x in a)

    def is_nonzero_square(self, a):
        """Euler's criterion on the norm to F_p (odd p, k <= 2)."""
        p = self.p
        if self.k == 1:
            norm = a[0]
        elif self.k == 2:
            # N(c0 + c1 x) = c0^2 - m1 c0 c1 + m0 c1^2 for modulus x^2 + m1 x + m0
            (c0, c1), (m0, m1, _) = a, self.modulus
            norm = (c0 * c0 - m1 * c0 * c1 + m0 * c1 * c1) % p
        else:
            raise ValueError("square test needs k <= 2")
        return pow(norm, (p - 1) // 2, p) == 1

    def label(self, a):
        """The package's printed label of an element."""
        return str(a[0]) if self.k == 1 else ":".join(map(str, a))


def discriminant(F, a1, a2, a3, a4, a6):
    m, s = F.mul, F.scale
    b2 = F.add(m(a1, a1), s(4, a2))
    b4 = F.add(s(2, a4), m(a1, a3))
    b6 = F.add(m(a3, a3), s(4, a6))
    b8 = F.add(
        F.add(m(m(a1, a1), a6), s(4, m(a2, a6))),
        F.add(s(-1, m(m(a1, a3), a4)), F.add(m(a2, m(a3, a3)), s(-1, m(a4, a4)))),
    )
    return F.add(
        F.add(s(-1, m(m(b2, b2), b8)), s(-8, m(b4, m(b4, b4)))),
        F.add(s(-27, m(b6, b6)), s(9, m(b2, m(b4, b6)))),
    )


def line_cases(F, coeffs):
    """Case (1 + number of points met) of each affine line x = l, in order.

    The line meets y^2 + (a1 l + a3) y = l^3 + a2 l^2 + a4 l + a6.  In odd
    characteristic the root count follows from the discriminant by
    Euler's criterion; in characteristic 2 the fields here are tiny, so
    the roots are counted directly.
    """
    if F.k == 1 and F.p > 2:
        return _prime_line_cases(F.p, [c[0] for c in coeffs])
    a1, a2, a3, a4, a6 = coeffs
    cases = []
    for l in F.elements():
        b = F.add(F.mul(a1, l), a3)
        rhs = F.add(F.mul(F.add(F.mul(F.add(l, a2), l), a4), l), a6)
        if F.p == 2:
            roots = sum(
                1 for y in F.elements() if F.add(F.mul(F.add(y, b), y), rhs) == F.zero
            )
        else:
            disc = F.add(F.mul(b, b), F.scale(4, rhs))
            roots = 1 if disc == F.zero else (2 if F.is_nonzero_square(disc) else 0)
        cases.append(1 + roots)
    return cases


def _prime_line_cases(p, coeffs):
    a1, a2, a3, a4, a6 = coeffs
    half = (p - 1) // 2
    cases = []
    for l in range(p):
        b = a1 * l + a3
        disc = (b * b + 4 * (((l + a2) * l + a4) * l + a6)) % p
        cases.append(2 if disc == 0 else (3 if pow(disc, half, p) == 1 else 1))
    return cases


def case_counts(cases):
    """(#case-1, #case-2, #case-3) over all lines, infinity included."""
    return (cases.count(1), cases.count(2) + 1, cases.count(3))


def point_count(F, cases):
    """Rational points: those on the affine lines, plus infinity."""
    return sum(cases) - F.q + 1


def curve_flag(F, coeffs):
    return ",".join(F.label(c) if F.k > 1 else str(c[0]) for c in coeffs)


def reference_curve(F, ints):
    return tuple(F.const(n) for n in ints)


def _pick_curve(F, rng, accept, short=False):
    """(coeffs, line cases) of a nonsingular curve with accept(cases) true.

    Candidates are drawn at random from the seeded generator; short
    curves have a1 = a2 = a3 = 0.
    """
    seen = set()
    elements = list(F.elements())
    for _ in range(200000):
        if short:
            coeffs = (F.zero, F.zero, F.zero, rng.choice(elements), rng.choice(elements))
        else:
            coeffs = tuple(rng.choice(elements) for _ in range(5))
        if coeffs in seen:
            continue
        seen.add(coeffs)
        if discriminant(F, *coeffs) == F.zero:
            continue
        cases = line_cases(F, coeffs)
        if accept(cases):
            return coeffs, cases
    raise RuntimeError(f"no curve found over GF({F.p}^{F.k})")


# ---------------------------------------------------------------------------
# oracles


@lru_cache(maxsize=None)
def _schema_validator():
    """A validator for the package's REPORT_SCHEMA, wherever it lives."""
    import importlib
    import pkgutil

    import elltree
    from jsonschema import Draft7Validator

    for info in pkgutil.iter_modules(elltree.__path__, "elltree."):
        schema = getattr(importlib.import_module(info.name), "REPORT_SCHEMA", None)
        if schema is not None:
            return Draft7Validator(schema)
    raise RuntimeError("the package publishes no REPORT_SCHEMA")


def _schema_errors(report):
    err = next(iter(_schema_validator().iter_errors(report)), None)
    return None if err is None else f"report fails REPORT_SCHEMA: {err.message[:120]}"


def _common(rc, stderr):
    if "Traceback" in stderr:
        return "traceback on stderr"
    if rc == 1:
        return f"exit 1: {stderr.strip()[:160]}"
    return None


def _check_classify(F, cases, hasse):
    expected = [(F.label(l), c) for l, c in zip(F.elements(), cases)] + [("inf", 2)]

    def check(rc, stdout, stderr):
        bad = _common(rc, stderr)
        if bad or rc != 0:
            return bad or f"exit {rc}, expected 0"
        lines = json.loads(stdout)["classification"]
        got = [(e["line"], e["case"]) for e in lines["lines"]]
        if got != expected:
            return "line cases differ from Euler's criterion"
        if hasse:
            n = lines["counts"]["points"]
            if n != point_count(F, cases) or (n - F.q - 1) ** 2 > 4 * F.q:
                return f"{n} points: wrong count or outside the Hasse bound for q={F.q}"
        return None

    return check


def _check_symbolic(rc, stdout, stderr):
    bad = _common(rc, stderr)
    if bad or rc != 0:
        return bad or f"exit {rc}, expected 0"
    report = json.loads(stdout)
    if any(d["verdict"] == "mismatch" for d in report["degrees"]):
        return "a degree has verdict mismatch"
    return _schema_errors(report)


def _check_exit(expected_rc):
    def check(rc, stdout, stderr):
        bad = _common(rc, stderr)
        if bad or rc != expected_rc:
            return bad or f"exit {rc}, expected {expected_rc}"
        return _schema_errors(json.loads(stdout))

    return check


def _check_refusal(rc, stdout, stderr):
    bad = _common(rc, stderr)
    if bad or rc != 3:
        return bad or f"exit {rc}, expected 3"
    if stdout:
        return "refusal wrote to stdout"
    lines = stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith("too large:"):
        return "expected exactly one 'too large:' line on stderr"
    if "[vertex " not in lines[0] and "[edge " not in lines[0]:
        return "refusal names no vertex or edge"
    return None


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    check: Callable


E5 = (0, 0, 0, -1, 0)
GF2_REF = (0, 0, 1, 0, 0)


def _symbolic_deep(rng):
    # every pick has E5's case multiset over GF(101), hence the same tree
    F = PlainField(101, 1)
    target = case_counts(line_cases(F, reference_curve(F, E5)))
    coeffs, _ = _pick_curve(F, rng, lambda cases: case_counts(cases) == target, short=True)
    argv = ("symbolic", "--p", "101", "--curve", curve_flag(F, coeffs), "--depth", "30")
    return [Job("symbolic-p101-d30", argv, _check_symbolic)]


def _classify_job(p, k, rng, window):
    # point count within `window` of q + 1, so the output size barely moves
    F = PlainField(p, k)
    coeffs, cases = _pick_curve(
        F, rng, lambda cases: abs(point_count(F, cases) - F.q - 1) <= window, short=True
    )
    argv = ("classify", "--p", str(p), "--k", str(k), "--curve", curve_flag(F, coeffs))
    return Job(f"classify-{p}^{k}", argv, _check_classify(F, cases, hasse=k > 1))


def _classify_wide(rng):
    return [_classify_job(16381, 1, rng, 32), _classify_job(101, 2, rng, 16)]


def _same_cases_as(F, ref_ints, first_line):
    """Curves with the reference's multiset of line cases.

    That multiset fixes the tree and so the branches built.  With
    first_line, the case of the line x = 0 must match too: a refusal
    trips in the first branch assembled, so it fixes the work done
    before the refusal.
    """
    ref = line_cases(F, reference_curve(F, ref_ints))
    return lambda cases: case_counts(cases) == case_counts(ref) and (
        not first_line or cases[0] == ref[0]
    )


def _concrete_job(p, k, ref, rng, flags, expected_rc):
    F = PlainField(p, k)
    refuse = expected_rc == 3
    coeffs, _ = _pick_curve(F, rng, _same_cases_as(F, ref, first_line=refuse))
    argv = ("concrete", "--p", str(p), "--k", str(k), "--curve", curve_flag(F, coeffs)) + flags
    return Job(f"concrete-{p}^{k}", argv, _check_refusal if refuse else _check_exit(expected_rc))


def _concrete_bar(rng):
    # exit 2 over GF(2) is by design: degree 3 reports a mismatch
    return [
        _concrete_job(2, 1, GF2_REF, rng,
                      ("--depth", "3", "--q-max", "3", "--allow-large"), 2),
        _concrete_job(2, 2, GF2_REF, rng,
                      ("--depth", "1", "--q-max", "1", "--allow-large"), 0),
    ]


def _concrete_refuse(rng):
    # GF(5) at depth 1 and GF(3) at depth 2 are left out on purpose: the
    # small-resolution work is meant to make those two complete
    flags = ("--depth", "1", "--q-max", "1")
    return [
        _concrete_job(7, 1, E5, rng, flags, 3),
        _concrete_job(2, 3, GF2_REF, rng, flags, 3),
        _concrete_job(3, 2, E5, rng, flags, 3),
    ]


WORKLOADS = {
    "symbolic-deep": _symbolic_deep,
    "classify-wide": _classify_wide,
    "concrete-bar": _concrete_bar,
    "concrete-refuse": _concrete_refuse,
}


def make_jobs(workload, seed):
    """The jobs of one workload; the same seed gives the same jobs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
