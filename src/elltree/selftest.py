"""Built-in verification batteries, runnable without a test harness.

Each battery checks one layer of the pipeline against an oracle that is
independent of the code it verifies: Smith factorizations are rechecked
by direct multiplication and fraction-free determinants, complexes are
generated with homology known by construction, and group homology is
compared against textbook closed forms.
"""

from random import Random

from .abelian import (
    AbHom,
    ChainComplexFg,
    FgAbGroup,
    IntMatrix,
    PresentedGroup,
    TRIVIAL_GROUP,
    cyclic_group_homology,
    homology_at,
    smith_normal_form,
)
from .coefficients import (
    BATTERIES,
    ISO,
    TOKEN_PGL2K,
    TOKEN_QUAD,
    TOKEN_UNITS,
    ZERO_MAP,
    TokenProvider,
    assemble_system,
    degree_zero_tokens,
    e2,
    e2_pair,
    predicted,
    symbolic_tokens,
)
from .curve import WeierstrassCurve
from .field import make_field
from .groups import (
    abelianization,
    additive_group,
    bar_homology,
    cusp_group,
    cyclic,
    pgl2,
    quad_units_group,
    triangular_group,
    unit_group,
)
from .tree import build_domain


def corpus_curves():
    """The fixed verification corpus; every member is nonsingular."""
    return [
        WeierstrassCurve(make_field(3, 1), 0, 0, 0, -1, 0),
        WeierstrassCurve(make_field(5, 1), 0, 0, 0, -1, 0),
        WeierstrassCurve(make_field(7, 1), 0, 0, 0, -1, 0),
        WeierstrassCurve(make_field(5, 1), 0, 0, 0, 1, 1),
        WeierstrassCurve(make_field(2, 1), 0, 0, 1, 0, 0),
        WeierstrassCurve(make_field(2, 1), 1, 0, 0, 0, 1),
    ]


# ---------------------------------------------------------------------------
# independent arithmetic helpers


def _det_bareiss(mat):
    """Exact determinant of a square integer matrix, fraction-free."""
    n = mat.nrows
    if n != mat.ncols:
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in mat.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _dense_product(a, b, ncols):
    """Product of dense row lists a (m x k) and b (k x ncols), as row tuples."""
    return tuple(
        tuple(sum(r[k] * b[k][j] for k in range(len(b))) for j in range(ncols)) for r in a
    )


def _canonical_from_prime_powers(powers):
    """Invariant factors of a direct sum of prime-power cyclic groups."""
    by_prime = {}
    for q in powers:
        p = min(d for d in range(2, q + 1) if q % d == 0)
        by_prime.setdefault(p, []).append(q)
    for vals in by_prime.values():
        vals.sort(reverse=True)
    depth = max(len(v) for v in by_prime.values()) if by_prime else 0
    factors = []
    for slot in range(depth):
        d = 1
        for vals in by_prime.values():
            if slot < len(vals):
                d *= vals[slot]
        factors.append(d)
    return tuple(sorted(factors))


def _random_unimodular_ops(rng, n, count):
    """A list of elementary operations, each with a recorded inverse."""
    ops = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            ops.append(("add", i, j, c))
        elif kind == 1 and n >= 2:
            i, j = rng.sample(range(n), 2)
            ops.append(("swap", i, j))
        else:
            i = rng.randrange(n)
            ops.append(("neg", i, 0))
    return ops


def _apply_ops_rows(rows, ops, invert=False):
    rows = [list(r) for r in rows]
    seq = reversed(ops) if invert else ops
    for op in seq:
        if op[0] == "add":
            _, i, j, c = op
            coef = -c if invert else c
            rows[i] = [x + coef * y for x, y in zip(rows[i], rows[j])]
        elif op[0] == "swap":
            _, i, j = op
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i = op[1]
            rows[i] = [-x for x in rows[i]]
    return rows


def _unimodular_pair(rng, n, count=12):
    """(P, Pinv) as integer matrices with P @ Pinv = identity."""
    ops = _random_unimodular_ops(rng, n, count)
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    p = IntMatrix(_apply_ops_rows(eye, ops))
    pinv = IntMatrix(_apply_ops_rows(eye, ops, invert=True))
    return p, pinv


# ---------------------------------------------------------------------------
# batteries


def snf_battery(trials=500, max_dim=12, seed=20260823):
    """Random Smith factorizations rechecked from scratch."""
    rng = Random(seed)
    for t in range(trials):
        m = rng.randrange(1, max_dim + 1)
        n = rng.randrange(1, max_dim + 1)
        mat = IntMatrix(
            [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
        )
        u, s, v = smith_normal_form(mat)
        srows = s.rows
        if _dense_product(_dense_product(u.rows, mat.rows, n), v.rows, n) != srows:
            return False, f"trial {t}: U*M*V differs from S"
        diag = [srows[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j and srows[i][j]:
                    return False, f"trial {t}: S not diagonal"
        nz = [d for d in diag if d]
        if diag[len(nz):] != [0] * (len(diag) - len(nz)):
            return False, f"trial {t}: zero factor before a nonzero one"
        if any(d < 0 for d in nz):
            return False, f"trial {t}: negative invariant factor"
        if any(nz[i + 1] % nz[i] for i in range(len(nz) - 1)):
            return False, f"trial {t}: divisibility chain broken"
        if abs(_det_bareiss(u)) != 1 or abs(_det_bareiss(v)) != 1:
            return False, f"trial {t}: transform not unimodular"
    return True, f"{trials} factorizations verified"


def complex_battery(trials=100, seed=20260824):
    """Random three-term complexes with homology known by construction.

    Pieces with known contribution are laid out on disjoint coordinates,
    then the middle basis is scrambled by a unimodular change applied to
    one boundary and undone on the other, preserving d1 o d2 = 0.
    """
    rng = Random(seed)
    prime_powers = [2, 3, 4, 5, 7, 8, 9]
    for t in range(trials):
        tors0 = [rng.choice(prime_powers) for _ in range(rng.randrange(0, 3))]
        tors1 = [rng.choice(prime_powers) for _ in range(rng.randrange(0, 3))]
        free0 = rng.randrange(0, 3)
        free1 = rng.randrange(0, 3)
        free2 = rng.randrange(0, 3)
        n0 = len(tors0) + free0
        n1 = len(tors0) + free1 + len(tors1)
        n2 = len(tors1) + free2
        d1 = [[0] * n1 for _ in range(n0)]
        d2 = [[0] * n2 for _ in range(n1)]
        for i, d in enumerate(tors0):
            d1[i][i] = d
        for i, d in enumerate(tors1):
            d2[len(tors0) + free1 + i][i] = d
        if n1:
            p, pinv = _unimodular_pair(rng, n1)
            check = p @ pinv
            if check.rows != IntMatrix.identity(n1).rows:
                return False, f"trial {t}: op inversion failed"
            d1m = IntMatrix(d1, n0, n1) @ p
            d2m = pinv @ IntMatrix(d2, n1, n2)
        else:
            d1m = IntMatrix(d1, n0, n1)
            d2m = IntMatrix(d2, n1, n2)
        if n0:
            u, _ = _unimodular_pair(rng, n0)
            d1m = u @ d1m
        if n2:
            v, _ = _unimodular_pair(rng, n2)
            d2m = d2m @ v
        c0, c1, c2 = (PresentedGroup(n) for n in (n0, n1, n2))
        cx = ChainComplexFg(
            [c0, c1, c2],
            [AbHom(c1, c0, d1m), AbHom(c2, c1, d2m)],
        )
        want = [
            FgAbGroup(free0, _canonical_from_prime_powers(tors0)),
            FgAbGroup(free1, _canonical_from_prime_powers(tors1)),
            FgAbGroup(free2, ()),
        ]
        for spot in range(3):
            got = homology_at(cx, spot)
            if got != want[spot]:
                return False, f"trial {t}: H_{spot} = {got}, expected {want[spot]}"
    return True, f"{trials} designed complexes verified"


def cyclic_battery():
    """Homology of small cyclic groups against the closed form."""
    for n in range(2, 9):
        g = cyclic(n)
        for q in range(4):
            want = cyclic_group_homology(n, q)
            got = bar_homology(g, q)
            if got != want:
                return False, f"H_{q}(C{n}) = {got}, expected {want}"
    return True, "cyclic n=2..8, degrees 0..3"


def _stabilizer_zoo():
    f2 = make_field(2, 1)
    f3 = make_field(3, 1)
    f4 = make_field(2, 2)
    f5 = make_field(5, 1)
    groups = [
        additive_group(f2),
        additive_group(f3),
        additive_group(f4),
        additive_group(f5),
        unit_group(f3),
        unit_group(f4),
        unit_group(f5),
        quad_units_group(f2)[0],
        quad_units_group(f3)[0],
        cusp_group(f2, 1)[0],
        cusp_group(f2, 2)[0],
        cusp_group(f2, 3)[0],
        cusp_group(f3, 1)[0],
        triangular_group(f2, 1),
        triangular_group(f3, 0),
        pgl2(f2),
        pgl2(f3),
    ]
    return [g for g in groups if g.order <= 24]


def abelianization_battery():
    """Degree-one homology equals the abelianization."""
    count = 0
    for g in _stabilizer_zoo():
        if bar_homology(g, 1) != abelianization(g):
            return False, f"H_1 mismatch for {g.name}"
        count += 1
    if bar_homology(pgl2(make_field(2, 1)), 1) != FgAbGroup(0, (2,)):
        return False, "H_1 of the order-6 projective group is not Z/2"
    return True, f"{count} stabilizer groups cross-checked"


def branch_battery():
    """Single-line branches collapse to their predicted token group."""
    from .coefficients import _branch_e2

    expected = {1: TOKEN_QUAD, 2: TOKEN_PGL2K, 3: TOKEN_UNITS}
    checks = 0
    for case, token in expected.items():
        for depth in (1, 2, 3):
            for inst in BATTERIES.values():
                for res in (ZERO_MAP, ISO):
                    use = inst.with_resolution(res)
                    for attach in (1, 2) if (case == 2 and depth >= 2) else (1,):
                        got = _branch_e2(use, case, depth, attach, 1)
                        want = (use.group_for(token), TRIVIAL_GROUP)
                        if got != want:
                            return False, (
                                f"case {case} depth {depth} attach {attach} "
                                f"{inst.name}/{res}: {got}"
                            )
                        checks += 1
    return True, f"{checks} branch configurations verified"


def degree_zero_battery():
    """Constant unit coefficients see only the contractible tree.

    In degree 0 every stabilizer has H_0 = Z with identity maps, so the
    row is the homology of the tree, (Z, 0); reports take it as given.
    This battery computes it on the whole tree of every corpus curve.
    """
    for curve in corpus_curves():
        tree = build_domain(curve.classify_all(), 2)
        provider = TokenProvider(tree, degree_zero_tokens(tree), BATTERIES["A"])
        if e2_pair(assemble_system(tree, provider)) != (FgAbGroup(1, ()), TRIVIAL_GROUP):
            return False, f"degree-0 row wrong for {curve.to_json()}"
    return True, f"{len(corpus_curves())} corpus trees contractible"


def invariance_battery():
    """Results ignore truncation depth, cap attachment, and battery choice."""
    for curve in corpus_curves()[:3]:
        summary = curve.classify_all()
        for inst in BATTERIES.values():
            use = inst.with_resolution(ISO)
            base = e2(summary, 1, 1, use, 1)
            for depth in (2, 5):
                if e2(summary, depth, 1, use, 1) != base:
                    return False, f"truncation varied at depth {depth}"
            if e2(summary, 3, 2, use, 1) != base:
                return False, "cap attachment varied the answer"
            if base != (predicted(summary, use, 1), TRIVIAL_GROUP):
                return False, f"assembly missed the prediction for {inst.name}"
    return True, "truncation, attachment, instantiation stable"


def detectability_battery():
    """A single flipped edge tag must change the assembled answer."""
    curve = corpus_curves()[0]
    summary = curve.classify_all()
    tree = build_domain(summary, 1)
    tokens = symbolic_tokens(tree)
    inst = BATTERIES["A"]
    clean = e2_pair(assemble_system(tree, TokenProvider(tree, tokens, inst)))
    eid = next(e.eid for e in tree.edges if e.kind == "line-cusp")
    flipped = tokens.with_flipped_tag(eid, "tail", ZERO_MAP)
    broken = e2_pair(assemble_system(tree, TokenProvider(tree, flipped, inst)))
    if clean[0] != predicted(summary, inst, 1) or clean[1] != TRIVIAL_GROUP:
        return False, "clean system does not match the prediction"
    if broken == clean:
        return False, "flipped tag went unnoticed"
    return True, "flipped tag detected"


ALL_BATTERIES = [
    ("smith-factorization", snf_battery),
    ("designed-complexes", complex_battery),
    ("cyclic-closed-forms", cyclic_battery),
    ("abelianization-cross-check", abelianization_battery),
    ("subtree-collapse", branch_battery),
    ("degree-zero-row", degree_zero_battery),
    ("invariance", invariance_battery),
    ("corruption-detectability", detectability_battery),
]


def run_selftest(write=print):
    """Run every battery; report one line each; True when all pass."""
    all_ok = True
    for name, fn in ALL_BATTERIES:
        ok, detail = fn()
        status = "ok  " if ok else "FAIL"
        write(f"{status} {name:28s} {detail}")
        all_ok = all_ok and ok
    write("selftest: " + ("PASS" if all_ok else "FAIL"))
    return all_ok
