"""Exact linear algebra over the integers and finitely generated abelian groups.

Everything here works with arbitrary-precision Python ints.  The central
routine is one Smith elimination that logs its operations, so each caller
reads only the transforms it needs (Cohen, GTM 138, 2.4); apart from
smith_normal_form, PresentedGroup.lattice is its one reader.  On top of it
sit canonical forms of presented abelian groups, homomorphisms checked for
well-definedness at construction, and one homology routine for complexes
of presented groups, CyclePresentation, which every other one reads.

The Smith elimination is deterministic: the pivot is a +-1 entry in the
shortest active row that holds one, taken in the shortest column among
those, which limits fill-in (Markowitz 1957; Dumas, Saunders and Villard,
J. Symb. Comput. 32, 2001); without a unit it is the entry of least
absolute value.  Ties go to the lower row, then column, index, so the
choice depends only on the entries.  Matrices are sparse throughout:
IntMatrix keeps one {row: value} dict per column, and the Smith engine
turns that into one {column: value} dict per row in a single pass over
the nonzero entries.  The matrices that matter here, the boundaries of
free ZG-resolutions and tree incidence maps, are large with few, mostly
unit, entries; small inputs pass through the same code path.
"""

from functools import cached_property, lru_cache, total_ordering

from .value import Value


# ---------------------------------------------------------------------------
# sparse integer matrices (the public value type)


def _transpose_dicts(vectors, n):
    """Sparse vectors indexed one way, re-indexed the other way (n slots)."""
    out = [{} for _ in range(n)]
    for j, vec in enumerate(vectors):
        for i, v in vec.items():
            out[i][j] = v
    return out


class IntMatrix:
    """Immutable sparse integer matrix: a shape plus one {row: value} per column.

    Zeros are never stored, so two matrices are equal exactly when their
    shapes and column dicts are.  The shape is explicit so 0 x n and m x 0
    matrices behave; both arise routinely as boundary maps at the ends of
    chain complexes.  Columns are shared, not copied, by the constructors
    and operations below, so nobody may mutate them.

    IntMatrix(rows[, nrows, ncols]) builds one from dense lists, for
    literals in tests; the rows property gives the dense view back.
    """

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, rows, nrows=None, ncols=None):
        rows = [[int(v) for v in r] for r in rows]
        if nrows is None:
            nrows = len(rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError("ragged or mis-shaped matrix")
        self.nrows = nrows
        self.ncols = ncols
        self.cols = tuple({i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols))

    @staticmethod
    def _of(nrows, ncols, cols):
        """Wrap a tuple of zero-free column dicts with rows in range."""
        mat = object.__new__(IntMatrix)
        mat.nrows, mat.ncols, mat.cols = nrows, ncols, cols
        return mat

    @staticmethod
    def zeros(nrows, ncols):
        return IntMatrix._of(nrows, ncols, tuple({} for _ in range(ncols)))

    @staticmethod
    def identity(n):
        return IntMatrix._of(n, n, tuple({j: 1} for j in range(n)))

    @staticmethod
    def from_sparse_cols(col_dicts, nrows):
        """Adopt a list of {row: value} dicts as the columns.

        Row indices must lie in [0, nrows); zero values are dropped.
        """
        cols = list(col_dicts)
        for j, col in enumerate(cols):
            if col and (min(col) < 0 or max(col) >= nrows):
                raise ValueError(f"row index out of range [0, {nrows}) in column {j}")
            if 0 in col.values():
                cols[j] = {i: v for i, v in col.items() if v}
        return IntMatrix._of(nrows, len(cols), tuple(cols))

    @property
    def rows(self):
        """Dense view as a tuple of row tuples, for oracles and literals."""
        dense = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                dense[i][j] = v
        return tuple(map(tuple, dense))

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        return IntMatrix._of(
            self.nrows, other.ncols, tuple(self.matvec(col) for col in other.cols)
        )

    def matvec(self, col_dict):
        """Product with a sparse column vector, returned as a dict."""
        if col_dict and (min(col_dict) < 0 or max(col_dict) >= self.ncols):
            raise ValueError(f"vector index out of range [0, {self.ncols})")
        out = {}
        for j, c in col_dict.items():
            for i, v in self.cols[j].items():
                nv = out.get(i, 0) + c * v
                if nv:
                    out[i] = nv
                else:
                    out.pop(i, None)
        return out

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch in hstack")
        return IntMatrix._of(self.nrows, self.ncols + other.ncols, self.cols + other.cols)

    @staticmethod
    def block_diag(blocks):
        cols = []
        offset = 0
        for b in blocks:
            if offset:
                cols.extend({i + offset: v for i, v in col.items()} for col in b.cols)
            else:
                cols.extend(b.cols)
            offset += b.nrows
        return IntMatrix._of(offset, len(cols), tuple(cols))

    def is_zero(self):
        return not any(self.cols)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.cols) == (other.nrows, other.ncols, other.cols)

    def __hash__(self):
        return hash((self.nrows, self.ncols,
                     tuple(tuple(sorted(col.items())) for col in self.cols)))

    def __repr__(self):
        return f"IntMatrix({self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# Smith normal form engine


def _dict_addmul(dst, src, c):
    """dst += c * src for {key: value} vectors, dropping zeros."""
    for k, v in src.items():
        nv = dst.get(k, 0) + c * v
        if nv:
            dst[k] = nv
        else:
            dst.pop(k, None)


def _replay(ops, size, inverse):
    """Replay a log of ops on size indices: (dst, src, c) adds c * src to
    dst, (i, j) swaps, (i,) negates.  Forward, row ops give U's rows and
    column ops V's columns; inverse, each add is undone from the other
    side, giving U^-1's columns and V^-1's rows."""
    vecs = [{i: 1} for i in range(size)]
    for op in ops:
        if len(op) == 3:
            dst, src, c = (op[1], op[0], -op[2]) if inverse else op
            _dict_addmul(vecs[dst], vecs[src], c)
        elif len(op) == 2:
            vecs[op[0]], vecs[op[1]] = vecs[op[1]], vecs[op[0]]
        else:
            vecs[op[0]] = {k: -v for k, v in vecs[op[0]].items()}
    return vecs


class _SmithEngine:
    """Sparse Smith elimination that logs its elementary operations.

    The row dicts of M are taken over and reduced in place to S, whose
    diagonal run() reads into diag before it drops them, and each row and
    column operation is appended to row_ops or col_ops.  U and V
    with U * M * V = S, and their inverses, are replayed from the logs on
    first read (u, v, uinv, vinv, column-major), so a run that needs only
    the diagonal builds none of them.

    Each step takes a unit pivot from a short row and a short column when
    the active region has one, else the entry of least absolute value
    (see _find_pivot).  A pivot row that the pivot divides is cleared in
    one assignment; the column additions that stand for it are logged.
    """

    def __init__(self, row_dicts, nrows, ncols):
        self.m = nrows
        self.n = ncols
        self.rows = row_dicts
        self.colmap = [set() for _ in range(ncols)]
        for i, r in enumerate(self.rows):
            for j in r:
                self.colmap[j].add(i)
        self.row_ops, self.col_ops = [], []
        self.rank = 0
        self.diag = []

    # elementary operations, each logged

    def _row_add(self, dst, src, c):
        rd = self.rows[dst]
        for j, v in self.rows[src].items():
            nv = rd.get(j, 0) + c * v
            if nv:
                rd[j] = nv
                self.colmap[j].add(dst)
            else:
                rd.pop(j, None)
                self.colmap[j].discard(dst)
        self.row_ops.append((dst, src, c))

    def _row_swap(self, i1, i2):
        if i1 == i2:
            return
        r1, r2 = self.rows[i1], self.rows[i2]
        # a column holding both rows, or neither, keeps its row set
        for j in r1.keys() - r2.keys():
            self.colmap[j].discard(i1)
            self.colmap[j].add(i2)
        for j in r2.keys() - r1.keys():
            self.colmap[j].discard(i2)
            self.colmap[j].add(i1)
        self.rows[i1], self.rows[i2] = r2, r1
        self.row_ops.append((i1, i2))

    def _row_negate(self, i):
        self.rows[i] = {j: -v for j, v in self.rows[i].items()}
        self.row_ops.append((i,))

    def _col_add(self, dst, src, c):
        for i in list(self.colmap[src]):
            v = self.rows[i][src]
            nv = self.rows[i].get(dst, 0) + c * v
            if nv:
                self.rows[i][dst] = nv
                self.colmap[dst].add(i)
            else:
                self.rows[i].pop(dst, None)
                self.colmap[dst].discard(i)
        self.col_ops.append((dst, src, c))

    def _col_swap(self, j1, j2):
        if j1 == j2:
            return
        for i in self.colmap[j1] | self.colmap[j2]:
            r = self.rows[i]
            v1, v2 = r.pop(j1, None), r.pop(j2, None)
            if v2 is not None:
                r[j1] = v2
            if v1 is not None:
                r[j2] = v1
        self.colmap[j1], self.colmap[j2] = self.colmap[j2], self.colmap[j1]
        self.col_ops.append((j1, j2))

    # pivoting

    def _find_pivot(self, t):
        """(row, col) of the next pivot in the region (rows >= t, cols >= t).

        Rows and columns before t hold only their diagonal entry, so row
        and column lengths are lengths within the region.  A +-1 entry in
        the shortest row that holds one, in its shortest such column;
        without a unit, the least |value|.  Ties go to the lower index.
        """
        best = None
        for i in range(t, self.m):
            row = self.rows[i]
            if row and (best is None or len(row) < best[0]) and (
                1 in row.values() or -1 in row.values()
            ):
                best = (len(row), i)
                if best[0] == 1:
                    break
        if best is not None:
            i = best[1]
            units = (j for j, v in self.rows[i].items() if v == 1 or v == -1)
            return i, min(units, key=lambda j: (len(self.colmap[j]), j))
        for i in range(t, self.m):
            for j, v in self.rows[i].items():
                key = (abs(v), i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            return None
        return best[1], best[2]

    def _clear_cross(self, t):
        """Make row t and column t zero away from the pivot at (t, t)."""
        while True:
            redo = False
            for i in sorted(self.colmap[t]):
                if i == t:
                    continue
                a = self.rows[i].get(t, 0)
                if not a:
                    continue
                q = a // self.rows[t][t]
                if q:
                    self._row_add(i, t, -q)
                if self.rows[i].get(t, 0):
                    self._row_swap(t, i)  # strictly smaller pivot
                    redo = True
                    break
            if redo:
                continue
            pivot_row = self.rows[t]
            p = pivot_row[t]
            if all(v % p == 0 for v in pivot_row.values()):
                # column t is clear, so the column operations only zero
                # the rest of row t: log them and clear it at once
                for j in sorted(pivot_row):
                    if j != t:
                        self.colmap[j].discard(t)
                        self.col_ops.append((j, t, -(pivot_row[j] // p)))
                self.rows[t] = {t: p}
                return
            for j in sorted(self.rows[t]):
                if j == t:
                    continue
                a = self.rows[t][j]
                q = a // self.rows[t][t]
                if q:
                    self._col_add(j, t, -q)
                if self.rows[t].get(j, 0):
                    self._col_swap(t, j)
                    redo = True
                    break
            if not redo:
                return

    def run(self):
        limit = min(self.m, self.n)
        t = 0
        while t < limit:
            piv = self._find_pivot(t)
            if piv is None:
                break
            self._row_swap(t, piv[0])
            self._col_swap(t, piv[1])
            self._clear_cross(t)
            t += 1
        self.rank = t
        for i in range(self.rank):
            if self.rows[i][i] < 0:
                self._row_negate(i)
        # enforce the divisibility chain d1 | d2 | ...
        i = 0
        while i + 1 < self.rank:
            a = self.rows[i][i]
            b = self.rows[i + 1][i + 1]
            if b % a:
                self._col_add(i, i + 1, 1)
                self._clear_cross(i)
                for k in (i, i + 1):
                    if self.rows[k][k] < 0:
                        self._row_negate(k)
                i = max(i - 1, 0)
            else:
                i += 1
        self.diag = [self.rows[i].get(i, 0) for i in range(limit)]
        # the logs are all a kept engine needs
        self.rows = self.colmap = None
        return self

    # exports, each built from the logs on first read

    @cached_property
    def u(self):
        return IntMatrix.from_sparse_cols(
            _transpose_dicts(_replay(self.row_ops, self.m, False), self.m), self.m)

    @cached_property
    def v(self):
        return IntMatrix.from_sparse_cols(_replay(self.col_ops, self.n, False), self.n)

    @cached_property
    def uinv(self):
        return IntMatrix.from_sparse_cols(_replay(self.row_ops, self.m, True), self.m)

    @cached_property
    def vinv(self):
        return IntMatrix.from_sparse_cols(
            _transpose_dicts(_replay(self.col_ops, self.n, True), self.n), self.n)

    def kernel_cols(self):
        """Sparse basis columns of the integer kernel, shared with v."""
        return self.v.cols[self.rank:]


def _engine_for(mat):
    rows = _transpose_dicts(mat.cols, mat.nrows)
    return _SmithEngine(rows, mat.nrows, mat.ncols).run()


def smith_normal_form(mat):
    """(U, S, V) with U @ mat @ V == S, S diagonal with d1 | d2 | ...

    U and V are unimodular.  Deterministic for a given input.

    >>> U, S, V = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    >>> S.rows
    ((1, 0), (0, 6))
    >>> U2, S2, V2 = smith_normal_form(IntMatrix([[4, 6], [2, 2]]))
    >>> S2.rows
    ((2, 0), (0, 2))
    """
    eng = _engine_for(mat)
    cols = [{j: d} for j, d in enumerate(eng.diag)] + [{}] * (mat.ncols - len(eng.diag))
    return eng.u, IntMatrix.from_sparse_cols(cols, mat.nrows), eng.v


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@total_ordering
class FgAbGroup(Value):
    """Canonical form: rank plus invariant factors d1 | d2 | ..., each >= 2.

    Equality of canonical forms is isomorphism; groups sort by (rank, torsion).
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank, torsion=()):
        super().__init__(rank, torsion)
        if rank < 0:
            raise ValueError("negative rank")
        for d in torsion:
            if d < 2:
                raise ValueError("torsion factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion factors must form a divisibility chain")

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() < other._key()

    @property
    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}

    def __repr__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = FgAbGroup(0, ())


@lru_cache(maxsize=None)
def prime_powers(n):
    """The prime powers r^e exactly dividing n >= 1, as (r, r^e) pairs."""
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            power = 1
            while n % r == 0:
                n //= r
                power *= r
            out.append((r, power))
        r += 1
    if n > 1:
        out.append((n, n))
    return tuple(out)


def direct_sum_groups(groups):
    """Canonical form of a direct sum, from elementary divisors.

    Each torsion order splits into prime powers; per prime they are sorted
    ascending and right-aligned, and the invariant factors are the products
    across primes at each position (Cohen, GTM 138, 2.4).  No elimination.
    """
    rank = sum(g.rank for g in groups)
    by_prime = {}
    for g in groups:
        for d in g.torsion:
            for r, power in prime_powers(d):
                by_prime.setdefault(r, []).append(power)
    n = max(map(len, by_prime.values()), default=0)
    factors = [1] * n
    for powers in by_prime.values():
        powers.sort()
        for i, power in enumerate(powers, n - len(powers)):
            factors[i] *= power
    return FgAbGroup(rank, tuple(factors))


class PresentedGroup:
    """Z^gens modulo the column lattice of a relation matrix."""

    __slots__ = ("gens", "relations", "_canonical", "_lattice", "_identity")

    def __init__(self, gens, relations=None):
        self.gens = gens
        if relations is None:
            relations = IntMatrix.zeros(gens, 0)
        if relations.nrows != gens:
            raise ValueError("relation matrix must have one row per generator")
        self.relations = relations
        self._canonical = None
        self._lattice = None
        self._identity = None

    @staticmethod
    def from_group(fg):
        """Canonical presentation: free generators first, then torsion ones."""
        g = fg.rank + len(fg.torsion)
        cols = [{fg.rank + i: d} for i, d in enumerate(fg.torsion)]
        presented = PresentedGroup(g, IntMatrix.from_sparse_cols(cols, g))
        presented._canonical = fg
        return presented

    def canonical(self):
        if self._canonical is None:
            self._canonical = self.lattice().group
        return self._canonical

    def lattice(self):
        if self._lattice is None:
            self._lattice = _SmithCoordinates(_engine_for(self.relations))
        return self._lattice

    @staticmethod
    def direct_sum(groups):
        return PresentedGroup(
            sum(p.gens for p in groups),
            IntMatrix.block_diag([p.relations for p in groups]),
        )

    def __repr__(self):
        return f"PresentedGroup({self.gens} gens, {self.relations.ncols} relations)"


class _SmithCoordinates:
    """Z^m / (column lattice of rels), read off one elimination of rels.

    From the Smith form U * rels * V = S, the generators are the free rows
    of S, then the rows whose invariant factor d is > 1, as in
    PresentedGroup.from_group; rows with d = 1 carry no coordinate.  A
    vector's coordinates are those rows of U applied to it, each torsion
    one reduced into [0, d) (Cohen, GTM 138, 2.4), so the vector lies in
    the lattice exactly when it has none; solve divides a lattice vector
    by the diagonal instead, and preimage takes it back through V.  The
    engine's uinv column for a generator's row lifts that generator.  The
    engine is kept, so each transform is built on first use.
    """

    def __init__(self, eng):
        torsion = [i for i in range(eng.rank) if eng.diag[i] > 1]
        self.rows = list(range(eng.rank, eng.m)) + torsion
        self.group = FgAbGroup(eng.m - eng.rank, tuple(eng.diag[i] for i in torsion))
        self._slot = {row: (k, eng.diag[row] if row < eng.rank else 0)
                      for k, row in enumerate(self.rows)}
        self._diag = eng.diag[:eng.rank]
        self.engine = eng

    def coords(self, vec):
        """Coordinates of a sparse vector, as a sparse {generator: value} dict."""
        out = {}
        for i, v in self.engine.u.matvec(vec).items():
            if i in self._slot:
                k, d = self._slot[i]
                if d:
                    v %= d
                if v:
                    out[k] = v
        return out

    def contains(self, vec):
        return not self.coords(vec)

    def solve(self, vec):
        """The w with U vec = S w, so rels V w = vec; AssertionError off the lattice."""
        w = {}
        for i, v in self.engine.u.matvec(vec).items():
            if i >= len(self._diag) or v % self._diag[i]:
                raise AssertionError("vector does not lie in the lattice")
            w[i] = v // self._diag[i]
        return w

    def preimage(self, vec):
        """A y with rels y = vec; AssertionError off the lattice."""
        return self.engine.v.matvec(self.solve(vec))


class AbHom:
    """Homomorphism of presented groups, given by a matrix on generators.

    Well-definedness (relations land in relations) is checked eagerly at
    construction so a bad map fails where it is built, not where it is used.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, check=True):
        if matrix.nrows != target.gens or matrix.ncols != source.gens:
            raise ValueError("hom matrix shape mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check:
            lat = target.lattice()
            for col in source.relations.cols:
                if not lat.contains(matrix.matvec(col)):
                    raise ValueError("matrix does not send relations into relations")

    @staticmethod
    def identity(group):
        """The identity of a presentation, one object per PresentedGroup."""
        if group._identity is None:
            group._identity = AbHom(group, group, IntMatrix.identity(group.gens), check=False)
        return group._identity

    @staticmethod
    def zero(source, target):
        return AbHom(source, target, IntMatrix.zeros(target.gens, source.gens), check=False)


# ---------------------------------------------------------------------------
# chain complexes and homology


class ChainComplexFg:
    """C_0 <- C_1 <- ... <- C_n with boundaries[i] : groups[i+1] -> groups[i].

    The composite of consecutive boundaries must be the zero homomorphism
    of the quotient groups; this is verified at construction.
    """

    def __init__(self, groups, boundaries, check=True):
        if len(boundaries) != max(len(groups) - 1, 0):
            raise ValueError("need one boundary per adjacent pair")
        for i, d in enumerate(boundaries):
            if d.source.gens != groups[i + 1].gens or d.target.gens != groups[i].gens:
                raise ValueError(f"boundary {i + 1} does not match its groups")
        self.groups = list(groups)
        self.boundaries = list(boundaries)
        if check:
            for i in range(len(boundaries) - 1):
                composite = boundaries[i].matrix @ boundaries[i + 1].matrix
                if not composite.is_zero():
                    lat = groups[i].lattice()
                    for col in composite.cols:
                        if not lat.contains(col):
                            raise ValueError(f"boundary composite at {i + 2} is nonzero")


class CyclePresentation:
    """Smith-reduced presentation of Z/B at position n of a complex of
    presented groups, and of the cokernel of d_n one position down.

    Z is the group of chains x with d_n(x) in the relation lattice of
    below, the group one position down, and B is spanned by the columns of
    above.  One elimination of [d_n | relations below], which presents the
    cokernel, gives the lattice K of pairs (x, y) with d_n(x) + rels y = 0,
    which projects onto Z; the pairs over x = 0 are the (0, y) with
    rels y = 0.  So a cycle x lifts to (x, y), with y the preimage of -d_n(x)
    (empty when below has no relations), and reads its coordinates in K's
    basis through Vinv.  The relations are the lifts of the columns of
    above and the pairs (0, y), y in the kernel basis of the relations
    below; they are put into Smith form once, so the presented group is the
    canonical one that PresentedGroup.from_group builds.  Class coordinates
    come through U, and generators lift to chains through Uinv and K's basis.

    >>> z4 = PresentedGroup(1, IntMatrix([[4]]))
    >>> h1 = CyclePresentation(1, IntMatrix([[1]]), z4, IntMatrix([[12]]))
    >>> h1.presented.canonical(), h1.cycle_of_generator(0), h1.coords_of_cycle({0: 8})
    (Z/3, {0: 4}, {0: 2})
    >>> h1.cokernel.canonical()
    0
    """

    __slots__ = ("cokernel", "presented", "_d_n", "_below", "_kernel", "_smith")

    def __init__(self, g, d_n, below, above):
        self._d_n, self._below = d_n, below
        self.cokernel = PresentedGroup(below.gens, d_n.hstack(below.relations))
        self._kernel = self.cokernel.lattice().engine
        pairs = [self._lift(col) for col in above.cols]
        if below.relations.ncols:
            dependent = below.lattice().engine.kernel_cols()
            pairs += ({g + i: v for i, v in y.items()} for y in dependent)
        k = g + below.relations.ncols - self._kernel.rank
        rels = IntMatrix.from_sparse_cols(map(self._in_kernel, pairs), k)
        self._smith = PresentedGroup(k, rels).lattice()
        self.presented = PresentedGroup.from_group(self._smith.group)

    def _lift(self, chain):
        """The pair (x, y) of K over a cycle x; AssertionError off the cycles."""
        if not self._below.relations.ncols:
            return chain
        pair = dict(chain)
        y = self._below.lattice().preimage(self._d_n.matvec(chain))
        pair.update((self._d_n.ncols + i, -v) for i, v in y.items())
        return pair

    def _in_kernel(self, pair):
        """Coordinates of a pair of K in its basis, the trailing rows of Vinv."""
        rank = self._kernel.rank
        w = self._kernel.vinv.matvec(pair)
        if any(i < rank for i in w):
            raise AssertionError("chain is not a cycle")
        return {i - rank: v for i, v in w.items()}

    def coords_of_cycle(self, chain_dict):
        """Class coordinates of a cycle, torsion ones reduced, as a sparse dict."""
        return self._smith.coords(self._in_kernel(self._lift(chain_dict)))

    def cycle_of_generator(self, i):
        """The chain representing presented generator i, as a sparse dict."""
        pair, basis = {}, self._kernel.kernel_cols()
        for j, c in self._smith.engine.uinv.cols[self._smith.rows[i]].items():
            _dict_addmul(pair, basis[j], c)
        return {k: v for k, v in pair.items() if k < self._d_n.ncols}


def homology_at(complex_, n):
    """H_n = ker(d_n) / im(d_{n+1}) as a canonical FgAbGroup.

    Positions outside the complex are zero.  Degree 0 is the cokernel of
    [d_1 | relations]; above it, the CyclePresentation of the position,
    whose B is spanned by the image of d_{n+1} and the relations at n.
    The selftest and the tests ask it; reports take both groups of a
    two-term complex from one CyclePresentation (coefficients.e2_pair).
    """
    if n < 0 or n >= len(complex_.groups):
        return TRIVIAL_GROUP
    group = complex_.groups[n]
    g = group.gens
    if g == 0:
        return TRIVIAL_GROUP
    above = group.relations
    if n < len(complex_.boundaries):
        above = complex_.boundaries[n].matrix.hstack(above)
    if n == 0:
        return PresentedGroup(g, above).canonical()
    d_n = complex_.boundaries[n - 1].matrix
    return CyclePresentation(g, d_n, complex_.groups[n - 1], above).presented.canonical()


@lru_cache(maxsize=None)
def cyclic_group_homology(n, q):
    """Closed form for H_q(Z/n): Z at 0, Z/n in odd degrees, 0 in even.

    Used as an oracle against the resolution computation.
    """
    if q == 0:
        return FgAbGroup(1, ())
    if n == 1:
        return TRIVIAL_GROUP
    if q % 2 == 1:
        return FgAbGroup(0, (n,))
    return TRIVIAL_GROUP
