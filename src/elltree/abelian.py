"""Exact linear algebra over the integers and finitely generated abelian groups.

Everything here works with arbitrary-precision Python ints.  The central
routine is Smith normal form with unimodular transform tracking; on top of
it sit canonical forms of presented abelian groups, homomorphisms checked
for well-definedness at construction, and homology of chain complexes of
presented groups computed by lifting through the presentations.

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

from functools import lru_cache, total_ordering

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


class _SmithEngine:
    """Sparse Smith elimination with optional transform tracking.

    Maintains U * M * V = S throughout, where U and V are products of
    elementary row and column operations.  U and Vinv are stored row-major,
    V and Uinv column-major, so each update touches one vector.  The row
    dicts of M are taken over and reduced in place.  After run(), u_matrix()
    and vinv_matrix() are column-major copies, so applying one to a sparse
    vector costs only the nonzeros it touches.

    Each step takes a unit pivot from a short row and a short column when
    the active region has one, else the entry of least absolute value
    (see _find_pivot).  When neither V nor Vinv is tracked, a pivot row
    that the pivot divides is cleared in one assignment instead of by
    column operations, which could only change that row.
    """

    def __init__(self, row_dicts, nrows, ncols, want_u=False, want_v=False, want_vinv=False,
                 want_uinv=False):
        self.m = nrows
        self.n = ncols
        self.rows = row_dicts
        self.colmap = [set() for _ in range(ncols)]
        for i, r in enumerate(self.rows):
            for j in r:
                self.colmap[j].add(i)
        self.U = [{i: 1} for i in range(nrows)] if want_u else None
        self.Uinv = [{i: 1} for i in range(nrows)] if want_uinv else None
        self.V = [{j: 1} for j in range(ncols)] if want_v else None
        self.Vinv = [{j: 1} for j in range(ncols)] if want_vinv else None
        self.rank = 0
        self.diag = []

    # elementary operations; each also updates the tracked transforms

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
        if self.U is not None:
            _dict_addmul(self.U[dst], self.U[src], c)
        if self.Uinv is not None:
            _dict_addmul(self.Uinv[src], self.Uinv[dst], -c)

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
        if self.U is not None:
            self.U[i1], self.U[i2] = self.U[i2], self.U[i1]
        if self.Uinv is not None:
            self.Uinv[i1], self.Uinv[i2] = self.Uinv[i2], self.Uinv[i1]

    def _row_negate(self, i):
        self.rows[i] = {j: -v for j, v in self.rows[i].items()}
        if self.U is not None:
            self.U[i] = {j: -v for j, v in self.U[i].items()}
        if self.Uinv is not None:
            self.Uinv[i] = {j: -v for j, v in self.Uinv[i].items()}

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
        if self.V is not None:
            _dict_addmul(self.V[dst], self.V[src], c)
        if self.Vinv is not None:
            _dict_addmul(self.Vinv[src], self.Vinv[dst], -c)

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
        if self.V is not None:
            self.V[j1], self.V[j2] = self.V[j2], self.V[j1]
        if self.Vinv is not None:
            self.Vinv[j1], self.Vinv[j2] = self.Vinv[j2], self.Vinv[j1]

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
            if self.V is None and self.Vinv is None and all(
                v % pivot_row[t] == 0 for v in pivot_row.values()
            ):
                # column t is clear, so the column operations would only
                # zero the rest of row t
                for j in pivot_row:
                    if j != t:
                        self.colmap[j].discard(t)
                self.rows[t] = {t: pivot_row[t]}
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
        if self.U is not None:
            self._u = IntMatrix.from_sparse_cols(_transpose_dicts(self.U, self.m), self.m)
        if self.Vinv is not None:
            self._vinv = IntMatrix.from_sparse_cols(_transpose_dicts(self.Vinv, self.n), self.n)
        return self

    # exports

    def smith_matrix(self):
        cols = [{j: d} for j, d in enumerate(self.diag)]
        return IntMatrix.from_sparse_cols(cols + [{}] * (self.n - len(cols)), self.m)

    def u_matrix(self):
        return self._u

    def vinv_matrix(self):
        return self._vinv

    def uinv_matrix(self):
        return IntMatrix.from_sparse_cols(self.Uinv, self.m)

    def v_matrix(self):
        return IntMatrix.from_sparse_cols(self.V, self.n)

    def kernel_cols(self):
        """Sparse basis columns of the integer kernel (needs V tracking)."""
        return [dict(self.V[j]) for j in range(self.rank, self.n)]


def _engine_for(mat, **want):
    rows = _transpose_dicts(mat.cols, mat.nrows)
    return _SmithEngine(rows, mat.nrows, mat.ncols, **want).run()


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
    eng = _engine_for(mat, want_u=True, want_v=True)
    return eng.u_matrix(), eng.smith_matrix(), eng.v_matrix()


def invariant_factors(mat):
    """Nonzero diagonal of the Smith form, in divisibility order."""
    eng = _engine_for(mat)
    return [d for d in eng.diag if d]


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

    __slots__ = ("gens", "relations", "_canonical", "_lattice")

    def __init__(self, gens, relations=None):
        self.gens = gens
        if relations is None:
            relations = IntMatrix.zeros(gens, 0)
        if relations.nrows != gens:
            raise ValueError("relation matrix must have one row per generator")
        self.relations = relations
        self._canonical = None
        self._lattice = None

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
            factors = invariant_factors(self.relations)
            rank = self.gens - len(factors)
            torsion = tuple(d for d in factors if d > 1)
            self._canonical = FgAbGroup(rank, torsion)
        return self._canonical

    def lattice(self):
        if self._lattice is None:
            self._lattice = _SmithCoordinates(self.relations)
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
    """Coordinates on Z^m / (column lattice of rels) in its canonical basis.

    From the Smith form U * rels * W = S, the generators are the free rows
    of S, then the rows whose invariant factor d is > 1, as in
    PresentedGroup.from_group; rows with d = 1 carry no coordinate.  A
    vector's coordinates are those rows of U applied to it, each torsion
    one reduced into [0, d) (Cohen, GTM 138, 2.4), so the vector lies in
    the lattice exactly when it has none.  With want_uinv, Uinv is kept
    too: its column for a generator's row lifts that generator.
    """

    def __init__(self, rels, want_uinv=False):
        eng = _engine_for(rels, want_u=True, want_uinv=want_uinv)
        torsion = [i for i in range(eng.rank) if eng.diag[i] > 1]
        self.rows = list(range(eng.rank, rels.nrows)) + torsion
        self.group = FgAbGroup(rels.nrows - eng.rank, tuple(eng.diag[i] for i in torsion))
        self._slot = {row: (k, eng.diag[row] if row < eng.rank else 0)
                      for k, row in enumerate(self.rows)}
        self.u = eng.u_matrix()
        self.uinv = eng.uinv_matrix() if want_uinv else None

    def coords(self, vec):
        """Coordinates of a sparse vector, as a sparse {generator: value} dict."""
        out = {}
        for i, v in self.u.matvec(vec).items():
            if i in self._slot:
                k, d = self._slot[i]
                if d:
                    v %= d
                if v:
                    out[k] = v
        return out

    def contains(self, vec):
        return not self.coords(vec)


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
        return AbHom(group, group, IntMatrix.identity(group.gens), check=False)

    @staticmethod
    def zero(source, target):
        return AbHom(source, target, IntMatrix.zeros(target.gens, source.gens), check=False)

    def compose(self, other):
        """self after other."""
        if other.target is not self.source and other.target.relations != self.source.relations:
            raise ValueError("composition mismatch")
        return AbHom(other.source, self.target, self.matrix @ other.matrix, check=False)

    def is_zero_hom(self):
        lat = self.target.lattice()
        return all(lat.contains(col) for col in self.matrix.cols)

    def is_isomorphism(self):
        """Bijective on the underlying quotient groups."""
        eng = _engine_for(self.matrix.hstack(self.target.relations), want_v=True)
        # surjective: [matrix | relations] presents the cokernel, which is
        # trivial when its invariant factors are all 1 and fill every row
        if eng.rank != self.target.gens or any(d != 1 for d in eng.diag[:eng.rank]):
            return False
        # injective: anything mapped into the target lattice was already a relation
        src_lat = self.source.lattice()
        for col in eng.kernel_cols():
            head = {i: v for i, v in col.items() if i < self.source.gens}
            if not src_lat.contains(head):
                return False
        return True


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


def _kernel_coords(vinv, rank, chain_dict):
    y = vinv.matvec(chain_dict)
    if any(i < rank for i in y):
        raise AssertionError("chain is not a cycle")
    return {i - rank: v for i, v in y.items()}


class CyclePresentation:
    """Smith-reduced presentation of ker(d_n)/im(d_next) at a free position.

    The relations, written in the kernel basis of d_n, are put into Smith
    form once (_SmithCoordinates), so the presented group is the canonical
    one that PresentedGroup.from_group builds.  Chains translate to class
    coordinates through Vinv and U, and generators lift to chains through
    Uinv and the kernel basis.
    """

    __slots__ = ("presented", "_vinv", "_rank", "_basis", "_smith")

    def __init__(self, g, d_n, d_next):
        # the kernel basis is columns rank.. of V; a cycle's coordinates in
        # it are the trailing entries of Vinv applied to the cycle
        kernel = _engine_for(d_n, want_v=True, want_vinv=True)
        self._vinv, self._rank = kernel.vinv_matrix(), kernel.rank
        self._basis = kernel.kernel_cols()
        rels = IntMatrix.from_sparse_cols(
            [_kernel_coords(self._vinv, self._rank, col) for col in d_next.cols], g - self._rank
        )
        self._smith = _SmithCoordinates(rels, want_uinv=True)
        self.presented = PresentedGroup.from_group(self._smith.group)

    def coords_of_cycle(self, chain_dict):
        """Class coordinates of a cycle, torsion ones reduced, as a sparse dict."""
        return self._smith.coords(_kernel_coords(self._vinv, self._rank, chain_dict))

    def cycle_of_generator(self, i):
        """The chain representing presented generator i, as a sparse dict."""
        chain = {}
        for j, c in self._smith.uinv.cols[self._smith.rows[i]].items():
            _dict_addmul(chain, self._basis[j], c)
        return chain


def homology_at(complex_, n):
    """H_n = ker(d_n) / im(d_{n+1}) as a canonical FgAbGroup.

    Positions outside the complex are zero.  Kernels and images are lifted
    through the presentations: cycles are generator vectors whose boundary
    lies in the relation lattice below, and the quotient is taken by the
    relations at n together with the image of d_{n+1}.
    """
    if n < 0 or n >= len(complex_.groups):
        return TRIVIAL_GROUP
    group = complex_.groups[n]
    g = group.gens
    if g == 0:
        return TRIVIAL_GROUP
    d_next = complex_.boundaries[n].matrix if n < len(complex_.boundaries) else None
    if n == 0:
        rels = group.relations if d_next is None else d_next.hstack(group.relations)
        return PresentedGroup(g, rels).canonical()
    d_n = complex_.boundaries[n - 1].matrix
    prev_rels = complex_.groups[n - 1].relations
    # cycles: x with d_n(x) in the lattice below, found via the kernel of
    # [d_n | prev_rels] projected onto the x block
    aug = d_n.hstack(prev_rels)
    eng1 = _engine_for(aug, want_v=True)
    cycle_gens = []
    for col in eng1.kernel_cols():
        head = {i: v for i, v in col.items() if i < g}
        cycle_gens.append(head)
    kmat = IntMatrix.from_sparse_cols(cycle_gens, g)
    eng2 = _engine_for(kmat, want_u=True)
    s = eng2.rank
    if s == 0:
        return TRIVIAL_GROUP
    # rewrite the image of d_next and the relations at n in the basis of
    # the cycle lattice; both lie inside it, so the division is exact
    mod_cols = (d_next.cols if d_next is not None else ()) + group.relations.cols
    rel_cols = []
    u = eng2.u_matrix()
    for m in mod_cols:
        y = u.matvec(m)
        col = {}
        for i, v in y.items():
            if i >= s or v % eng2.diag[i]:
                raise AssertionError("column does not lie in the cycle lattice")
            col[i] = v // eng2.diag[i]
        rel_cols.append(col)
    return PresentedGroup(s, IntMatrix.from_sparse_cols(rel_cols, s)).canonical()


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
