"""Free ZG-resolutions of finite groups, and the chain maps homs induce.

A resolution ... -> F_2 -> F_1 -> F_0 = ZG -> Z is built by the lattice
method (G. Ellis, "Computing group resolutions", J. Symb. Comput. 38,
2004).  F_n = ZG^(r_n) is stored as Z^(|G| r_n): the basis vector g.x_i
has index i |G| + g, and h acts by h.(g.x_i) = (hg).x_i through the
table.  d_n is kept as the images of the free generators x_i; its
Z-matrix has their G-translates as columns.

  F_1 has one generator x_s per element s of a greedy generating set
    (each step adds the element that generates the largest subgroup with
    those chosen), with d_1(x_s) = s - 1.
  F_(n+1) takes the Z-kernel of d_n from its Smith form, and adds kernel
    basis vectors as generators, sparsest first, while they are not yet
    in the Z-span of the G-translates of those chosen.  The span is then
    the whole kernel, so the resolution is exact.

H_q(G; Z) is the homology of Z (x)_G F, whose boundary sums each image
over G into an r_(n-1) x r_n matrix.  A hom f: G -> H lifts to a chain
map (comparison theorem; K. Brown, Cohomology of Groups, I.7): phi_0
sends e_g to e_f(g), and phi_n(x_i) solves d_n(y) = phi_(n-1)(d_n(x_i))
in H's resolution, through the Smith form of its d_n that the extension
step computed.
"""

from functools import lru_cache

from .abelian import CyclePresentation, IntMatrix, _SmithCoordinates, _dict_addmul, _engine_for
from .groups import subgroup_closure


def _generating_set(group):
    """Greedy: add the element whose subgroup with those chosen is largest,
    the lowest index among ties, until the group is generated."""
    gens, members = [], {group.identity}
    while len(members) < group.order:
        _, g = max((len(subgroup_closure(group, gens + [g])), -g)
                   for g in range(group.order) if g not in members)
        gens.append(-g)
        members = set(subgroup_closure(group, gens))
    return gens


def _augment(vec, order):
    """The image of a vector of ZG^r in Z^r = Z (x)_G ZG^r, zeros kept."""
    out = {}
    for key, c in vec.items():
        out[key // order] = out.get(key // order, 0) + c
    return out


class Resolution:
    """A free ZG-resolution, built on demand up to the degree asked for."""

    def __init__(self, group):
        self.group = group
        gens = _generating_set(group)
        # images[n][i] = d_n(x_i) in F_(n-1); F_0 = ZG has no d_0 images
        self.images = [None, [{s: 1, group.identity: -1} for s in gens]]
        self.ranks = [1, len(gens)]
        # (U, V, diagonal) of the Smith form of d_n, for n >= 1
        self._smith = [None]

    def translate(self, vec, h):
        """h.vec for a vector of some F_n."""
        n, row = self.group.order, self.group.table[h]
        return {k - k % n + row[k % n]: c for k, c in vec.items()}

    def matrix(self, n):
        """The Z-matrix of d_n, for n >= 1."""
        return self._translates(self.images[n], self.ranks[n - 1])

    def _translates(self, vectors, rank):
        """The G-translates of vectors in F of this rank, as matrix columns."""
        order = self.group.order
        cols = [self.translate(v, g) for v in vectors for g in range(order)]
        return IntMatrix.from_sparse_cols(cols, order * rank)

    def extend(self, top):
        """Build F_n and d_n for every n <= top."""
        while len(self.images) <= top:
            n = len(self.images) - 1
            eng = _engine_for(self.matrix(n), want_u=True, want_v=True)
            self._smith.append((eng.u_matrix(), eng.v_matrix(), eng.diag[:eng.rank]))
            chosen, span = [], None
            for vec in sorted(eng.kernel_cols(), key=len):
                if span is None or not span.contains(vec):
                    chosen.append(vec)
                    span = _SmithCoordinates(self._translates(chosen, self.ranks[n]))
            self.images.append(chosen)
            self.ranks.append(len(chosen))

    def tensored(self, n):
        """Z (x)_G d_n, an r_(n-1) x r_n matrix; d_0 is the 0 x 1 matrix."""
        if n == 0:
            return IntMatrix.zeros(0, 1)
        order = self.group.order
        return IntMatrix.from_sparse_cols(
            [_augment(v, order) for v in self.images[n]], self.ranks[n - 1]
        )

    def homology(self, q):
        """H_q(G; Z) as a CyclePresentation on the chains of Z (x)_G F_q."""
        self.extend(q + 1)
        return CyclePresentation(self.ranks[q], self.tensored(q), self.tensored(q + 1))

    def solve(self, n, target):
        """A vector y of F_n with d_n(y) = target, for a target in the image of d_n."""
        self.extend(n + 1)
        u, v, diag = self._smith[n]
        w = {}
        for i, c in u.matvec(target).items():
            if i >= len(diag) or c % diag[i]:
                raise AssertionError(f"vector is not a boundary of d_{n}")
            w[i] = c // diag[i]
        return v.matvec(w)


class ChainMap:
    """The chain map phi: F(G) -> F(H) over a hom f, lifted on demand.

    images[n][i] = phi_n(x_i), a vector of H's F_n.
    """

    def __init__(self, hom):
        self.hom = hom
        self.source = resolution(hom.source)
        self.target = resolution(hom.target)
        self.images = [[{hom.target.identity: 1}]]

    def apply(self, n, vec):
        """phi_n of a vector of G's F_n: g.x_i goes to f(g).phi_n(x_i)."""
        order, f, images = self.hom.source.order, self.hom.mapping, self.images[n]
        out = {}
        for key, c in vec.items():
            i, g = divmod(key, order)
            _dict_addmul(out, self.target.translate(images[i], f[g]), c)
        return out

    def lift(self, top):
        """Lift phi_n for every n <= top."""
        self.source.extend(top)
        while len(self.images) <= top:
            n = len(self.images)
            self.images.append([
                self.target.solve(n, self.apply(n - 1, d)) for d in self.source.images[n]
            ])

    def tensored(self, q):
        """Z (x) phi_q, an r_q(H) x r_q(G) matrix."""
        self.lift(q)
        order = self.hom.target.order
        return IntMatrix.from_sparse_cols(
            [_augment(y, order) for y in self.images[q]], self.target.ranks[q]
        )


@lru_cache(maxsize=None)
def resolution(group):
    """The cached resolution of a group; equal tables share one."""
    return Resolution(group)


@lru_cache(maxsize=None)
def chain_map(hom):
    """The cached chain map over a hom, keyed on the hom object."""
    return ChainMap(hom)
