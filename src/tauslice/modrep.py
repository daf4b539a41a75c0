"""Finite dimensional right modules as quiver representations.

A right module over kQ/I is a representation assigning a vector space to each
vertex and, to each arrow a: x -> y, a matrix M_a: M_x -> M_y *along* the
arrow (acting on column vectors).  The path a*b (first a, then b) then acts
as M_b M_a, matching right-module composition m.(ab) = (m.a).b.

Morphisms f: M -> N are vertex-indexed blocks with f_y M_a = N_a f_x for
every arrow a: x -> y.
"""

from __future__ import annotations

import itertools

from .algebra import (
    PresentedAlgebra,
    QuotientMap,
    StructureConstants,
    radical_span,
    word_key,
)
from .exactlin import (
    FieldError,
    Matrix,
    leading_columns,
    null_space,
    read_coordinates,
    span_matrix,
    sparse_echelon,
    _kernel_vectors,
)


class DecompositionStalled(RuntimeError):
    """No splitting endomorphism was found for a decomposable-looking module."""


class Representation:
    """Immutable representation of a :class:`PresentedAlgebra`.

    ``dims[i]`` is the dimension at vertex i (algebra's vertex order) and
    ``maps[j]`` the matrix of arrow j, of shape (dim target, dim source).
    Relations of the algebra are verified on construction.
    """

    __slots__ = ("algebra", "dims", "maps", "_hash")

    def __init__(self, algebra: PresentedAlgebra, dims, maps, _checked=False):
        self.algebra = algebra
        self.dims = dims = tuple(dims)
        q = algebra.quiver
        if len(dims) != q.n_vertices:
            raise ValueError("wrong number of vertex dimensions")
        for v, d in enumerate(dims):
            if type(d) is not int or d < 0:
                raise ValueError(f"dimension {d!r} at vertex {q.vertices[v]} "
                                 "is not a non-negative int")
        maps = tuple(maps)
        if len(maps) != len(q.arrows):
            raise ValueError("wrong number of arrow maps")
        for j, mat in enumerate(maps):
            ds = dims[q.arrow_source[j]]
            dt = dims[q.arrow_target[j]]
            if mat.nrows != dt or mat.ncols != ds:
                raise ValueError(
                    f"map for arrow {q.arrows[j].name} has shape {mat.shape}, "
                    f"expected {(dt, ds)}"
                )
            if mat.field is not algebra.field and mat.field != algebra.field:
                raise ValueError("matrix field does not match the algebra")
        self.maps = maps
        self._hash = None
        if not _checked:
            self._verify_relations()

    def _verify_relations(self):
        for rel in self.algebra.relations:
            items = list(rel.items())
            src = items[0][0][0]
            tgt = self.algebra.word_target(items[0][0])
            if not (self.dims[src] and self.dims[tgt]):
                continue  # the relation acts as an empty matrix
            acc = Matrix.zero(self.algebra.field, self.dims[tgt], self.dims[src])
            for word, c in items:
                acc = acc + self.word_action(word).scale(c)
            if not acc.is_zero():
                raise ValueError(
                    f"relation {self.algebra.format_element(dict(rel))} "
                    "does not annihilate the representation"
                )

    def word_action(self, word) -> Matrix:
        """Matrix of a path word, from its source fibre to its target fibre."""
        src, arrows = word
        out = Matrix.identity(self.algebra.field, self.dims[src])
        for a in arrows:
            out = self.maps[a] @ out
        return out

    def element_action(self, elt) -> Matrix:
        """Matrix of a parallel-path element (all words same source/target)."""
        elt = self.algebra.normal_form(elt)
        if not elt:
            raise ValueError("element_action of 0 has no well-defined shape")
        words = sorted(elt, key=word_key)
        src = words[0][0]
        tgt = self.algebra.word_target(words[0])
        for w in words:
            if w[0] != src or self.algebra.word_target(w) != tgt:
                raise ValueError("element is not parallel-homogeneous")
        acc = Matrix.zero(self.algebra.field, self.dims[tgt], self.dims[src])
        for w in words:
            acc = acc + self.word_action(w).scale(elt[w])
        return acc

    @property
    def total_dim(self):
        return sum(self.dims)

    def dim_at(self, label):
        return self.dims[self.algebra.quiver.vertex_index[str(label)]]

    def is_zero(self):
        return self.total_dim == 0

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.algebra is other.algebra
            and self.dims == other.dims
            and self.maps == other.maps
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.algebra), self.dims, self.maps))
        return self._hash

    def __repr__(self):
        return f"Rep{self.dims}"


class Morphism:
    """A homomorphism of representations, given by vertex blocks."""

    __slots__ = ("source", "target", "blocks", "_hash")

    def __init__(self, source: Representation, target: Representation, blocks, _checked=False):
        if source.algebra is not target.algebra:
            raise ValueError("morphism between modules over different algebras")
        self.source = source
        self.target = target
        self.blocks = tuple(blocks)
        q = source.algebra.quiver
        if len(self.blocks) != q.n_vertices:
            raise ValueError("wrong number of blocks")
        for v, b in enumerate(self.blocks):
            if b.nrows != target.dims[v] or b.ncols != source.dims[v]:
                raise ValueError(f"block at vertex {q.vertices[v]} has wrong shape")
        self._hash = None
        if not _checked:
            # the products below skip the arrows at a zero fibre, so the
            # fields are checked here, once per block
            fld = source.algebra.field
            if any(b.field is not fld and b.field != fld for b in self.blocks):
                raise FieldError(f"morphism blocks are not all over {fld!r}")
            for j in range(len(q.arrows)):
                x, y = q.arrow_source[j], q.arrow_target[j]
                if not (target.dims[y] and source.dims[x]):
                    continue  # both sides are empty matrices of one shape
                if self.blocks[y] @ source.maps[j] != target.maps[j] @ self.blocks[x]:
                    raise ValueError(
                        f"blocks do not intertwine arrow {q.arrows[j].name}"
                    )

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks)

    def flatten(self):
        return tuple(x for b in self.blocks for row in b.rows for x in row)

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and self.blocks == other.blocks
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.blocks))
        return self._hash

    def __add__(self, other):
        return Morphism(
            self.source,
            self.target,
            [a + b for a, b in zip(self.blocks, other.blocks)],
            _checked=True,
        )

    def scale(self, c):
        return Morphism(self.source, self.target, [b.scale(c) for b in self.blocks], _checked=True)

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r})"


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if f.target != g.source:
        raise ValueError("morphisms not composable")
    return Morphism(f.source, g.target, [b2 @ b1 for b1, b2 in zip(f.blocks, g.blocks)], _checked=True)


def identity_morphism(m: Representation) -> Morphism:
    return Morphism(m, m, [Matrix.identity(m.algebra.field, d) for d in m.dims], _checked=True)


def zero_morphism(m: Representation, n: Representation) -> Morphism:
    return Morphism(
        m, n, [Matrix.zero(m.algebra.field, dn, dm) for dm, dn in zip(m.dims, n.dims)],
        _checked=True,
    )


# ---------------------------------------------------------------------------
# standard modules


def zero_rep(a: PresentedAlgebra) -> Representation:
    q = a.quiver
    return Representation(
        a,
        [0] * q.n_vertices,
        [Matrix.zero(a.field, 0, 0) for _ in q.arrows],
        _checked=True,
    )


def simple(a: PresentedAlgebra, label) -> Representation:
    q = a.quiver
    v = q.vertex_index[str(label)]
    dims = [1 if i == v else 0 for i in range(q.n_vertices)]
    maps = [
        Matrix.zero(a.field, dims[q.arrow_target[j]], dims[q.arrow_source[j]])
        for j in range(len(q.arrows))
    ]
    return Representation(a, dims, maps)


def projective(a: PresentedAlgebra, label) -> Representation:
    """Indecomposable projective e_v A: fibres spanned by paths from v.

    Memoised by :meth:`PresentedAlgebra.memo`: every call returns the same
    object.
    """
    return a.memo(("projective", str(label)), _projective, a, label)


def _projective(a: PresentedAlgebra, label) -> Representation:
    q = a.quiver
    v = q.vertex_index[str(label)]
    words = [w for w in a.basis if w[0] == v]
    by_vertex = {}
    for w in words:
        by_vertex.setdefault(a.word_target(w), []).append(w)
    index = {}
    for tgt, ws in by_vertex.items():
        for k, w in enumerate(ws):
            index[w] = k
    dims = [len(by_vertex.get(i, [])) for i in range(q.n_vertices)]
    fld = a.field
    maps = []
    for j in range(len(q.arrows)):
        x, y = q.arrow_source[j], q.arrow_target[j]
        mat = [[fld.zero()] * dims[x] for _ in range(dims[y])]
        for w in by_vertex.get(x, []):
            prod = a.normal_form({(w[0], w[1] + (j,)): fld.one()})
            col = index[w]
            for w2, c in prod.items():
                mat[index[w2]][col] = c
        maps.append(Matrix(fld, mat, dims[x]))
    return Representation(a, dims, maps)


def injective(a: PresentedAlgebra, label) -> Representation:
    """Indecomposable injective D(A e_v), via the opposite projective.

    Memoised by :meth:`PresentedAlgebra.memo`, as :func:`projective` is.
    """
    return a.memo(("injective", str(label)), lambda: dual(projective(a.opposite(), label)))


def dual(m: Representation) -> Representation:
    """D M = Hom_k(M, k) over the opposite algebra (same vertex labels)."""
    a = m.algebra
    op = a.opposite()
    maps = [mat.transpose() for mat in m.maps]
    return Representation(op, m.dims, maps, _checked=True)


def _direct_sum_rep(a: PresentedAlgebra, summands) -> Representation:
    """The direct sum of a list of representations, without inclusions
    and projections."""
    q = a.quiver
    dims = [sum(s.dims[v] for s in summands) for v in range(q.n_vertices)]
    maps = [
        Matrix.block_diagonal(a.field, [s.maps[j] for s in summands])
        for j in range(len(q.arrows))
    ]
    return Representation(a, dims, maps, _checked=True)


def direct_sum(a: PresentedAlgebra, summands):
    """(sum, inclusions, projections) of a list of representations."""
    summands = list(summands)
    fld = a.field
    q = a.quiver
    total = _direct_sum_rep(a, summands)
    dims = total.dims
    incls, projs = [], []
    offset = [0] * q.n_vertices
    z = fld.zero()
    for s in summands:
        # the projection is [0 | I | 0] at each vertex, the inclusion its transpose
        proj_blocks = [
            Matrix._raw(fld, tuple(
                (z,) * offset[v] + row + (z,) * (dims[v] - offset[v] - s.dims[v])
                for row in Matrix.identity(fld, s.dims[v]).rows
            ), dims[v])
            for v in range(q.n_vertices)
        ]
        incls.append(Morphism(s, total, [p.transpose() for p in proj_blocks], _checked=True))
        projs.append(Morphism(total, s, proj_blocks, _checked=True))
        for v in range(q.n_vertices):
            offset[v] += s.dims[v]
    return total, incls, projs


# ---------------------------------------------------------------------------
# hom spaces


def hom_basis(m: Representation, n: Representation):
    """Echelonised basis of Hom(m, n) as a list of morphisms.

    Unknowns are the block entries (vertex order, row-major); the returned
    basis is the kernel basis of the intertwining system that
    :meth:`Matrix.kernel_basis` gives, read by the same reader off the
    forward-only :func:`sparse_echelon` of the system's sparse rows.
    Each basis element, flattened, is 1 at its free column, its last
    nonzero entry, and every other element is 0 there: the free columns
    are unit columns, which :func:`_hom_coordinates` reads.
    The basis is memoised by :meth:`PresentedAlgebra.memo`, on structural
    equality; the morphisms run from m to n themselves: a hit computed for
    earlier, equal objects is rebuilt on m and n with the same blocks.
    """
    hit = m.algebra.memo(("hom", m, n), _hom_basis, m, n)
    if hit and (hit[0].source is not m or hit[0].target is not n):
        return [Morphism(m, n, f.blocks, _checked=True) for f in hit]
    return hit


def _hom_basis(m: Representation, n: Representation):
    a = m.algebra
    if a is not n.algebra:
        raise ValueError("hom between modules over different algebras")
    fld = a.field
    q = a.quiver
    offsets = []
    total = 0
    for v in range(q.n_vertices):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]

    # one sparse row {unknown: coefficient} per entry (i, j) of
    # f_y M_a - N_a f_x for each arrow a: x -> y; on a loop (x = y) both
    # terms can hit the unknown f[i][j], so they add
    rows = []
    for arw in range(len(q.arrows)):
        x, y = q.arrow_source[arw], q.arrow_target[arw]
        wx = m.dims[x]
        if not (wx and n.dims[y]):
            continue  # no entries (i, j)
        ma_cols = [[(k, c) for k, c in enumerate(col) if c]
                   for col in m.maps[arw].transpose().rows]
        na = n.maps[arw].rows
        for i in range(n.dims[y]):
            start_y = offsets[y] + i * m.dims[y]
            na_row = [(offsets[x] + k * wx, c) for k, c in enumerate(na[i]) if c]
            for j in range(wx):
                # (f_y M_a)_{ij} = sum_k f_y[i,k] Ma[k,j]
                row = {start_y + k: c for k, c in ma_cols[j]}
                # -(N_a f_x)_{ij} = -sum_k Na[i,k] f_x[k,j]
                for start_x, c in na_row:
                    row[start_x + j] = row.get(start_x + j, 0) - c
                rows.append(row)
    echelon, pivots = sparse_echelon(fld, rows)
    return [_morphism_from_vector(m, n, vec)
            for vec in _kernel_vectors(fld, total, echelon, pivots)]


def _full_hom(m: Representation, n: Representation) -> bool:
    """Whether each arrow x -> y with m_x and n_y nonzero acts by 0 on both
    m and n.  Then the intertwining system of :func:`hom_basis` has no
    nonzero row, on a loop too, so Hom(m, n) is every family of blocks and
    its basis is the unit morphisms, in order of their block entries.  The
    converse fails only where a loop acts by the same nonzero scalar on
    both, which an admissible ideal rules out."""
    q = m.algebra.quiver
    return all(
        not (m.dims[x] and n.dims[y]) or (m.maps[j].is_zero() and n.maps[j].is_zero())
        for j, (x, y) in enumerate(zip(q.arrow_source, q.arrow_target))
    )


def _morphism_from_vector(m, n, vec):
    fld = m.algebra.field
    q = m.algebra.quiver
    blocks = []
    pos = 0
    for v in range(q.n_vertices):
        h, w = n.dims[v], m.dims[v]
        block = tuple(tuple(vec[pos + i * w: pos + (i + 1) * w]) for i in range(h))
        pos += h * w
        blocks.append(Matrix._raw(fld, block, w))
    return Morphism(m, n, blocks, _checked=True)


def _flat_matrix(m, n, morphisms) -> Matrix:
    """The flattened morphisms m -> n as the rows of one matrix."""
    width = sum(dm * dn for dm, dn in zip(m.dims, n.dims))
    return Matrix._raw(m.algebra.field, tuple(g.flatten() for g in morphisms), width)


def _hom_coordinates(m, n, basis, vectors):
    """Coordinates of the flattened morphisms ``vectors`` along
    ``basis = hom_basis(m, n)``, read at its free columns (the last nonzero
    entry of each element), or None when one lies outside their span.

    A full Hom, one basis element per block entry, came from a system with
    no pivot, so its basis is the standard one in order and the vectors
    are their own coordinates: they are returned after the length check
    of :func:`read_coordinates`, without flattening the basis.
    """
    width = sum(dm * dn for dm, dn in zip(m.dims, n.dims))
    if len(basis) == width:
        vecs = tuple(map(tuple, vectors))
        if any(len(v) != width for v in vecs):
            raise ValueError(f"vector length differs from {width}")
        return Matrix._raw(m.algebra.field, vecs, width)
    flat = _flat_matrix(m, n, basis)
    units = [len(r) - 1 - next(i for i, x in enumerate(reversed(r)) if x) for r in flat.rows]
    return read_coordinates(flat, units, vectors)


def _linear_combinations(m, n, basis, coords):
    """The morphisms m -> n with the given coordinate rows over ``basis``,
    from one product against the flattened basis."""
    fld = m.algebra.field
    prod = Matrix._raw(fld, tuple(map(tuple, coords)), len(basis)) @ _flat_matrix(m, n, basis)
    return [_morphism_from_vector(m, n, row) for row in prod.rows]


def hom_dim(m, n) -> int:
    return len(hom_basis(m, n))


# ---------------------------------------------------------------------------
# subquotients


def submodule(m: Representation, bases):
    """(S, incl) for the arrow-stable subspaces with the given bases.

    ``bases[v]`` is a matrix whose rows are an echelon basis of the fibre of
    S at vertex v, from :func:`span_matrix` or :func:`null_space`; they are
    the columns of the inclusion.  An arrow's map on S holds the
    coordinates of the images of its source basis along its target basis,
    read at the target basis's leading columns; ``ValueError`` when an
    image leaves that span.  An arrow with an empty source or target basis
    gets the shared :meth:`Matrix.zero`; when only the target is empty,
    the images are still checked to be 0.
    """
    a = m.algebra
    fld = a.field
    q = a.quiver
    units = [leading_columns(b) for b in bases]
    maps = []
    for j, mat in enumerate(m.maps):
        x, y = q.arrow_source[j], q.arrow_target[j]
        bx, by = bases[x], bases[y]
        if not (bx.nrows and by.nrows):
            if bx.nrows and not (bx @ mat.transpose()).is_zero():
                raise ValueError("spaces are not arrow-stable")
            maps.append(Matrix.zero(fld, by.nrows, bx.nrows))
            continue
        co = read_coordinates(by, units[y], (bx @ mat.transpose()).rows)
        if co is None:
            raise ValueError("spaces are not arrow-stable")
        maps.append(co.transpose())
    s = Representation(a, [b.nrows for b in bases], maps, _checked=True)
    return s, Morphism(s, m, [b.transpose() for b in bases], _checked=True)


def kernel(f: Morphism):
    """(K, incl) with K = ker f as a subrepresentation of f.source: at each
    vertex the null space of the rows of f's block."""
    fld = f.source.algebra.field
    return submodule(f.source, [
        null_space(fld, blk.rows, d)[1] for blk, d in zip(f.blocks, f.source.dims)
    ])


def image(f: Morphism):
    """(I, incl) with I = im f as a subrepresentation of f.target."""
    fld = f.source.algebra.field
    return submodule(f.target, [
        span_matrix(fld, zip(*blk.rows), d) for blk, d in zip(f.blocks, f.target.dims)
    ])


def cokernel(f: Morphism):
    """(Q, proj) with Q = f.target / im f.

    At each vertex :func:`null_space` of the image columns gives both: the
    standard vectors e_i it keeps complete the image and are the quotient's
    basis, and its basis rows, the one with leading 1 at i giving the
    coordinate along e_i, are the rows of proj.  The check that proj kills
    the image is skipped only where that product is empty, and an arrow
    at an empty quotient fibre gets the shared :meth:`Matrix.zero`.
    """
    m = f.target
    a = m.algebra
    fld = a.field
    q = a.quiver
    projs, kept = [], []
    for v, blk in enumerate(f.blocks):
        d = m.dims[v]
        keep, proj = null_space(fld, tuple(zip(*blk.rows)), d)
        if proj.nrows and blk.ncols and not (proj @ blk).is_zero():
            raise ArithmeticError("cokernel projection does not kill the image")
        projs.append(proj)
        kept.append(keep)
    maps = []
    for j, mat in enumerate(m.maps):
        x, y = q.arrow_source[j], q.arrow_target[j]
        if not (kept[x] and kept[y]):
            maps.append(Matrix.zero(fld, len(kept[y]), len(kept[x])))
            continue
        cols = Matrix._raw(fld, tuple(tuple(r[i] for i in kept[x]) for r in mat.rows), len(kept[x]))
        maps.append(projs[y] @ cols)
    qrep = Representation(a, [len(k) for k in kept], maps, _checked=True)
    return qrep, Morphism(m, qrep, projs, _checked=True)


def _descend(f: Morphism, proj: Morphism) -> Morphism:
    """The h with h o proj = f, for a :func:`cokernel` projection proj whose
    kernel f kills: at each vertex the rows of f's block in coordinates
    along proj's rows, which are :func:`null_space` rows."""
    blocks = []
    for fb, pb in zip(f.blocks, proj.blocks):
        h = read_coordinates(pb, leading_columns(pb), fb.rows)
        if h is None:
            raise ArithmeticError("morphism does not factor through the quotient")
        blocks.append(h)
    return Morphism(proj.target, f.target, blocks, _checked=True)


def radical_rep(m: Representation):
    """(rad M, incl): the intersection of maximal subs = M * rad(A)."""
    a = m.algebra
    q = a.quiver
    into = [[] for _ in m.dims]
    for j, mat in enumerate(m.maps):
        into[q.arrow_target[j]].extend(zip(*mat.rows))
    return submodule(m, [span_matrix(a.field, vecs, d) for vecs, d in zip(into, m.dims)])


def socle_rep(m: Representation):
    """(soc M, incl): the largest semisimple subrepresentation, at each
    vertex the null space of the rows of the arrows leaving it."""
    a = m.algebra
    fld = a.field
    q = a.quiver
    outgoing = [[] for _ in m.dims]
    for j, mat in enumerate(m.maps):
        outgoing[q.arrow_source[j]].extend(mat.rows)
    return submodule(m, [null_space(fld, rows, d)[1] for rows, d in zip(outgoing, m.dims)])


def top_rep(m: Representation):
    """(top M, proj) = M / rad M."""
    _r, incl = radical_rep(m)
    return cokernel(incl)


def top_data(m: Representation):
    """Deterministic top basis: list of (vertex_label, lift vector in M).

    rad M at v is spanned by the images of the arrows into v, and the lifts
    are the standard vectors e_i at the positions ``null_space`` keeps for
    that span."""
    a = m.algebra
    fld = a.field
    q = a.quiver
    into = [[] for _ in range(q.n_vertices)]
    for j, mat in enumerate(m.maps):
        into[q.arrow_target[j]].extend(zip(*mat.rows))
    z, o = fld.zero(), fld.one()
    return [
        (q.vertices[v], tuple(o if j == i else z for j in range(d)))
        for v, d in enumerate(m.dims)
        for i in null_space(fld, into[v], d)[0]
    ]


# ---------------------------------------------------------------------------
# endomorphisms, isomorphism, decomposition


def end_structure(m: Representation):
    """(basis, StructureConstants) for End(m) in its hom basis."""
    basis = hom_basis(m, m)
    fld = m.algebra.field
    d = len(basis)
    if d == 0:
        return basis, StructureConstants(fld, 0, ())
    # the coordinates of every product f o g, at once
    rhs = [compose(f, g).flatten() for f in basis for g in basis]
    coords = _hom_coordinates(m, m, basis, rhs)
    if coords is None:
        raise ArithmeticError("End(m) is not closed under composition")
    cols = coords.rows
    table = [tuple(cols[i * d: (i + 1) * d]) for i in range(d)]
    return basis, StructureConstants(fld, d, tuple(table))


def _end_radical(m: Representation):
    """Rows of rad End(m), in coordinates over ``hom_basis(m, m)``.

    An End of dimension at most 1 is 0 or k.id, whose radical is 0.
    Otherwise one product table and one trace-form radical per module,
    memoised by :meth:`PresentedAlgebra.memo` on structural equality.
    Coordinates, not morphisms, are kept, so a hit serves an equal module
    as well.
    """
    if len(hom_basis(m, m)) <= 1:
        return ()
    return m.algebra.memo(("end_radical", m), lambda: radical_span(end_structure(m)[1]).rows)


def end_radical_morphisms(m: Representation):
    """Basis of rad End(m) as morphisms."""
    return _linear_combinations(m, m, hom_basis(m, m), _end_radical(m))


def is_indecomposable(m: Representation) -> bool:
    """End(m) local, i.e. dim End/rad End = 1 (m nonzero)."""
    if m.is_zero():
        return False
    return len(hom_basis(m, m)) - len(_end_radical(m)) == 1


def _an_isomorphism(m: Representation, n: Representation):
    """Some isomorphism m -> n, or None if there is none.

    Precondition: m, the stored side, is indecomposable; n may be any
    module.  The answer is the first element of ``hom_basis(m, n)`` whose
    blocks all have full rank.  That suffices: if phi: m -> n is an
    isomorphism, then Hom(m, n) = phi o End(m), and since End(m) is local
    the non-isomorphisms are phi o rad End(m), a proper subspace, which no
    basis lies inside.  Two zero modules give None.
    """
    if m.dims != n.dims:
        return None
    for f in hom_basis(m, n):
        if all(b.rank() == b.nrows for b in f.blocks):
            return f
    return None


def iso_index(indecs, r: Representation):
    """Position of the first module of ``indecs`` isomorphic to r, or None.

    Precondition: every stored module, each one of ``indecs``, is
    indecomposable; r may be any module, zero or decomposable included
    (then the answer is None).  Each stored module with r's dimension
    vector is tested by :func:`_an_isomorphism` with the stored module
    first, which makes the answer exact.
    """
    for k, u in enumerate(indecs):
        if u.dims == r.dims and _an_isomorphism(u, r) is not None:
            return k
    return None


def _register(indecs, r: Representation) -> int:
    """:func:`iso_index` of r in a list of indecomposables, appending r
    first when it is new; r must then be indecomposable too."""
    k = iso_index(indecs, r)
    if k is None:
        k = len(indecs)
        indecs.append(r)
    return k


def decompose(m: Representation):
    """Indecomposable decomposition [(summand, multiplicity), ...].

    Splits along Fitting decompositions of non-invertible, non-nilpotent
    endomorphisms, searching candidates deterministically (End basis, then
    pairwise sums); each summand is the first piece of its class.  Raises
    :class:`DecompositionStalled` if End(m) is not local but no splitting
    is found.
    """
    return m.algebra.memo(("decompose", m), _decompose, m)


def _decompose(m: Representation):
    reps, idents = [], []
    known = {}  # id of a piece -> its class; a repeated piece is one class
    for p in _split_completely(m):
        k = known.get(id(p))
        if k is None:
            k = known[id(p)] = _register(reps, p)
        idents.append(k)
    result = [(rep, idents.count(k)) for k, rep in enumerate(reps)]
    if sum(rep.total_dim * mult for rep, mult in result) != m.total_dim:
        raise ArithmeticError("decomposition does not add up")
    return result


def _split_completely(m: Representation):
    """The pieces of m, split along the first Fitting splitting among the
    End basis, then its pairwise sums, and then each half split in turn
    (:func:`_split_halves`).  A piece listed twice, as the same object,
    stands for two isomorphic summands.

    The End basis is tried before rad End is computed: if End(m) is local,
    every endomorphism is nilpotent or invertible and none splits, and if
    one splits, m is decomposable.  So rad End is computed only for a
    module on which no basis element splits.
    """
    if m.is_zero():
        return []
    basis = hom_basis(m, m)
    d = len(basis)
    if d == 1:
        return [m]  # End(m) = k
    for f in basis:
        halves = _fitting_split(m, f)
        if halves:
            return _split_halves(*halves, d)
    if is_indecomposable(m):
        return [m]
    # the pairwise sums: built one at a time, as tried
    two = m.algebra.field.coerce(2)
    candidates = itertools.chain(
        (basis[i] + basis[j] for i in range(d) for j in range(i + 1, d)),
        (basis[i] + basis[j].scale(two) for i in range(d) for j in range(d) if i != j),
    )
    for f in candidates:
        halves = _fitting_split(m, f)
        if halves:
            return _split_halves(*halves, d)
    raise DecompositionStalled(
        f"End has dim {d}, top dim {d - len(_end_radical(m))} > 1, "
        "but no splitting endomorphism was found"
    )


def _split_halves(k: Representation, img: Representation, d: int):
    """The pieces of k, then those of img, for a Fitting splitting
    m = k + img with dim End(m) = d.

    If the rank test of :func:`_an_isomorphism` finds img = k, then
    End(m) = M_2(End k): d = 4 makes End(k) = k, so both halves are
    indecomposable, and otherwise the pieces of k serve twice, which by
    Krull-Schmidt gives :func:`decompose` the same summands and
    multiplicities.  Either way the pieces of k are listed twice, as the
    same objects, so :func:`decompose` takes the verdict without testing
    again.  The test can miss only when k is decomposable."""
    if _an_isomorphism(k, img) is not None:
        pieces = [k] if d == 4 else _split_completely(k)
        return pieces + pieces
    return _split_completely(k) + _split_completely(img)


def _fitting_split(m: Representation, f: Morphism):
    """[ker f^n, im f^n] (n >= dim m), the halves of m's Fitting splitting
    along f, or None when f is nilpotent or invertible.

    At each vertex ker f_v^k and im f_v^k are stable from k = dim m_v on,
    so each block is raised to its own power of 2 at or above that; the
    squaring stops early at an idempotent block, which every later power
    equals.  The ranks of these blocks reject a nilpotent f (all 0) or an
    invertible one (all full) before any submodule is built.
    """
    n = m.total_dim
    blocks = []
    for b, d in zip(f.blocks, m.dims):
        steps = 1
        while steps < d:
            square = b @ b
            if square == b:
                break
            b = square
            steps *= 2
        blocks.append(b)
    if not 0 < sum(b.rank() for b in blocks) < n:
        return None
    power = Morphism(m, m, blocks, _checked=True)
    k, _k_incl = kernel(power)
    img, _i_incl = image(power)
    if k.total_dim + img.total_dim != n:
        return None  # not yet a Fitting splitting (should not happen)
    return [k, img]


def _summands_match(left, right) -> bool:
    """Whether two decompositions [(indecomposable, multiplicity), ...], each
    with pairwise non-isomorphic summands, agree up to isomorphism."""
    if len(left) != len(right):
        return False
    reps = [rep for rep, _mult in right]
    for rep, mult in left:
        k = iso_index(reps, rep)
        if k is None or right[k][1] != mult:
            return False
    return True


def is_isomorphic(m: Representation, n: Representation) -> bool:
    if m.algebra is not n.algebra or m.dims != n.dims:
        return False
    return _summands_match(decompose(m), decompose(n))


# ---------------------------------------------------------------------------
# annihilators and module classes


def annihilator(m: Representation):
    """Echelon basis (list of element dicts) of Ann(m) = {a : m.a = 0}.

    Computed per parallel class; the union over classes spans the two-sided
    ideal of all annihilating elements.
    """
    a = m.algebra
    fld = a.field
    out = []
    for (src, tgt), idxs in sorted(a.basis_by_class().items()):
        if m.dims[src] == 0 or m.dims[tgt] == 0:
            for i in idxs:
                out.append({a.basis[i]: fld.one()})
            continue
        rows = [m.word_action(a.basis[i]).flatten() for i in idxs]
        mat = Matrix(fld, rows, m.dims[tgt] * m.dims[src])
        for kvec in mat.transpose().kernel_basis():
            elt = {}
            for pos, i in enumerate(idxs):
                c = kvec.rows[pos][0]
                if c != fld.zero():
                    elt[a.basis[i]] = c
            if elt:
                out.append(elt)
    return out


def annihilator_span(m: Representation):
    """Annihilator as a row-span of coordinate vectors."""
    a = m.algebra
    return span_matrix(a.field, [a.coords(e) for e in annihilator(m)], a.dim)


def is_faithful(m: Representation) -> bool:
    return annihilator_span(m).nrows == 0


def is_sincere(m: Representation) -> bool:
    return all(d > 0 for d in m.dims)


def fac_member(x: Representation, m: Representation) -> bool:
    """Whether x lies in Fac(m): some m^r -> x is surjective.

    Equivalent to the trace of m in x being all of x.
    """
    a = x.algebra
    fld = a.field
    homs = hom_basis(m, x)
    for v in range(a.quiver.n_vertices):
        vecs = []
        for f in homs:
            vecs.extend(f.blocks[v].column_vector(j) for j in range(f.blocks[v].ncols))
        if span_matrix(fld, vecs, x.dims[v]).nrows != x.dims[v]:
            return False
    return True


def sub_member(x: Representation, m: Representation) -> bool:
    """Whether x lies in Sub(m): some x -> m^r is injective.

    Equivalent to the joint kernel of all morphisms x -> m being zero.
    """
    homs = hom_basis(x, m)
    for v, d in enumerate(x.dims):
        if d == 0:
            continue
        rows = tuple(row for f in homs for row in f.blocks[v].rows)
        if Matrix._raw(x.algebra.field, rows, d).rank() < d:
            return False
    return True


# ---------------------------------------------------------------------------
# transport along quotients and extensions


def restrict_scalars(m: Representation, b: PresentedAlgebra, image) -> Representation:
    """m as a module over b, through a map b -> m.algebra given on generators.

    The fibre at each vertex of b is m's fibre at the same label, 0 where
    m.algebra has no such vertex; arrow x acts as ``m.element_action(image(x))``,
    or as zero when that image is ``{}`` or a fibre is 0.  b's relations are
    verified on construction.
    """
    a = m.algebra
    q = b.quiver
    dims = [m.dim_at(v) if v in a.quiver.vertex_index else 0 for v in q.vertices]
    maps = []
    for j, ar in enumerate(q.arrows):
        ds, dt = dims[q.arrow_source[j]], dims[q.arrow_target[j]]
        img = image(ar.name)
        maps.append(m.element_action(img) if img and ds and dt else Matrix.zero(b.field, dt, ds))
    return Representation(b, dims, maps)


def inflate_along_quotient(m: Representation, qmap: QuotientMap) -> Representation:
    """View a module over A with the ideal acting as zero as a module over B.

    Verifies that killed vertices carry dimension 0 and that surviving arrow
    actions define a representation of B (relation check included).
    """
    a = qmap.source
    if m.algebra is not a:
        raise ValueError("module is not over the source of the quotient map")
    for v, alive in qmap.vertex_alive.items():
        if not alive and m.dim_at(v) != 0:
            raise ValueError(f"module is supported on killed vertex {v}")
    return restrict_scalars(m, qmap.target, a.arrow_element)


def restrict_along_quotient(m: Representation, qmap: QuotientMap) -> Representation:
    """View a module over B = A/I as a module over A via the surjection."""
    if m.algebra is not qmap.target:
        raise ValueError("module is not over the target of the quotient map")
    return restrict_scalars(m, qmap.source, qmap.arrow_images.__getitem__)


def extend_by_zero(m: Representation, b: PresentedAlgebra) -> Representation:
    """Embed a module of A into mod B when A's quiver is a labeled subquiver.

    All vertices/arrows of B missing from A get dimension 0 / zero maps; B's
    relations are re-verified.
    """
    a = m.algebra
    return restrict_scalars(
        m, b, lambda name: a.arrow_element(name) if name in a.quiver.arrow_index else {}
    )
