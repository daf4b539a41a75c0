"""Auslander-Reiten theory: translates, extensions, meshes, AR quivers.

The translate is computed exactly from a minimal projective presentation
P1 -> P0 -> M -> 0:  writing the presentation matrix with entries in the
corner spaces e_v A e_u, the transpose Tr M is the cokernel of the induced
map between projectives over the opposite algebra, and tau M = D Tr M.
Almost split sequences come from the simple socle of Ext^1(M, tau M) as a
module over End(M).
"""

from __future__ import annotations

import itertools

from .algebra import (
    Bimodule,
    CapExceeded,
    NotBasic,
    PresentedAlgebra,
    Record,
    StructureConstants,
    quiverize,
)
from .exactlin import (
    Matrix,
    coordinates_in_basis,
    leading_columns,
    null_space,
    read_coordinates,
    span_matrix,
)
from .modrep import (
    Morphism,
    Representation,
    cokernel,
    compose,
    decompose,
    dual,
    hom_basis,
    identity_morphism,
    injective,
    kernel,
    projective,
    radical_rep,
    simple,
    socle_rep,
    top_data,
    zero_morphism,
    zero_rep,
    end_radical_morphisms,
    iso_index,
    _an_isomorphism,
    _descend,
    _direct_sum_rep,
    _end_radical,
    _flat_matrix,
    _full_hom,
    _hom_coordinates,
    _linear_combinations,
    _morphism_from_vector,
)


class SocleNotOneDimensional(ArithmeticError):
    """The End-socle of Ext^1(M, tau M) is not simple; no almost split
    sequence can be extracted (input was not indecomposable non-projective,
    or the ground field is too small)."""


# ---------------------------------------------------------------------------
# projective covers and minimal presentations


class ProjSum:
    """Direct sum of indecomposable projectives with path-indexed fibres.

    ``vertex_list`` gives the projective summands (vertex labels, with
    multiplicity, in order).  The fibre of the sum at a vertex w has basis
    indexed by pairs (summand position k, reduced word: vertex_list[k] -> w),
    ordered by summand then by the algebra's basis order.
    """

    def __init__(self, algebra: PresentedAlgebra, vertex_list):
        self.algebra = algebra
        self.vertex_list = [str(v) for v in vertex_list]
        q = algebra.quiver
        self.fibre_index = {}  # (k, word) -> position in fibre of target(word)
        fibre_count = [0] * q.n_vertices
        self.fibre_words = {w: [] for w in range(q.n_vertices)}
        for k, v in enumerate(self.vertex_list):
            vi = q.vertex_index[v]
            for word in algebra.basis:
                if word[0] != vi:
                    continue
                tgt = algebra.word_target(word)
                self.fibre_index[(k, word)] = fibre_count[tgt]
                self.fibre_words[tgt].append((k, word))
                fibre_count[tgt] += 1
        self.dims = tuple(fibre_count)
        # each summand's fibres are ordered as projective() orders them
        self.rep = _direct_sum_rep(algebra, [projective(algebra, v) for v in self.vertex_list])

    def generator_position(self, k):
        """Fibre position of the generator e_v of summand k (at vertex v)."""
        q = self.algebra.quiver
        vi = q.vertex_index[self.vertex_list[k]]
        return vi, self.fibre_index[(k, (vi, ()))]

    def component_elements(self, vertex, vec):
        """Decompose a fibre vector at ``vertex`` into per-summand elements.

        Returns dict k -> element dict of the algebra (paths from
        vertex_list[k] to ``vertex``).
        """
        fld = self.algebra.field
        out = {}
        for (k, word) in self.fibre_words[vertex]:
            c = vec[self.fibre_index[(k, word)]]
            if c != fld.zero():
                out.setdefault(k, {})[word] = c
        return out


def _proj_sum(algebra: PresentedAlgebra, vertex_list) -> ProjSum:
    """The ProjSum of ``vertex_list``, one per list, memoised by
    :meth:`PresentedAlgebra.memo`; callers share it and must not mutate it."""
    labels = tuple(str(v) for v in vertex_list)
    return algebra.memo(("projsum", labels), ProjSum, algebra, labels)


class Presentation(Record):
    """Minimal projective presentation P1 -> P0 -> M -> 0."""

    __slots__ = (
        "module",
        "p0",
        "cover",  # P0 -> M, projective cover
        "omega",  # ker(cover)
        "omega_incl",  # omega -> P0
        "p1",  # cover of omega
        "p1_cover",  # P1 -> omega
        "differential",  # P1 -> P0
    )


def projective_cover_data(m: Representation):
    """(ProjSum P0, cover morphism P0 -> m).

    The cover sends the basis word y of summand k to y acting on the k-th
    top vector.  The basis words are prefix-closed, so a word's value is
    its last arrow's matrix times its prefix's value: one product per word
    length and last arrow gives the values of all those words.
    """
    a = m.algebra
    fld = a.field
    tops = top_data(m)
    ps = _proj_sum(a, [v for v, _vec in tops])
    q = a.quiver
    value = {}  # (k, word) -> the column of word acting on top vector k
    steps = {}  # (length, last arrow) -> the (k, word) of the longer words
    for key in ps.fibre_index:
        k, (src, arrows) = key
        if arrows:
            steps.setdefault((len(arrows), arrows[-1]), []).append(key)
        else:
            value[key] = tops[k][1]
    for (_length, j), keys in sorted(steps.items()):
        cols = [value[(k, (src, arrows[:-1]))] for k, (src, arrows) in keys]
        prod = m.maps[j] @ Matrix._raw(fld, tuple(zip(*cols)), len(cols))
        value.update(zip(keys, zip(*prod.rows) if prod.nrows else [()] * len(keys)))
    blocks = []
    for w in range(q.n_vertices):
        cols = [value[key] for key in ps.fibre_words[w]]
        if cols:
            blocks.append(Matrix._raw(fld, tuple(zip(*cols)), len(cols)))
        else:
            blocks.append(Matrix.zero(fld, m.dims[w], 0))
    cover = Morphism(ps.rep, m, blocks, _checked=False)
    for w in range(q.n_vertices):
        if cover.blocks[w].rank() != m.dims[w]:
            raise ArithmeticError("projective cover is not surjective")
    return ps, cover


def _retarget(f: Morphism, target: Representation) -> Morphism:
    """The same blocks as f, into an equal (structurally identical) target."""
    return Morphism(f.source, target, f.blocks, _checked=True)


def minimal_presentation(m: Representation) -> Presentation:
    """The minimal projective presentation of m; ``module`` is m itself.

    It is memoised by :meth:`PresentedAlgebra.memo`, which matches on
    structural equality, so a hit may have been computed for an earlier,
    equal object; it is re-anchored on m.  A hit computed for m itself is
    returned as is.
    """
    hit = m.algebra.memo(("presentation", m), _presentation, m)
    if hit.module is m:
        return hit
    return Presentation(
        m, hit.p0, _retarget(hit.cover, m), hit.omega, hit.omega_incl,
        hit.p1, hit.p1_cover, hit.differential,
    )


def _presentation(m: Representation) -> Presentation:
    p0, cover = projective_cover_data(m)
    omega, om_incl = kernel(cover)
    p1, p1_cover = projective_cover_data(omega)
    return Presentation(m, p0, cover, omega, om_incl, p1, p1_cover,
                        compose(om_incl, p1_cover))


def syzygy(m: Representation, power: int = 1) -> Representation:
    out = m
    for _ in range(power):
        if out.is_zero():
            return out
        out = minimal_presentation(out).omega
    return out


def syzygy_map(f: Morphism, src: Presentation, tgt: Presentation) -> Morphism:
    """Omega(f): src.omega -> tgt.omega for f: src.module -> tgt.module.

    f o cover_src lifts through cover_tgt to some hat f: P0 -> P0', whose
    coordinates in the basis of Hom(P0, P0') are the solution with its free
    variables set to 0; Omega(f) is the restriction of hat f to the
    syzygies, read along the target's syzygy basis (the :func:`null_space`
    rows of its inclusion).  Omega^2(f) is Omega of Omega(f), on the next
    presentations.
    """
    basis = hom_basis(src.p0.rep, tgt.p0.rep)
    coords = coordinates_in_basis(
        _flat_matrix(src.p0.rep, tgt.module, [compose(tgt.cover, h) for h in basis]),
        [compose(f, src.cover).flatten()],
    )
    if coords is None:
        raise ArithmeticError("morphism does not lift through the covers")
    hat, = _linear_combinations(src.p0.rep, tgt.p0.rep, basis, coords.rows)
    blocks = []
    for v in range(len(src.omega.dims)):
        # the columns of hat o incl along the columns of the target's incl
        fibre = tgt.omega_incl.blocks[v].transpose()
        sol = read_coordinates(
            fibre, leading_columns(fibre),
            (src.omega_incl.blocks[v].transpose() @ hat.blocks[v].transpose()).rows,
        )
        if sol is None:
            raise ArithmeticError("cover lift does not preserve the syzygy")
        blocks.append(sol.transpose())
    return Morphism(src.omega, tgt.omega, blocks, _checked=False)


def is_projective_rep(m: Representation) -> bool:
    """Whether m is projective: its projective cover P(top m) -> m is onto,
    so it is an isomorphism exactly when both have the same dimension."""
    a = m.algebra
    return sum(projective(a, v).total_dim for v, _vec in top_data(m)) == m.total_dim


def is_injective_rep(m: Representation) -> bool:
    return is_projective_rep(dual(m))


def projective_dimension_at_most(m: Representation, d: int) -> bool:
    return syzygy(m, d + 1).is_zero()


def is_hereditary(a: PresentedAlgebra) -> bool:
    """Every radical of an indecomposable projective is projective."""
    for v in a.quiver.vertices:
        rad, _incl = radical_rep(projective(a, v))
        if not is_projective_rep(rad):
            return False
    return True


# ---------------------------------------------------------------------------
# transpose and the translate


def _left_multiplication(src: ProjSum, tgt: ProjSum, entries) -> Morphism:
    """The map src.rep -> tgt.rep sending (i, y) to the sum of (j, x * y)
    over the pairs (j, x) in ``entries[i]``.

    (i, y) is the fibre word y of summand i; each x is an element of the
    algebra in normal form, and a product x * y is read from the memoised
    table ``mult_basis``.
    """
    a = src.algebra
    fld = a.field
    blocks = []
    for w in range(a.quiver.n_vertices):
        rows_basis = tgt.fibre_words[w]
        cols_basis = src.fibre_words[w]
        mat = [[fld.zero()] * len(cols_basis) for _ in rows_basis]
        for cpos, (i, word) in enumerate(cols_basis):
            wi = a.basis_index[word]
            for j, x in entries.get(i, ()):
                prod = [fld.zero()] * a.dim
                for b, c in x.items():
                    for t, y in enumerate(a.mult_basis(a.basis_index[b], wi)):
                        if y:
                            prod[t] = fld.add(prod[t], fld.mul(c, y))
                for t, c in enumerate(prod):
                    if c:
                        rpos = tgt.fibre_index.get((j, a.basis[t]))
                        if rpos is None:
                            raise ArithmeticError("product escaped the fibre basis")
                        mat[rpos][cpos] = fld.add(mat[rpos][cpos], c)
        blocks.append(Matrix._raw(fld, tuple(map(tuple, mat)), len(cols_basis)))
    return Morphism(src.rep, tgt.rep, blocks, _checked=False)


def _presentation_entries(pres: Presentation):
    """The nonzero entries of the presentation P1 -> P0, with
    P1 = + e_{u_j}A and P0 = + e_{v_i}A, as triples (i, j, x_ij): the
    differential sends the generator of summand j to the sum over i of
    x_ij in e_{v_i} A e_{u_j}, an element of the algebra in normal form.
    """
    p0, p1, d = pres.p0, pres.p1, pres.differential
    for j in range(len(p1.vertex_list)):
        vtx, pos = p1.generator_position(j)
        col = d.blocks[vtx].column_vector(pos)
        for i, elt in p0.component_elements(vtx, col).items():
            yield i, j, elt


def _dual_differential(m: Representation):
    """(P0*, P1*, d*): the dual of m's minimal presentation P1 -> P0 -> m,
    whose cokernel is Tr m.

    With the presentation entries x_ij in e_{v_i} A e_{u_j}
    (:func:`_presentation_entries`), d*: + P^op_{v_i} -> + P^op_{u_j} is
    left multiplication with the reversed entries, built by
    :func:`_left_multiplication`.
    """
    a = m.algebra
    op = a.opposite()
    pres = minimal_presentation(m)

    # the entries reversed into A^op once each and grouped by i
    entries = {}
    for i, j, elt in _presentation_entries(pres):
        entries.setdefault(i, []).append((j, a.reverse_element(elt)))

    p0_dual = _proj_sum(op, pres.p0.vertex_list)
    p1_dual = _proj_sum(op, pres.p1.vertex_list)
    return p0_dual, p1_dual, _left_multiplication(p0_dual, p1_dual, entries)


def _hom_to_tau_vanishes(n: Representation, m: Representation) -> bool:
    """Whether Hom(n, tau m) = 0, by one rank and without tau m.

    By Adachi-Iyama-Reiten (tau-tilting theory, Prop. 2.4), for the
    minimal projective presentation P1 -> P0 -> m, Hom(n, tau m) = 0 iff
    Hom(P0, n) -> Hom(P1, n), composing with the differential, is onto.  A
    presentation that is not minimal can make that map fail to be onto
    while Hom(n, tau m) vanishes, so this reads m's minimal one.  By
    Yoneda, Hom(e_v A, n) is the fibre n_v, and the map has block (j, i)
    from n_{v_i} to n_{u_j} the action on n of the entry x_ij
    (:func:`_presentation_entries`): the sum of c times the action of
    each word of x_ij with coefficient c.  It is onto iff its rank is its
    number of rows.
    """
    # only P0, P1 and the differential are read, and they do not depend on
    # which equal module a memo hit was built for: no re-anchoring on m
    pres = m.algebra.memo(("presentation", m), _presentation, m)
    q, fld = n.algebra.quiver, n.algebra.field
    heights = [n.dims[q.vertex_index[u]] for u in pres.p1.vertex_list]
    widths = [n.dims[q.vertex_index[v]] for v in pres.p0.vertex_list]
    nrows, ncols = sum(heights), sum(widths)
    if nrows > ncols:
        return False
    if not nrows:
        return True
    row_at = list(itertools.accumulate([0] + heights))
    col_at = list(itertools.accumulate([0] + widths))
    mat = [[fld.zero()] * ncols for _ in range(nrows)]
    entries = m.algebra.memo(("presentation_entries", m),
                             lambda: tuple(_presentation_entries(pres)))
    for i, j, elt in entries:
        if not (heights[j] and widths[i]):
            continue
        block = None
        for word, c in elt.items():
            term = n.word_action(word).scale(c)
            block = term if block is None else block + term
        for r, row in enumerate(block.rows):
            mat[row_at[j] + r][col_at[i]:col_at[i + 1]] = row
    return Matrix._raw(fld, tuple(map(tuple, mat)), ncols).rank() == nrows


def transpose(m: Representation) -> Representation:
    """Tr M over the opposite algebra: the cokernel of d*: P0* -> P1*, the
    dual of M's minimal presentation (:func:`_dual_differential`).

    Tr is a duality on minimal presentations: when M has no projective
    summand, P0* -> P1* -> Tr M -> 0 is minimal again, and Tr Tr M = M
    (Assem-Simson-Skowronski, vol. 1, IV.2).  :func:`tau_inverse` keeps
    that presentation; :func:`tau`, whose callers read none of it, builds
    only the cokernel.
    """
    _p0, _p1, dstar = _dual_differential(m)
    return cokernel(dstar)[0]


def tau(m: Representation) -> Representation:
    """Auslander-Reiten translate D Tr; kills projective summands."""
    return m.algebra.memo(("tau", m), lambda: dual(transpose(m)))


def tau_inverse(m: Representation) -> Representation:
    """Inverse translate Tr D; kills injective summands.

    Tr D m is the cokernel of d*: P0* -> P1* (:func:`transpose`).  When m
    has no injective summand, D m has no projective one, so
    P0* -> P1* -> Tr D m -> 0 is a minimal presentation.  It is memoised by
    :meth:`PresentedAlgebra.memo` as the presentation of the result, which
    the almost split sequence ending there reads, after an exact check
    (:func:`_is_minimal`); otherwise it is not kept.
    """
    return m.algebra.memo(("tau_inverse", m), _tau_inverse, m)


def _tau_inverse(m: Representation) -> Representation:
    p0_dual, p1_dual, dstar = _dual_differential(dual(m))
    tr, proj = cokernel(dstar)
    if _is_minimal(p0_dual, p1_dual, dstar):
        tr.algebra.memo(("presentation", tr), _transposed_presentation,
                        p1_dual, proj, p0_dual, dstar)
    return tr


def _is_minimal(src: ProjSum, tgt: ProjSum, d: Morphism) -> bool:
    """Whether src -> tgt -> coker d -> 0, along d: src.rep -> tgt.rep, is a
    minimal presentation: ker d and im d lie in the radicals, that is, no
    kernel vector has a coordinate at a generator of src and no image
    vector one at a generator of tgt."""
    for k in range(len(tgt.vertex_list)):
        v, pos = tgt.generator_position(k)
        if any(d.blocks[v].rows[pos]):
            return False
    gens = {}  # vertex -> the fibre positions of src's generators there
    for k in range(len(src.vertex_list)):
        v, pos = src.generator_position(k)
        gens.setdefault(v, []).append(pos)
    fld = src.algebra.field
    for v, positions in gens.items():
        _keep, kern = null_space(fld, d.blocks[v].rows, src.dims[v])
        if any(row[pos] for row in kern.rows for pos in positions):
            return False
    return True


def _transposed_presentation(p0: ProjSum, cover: Morphism, p1: ProjSum,
                             d: Morphism) -> Presentation:
    """The presentation p1 -> p0 -> cover.target along d, with the syzygy
    ker(cover) = im d and p1's cover of it read off d."""
    omega, incl = kernel(cover)
    blocks = []
    for v, blk in enumerate(d.blocks):
        basis = incl.blocks[v].transpose()
        co = read_coordinates(basis, leading_columns(basis), blk.transpose().rows)
        if co is None:
            raise ArithmeticError("the differential leaves the syzygy")
        blocks.append(co.transpose())
    return Presentation(cover.target, p0, cover, omega, incl, p1,
                        Morphism(p1.rep, omega, blocks, _checked=True), d)


def tau_power(m: Representation, k: int) -> Representation:
    out = m
    for _ in range(abs(k)):
        out = tau(out) if k > 0 else tau_inverse(out)
    return out


# ---------------------------------------------------------------------------
# Ext groups


class ExtData(Record):
    """Ext^d(m, n) presented on Hom(Omega^d m, n).

    ``classes`` and ``proj`` are :func:`null_space` of the coboundaries (the
    classes that extend to P_{d-1}) in hom coordinates: cocycle k is hom
    basis element ``classes[k]``, and row k of ``proj`` is the class
    coordinate k of a hom-coordinate vector.  When ``full``, Hom is every
    family of blocks (:func:`_full_hom`): its basis is the unit morphisms in
    order and a morphism's hom coordinates are its flattened entries, so
    the cocycles are built alone and the hom basis is not built at all.
    """

    __slots__ = (
        "source",
        "target",
        "degree",
        "omega",
        "omega_incl",  # Omega^d -> P_{d-1}
        "penultimate",  # P_{d-1}
        "full",
        "classes",
        "proj",
    )

    @property
    def dim(self):
        return len(self.classes)

    @property
    def hom(self):
        """The hom basis, ``hom_basis(omega, target)``."""
        return hom_basis(self.omega, self.target)

    def _hom_elements(self, positions) -> list:
        """The hom basis elements at ``positions``; on a full Hom the unit
        morphisms at those block entries, built alone."""
        if not self.full:
            hom = self.hom
            return [hom[i] for i in positions]
        z, o = self.proj.field.zero(), self.proj.field.one()
        return [
            _morphism_from_vector(
                self.omega, self.target, [o if j == i else z for j in range(self.proj.ncols)]
            )
            for i in positions
        ]

    def cocycle(self, coords) -> Morphism:
        """The cocycle with the given class coordinates, combining only the
        hom basis elements they use."""
        used = [(i, c) for i, c in zip(self.classes, coords) if c]
        return _linear_combinations(
            self.omega, self.target, self._hom_elements([i for i, _c in used]),
            [[c for _i, c in used]],
        )[0]

    def basis_cocycles(self) -> list:
        """The cocycles of the class basis."""
        return self._hom_elements(self.classes)

    def matrix_of(self, cocycles) -> Matrix:
        """Class coordinates of the given cocycles, as the columns of a
        dim x len(cocycles) matrix: ``proj`` times their hom coordinates,
        all read at once."""
        fld = self.source.algebra.field
        if not self.classes or not cocycles:
            return Matrix.zero(fld, self.dim, len(cocycles))
        if self.full:
            if any(f.source != self.omega or f.target != self.target for f in cocycles):
                raise ValueError("morphism does not lie in Hom(Omega^d, n)")
            co = _flat_matrix(self.omega, self.target, cocycles)
        else:
            co = _hom_coordinates(
                self.omega, self.target, self.hom, [f.flatten() for f in cocycles]
            )
            if co is None:
                raise ValueError("morphism does not lie in Hom(Omega^d, n)")
        return self.proj @ co.transpose()


def ext_data(m: Representation, n: Representation, degree: int = 1) -> ExtData:
    """Ext^d(m, n) on Hom(Omega^d m, n), modulo the coboundaries.

    The coboundaries are the restrictions along Omega^d -> P_{d-1} of
    Hom(P_{d-1}, n), which the Yoneda basis spans without a solve:
    Hom(e_v A, n) = n_v, so for each generator k of P_{d-1} and each basis
    vector e of n at its vertex, psi_(k, e) sends generator k to e, the
    other generators to 0, and (k, word) to n.word_action(word) e.
    Their blocks are built by rows, one product per vertex where summand k
    meets nonzero fibres of Omega^d and n, and zeros elsewhere.  When Hom is
    full (:func:`_full_hom`), as for the semisimple syzygies of a
    radical-square-zero algebra, the restrictions are their own hom
    coordinates and no hom basis is built.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    a = m.algebra
    fld = a.field
    cur = m
    for _ in range(degree - 1):
        cur = syzygy(cur)
    if cur.is_zero():
        z = zero_rep(a)
        return ExtData(m, n, degree, z, zero_morphism(z, z), z, True, [], Matrix.zero(fld, 0, 0))
    pres = minimal_presentation(cur)
    omega, incl, pen = pres.omega, pres.omega_incl, pres.p0.rep
    full = _full_hom(omega, n)
    hom = None if full else hom_basis(omega, n)
    size = sum(do * dn for do, dn in zip(omega.dims, n.dims)) if full else len(hom)
    if not size:
        return ExtData(m, n, degree, omega, incl, pen, full, [], Matrix.zero(fld, 0, 0))
    # the restrictions psi_(k, e) o incl: at each vertex w, row (e, i) of
    # one product for all e is row i of the block of psi_(k, e) o incl; a
    # block with no row, no column or no word of summand k at w is 0
    p0, q = pres.p0, a.quiver
    z = fld.zero()
    own = {w: {} for w in p0.fibre_words}  # w -> k -> [(position, word)]
    for w, fibre in p0.fibre_words.items():
        for pos, (k, word) in enumerate(fibre):
            own[w].setdefault(k, []).append((pos, word))
    acts = {}
    restrictions = []
    for k, v in enumerate(p0.vertex_list):
        dv = n.dims[q.vertex_index[v]]
        if not dv:
            continue  # no psi_(k, e)
        flat = [[] for _ in range(dv)]
        for w in p0.fibre_words:
            dw, dom = n.dims[w], omega.dims[w]
            mine = own[w].get(k)
            if not (dw and dom and mine):
                zeros = (z,) * (dw * dom)
                for vec in flat:
                    vec.extend(zeros)
                continue
            for _p, word in mine:
                if word not in acts:
                    acts[word] = n.word_action(word).rows
            lhs = tuple(tuple(acts[word][i][e] for _p, word in mine)
                        for e in range(dv) for i in range(dw))
            rhs = incl.blocks[w].submatrix([p for p, _w in mine], range(dom))
            rows = (Matrix._raw(fld, lhs, len(mine)) @ rhs).rows
            for e, vec in enumerate(flat):
                for row in rows[e * dw:(e + 1) * dw]:
                    vec.extend(row)
        restrictions += flat
    # their hom coordinates, at once
    if not full:
        co = _hom_coordinates(omega, n, hom, restrictions)
        if co is None:
            raise ArithmeticError("restriction escaped Hom(Omega, n)")
        restrictions = co.rows
    classes, proj = null_space(fld, restrictions, size)
    return ExtData(m, n, degree, omega, incl, pen, full, classes, proj)


def ext_dim(m: Representation, n: Representation, degree: int = 1) -> int:
    return ext_data(m, n, degree).dim


class ShortExactSequence(Record):
    __slots__ = (
        "sub",
        "middle",
        "quot",
        "left_map",  # sub -> middle
        "right_map",  # middle -> quot
    )

    def verify(self):
        f, g = self.left_map, self.right_map
        if self.middle.total_dim != self.sub.total_dim + self.quot.total_dim:
            raise ArithmeticError("middle dimension is off")
        for v in range(len(self.sub.dims)):
            if f.blocks[v].rank() != self.sub.dims[v]:
                raise ArithmeticError("left map not injective")
            if g.blocks[v].rank() != self.quot.dims[v]:
                raise ArithmeticError("right map not surjective")
        if not compose(g, f).is_zero():
            raise ArithmeticError("composite not zero")
        return True


def realize_extension(ext: ExtData, coords) -> ShortExactSequence:
    """The pushout short exact sequence n -> E -> m of an Ext^1 class.

    E = (n + P0) / {(-phi(w), w) : w in Omega} for the cocycle with the
    given class coordinates.
    """
    if ext.degree != 1:
        raise ValueError("realization only for degree 1")
    m, n = ext.source, ext.target
    a = m.algebra
    phi = ext.cocycle(coords)
    pres = minimal_presentation(m)
    big = _direct_sum_rep(a, [n, pres.p0.rep])
    graft = Morphism(
        ext.omega,
        big,
        [
            (phi.blocks[v].scale(a.field.coerce(-1))).vstack(ext.omega_incl.blocks[v])
            for v in range(a.quiver.n_vertices)
        ],
        _checked=False,
    )
    e, proj = cokernel(graft)
    # proj o (inclusion of n): the first n_v columns of each block
    left_map = Morphism(n, e, [
        blk.submatrix(range(blk.nrows), range(d)) for blk, d in zip(proj.blocks, n.dims)
    ], _checked=True)
    # right map: (0 | cover): big -> m descends through the quotient
    zero_cover = Morphism(big, m, [
        Matrix.zero(a.field, m.dims[v], n.dims[v]).hstack(pres.cover.blocks[v])
        for v in range(a.quiver.n_vertices)
    ], _checked=True)
    ses = ShortExactSequence(n, e, m, left_map, _descend(zero_cover, proj))
    ses.verify()
    return ses


# ---------------------------------------------------------------------------
# almost split sequences


class AlmostSplitSequence(Record):
    """0 -> left -> E -> right -> 0, with E = ``ses.middle``.

    ``middle_summands`` is ``decompose(E)``, [(rep, mult)], which
    :func:`decompose` memoises: E is decomposed only when they are read.
    """

    __slots__ = (
        "ses",
        "left",  # tau(right)
        "right",
    )

    @property
    def middle_summands(self):
        return decompose(self.ses.middle)


def almost_split_sequence(m: Representation) -> AlmostSplitSequence:
    """The almost split sequence 0 -> tau m -> E -> m -> 0.

    Requires m indecomposable non-projective.  The class is the socle
    generator of Ext^1(m, tau m) under the right End(m)-action
    [phi].g = [phi o Omega(g)].  When Ext^1(m, tau m) is a line, rad End(m),
    nilpotent, acts on it by 0, so the socle is all of it and rad End(m) is
    not computed.  The sequence is memoised by
    :meth:`PresentedAlgebra.memo` and ends at m itself: a hit computed for an
    earlier, equal object is re-anchored on m, and shares tau m and E with
    it; a hit computed for m itself is returned as is.  E is not decomposed
    here (see :class:`AlmostSplitSequence`).
    """
    hit = m.algebra.memo(("almost_split_sequence", m), _almost_split_sequence, m)
    if hit.right is m:
        return hit
    old = hit.ses
    ses = ShortExactSequence(
        old.sub, old.middle, m, old.left_map, _retarget(old.right_map, m)
    )
    return AlmostSplitSequence(ses, hit.left, m)


def _almost_split_sequence(m: Representation) -> AlmostSplitSequence:
    # m is projective exactly when its projective cover is onto with kernel
    # 0; tau(m) builds and memoises this presentation first anyway
    if m.is_zero() or minimal_presentation(m).omega.is_zero():
        raise ValueError("almost split sequences end at non-projective modules")
    t = tau(m)
    ext = ext_data(m, t, 1)
    if ext.dim == 0:
        raise ArithmeticError("Ext^1(m, tau m) vanishes; m cannot be indecomposable")
    fld = m.algebra.field
    d = ext.dim
    if d == 1:
        coords = (fld.one(),)
    else:
        pres = minimal_presentation(m)
        rad_end = end_radical_morphisms(m)
        # the action matrices of all of rad End(m), side by side, from one
        # batched call; the socle is their common kernel (all of
        # Ext^1(m, tau m) when End(m) = k and there are none)
        basis = ext.basis_cocycles()
        omegas = [syzygy_map(g, pres, pres) for g in rad_end]
        side = ext.matrix_of([compose(phi, w) for w in omegas for phi in basis])
        stacked = Matrix._raw(fld, tuple(
            row[k * d:(k + 1) * d] for k in range(len(rad_end)) for row in side.rows
        ), d)
        kern = stacked.kernel_basis()
        if len(kern) != 1:
            raise SocleNotOneDimensional(
                f"socle of Ext^1(m, tau m) has dimension {len(kern)} (expected 1); "
                "is m indecomposable?"
            )
        coords = tuple(kern[0].rows[i][0] for i in range(d))
    ses = realize_extension(ext, coords)
    return AlmostSplitSequence(ses, ses.sub, m)


# ---------------------------------------------------------------------------
# the AR arrows at a module


def _radical_summands(p: Representation):
    """The summands of rad p, [(rep, mult)]: the sources of the AR arrows
    into the projective p."""
    rad, _incl = radical_rep(p)
    return decompose(rad)


def _socle_quotient_summands(i: Representation):
    """The summands of i/soc i, [(rep, mult)]: the targets of the AR arrows
    out of the injective i.  Memoised by :meth:`PresentedAlgebra.memo` on
    structural equality; callers share the list and must not mutate it."""
    return i.algebra.memo(("socle_quotient", i),
                          lambda: decompose(cokernel(socle_rep(i)[1])[0]))


def local_out_neighbors(x: Representation):
    """Targets of the AR-quiver arrows out of x, with multiplicities.

    For non-injective x these are the middle summands of the almost split
    sequence starting at x, the one ending at tau^{-1} x; for injective x
    the summands of x/soc x.  The tuple is memoised by
    :meth:`PresentedAlgebra.memo` on structural equality.
    """
    return x.algebra.memo(("out_neighbors", x), _out_neighbors, x)


def _out_neighbors(x: Representation):
    if is_injective_rep(x):
        return tuple(_socle_quotient_summands(x))
    return tuple(almost_split_sequence(tau_inverse(x)).middle_summands)


def local_in_neighbors(y: Representation):
    """Sources of the AR-quiver arrows into y, with multiplicities.

    For non-projective y the middle summands of the almost split sequence
    ending at y; for projective y the summands of rad y.  The tuple is
    memoised by :meth:`PresentedAlgebra.memo` on structural equality.
    """
    return y.algebra.memo(("in_neighbors", y), _in_neighbors, y)


def _in_neighbors(y: Representation):
    if is_projective_rep(y):
        return tuple(_radical_summands(y))
    return tuple(almost_split_sequence(y).middle_summands)


# ---------------------------------------------------------------------------
# the AR quiver


class ARNode:
    __slots__ = ("ident", "rep", "projective_label", "injective_label")

    def __init__(self, ident: int, rep: Representation):
        self.ident = ident
        self.rep = rep
        self.projective_label = None  # set by ar_quiver for e_v A
        self.injective_label = None  # set by ar_quiver for D(A e_v)


class ARQuiver:
    """The Auslander-Reiten quiver of a representation-finite algebra.

    Nodes are iso-classes of indecomposables (stable ids in discovery order:
    projectives, injectives, simples, then mesh closure); the ids are the
    CLI's ``node:K`` selectors, so the discovery order must not change.
    ``arrows`` maps (source id, target id) to the multiplicity of irreducible
    maps, and ``successors`` maps a source id to {target id: multiplicity}
    of the arrows recorded out of it; neither is in a meaningful order.
    ``tau_link`` maps a non-projective node to its translate's node and
    ``meshes`` to the almost split sequence ending at it.  Every mesh is
    computed once, over the algebra itself: the arrows out of a node X come
    from the sequence ending at tau^{-1} X.  A node's representative is the
    module that first showed its class: a projective, injective or simple,
    a summand from ``decompose``, or, for a middle summand named by a
    prediction (see :func:`ar_quiver`), the translate tau^{-1} Z or tau W
    that the closure computed for its neighbour.
    """

    def __init__(self, algebra):
        self.algebra = algebra
        self.nodes: list[ARNode] = []
        self.arrows: dict = {}
        self.successors: dict = {}
        self.tau_link: dict = {}
        self.meshes: dict = {}

    def find(self, rep):
        return iso_index(self.representatives(), rep)

    def add(self, rep):
        ident = self.find(rep)
        if ident is not None:
            return ident, False
        ident = len(self.nodes)
        self.nodes.append(ARNode(ident, rep))
        return ident, True

    def set_arrow(self, src, tgt, mult):
        old = self.arrows.get((src, tgt))
        if old is not None and old != mult:
            raise ArithmeticError(
                f"inconsistent multiplicity for arrow {src}->{tgt}: {old} vs {mult}"
            )
        self.arrows[(src, tgt)] = mult
        self.successors.setdefault(src, {})[tgt] = mult

    @property
    def count(self):
        return len(self.nodes)

    def representatives(self):
        return [n.rep for n in self.nodes]


def _isomorphic_to_sum(e: Representation, summands) -> bool:
    """Whether e is isomorphic to the direct sum of ``summands``,
    [(Y, mult)] with pairwise non-isomorphic indecomposables Y, shown by an
    explicit isomorphism.

    When the dimension vectors add up, one map + Y^mult -> e is built from
    elements of ``hom_basis(Y, e)``: for each Y in turn, the first basis
    elements that keep the columns chosen so far independent at every
    vertex, until mult are chosen.  If every Y gets its mult, the blocks are
    square of full rank, so the map is an isomorphism and, by Krull-Schmidt,
    the summands and multiplicities are ``decompose(e)``'s.  False means
    only that no isomorphism was found this way.
    """
    dims = [0] * len(e.dims)
    for y, mult in summands:
        dims = [d + mult * dy for d, dy in zip(dims, y.dims)]
    if tuple(dims) != e.dims:
        return False
    fld = e.algebra.field
    cols = [() for _ in e.dims]  # per vertex, the chosen columns as rows
    for y, mult in summands:
        need = mult
        for f in hom_basis(y, e):
            trial = [c + f.blocks[v].transpose().rows if y.dims[v] else c
                     for v, c in enumerate(cols)]
            if all(Matrix._raw(fld, t, e.dims[v]).rank() == len(t)
                   for v, t in enumerate(trial) if y.dims[v]):
                cols = trial
                need -= 1
                if not need:
                    break
        if need:
            return False
    return True


def ar_quiver(a: PresentedAlgebra, max_nodes: int = 512, max_dim: int = 64) -> ARQuiver:
    """Mesh closure of projectives, injectives and simples.

    Each mesh is linked once.  A node popped after its mesh was linked
    from its translate's side records the memoised sequence without
    admitting its ends and middle summands again, and a node whose tau^{-1}
    node is already linked does not compute tau^{-1}.  Either admission
    could only find existing nodes, so the nodes, their ids and the work
    order are what linking twice gives.

    A mesh tau X -> E -> X is knitted when it can be (Ringel, LNM 1099,
    2.4).  First the arrows recorded out of tau X so far, each ending at a
    middle summand with its multiplicity, are certified by
    :func:`_isomorphic_to_sum` as a decomposition of E; the targets are
    nodes already.  Failing that, the prediction adds the summands named
    from both sides of the mesh: tau^{-1} Z for each recorded arrow
    Z -> tau X with Z neither injective nor linked, and tau W for each
    arrow X -> W with W neither projective nor tau-linked, with the
    arrow's multiplicity.  The arrows X -> W are those recorded, or, for
    an injective X, whose mesh is linked before they are, the summands W
    of X/soc X.  Named summands that are nodes join the known ones; when
    at most one is new and the whole prediction is certified, the new one
    is admitted, which gives it the id that admitting ``decompose``'s
    summands would.  Otherwise E is decomposed
    and its summands admitted.  Either way the nodes, ids, arrows and
    ``tau_link`` are the same; only the representative of a predicted node
    differs: it is the translate itself.  Each tau^{-1} Z is kept for the
    closure, which reads it again for Z's own mesh instead of computing
    tau^{-1} twice, and tau W is the memoised translate that W's almost
    split sequence reads.

    Each translate and presentation is computed once.  When a node X that
    is not injective admits tau^{-1} X, tau of that node is memoised as X
    itself: tau tau^{-1} X = X, and the hypothesis holds, as every
    injective indecomposable is seeded under its label.  The sequence
    ending at tau^{-1} X then starts at X and runs no transpose, and it
    reads the presentation that :func:`tau_inverse` kept.

    Raises :class:`CapExceeded` when more than ``max_nodes`` iso-classes or a
    module of total dimension beyond ``max_dim`` appears (the algebra is then
    possibly representation-infinite).  Memoised by
    :meth:`PresentedAlgebra.memo` per pair of caps.
    """
    return a.memo(("ar_quiver", max_nodes, max_dim), _ar_closure, a, max_nodes, max_dim)


def _ar_closure(a: PresentedAlgebra, max_nodes: int, max_dim: int) -> ARQuiver:
    g = ARQuiver(a)
    work = []
    for v in a.quiver.vertices:
        ident, new = g.add(projective(a, v))
        g.nodes[ident].projective_label = v
        if new:
            work.append(ident)
    for v in a.quiver.vertices:
        ident, new = g.add(injective(a, v))
        g.nodes[ident].injective_label = v
        if new:
            work.append(ident)
    for v in a.quiver.vertices:
        ident, new = g.add(simple(a, v))
        if new:
            work.append(ident)

    def admit(rep):
        if rep.total_dim > max_dim:
            raise CapExceeded(
                f"indecomposable of dimension {rep.total_dim} exceeds cap {max_dim}; "
                "possibly representation-infinite"
            )
        ident, new = g.add(rep)
        if g.count > max_nodes:
            raise CapExceeded(
                f"more than {max_nodes} iso-classes; possibly representation-infinite"
            )
        if new:
            work.append(ident)
        return ident

    linked = {}  # node -> the node of its tau^{-1}, once their mesh is linked
    inverses = {}  # node -> tau^{-1} of its representative, once computed

    def predict(left, right, known):
        """The middle summands that Ringel's knitting rule names beyond
        ``known`` (node -> multiplicity, completed in place by those that
        are nodes already), as [(rep, multiplicity)], or None when none is
        named.  An arrow Z -> tau X names tau^{-1} Z, and an arrow X -> W
        names tau W, with the arrow's multiplicity; a linked Z, an
        injective Z, a tau-linked W and a projective W name nothing."""
        named = []
        for (z, t), mult in g.arrows.items():
            if t == left and z not in linked and g.nodes[z].injective_label is None:
                if z not in inverses:
                    inverses[z] = tau_inverse(g.nodes[z].rep)
                named.append((inverses[z], mult))
        if g.nodes[right].injective_label is None:
            outs = [(g.nodes[w].rep, mult) for w, mult in g.successors.get(right, {}).items()
                    if w not in g.tau_link and g.nodes[w].projective_label is None]
        else:
            # the arrows out of an injective are recorded after its mesh
            # is linked, so they are read off I/soc I here; a summand that
            # is no node yet is not projective, as every projective is one
            outs = []
            for y, mult in _socle_quotient_summands(g.nodes[right].rep):
                w = g.find(y)
                if w is None:
                    outs.append((y, mult))
                elif w not in g.tau_link and g.nodes[w].projective_label is None:
                    outs.append((g.nodes[w].rep, mult))
        named += [(tau(y), mult) for y, mult in outs]
        if not named:
            return None
        fresh = []
        for y, mult in named:
            ident = g.find(y)
            if ident is None:
                fresh.append((y, mult))
            else:
                known[ident] = mult
        return fresh

    def mesh(left, right, ass):
        g.tau_link[right] = left
        linked[left] = right
        e = ass.ses.middle
        links = dict(g.successors.get(left, {}))

        def summands():
            return [(g.nodes[t].rep, k) for t, k in links.items()]

        if not _isomorphic_to_sum(e, summands()):
            fresh = predict(left, right, links)
            # two new summands are left to decompose, which admits them in
            # its own order
            if fresh is not None and len(fresh) <= 1 and _isomorphic_to_sum(
                    e, summands() + fresh):
                links.update((admit(y), mult) for y, mult in fresh)
            else:
                links = {admit(y): mult for y, mult in ass.middle_summands}
        for mid, mult in links.items():
            g.set_arrow(left, mid, mult)
            g.set_arrow(mid, right, mult)

    processed = set()
    while work:
        ident = work.pop(0)
        if ident in processed:
            continue
        processed.add(ident)
        node = g.nodes[ident]
        rep = node.rep
        if node.projective_label is not None:
            for summand, mult in _radical_summands(rep):
                g.set_arrow(admit(summand), ident, mult)
        else:
            ass = almost_split_sequence(rep)
            g.meshes[ident] = ass
            if ident not in g.tau_link:
                mesh(admit(ass.left), ident, ass)
        if node.injective_label is not None:
            for summand, mult in _socle_quotient_summands(rep):
                g.set_arrow(ident, admit(summand), mult)
        elif ident not in linked:
            # the mesh of tau^{-1} X's own representative: a fresh tau^{-1} X
            # may be an isomorphic copy, on which the cache would miss
            right = admit(inverses[ident] if ident in inverses else tau_inverse(rep))
            # tau tau^{-1} X is X, as X is not injective: every injective
            # indecomposable is a node with its label
            a.memo(("tau", g.nodes[right].rep), lambda: rep)
            mesh(ident, right, almost_split_sequence(g.nodes[right].rep))
    return g


# ---------------------------------------------------------------------------
# radicals of the module category


def radical_hom_basis(x: Representation, y: Representation):
    """Basis of rad(x, y) for indecomposables x, y.

    rad(x, y) is all of Hom when x and y are non-isomorphic, and rad End(x)
    otherwise.
    """
    if x == y:
        return end_radical_morphisms(x)
    iso = _an_isomorphism(x, y)
    if iso is None:
        return hom_basis(x, y)
    # transport rad End(y) along the iso x -> y
    return [compose(r, iso) for r in end_radical_morphisms(y)]


# ---------------------------------------------------------------------------
# endomorphism algebras and the associated functors


class EndAlgebraResult(Record):
    """End(M) of a basic module, presented as a bound quiver algebra.

    ``summands[i]`` corresponds to vertex i of the presentation (labels are
    1-based positions by default).  ``block_basis[(i, j)]`` is the hom basis
    of e_i B e_j = Hom(M_j, M_i).  ``arrow_morphisms[name]`` realises an
    arrow of the presentation as a module morphism M_j -> M_i.
    """

    __slots__ = (
        "module",
        "summands",
        "algebra",
        "block_basis",
        "arrow_morphisms",
    )

    def hom_functor(self, x: Representation) -> Representation:
        """Hom_A(M, x) as a right module over End(M)."""
        b = self.algebra
        fibre_bases = [hom_basis(s, x) for s in self.summands]
        maps = []
        for ar in b.quiver.arrows:
            i = b.quiver.vertex_index[ar.source]
            j = b.quiver.vertex_index[ar.target]
            f_b = self.arrow_morphisms[ar.name]  # M_j -> M_i
            # the composites phi o f_b: M_j -> x, along Hom(M_j, x)
            co = _hom_coordinates(
                self.summands[j], x, fibre_bases[j],
                [compose(phi, f_b).flatten() for phi in fibre_bases[i]],
            )
            if co is None:
                raise ArithmeticError("hom functor: composite escaped the basis")
            maps.append(co.transpose())
        return Representation(b, [len(fb) for fb in fibre_bases], maps)

    # -- tensor side --------------------------------------------------

    def tensor_functor(self, y: Representation):
        """(y (x)_B M, proj) as a right A-module.

        The tensor product is the cokernel of ``rel``, whose target
        + y_i (x) M_i holds dim y_i copies of each M_i, and whose source
        holds one copy of M_j per arrow b: i -> j of End(M) and basis vector
        e of y_i, sent to y.b (x) m - e (x) b.m.  Memoised by End(M)'s
        :meth:`PresentedAlgebra.memo`, on structural equality: the result
        does not refer to y.
        """
        if y.algebra is not self.algebra:
            raise ValueError("tensor argument is not a module over End(M)")
        return self.algebra.memo(("tensor", y), self._tensor, y)

    def _tensor(self, y: Representation):
        a = self.module.algebra
        b = self.algebra
        fld = a.field
        ms = self.summands
        arrows = [
            (b.quiver.vertex_index[ar.source], b.quiver.vertex_index[ar.target],
             y.maps[k].rows, self.arrow_morphisms[ar.name])
            for k, ar in enumerate(b.quiver.arrows)
        ]
        target = _direct_sum_rep(a, [s for s, d in zip(ms, y.dims) for _ in range(d)])
        source = _direct_sum_rep(a, [ms[j] for i, j, _yb, _f in arrows for _ in range(y.dims[i])])
        blocks = []
        for v in range(a.quiver.n_vertices):
            offsets = list(itertools.accumulate((d * s.dims[v] for s, d in zip(ms, y.dims)), initial=0))
            rows = [[fld.zero()] * source.dims[v] for _ in range(target.dims[v])]
            col = 0
            for i, j, yb, f in arrows:
                mi, mj = ms[i].dims[v], ms[j].dims[v]
                fv = f.blocks[v].rows
                for e in range(y.dims[i]):
                    for e_m in range(mj):
                        for r in range(y.dims[j]):
                            if yb[r][e]:
                                pos = offsets[j] + r * mj + e_m
                                rows[pos][col] = fld.add(rows[pos][col], yb[r][e])
                        for r in range(mi):
                            if fv[r][e_m]:
                                pos = offsets[i] + e * mi + r
                                rows[pos][col] = fld.sub(rows[pos][col], fv[r][e_m])
                        col += 1
            blocks.append(Matrix._raw(fld, tuple(map(tuple, rows)), source.dims[v]))
        return cokernel(Morphism(source, target, blocks, _checked=True))

    def tensor_on_map(self, g: Morphism) -> Morphism:
        """g (x) id between the tensor images of g's source and target."""
        a = self.module.algebra
        fld = a.field
        z = fld.zero()
        _src, s_proj = self.tensor_functor(g.source)
        _tgt, t_proj = self.tensor_functor(g.target)
        # g (x) id on + y_i (x) M_i is block-diagonal over i: an entry x of
        # g_i becomes x.I of size dim (M_i)_v
        lifted = []
        for v in range(a.quiver.n_vertices):
            kron = [
                Matrix._raw(fld, tuple(
                    tuple(x if k == e else z for x in grow for k in range(s.dims[v]))
                    for grow in gi.rows for e in range(s.dims[v])
                ), gi.ncols * s.dims[v])
                for gi, s in zip(g.blocks, self.summands)
            ]
            lifted.append(t_proj.blocks[v] @ Matrix.block_diagonal(fld, kron))
        return _descend(Morphism(s_proj.source, t_proj.target, lifted, _checked=True), s_proj)

    def tensor_is_zero(self, y: Representation) -> bool:
        return self.tensor_functor(y)[0].is_zero()

    def tor1(self, y: Representation) -> Representation:
        """Tor_1^B(y, M) as a right A-module."""
        k, _incl = kernel(self.tensor_on_map(minimal_presentation(y).omega_incl))
        return k

    def tor1_is_zero(self, y: Representation) -> bool:
        return self.tor1(y).is_zero()


def end_algebra(m: Representation, labels=None) -> EndAlgebraResult:
    """Present End_A(M) of a basic module as a bound quiver algebra.

    Vertex i of the presentation corresponds to the i-th indecomposable
    summand (decomposition discovery order); the basis of e_i B e_j is
    Hom(M_j, M_i) and multiplication is composition.
    """
    decomp = decompose(m)
    if any(mult > 1 for _s, mult in decomp):
        raise NotBasic("module is not basic (repeated indecomposable summand)")
    summands = [s for s, _mult in decomp]
    fld = m.algebra.field
    n = len(summands)

    block_basis = {}
    layout = []
    start = {}  # block -> index of its first basis element in the layout
    for i in range(n):
        for j in range(n):
            basis = hom_basis(summands[j], summands[i])
            block_basis[(i, j)] = basis
            start[(i, j)] = len(layout)
            for pos in range(len(basis)):
                layout.append((i, j, pos))
    dim = len(layout)
    index_of = {t: k for k, t in enumerate(layout)}

    # the product of basis elements f in block (i, j) and g in block
    # (j, ell) lies in block (i, ell): one coordinate call per block, for
    # all its products and, on the diagonal, the identity of M_i
    z = (fld.zero(),) * dim
    table = [[z] * dim for _ in range(dim)]
    idems = []
    for i in range(n):
        for ell in range(n):
            places, vectors = [], []
            for j in range(n):
                for p, f in enumerate(block_basis[(i, j)]):
                    for qq, g in enumerate(block_basis[(j, ell)]):
                        places.append((index_of[(i, j, p)], index_of[(j, ell, qq)]))
                        vectors.append(compose(f, g).flatten())
            if i == ell:
                vectors.append(identity_morphism(summands[i]).flatten())
            basis = block_basis[(i, ell)]
            co = _hom_coordinates(summands[ell], summands[i], basis, vectors)
            if co is None:
                raise ArithmeticError("End is not closed under composition")
            s0 = start[(i, ell)]
            embedded = [z[:s0] + row + z[s0 + len(basis):] for row in co.rows]
            for (r, c), vec in zip(places, embedded):
                table[r][c] = vec
            if i == ell:
                idems.append(embedded[-1])
    sc = StructureConstants(fld, dim, tuple(tuple(row) for row in table))
    # rad End(M) is every Hom(M_j, M_i) with i != j and rad End(M_i) on
    # the diagonal
    units = Matrix.identity(fld, dim).rows
    radical = [units[k] for k, (i, j, _pos) in enumerate(layout) if i != j]
    for i in range(n):
        s0, size = start[(i, i)], len(block_basis[(i, i)])
        radical += [z[:s0] + row + z[s0 + size:] for row in _end_radical(summands[i])]
    if labels is None:
        labels = [str(i + 1) for i in range(n)]
    qr = quiverize(sc, idems, radical, labels=labels, arrow_prefix="b")

    arrow_morphisms = {}
    for ar in qr.algebra.quiver.arrows:
        ai = qr.algebra.quiver.arrow_index[ar.name]
        word = (qr.algebra.quiver.arrow_source[ai], (ai,))
        coords = qr.path_images[word]
        i = qr.algebra.quiver.vertex_index[ar.source]
        j = qr.algebra.quiver.vertex_index[ar.target]
        if any(c and layout[k][:2] != (i, j) for k, c in enumerate(coords)):
            raise ArithmeticError("arrow representative is not block-pure")
        basis = block_basis[(i, j)]
        row = [coords[index_of[(i, j, pos)]] for pos in range(len(basis))]
        arrow_morphisms[ar.name], = _linear_combinations(summands[j], summands[i], basis, [row])
    return EndAlgebraResult(m, summands, qr.algebra, block_basis, arrow_morphisms)


# ---------------------------------------------------------------------------
# the relation-extension bimodule Ext^2(DC, C)


def _regular_left_multiplication(ps: ProjSum, elt) -> Morphism:
    """x -> elt * x on the regular module ``ps`` (one summand per vertex,
    in vertex order): e_s * elt * e_t carries summand t into summand s."""
    a = ps.algebra
    parts = {}
    for word, c in a.normal_form(elt).items():
        parts.setdefault(a.word_target(word), {}).setdefault(word[0], {})[word] = c
    return _left_multiplication(ps, ps, {t: list(p.items()) for t, p in parts.items()})


def relation_extension_bimodule(c: PresentedAlgebra) -> Bimodule:
    """E = Ext^2_C(DC, C) with its C-C-bimodule structure.

    The left action of elt post-composes with left multiplication by elt
    on the regular module C.  The right action pre-composes with the second
    syzygy lift of elt acting on DC = D(C^op) from the left; since
    (elt * psi)(x) = psi(x * elt), that action is the dual of left
    multiplication by the reversed elt on the regular module of C^op.  For
    a hereditary algebra E = 0; the trivial extension by E is the relation
    extension of C.
    """
    fld = c.field
    ps = _proj_sum(c, c.quiver.vertices)
    ps_op = _proj_sum(c.opposite(), c.quiver.vertices)
    dc = dual(ps_op.rep)
    ext = ext_data(dc, ps.rep, 2)
    dim = ext.dim
    if dim == 0:
        zero = Matrix.zero(fld, 0, 0)
        left = {("e", v): zero for v in c.quiver.vertices}
        left.update({("arrow", ar.name): zero for ar in c.quiver.arrows})
        right = {("e", v): zero for v in c.quiver.vertices}
        right.update({("arrow", ar.name): zero for ar in c.quiver.arrows})
        return Bimodule(c, 0, left, right, {})

    pres1 = minimal_presentation(dc)
    pres2 = minimal_presentation(pres1.omega)

    basis = ext.basis_cocycles()

    def left_matrix(elt):
        lam = _regular_left_multiplication(ps, elt)
        return ext.matrix_of([compose(lam, phi) for phi in basis])

    def right_matrix(elt):
        lam_op = _regular_left_multiplication(ps_op, c.reverse_element(elt))
        eta = Morphism(dc, dc, [b.transpose() for b in lam_op.blocks], _checked=False)
        omega2 = syzygy_map(syzygy_map(eta, pres1, pres1), pres2, pres2)
        return ext.matrix_of([compose(phi, omega2) for phi in basis])

    left = {}
    right = {}
    for v in c.quiver.vertices:
        left[("e", v)] = left_matrix(c.idempotent(v))
        right[("e", v)] = right_matrix(c.idempotent(v))
    for ar in c.quiver.arrows:
        left[("arrow", ar.name)] = left_matrix(c.arrow_element(ar.name))
        right[("arrow", ar.name)] = right_matrix(c.arrow_element(ar.name))
    bim = Bimodule(c, dim, left, right, {})
    bim.check()
    return bim


def _action_rep(alg: PresentedAlgebra, action, dim, side) -> Representation:
    """The representation of alg on k^dim cut out by a one-sided action.

    The fibre at v is the image of ``action[("e", v)]``; an arrow acts by
    ``action[("arrow", name)]`` restricted to its source fibre.
    """
    fld = alg.field
    fibres = []
    for v in alg.quiver.vertices:
        proj = action[("e", v)]
        cols = [proj.column_vector(j) for j in range(proj.ncols)]
        fibres.append(span_matrix(fld, cols, dim))
    units = [leading_columns(f) for f in fibres]
    maps = []
    for ar in alg.quiver.arrows:
        x = alg.quiver.vertex_index[ar.source]
        y = alg.quiver.vertex_index[ar.target]
        # the images of the source fibre's basis, along the target fibre's
        imgs = fibres[x] @ action[("arrow", ar.name)].transpose()
        co = read_coordinates(fibres[y], units[y], imgs.rows)
        if co is None:
            raise ArithmeticError(f"{side} action does not respect the grading")
        maps.append(co.transpose())
    return Representation(alg, [f.nrows for f in fibres], maps)


def bimodule_right_rep(bim: Bimodule) -> Representation:
    """The underlying right module of a bimodule, as a representation."""
    return _action_rep(bim.algebra, bim.right, bim.dim, "right")


def bimodule_dual_left_rep(bim: Bimodule) -> Representation:
    """D(_C Q): the dual of the left structure, as a right C-module.

    The left structure of Q is a right module over C^op, with fibres cut
    out by the left idempotents; dualising transposes the action.
    """
    return dual(_action_rep(bim.algebra.opposite(), bim.left, bim.dim, "left"))
