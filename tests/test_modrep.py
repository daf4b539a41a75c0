from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tauslice import fixtures as fixdata
from tauslice.exactlin import (
    FieldError, Matrix, PrimeField, QQ, coordinates_in_basis, span_matrix,
)
from tauslice.algebra import CapExceeded, FieldTooSmall, quotient
from tauslice.formats import field_from_spec, parse_algebra_text
from tauslice import algebra as algebra_module
from tauslice import modrep as modrep_module
from tauslice.artheory import ar_quiver, minimal_presentation, projective_cover_data
from tauslice.modrep import (
    Morphism, Representation, end_radical_morphisms, identity_morphism,
    zero_morphism, simple, projective, injective,
    direct_sum, decompose, hom_dim, hom_basis, compose, kernel, image, cokernel,
    radical_rep, socle_rep, top_rep, top_data, submodule,
    is_isomorphic, is_indecomposable, dual,
    annihilator_span, is_faithful, is_sincere, fac_member, sub_member,
    inflate_along_quotient, restrict_along_quotient, extend_by_zero,
    restrict_scalars, iso_index, zero_rep, _an_isomorphism,
)

from helpers import w, rep, dims_multiset
from test_exactlin import FIELDS, sparse_matrices


def test_simple_projective_injective_dims_a3(a3):
    # linear orientation 1 -> 2 -> 3; projectives collect paths starting at v
    assert projective(a3, "1").dims == (1, 1, 1)
    assert projective(a3, "2").dims == (0, 1, 1)
    assert projective(a3, "3").dims == (0, 0, 1)
    assert injective(a3, "1").dims == (1, 0, 0)
    assert injective(a3, "2").dims == (1, 1, 0)
    assert injective(a3, "3").dims == (1, 1, 1)
    for v in a3.quiver.vertices:
        s = simple(a3, v)
        assert sum(s.dims) == 1 and s.dim_at(v) == 1


def test_projective_dims_ex1(ex1):
    assert projective(ex1, "1").dims == (1, 1, 1)
    assert projective(ex1, "2").dims == (1, 2, 1)
    assert projective(ex1, "3").dims == (1, 1, 1)


def test_regular_module_decomposes_into_projectives(a3):
    reg = direct_sum(a3, [projective(a3, v) for v in a3.quiver.vertices])[0]
    assert sum(reg.dims) == a3.dim
    parts = decompose(reg)
    assert sorted((r.dims, k) for r, k in parts) == [
        ((0, 0, 1), 1), ((0, 1, 1), 1), ((1, 1, 1), 1)]


def test_direct_sum_and_multiplicities(a3):
    m = direct_sum(a3, [projective(a3, "1"), simple(a3, "3"), simple(a3, "3")])[0]
    assert m.dims == (1, 1, 3)
    assert sorted((r.dims, k) for r, k in decompose(m)) == [
        ((0, 0, 1), 2), ((1, 1, 1), 1)]


def test_hom_from_projective_counts_fibre(ex2, algebras):
    for name in ("m1", "m2", "m3", "m4"):
        m = fixdata.module(ex2, "ex2", name)
        for v in ex2.quiver.vertices:
            assert hom_dim(projective(ex2, v), m) == m.dim_at(v)


def test_hom_basis_composition(a3):
    p2, p1 = projective(a3, "2"), projective(a3, "1")
    fs = hom_basis(p2, p1)
    assert len(fs) == 1
    gs = hom_basis(p1, simple(a3, "1"))
    assert len(gs) == 1
    assert compose(gs[0], fs[0]).is_zero()  # rad P1 dies in the top


def test_kernel_image_cokernel(a3):
    f = hom_basis(projective(a3, "2"), projective(a3, "1"))[0]
    k, _ = kernel(f)
    assert k.dims == (0, 0, 0)
    img, _ = image(f)
    assert img.dims == (0, 1, 1)
    cok, _ = cokernel(f)
    assert cok.dims == (1, 0, 0)
    assert is_isomorphic(cok, simple(a3, "1"))


def test_radical_socle_top(a3):
    p1 = projective(a3, "1")
    r, _ = radical_rep(p1)
    assert is_isomorphic(r, projective(a3, "2"))
    s, _ = socle_rep(p1)
    assert is_isomorphic(s, simple(a3, "3"))
    t, _ = top_rep(p1)
    assert is_isomorphic(t, simple(a3, "1"))
    td = top_data(p1)
    assert [v for v, _vec in td] == ["1"]


def test_submodule_requires_arrow_stable_spaces(a3):
    p1 = projective(a3, "1")  # dims (1, 1, 1), both arrows act by 1
    none, line = Matrix.zero(QQ, 0, 1), Matrix(QQ, [[1]])
    sub, incl = submodule(p1, [none, line, line])  # rad P1
    assert sub.dims == (0, 1, 1)
    assert is_isomorphic(sub, projective(a3, "2"))
    assert all(b.rank() == b.ncols for b in incl.blocks)
    assert sub.maps[1] == line  # b on the fibres at 2 and 3
    # the top alone is not stable: its image at vertex 2 is not in the span
    with pytest.raises(ValueError, match="arrow-stable"):
        submodule(p1, [line, none, none])


def test_is_isomorphic_separates_same_dims(a3):
    m12 = rep(a3, (1, 1, 0), a=[[1]])
    split = direct_sum(a3, [simple(a3, "1"), simple(a3, "2")])[0]
    assert m12.dims == split.dims
    assert not is_isomorphic(m12, split)
    scaled = rep(a3, (1, 1, 0), a=[[7]])
    assert is_isomorphic(m12, scaled)
    assert is_indecomposable(m12)
    assert not is_indecomposable(split)


def _base_change(v, d):
    """An invertible d x d matrix over Q, not diagonal for d > 1 and a
    different scalar at each vertex v for d = 1 (a scaled Vandermonde)."""
    return Matrix(QQ, [[(v + i + 2) ** (j + 1) for j in range(d)]
                       for i in range(d)], d)


@pytest.mark.parametrize("name", ["ex2", "fig1"])
def test_is_isomorphic_sees_through_base_change(algebras, name):
    a = algebras[name]
    q = a.quiver
    nodes = ar_quiver(a).representatives()
    copies = []
    for x in nodes:
        base = [_base_change(v, d) for v, d in enumerate(x.dims)]
        inv = [b.inverse() for b in base]
        maps = [base[q.arrow_target[j]] @ x.maps[j] @ inv[q.arrow_source[j]]
                for j in range(len(q.arrows))]
        copies.append(Representation(a, x.dims, maps))
    assert any(c != x for c, x in zip(copies, nodes))
    for i, c in enumerate(copies):
        for j, x in enumerate(nodes):
            assert is_isomorphic(c, x) == (i == j), (name, i, j)
            iso = _an_isomorphism(x, c)
            if i != j:
                assert iso is None, (name, i, j)
                continue
            assert iso.source is x and iso.target is c
            assert all(b.inverse() is not None for b in iso.blocks), (name, i)
    # the lookup is exact whatever the query is: a conjugated copy finds its
    # node, while the zero module and a decomposable module find none, even
    # with the dimension vector of a node
    assert [iso_index(nodes, c) for c in copies] == list(range(len(nodes)))
    assert iso_index(nodes, zero_rep(a)) is None
    a3 = algebras["a3"]
    split = direct_sum(a3, [simple(a3, "1"), simple(a3, "2")])[0]
    nodes3 = ar_quiver(a3).representatives()
    assert split.dims == (1, 1, 0)
    assert split.dims in [x.dims for x in nodes3]
    assert iso_index(nodes3, split) is None


def test_dual_exchanges_projective_and_injective(a3):
    op = a3.opposite()
    d = dual(projective(a3, "1"))
    assert d.algebra is op
    assert is_isomorphic(d, injective(op, "1"))
    dd = dual(d)
    # double dual: back over an algebra presenting A, same dims
    assert dd.dims == projective(a3, "1").dims


def test_annihilator_dimension_ex1(ex1):
    m = direct_sum(ex1, [fixdata.module(ex1, "ex1", n) for n in ("m123", "m12", "s1")])[0]
    assert annihilator_span(m).nrows == 4
    assert not is_faithful(m)


def test_annihilator_ex2_is_arrow_ideal(ex2):
    m = direct_sum(ex2, [fixdata.module(ex2, "ex2", n) for n in ("m1", "m2", "m3", "m4")])[0]
    span = annihilator_span(m)
    ideal = ex2.ideal_span([ex2.arrow_element("al")])
    assert span.nrows == ideal.nrows == 1
    assert span.vstack(ideal).rank() == 1  # identical row spaces


def test_sincere_but_not_faithful(fig2):
    m = direct_sum(fig2, [fixdata.module(fig2, "fig2", n) for n in ("i2", "s1", "p3")])[0]
    assert is_sincere(m)
    assert not is_faithful(m)


def test_fac_and_sub_membership(a3):
    p1, i3 = projective(a3, "1"), injective(a3, "3")
    assert fac_member(simple(a3, "1"), p1)
    # every quotient of P1^r has top in add S1, so S3 is not a factor
    assert not fac_member(simple(a3, "3"), p1)
    assert not fac_member(simple(a3, "1"), projective(a3, "2"))
    assert sub_member(simple(a3, "3"), i3)
    assert not sub_member(simple(a3, "1"), i3)
    assert sub_member(projective(a3, "2"), p1)


def test_inflate_restrict_round_trip(ex5_tilde):
    q = ex5_tilde.quiver
    qm = quotient(ex5_tilde, [{w(q, "1", "om"): Fraction(1)}])
    m = fixdata.module(ex5_tilde, "ex5_tilde", "m21")
    down = inflate_along_quotient(m, qm)  # the killed arrow acts as zero on m
    assert down.algebra is qm.target
    back = restrict_along_quotient(down, qm)
    assert is_isomorphic(back, m)
    s = simple(qm.target, "2")
    assert inflate_along_quotient(restrict_along_quotient(s, qm), qm).dims == s.dims


def test_extend_by_zero(ex5_aprime, ex5_a):
    m = fixdata.module(ex5_aprime, "ex5_aprime", "m21")
    big = extend_by_zero(m, ex5_a)
    assert big.algebra is ex5_a
    assert sum(big.dims) == sum(m.dims)
    assert big.dim_at("4") == 0


FINITE = ["a2", "a3", "ex1", "ex2", "fig1", "fig3",
          "ex5_tilde", "ex5_a", "ex5_aprime", "ex5_c"]


@pytest.mark.parametrize("name", FINITE)
def test_restrict_scalars_along_the_identity_gives_the_module_back(algebras, name):
    a = algebras[name]
    for m in ar_quiver(a).representatives():
        assert restrict_scalars(m, a, a.arrow_element) == m


def test_restrict_scalars_gives_missing_vertices_fibre_zero(ex5_aprime, ex5_a):
    m = projective(ex5_aprime, "3")  # e3, be: fibres at 3 and 2
    big = restrict_scalars(m, ex5_a, lambda name: (
        ex5_aprime.arrow_element(name) if name != "de" else {}))
    assert big.algebra is ex5_a
    assert [big.dim_at(v) for v in "1234"] == [0, 1, 1, 0]
    be = ex5_a.quiver.arrow_index["be"]
    assert big.maps[be] == m.maps[ex5_aprime.quiver.arrow_index["be"]]
    assert not big.maps[be].is_zero()


def test_restrict_scalars_acts_by_zero_on_empty_images(a3):
    m = restrict_scalars(projective(a3, "1"), a3, lambda name: {})
    assert m.dims == (1, 1, 1)
    assert all(mat.is_zero() for mat in m.maps)


def test_restrict_scalars_rejects_a_relation_acting_nonzero(a3):
    # P1 over the path algebra has ab acting as 1; over A3/(ab) it must not
    qm = quotient(a3, [{w(a3.quiver, "1", "a", "b"): Fraction(1)}])
    with pytest.raises(ValueError, match="does not annihilate"):
        restrict_scalars(projective(a3, "1"), qm.target, a3.arrow_element)


def test_morphism_rejects_wrong_algebra(a3, a2):
    from tauslice.modrep import Morphism
    s3, s2 = simple(a3, "1"), simple(a2, "1")
    with pytest.raises(ValueError, match="different algebras"):
        Morphism(s3, s2, [Matrix.zero(QQ, d, d) for d in s3.dims])


# ---------------------------------------------------------------------------
# the construction checks skip the arrows and relations that meet a zero
# fibre, where both sides are empty matrices; every other one still rejects


def test_morphism_rejects_a_failed_square_beside_zero_fibres(a3):
    # arrow a starts at the zero fibre at 1; arrow b, 2 -> 3, is still checked
    p2 = rep(a3, (0, 1, 1), b=[[1]])
    blocks = [Matrix.zero(QQ, 0, 0), Matrix(QQ, [[1]]), Matrix.zero(QQ, 1, 1)]
    with pytest.raises(ValueError, match="intertwine arrow b"):
        Morphism(p2, p2, blocks)
    blocks[2] = Matrix(QQ, [[1]])
    assert Morphism(p2, p2, blocks) == identity_morphism(p2)
    # a block over another field is rejected, even where every arrow at its
    # vertex meets a zero fibre
    s1 = simple(a3, "1")
    with pytest.raises(FieldError):
        Morphism(s1, s1, [Matrix(PrimeField(5), [[1]]), Matrix.zero(QQ, 0, 0),
                          Matrix.zero(QQ, 0, 0)])
    # and so is an arrow map over another field, in a representation
    with pytest.raises(ValueError, match="field does not match"):
        Representation(a3, (1, 1, 0), [Matrix(PrimeField(5), [[1]]), Matrix.zero(QQ, 0, 1)])
    ok = Representation(a3, (1, 1, 0), [Matrix(QQ, [[1]]), Matrix.zero(QQ, 0, 1)])
    assert ok.dims == (1, 1, 0)


@pytest.mark.parametrize("dims, vertex", [
    ((1.9, 1), "1"), ((1, True), "2"), ((-1, 1), "1"), (("1", 1), "1"),
    ((1, Fraction(1)), "2"), ((1, 1.0), "2"),
])
def test_representation_rejects_a_dimension_that_is_not_an_int(a2, dims, vertex):
    # refused before any arrow shape is compared, whether or not the
    # relations are checked
    with pytest.raises(ValueError, match=f"at vertex {vertex} is not a non-negative int"):
        Representation(a2, dims, [Matrix(QQ, [[1]], 1)])
    with pytest.raises(ValueError, match=f"at vertex {vertex} is not a non-negative int"):
        Representation(a2, dims, [Matrix(QQ, [[1]], 1)], _checked=True)
    assert Representation(a2, [1, 1], [Matrix(QQ, [[1]], 1)]).dims == (1, 1)
    assert Representation(a2, (0, 0), [Matrix.zero(QQ, 0, 0)]).dims == (0, 0)


def test_relation_check_skips_only_zero_fibres(a3, ex1):
    # over A3/(ab) the relation runs from 1 to 3: a zero fibre at either end
    # leaves nothing to check, and nonzero fibres at both ends are checked
    b = quotient(a3, [{w(a3.quiver, "1", "a", "b"): Fraction(1)}]).target
    assert rep(b, (1, 1, 0), a=[[1]]).dims == (1, 1, 0)
    assert rep(b, (0, 1, 1), b=[[1]]).dims == (0, 1, 1)
    with pytest.raises(ValueError, match="does not annihilate"):
        rep(b, (1, 1, 1), a=[[1]], b=[[1]])
    # over ex1 the loop relation at the zero fibre 3 is skipped; the ones at
    # 1 and 2 are not
    with pytest.raises(ValueError, match="does not annihilate"):
        rep(ex1, (1, 1, 0), al=[[1]], alp=[[1]])
    assert rep(ex1, (1, 1, 0), al=[[1]]).dims == (1, 1, 0)


@pytest.mark.parametrize("name", ["ex1", "fig1", "ex5_tilde"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_construction_checks_match_their_definition(algebras, name, data):
    """Representation and Morphism reject exactly when some relation acts
    nonzero, or some arrow's square fails to commute, over all fibres."""
    a = algebras[name]
    q, f = a.quiver, a.field

    def matrix(nrows, ncols):
        row = st.lists(st.integers(0, 1), min_size=ncols, max_size=ncols)
        return Matrix(f, data.draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols)

    def module():
        dims = [data.draw(st.integers(0, 2)) for _ in q.vertices]
        return dims, [matrix(dims[t], dims[s]) for s, t in zip(q.arrow_source, q.arrow_target)]

    dims, maps = module()
    m = Representation(a, dims, maps, _checked=True)
    acts = [sum((m.word_action(word).scale(c) for word, c in rel.items()),
                Matrix.zero(f, dims[a.word_target(next(iter(rel)))], dims[next(iter(rel))[0]]))
            for rel in a.relations]
    if any(not x.is_zero() for x in acts):
        with pytest.raises(ValueError, match="does not annihilate"):
            Representation(a, dims, maps)
    else:
        assert Representation(a, dims, maps) == m
    n = Representation(a, *module(), _checked=True)
    blocks = [matrix(n.dims[v], m.dims[v]) for v in range(len(q.vertices))]
    squares = [blocks[y] @ m.maps[j] == n.maps[j] @ blocks[x]
               for j, (x, y) in enumerate(zip(q.arrow_source, q.arrow_target))]
    if all(squares):
        assert Morphism(m, n, blocks).blocks == tuple(blocks)
    else:
        with pytest.raises(ValueError, match="intertwine"):
            Morphism(m, n, blocks)


def test_hom_basis_runs_between_its_own_arguments(a3):
    # hom spaces are cached on structural equality; a hit computed for
    # earlier, equal objects must still run from and to the given ones
    p = projective(a3, "2")
    x, y = simple(a3, "2"), simple(a3, "2")
    assert x == y and x is not y
    for n in (x, y):
        homs = hom_basis(p, n)
        assert len(homs) == 1
        assert all(f.source is p and f.target is n for f in homs)
    i = injective(a3, "2")
    for n in (x, y):
        assert all(f.source is n and f.target is i for f in hom_basis(n, i))
    assert [f.blocks for f in hom_basis(p, x)] == [f.blocks for f in hom_basis(p, y)]


@pytest.mark.parametrize("name", ["a3", "fig1", "ex1"])
def test_end_radical_computed_once_per_module(name, monkeypatch):
    # decompose, is_indecomposable and end_radical_morphisms share one
    # rad End(M), and End(M) = k has none to compute (every node of a3 and
    # fig1; one node of ex1 has a 2-dimensional End); the nodes are rebuilt
    # over a fresh algebra, whose caches hold nothing yet
    nodes = ar_quiver(fixdata.algebra(name)).representatives()
    fresh = fixdata.algebra(name)
    calls = []
    original = algebra_module.radical_span

    def counted(sc):
        calls.append(sc.dim)
        return original(sc)

    monkeypatch.setattr(algebra_module, "radical_span", counted)
    monkeypatch.setattr(modrep_module, "radical_span", counted, raising=False)
    for node in nodes:
        m = Representation(fresh, node.dims, node.maps)
        calls.clear()
        assert decompose(m) == [(m, 1)]
        assert is_indecomposable(m)
        assert len(end_radical_morphisms(m)) == len(hom_basis(m, m)) - 1
        assert len(calls) == (0 if len(hom_basis(m, m)) == 1 else 1), node


def intertwining_kernel(m, n):
    """Kernel basis of the dense system f_y M_a = N_a f_x, one equation per
    arrow a: x -> y and entry (i, j); the unknowns are the entries of the
    blocks f_v, in vertex order and row-major."""
    a = m.algebra
    f = a.field
    q = a.quiver
    start, total = [], 0
    for v in range(q.n_vertices):
        start.append(total)
        total += n.dims[v] * m.dims[v]
    rows = []
    for arw in range(len(q.arrows)):
        x, y = q.arrow_source[arw], q.arrow_target[arw]
        ma, na = m.maps[arw], n.maps[arw]
        for i in range(n.dims[y]):
            for j in range(m.dims[x]):
                row = [f.zero()] * total
                for k in range(m.dims[y]):  # (f_y M_a)[i][j]
                    c = start[y] + i * m.dims[y] + k
                    row[c] = f.add(row[c], ma[k][j])
                for k in range(n.dims[x]):  # -(N_a f_x)[i][j]
                    c = start[x] + k * m.dims[x] + j
                    row[c] = f.sub(row[c], na[i][k])
                rows.append(row)
    # the kernel read off the dense RREF here, not by the reader that
    # hom_basis and Matrix.kernel_basis share
    ech, pivots = Matrix(f, rows, total).rref()
    basis = []
    for fc in (j for j in range(total) if j not in pivots):
        v = [f.zero()] * total
        v[fc] = f.one()
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(ech.rows[r][fc])
        basis.append(tuple(v))
    return basis


@pytest.mark.parametrize("field", ["Q", "F5"])
@pytest.mark.parametrize("name", ["ex1", "ex2", "fig1"])
def test_hom_basis_is_the_kernel_of_the_dense_system(name, field):
    a = parse_algebra_text(
        fixdata.path(f"{name}.alg").read_text(),
        None if field == "Q" else field_from_spec(field),
    )
    nodes = ar_quiver(a).representatives()
    sums = [direct_sum(a, [nodes[i], nodes[(i + 1) % len(nodes)]])[0]
            for i in range(0, len(nodes), 3)]
    pairs = [(x, y) for x in nodes for y in nodes]
    pairs += [(s, s) for s in sums] + [(s, nodes[0]) for s in sums]
    pairs += [(nodes[-1], s) for s in sums]
    for x, y in pairs:
        assert [g.flatten() for g in hom_basis(x, y)] == intertwining_kernel(x, y)


LOOP_ALGEBRA = """field Q
vertex 1
vertex 2
arrow x: 1 -> 1
arrow a: 1 -> 2
relation x*x
"""


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_hom_basis_is_the_kernel_of_the_dense_system_on_a_loop(field):
    # on the loop x both sides of f_1 M_x = N_x f_1 meet the same unknowns
    a = parse_algebra_text(LOOP_ALGEBRA, None if field == "Q" else field_from_spec(field))
    q = a.quiver
    mods = [make(a, v) for make in (projective, injective, simple) for v in "12"]
    mods.append(direct_sum(a, mods[:2])[0])
    # copies under an upper unitriangular base change, on which the loop's
    # matrix has nonzero diagonal entries where the two sides collide
    for x in list(mods):
        base = [Matrix(a.field, [[int(j >= i) for j in range(d)] for i in range(d)], d)
                for d in x.dims]
        maps = [base[q.arrow_target[j]] @ x.maps[j] @ base[q.arrow_source[j]].inverse()
                for j in range(len(q.arrows))]
        mods.append(Representation(a, x.dims, maps))
    for x in mods:
        for y in mods:
            assert [g.flatten() for g in hom_basis(x, y)] == intertwining_kernel(x, y)


# ---------------------------------------------------------------------------
# quotients and tops against their textbook constructions


def unit_vector(fld, d, i):
    return tuple(fld.one() if j == i else fld.zero() for j in range(d))


def greedy_completion(fld, vectors, d):
    """Standard vectors e_0, e_1, ... kept when they raise the rank of the
    vectors and of those kept before."""
    rows, out = list(vectors), []
    rank = Matrix(fld, rows, d).rank() if rows else 0
    for i in range(d):
        e = unit_vector(fld, d, i)
        if Matrix(fld, rows + [e], d).rank() > rank:
            rows.append(e)
            out.append(e)
            rank += 1
    return out


def cokernel_by_inverse(f):
    """(maps, proj blocks, section blocks) of f.target / im f: at each vertex
    an echelon basis of the image, its greedy standard completion, and the
    rows of the inverse of [image | completion] that read coordinates along
    the completion."""
    m = f.target
    fld = m.algebra.field
    q = m.algebra.quiver
    projs, secs = [], []
    for v, blk in enumerate(f.blocks):
        d = m.dims[v]
        ech, pivots = blk.transpose().rref()
        image = list(ech.rows[:len(pivots)])
        comp = greedy_completion(fld, image, d)
        inv = Matrix(fld, image + comp, d).transpose().inverse()
        projs.append(inv.submatrix(range(len(image), d), range(d)))
        secs.append(Matrix(fld, comp, d).transpose() if comp else Matrix.zero(fld, d, 0))
    maps = [projs[q.arrow_target[j]] @ m.maps[j] @ secs[q.arrow_source[j]]
            for j in range(len(q.arrows))]
    return maps, projs, secs


def check_cokernel(f):
    quot, proj = cokernel(f)
    maps, projs, secs = cokernel_by_inverse(f)
    assert list(quot.maps) == maps
    assert list(proj.blocks) == projs
    assert proj.source is f.target and proj.target is quot
    assert compose(proj, f).is_zero()
    for pb, sb in zip(proj.blocks, secs):
        assert pb @ sb == Matrix.identity(pb.field, pb.nrows)


def check_kernel(f):
    """kernel(f) against the echelon span of ``kernel_basis`` at each
    vertex, with each arrow map solved for on the inclusions."""
    sub, incl = kernel(f)
    fld = f.source.algebra.field
    q = f.source.algebra.quiver
    spans = [span_matrix(fld, [k.column_vector(0) for k in blk.kernel_basis()], d)
             for blk, d in zip(f.blocks, f.source.dims)]
    assert list(incl.blocks) == [sp.transpose() for sp in spans]
    for j, mat in enumerate(f.source.maps):
        x, y = q.arrow_source[j], q.arrow_target[j]
        assert sub.maps[j] == incl.blocks[y].solve(mat @ incl.blocks[x])
    assert compose(f, incl).is_zero()


def check_socle(m):
    """socle_rep(m) at each vertex: the echelon span of the kernel_basis of
    the arrows leaving it, stacked."""
    fld = m.algebra.field
    q = m.algebra.quiver
    _soc, incl = socle_rep(m)
    for v, d in enumerate(m.dims):
        stacked = Matrix(fld, [row for j, mat in enumerate(m.maps)
                               if q.arrow_source[j] == v for row in mat.rows], d)
        kern = [k.column_vector(0) for k in stacked.kernel_basis()]
        assert incl.blocks[v] == span_matrix(fld, kern, d).transpose()


TWO_POINTS = "field Q\nvertex 1\nvertex 2\n"


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_cokernel_matches_inverse_formula(field, data):
    # on two points without arrows every pair of blocks is a morphism, so
    # the fibres see arbitrary sparse matrices: zero, 0-dimensional, onto
    semi = parse_algebra_text(TWO_POINTS, field)
    dims = [data.draw(st.tuples(st.integers(0, 4), st.integers(0, 4))) for _ in "mn"]
    m, n = (Representation(semi, d, []) for d in dims)
    blocks = [data.draw(sparse_matrices(field, shape=(m.dims[v], n.dims[v])))
              for v in range(2)]
    check_cokernel(Morphism(n, m, blocks))
    check_cokernel(identity_morphism(m))
    # kernel shares cokernel's reversed-column elimination
    check_kernel(Morphism(n, m, blocks))
    # on 1 -> 2 -> 3 the quotient maps come from the arrows as well
    a3 = parse_algebra_text(fixdata.path("a3.alg").read_text(), field)
    dims = [data.draw(st.tuples(*[st.integers(0, 3)] * 3)) for _ in "mn"]
    m, n = (Representation(a3, d, [
        data.draw(sparse_matrices(field, shape=(d[1], d[0]))),
        data.draw(sparse_matrices(field, shape=(d[2], d[1]))),
    ]) for d in dims)
    homs = hom_basis(n, m)
    coeffs = data.draw(st.lists(st.sampled_from([0, 0, 1, 2, -1]),
                                min_size=len(homs), max_size=len(homs)))
    f = zero_morphism(n, m)
    for c, h in zip(coeffs, homs):
        f = f + h.scale(field.coerce(c))
    check_cokernel(f)
    check_cokernel(identity_morphism(m))
    check_cokernel(projective_cover_data(m)[1])
    check_kernel(f)
    check_kernel(projective_cover_data(m)[1])


@pytest.mark.parametrize("field", ["Q", "F5"])
@pytest.mark.parametrize("name", ["ex1", "ex2", "fig1"])
def test_cokernel_matches_inverse_formula_on_ar_nodes(name, field):
    a = parse_algebra_text(
        fixdata.path(f"{name}.alg").read_text(),
        None if field == "Q" else field_from_spec(field),
    )
    for x in ar_quiver(a).representatives():
        check_cokernel(minimal_presentation(x).differential)
        check_cokernel(socle_rep(x)[1])
        check_kernel(minimal_presentation(x).differential)
        check_kernel(projective_cover_data(x)[1])
        check_socle(x)


@pytest.mark.parametrize("field", ["Q", "F5"])
@pytest.mark.parametrize("name", ["ex1", "ex2", "fig1"])
def test_top_data_is_complement_of_radical(name, field):
    a = parse_algebra_text(
        fixdata.path(f"{name}.alg").read_text(),
        None if field == "Q" else field_from_spec(field),
    )
    nodes = ar_quiver(a).representatives()
    mods = nodes + [direct_sum(a, [x, y])[0]
                    for i, x in enumerate(nodes) for y in nodes[i:]]
    for m in mods:
        _rad, incl = radical_rep(m)
        expected = [
            (a.quiver.vertices[v], e)
            for v, blk in enumerate(incl.blocks)
            for e in greedy_completion(a.field, list(zip(*blk.rows)), m.dims[v])
        ]
        assert top_data(m) == expected


def test_presentation_builds_no_radical_and_cokernel_no_inverse(monkeypatch):
    # over a fresh algebra nothing is cached: the presentation's tops come
    # from the arrow images, the cokernel's projection from one echelon form
    a = fixdata.algebra("ex2")
    calls = []
    monkeypatch.setattr(modrep_module, "radical_rep",
                        lambda m: calls.append("radical_rep") or radical_rep(m))
    original_inverse = Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse",
                        lambda self: calls.append("inverse") or original_inverse(self))
    m = fixdata.module(a, "ex2", "m3")
    pres = minimal_presentation(m)
    assert not pres.omega.is_zero()
    cokernel(pres.differential)
    assert calls == []
    # one ProjSum per vertex list: S_v and P_v share the cover's summands,
    # and so do their transposes over the opposite algebra
    for v in a.quiver.vertices:
        s, p = minimal_presentation(simple(a, v)), minimal_presentation(projective(a, v))
        assert s.p0 is p.p0
    assert pres.p0 is minimal_presentation(fixdata.module(a, "ex2", "m3")).p0


# ---------------------------------------------------------------------------
# Fitting splits against the power of the whole morphism


def fitting_by_total_power(m, f):
    """[ker f^N, im f^N] for f squared as a whole up to N = 2^ceil(log2
    dim m), or None when the kernel is 0 or everything."""
    n = m.total_dim
    power, steps = f, 1
    while steps < n:
        power, steps = compose(power, power), 2 * steps
    k = kernel(power)[0]
    if not 0 < k.total_dim < n:
        return None
    return [k, image(power)[0]]


def mesh_middle_terms(a, cap):
    """The middle terms of the almost split sequences that the closure of
    ``a`` (capped at ``cap`` nodes) completed; a closure that stops on a
    cap or on a field too small for the trace form keeps what it finished."""
    try:
        ar_quiver(a, max_nodes=cap)
    except (CapExceeded, FieldTooSmall):
        pass
    return [ass.ses.middle for key, ass in list(a._cache.items())
            if key[0] == "almost_split_sequence"]


@pytest.mark.parametrize("field", ["Q", "F2", "F5"])
@pytest.mark.parametrize("name", ["ex1", "ex2", "fig1", "fig2"])
def test_fitting_split_matches_total_power(name, field):
    a = parse_algebra_text(
        fixdata.path(f"{name}.alg").read_text(),
        None if field == "Q" else field_from_spec(field),
    )
    middles = mesh_middle_terms(a, 24)
    assert middles
    # the candidates _split_completely tries: the End basis, then its
    # pairwise sums
    two = a.field.coerce(2)
    cases = []
    for m in middles:
        basis = hom_basis(m, m)
        d = len(basis)
        cases += [(m, f) for f in basis]
        cases += [(m, basis[i] + basis[j]) for i in range(d) for j in range(i + 1, d)]
        cases += [(m, basis[i] + basis[j].scale(two))
                  for i in range(d) for j in range(d) if i != j]
    # _fitting_split returns the two halves, unsplit
    for m, f in cases:
        assert modrep_module._fitting_split(m, f) == fitting_by_total_power(m, f)


# ---------------------------------------------------------------------------
# isomorphic Fitting halves: decompose against splitting both halves


def _split_both_halves(k, img, d):
    """_split_halves without its rule for isomorphic halves."""
    return modrep_module._split_completely(k) + modrep_module._split_completely(img)


def decomposed_with_and_without_the_rule(a, cap, modules, monkeypatch):
    """Assert that decompose gives the same list, when _split_halves splits
    both halves, for each of ``modules`` and each module that the closure
    of ``a``, capped at ``cap`` nodes, decomposed.  Return (dim End m,
    whether the halves are isomorphic) for each Fitting split made with
    the rule."""
    splits = []
    rule = modrep_module._split_halves

    def recording(k, img, d):
        splits.append((d, _an_isomorphism(k, img) is not None))
        return rule(k, img, d)

    monkeypatch.setattr(modrep_module, "_split_halves", recording)
    try:
        ar_quiver(a, max_nodes=cap)
    except CapExceeded:
        pass
    done = {key[1]: hit for key, hit in a._cache.items() if key[0] == "decompose"}
    done.update((m, decompose(m)) for m in modules)
    assert done
    for m in done:
        del a._cache["decompose", m]
    monkeypatch.setattr(modrep_module, "_split_halves", _split_both_halves)
    for m, hit in done.items():
        assert decompose(m) == hit
    return splits


def powers_and_sums(a):
    """Y^2, Y^3, Y^4 and Y + Z for a few indecomposables Y, Z of ``a``,
    among them a Y with the largest End."""
    nodes = ar_quiver(a).representatives()
    widest = max(range(len(nodes)), key=lambda i: len(hom_basis(nodes[i], nodes[i])))
    out = []
    for i in sorted({0, len(nodes) // 2, len(nodes) - 1, widest}):
        y, z = nodes[i], nodes[(i + 1) % len(nodes)]
        out += [direct_sum(a, [y] * e)[0] for e in (2, 3, 4)]
        out.append(direct_sum(a, [y, z])[0])
    return out


FINITE_FIXTURES = ["a2", "a3", "ex1", "ex2", "fig1", "fig3",
                   "ex5_tilde", "ex5_a", "ex5_aprime", "ex5_c"]


def load(name, field):
    return parse_algebra_text(fixdata.path(f"{name}.alg").read_text(),
                              None if field == "Q" else field_from_spec(field))


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_isomorphic_halves_rule_keeps_decompose(name, monkeypatch):
    a = load(name, "Q")
    splits = decomposed_with_and_without_the_rule(a, 512, powers_and_sums(a), monkeypatch)
    # Y^2 of a Y with End = k splits into isomorphic halves with
    # dim End = 4.  Y^4 splits as Y^3 + Y first (the End basis starts with
    # a rank-one idempotent), so dim End > 4 with isomorphic halves comes
    # from Y^2 of a Y with a larger End: ex1 has one, End of dim 2
    assert (4, True) in splits
    assert any(d > 4 and iso for d, iso in splits) == (name == "ex1")


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_split_halves_splits_both_when_they_differ(name):
    # Y against rad Y + top Y: the same dimension vector, not isomorphic,
    # in either order, so the pieces of each half are its own
    a = load(name, "Q")
    tried = 0
    for y in ar_quiver(a).representatives():
        r = radical_rep(y)[0]
        if r.is_zero():
            continue
        z = direct_sum(a, [r, top_rep(y)[0]])[0]
        m = direct_sum(a, [y, z])[0]
        d = len(hom_basis(m, m))
        for k, img in ((y, z), (z, y)):
            assert modrep_module._split_halves(k, img, d) == _split_both_halves(k, img, d)
        tried += 1
    assert tried


@pytest.mark.parametrize("field, cap", [("Q", 24), ("F5", 32)])
def test_isomorphic_halves_rule_keeps_fig2_closure(field, cap, monkeypatch):
    splits = decomposed_with_and_without_the_rule(load("fig2", field), cap, [], monkeypatch)
    assert (4, True) in splits


def test_fitting_split_stops_at_idempotents(monkeypatch):
    # every module that decompose splits, or finds unsplittable, in the
    # closures of the fixtures (fig2 capped at 24 nodes), against the power
    # of the whole morphism, on every End basis element
    met = []
    original = modrep_module._split_completely

    def recording(m):
        met.append(m)
        return original(m)

    monkeypatch.setattr(modrep_module, "_split_completely", recording)
    for name in FINITE_FIXTURES:
        ar_quiver(load(name, "Q"))
    with pytest.raises(CapExceeded):
        ar_quiver(load("fig2", "Q"), max_nodes=24)
    monkeypatch.undo()
    cases = [(m, f) for m in met for f in hom_basis(m, m)]
    # their blocks are nilpotent of index at most 2 where not idempotent:
    # add a nilpotent Jordan block of size 3 next to an idempotent and next
    # to an invertible part, on S1^4 of a3 (End = M_4(k))
    a = load("a3", "Q")
    s4 = direct_sum(a, [simple(a, "1")] * 4)[0]
    empty = Matrix.zero(a.field, 0, 0)
    for last in (1, 2):
        jordan = Matrix(a.field, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, last]])
        cases.append((s4, Morphism(s4, s4, [jordan, empty, empty])))
    idempotent = 0
    for m, f in cases:
        halves = modrep_module._fitting_split(m, f)
        assert halves == fitting_by_total_power(m, f)
        idempotent += halves is not None and compose(f, f) == f
    assert idempotent


def test_isomorphic_halves_are_tested_once(monkeypatch):
    # Y + Y with End(Y) = k: the rank test of _split_halves, and no second
    # one when decompose registers the halves
    a = load("a3", "Q")
    y = projective(a, "1")
    m = direct_sum(a, [y, y])[0]
    tests = []
    monkeypatch.setattr(modrep_module, "_an_isomorphism",
                        lambda u, v: tests.append(u) or _an_isomorphism(u, v))
    (piece, mult), = decompose(m)
    assert mult == 2 and _an_isomorphism(piece, y) is not None
    assert len(tests) == 1


def test_hom_coordinates_on_a_full_hom_are_the_vectors():
    a = load("a3", "Q")
    s1, s2 = simple(a, "1"), simple(a, "2")
    m = direct_sum(a, [s1, s1, s2])[0]
    n = direct_sum(a, [s1, s2, s2])[0]
    basis = hom_basis(m, n)
    assert len(basis) == 4  # every block entry: 1 x 2 at vertex 1, 2 x 1 at 2
    vectors = [(1, Fraction(1, 2), 0, -3), (0, 0, 0, 0), (5, 0, 7, 1)]
    co = modrep_module._hom_coordinates(m, n, basis, vectors)
    assert co.rows == tuple(vectors)
    assert co == coordinates_in_basis(modrep_module._flat_matrix(m, n, basis), vectors)
    with pytest.raises(ValueError, match="vector length differs from 4"):
        modrep_module._hom_coordinates(m, n, basis, [(1, 2, 3)])


def test_hom_coordinates_outside_a_hom_that_is_not_full_are_none():
    a = load("a3", "Q")
    p = projective(a, "1")
    basis = hom_basis(p, p)
    assert len(basis) == 1  # End(P1) = k, of the 3 block entries
    assert modrep_module._hom_coordinates(p, p, basis, [(1, 0, 0)]) is None
    assert modrep_module._hom_coordinates(p, p, basis, [(2, 2, 2)]).rows == ((2,),)


def test_submodule_checks_arrows_into_an_empty_fibre():
    # P1 of a2 is 1 -> 1 with the identity: the fibre at 1 alone is not
    # stable, the fibre at 2 alone is
    a = load("a2", "Q")
    p = projective(a, "1")
    full, empty = Matrix.identity(a.field, 1), Matrix.zero(a.field, 0, 1)
    with pytest.raises(ValueError, match="not arrow-stable"):
        submodule(p, [full, empty])
    s, incl = submodule(p, [empty, full])
    assert s.dims == (0, 1) and s.maps[0] is Matrix.zero(a.field, 1, 0)
    assert incl.blocks == (Matrix.zero(a.field, 1, 0), full)
