from fractions import Fraction

import pytest

from tauslice import fixtures as fixdata
from tauslice import artheory as artheory_module
from tauslice.algebra import (
    CapExceeded, PresentedAlgebra, ideal_bimodule, split_extension, presentation_isomorphism,
    _act_on_vector,
)
from tauslice.formats import field_from_spec, parse_algebra_text, print_algebra
from tauslice.exactlin import Matrix, coordinates_in_basis, span_matrix
from tauslice.modrep import (
    Representation, simple, projective, injective, direct_sum, decompose, hom_dim,
    hom_basis, compose, is_isomorphic, fac_member, sub_member, dual, cokernel, Morphism,
    identity_morphism, iso_index, top_data, _an_isomorphism, _flat_matrix, _full_hom,
)
from tauslice.artheory import (
    ARNode, tau, tau_inverse, tau_power, ar_quiver, almost_split_sequence,
    ext_dim, ext_data, realize_extension,
    end_algebra, is_hereditary, is_projective_rep, is_injective_rep,
    relation_extension_bimodule, bimodule_right_rep, bimodule_dual_left_rep,
    minimal_presentation, syzygy, transpose, _proj_sum,
    _regular_left_multiplication,
)
from tauslice.tautilt import count_support_tau_tilting

from helpers import w, rep
import properties
from properties import radical_power_dim, stable_hom_dim_mod_injectives


def test_tau_on_line_quiver(a3):
    s1, s2, s3 = (simple(a3, v) for v in "123")
    m12 = rep(a3, (1, 1, 0), a=[[1]])
    assert tau(s3).dims == (0, 0, 0)  # projective
    assert is_isomorphic(tau(s1), s2)
    assert is_isomorphic(tau(s2), s3)
    assert is_isomorphic(tau(m12), projective(a3, "2"))
    # inverse undoes it away from projectives / injectives
    assert is_isomorphic(tau_inverse(tau(s1)), s1)
    assert is_isomorphic(tau_power(s1, 2), s3)
    assert tau_power(s1, 3).dims == (0, 0, 0)
    assert tau_inverse(s1).dims == (0, 0, 0)  # injective


def test_tau_kills_projective_summands(a3):
    m = direct_sum(a3, [simple(a3, "1"), projective(a3, "1")])[0]
    assert is_isomorphic(tau(m), simple(a3, "2"))


def test_projective_injective_recognition(a3, ex1):
    assert is_projective_rep(projective(a3, "1"))
    assert is_injective_rep(injective(a3, "3"))
    s2 = simple(a3, "2")
    assert not is_projective_rep(s2)
    assert not is_injective_rep(s2)
    assert is_hereditary(a3)
    assert not is_hereditary(ex1)  # bound by commutativity relations


def test_ext_dims_on_line_quiver(a3):
    s1, s2, s3 = (simple(a3, v) for v in "123")
    assert ext_dim(s1, s2) == 1
    assert ext_dim(s2, s1) == 0
    assert ext_dim(s1, s3) == 0
    assert ext_dim(s2, s3) == 1


def test_ext_realization_round_trip(a3):
    s1, s2 = simple(a3, "1"), simple(a3, "2")
    ed = ext_data(s1, s2)
    assert ed.dim == 1
    ses = realize_extension(ed, (Fraction(1),))
    ses.verify()
    assert ses.middle.dims == (1, 1, 0)
    assert is_isomorphic(ses.middle, rep(a3, (1, 1, 0), a=[[1]]))


def test_almost_split_sequence_structure(a3):
    s1 = simple(a3, "1")
    seq = almost_split_sequence(s1)
    seq.ses.verify()
    assert is_isomorphic(seq.left, tau(s1))
    assert seq.right is s1
    mids = sorted((r.dims, k) for r, k in seq.middle_summands)
    assert mids == [((1, 1, 0), 1)]
    # additivity of dimension vectors across the mesh
    total = tuple(l + r for l, r in zip(seq.left.dims, s1.dims))
    assert seq.ses.middle.dims == total


def test_cached_results_end_at_their_own_argument(a3):
    # two equal but distinct modules share cache entries; each result must
    # still be anchored on the object it was asked about
    first, second = simple(a3, "1"), simple(a3, "1")
    assert first == second and first is not second
    for m in (first, second):
        seq = almost_split_sequence(m)
        assert seq.right is m
        assert seq.ses.quot is m
        assert seq.ses.right_map.target is m
        seq.ses.verify()
        pres = minimal_presentation(m)
        assert pres.module is m
        assert pres.cover.target is m
    assert almost_split_sequence(first).left is almost_split_sequence(second).left
    assert (almost_split_sequence(first).middle_summands
            is almost_split_sequence(second).middle_summands)
    assert minimal_presentation(first).omega is minimal_presentation(second).omega


@pytest.mark.parametrize("name", ["a3", "ex2", "fig1"])
def test_starting_sequences_match_the_duality_oracle(algebras, name):
    assert properties.starting_sequence_duality_failures(algebras[name]) == []


def test_ar_quiver_computes_each_mesh_once_over_the_algebra():
    # fresh algebras: one almost split sequence per non-projective node,
    # and none over the opposite algebra
    for name in fixdata.ALGEBRAS:
        if name == "fig2":
            continue
        a = fixdata.algebra(name)
        arq = ar_quiver(a)
        keys = [k for k in a._cache if k[0] == "almost_split_sequence"]
        nonprojective = [n for n in arq.nodes if n.projective_label is None]
        assert len(keys) == len(nonprojective), name
        assert {k[1] for k in keys} == {n.rep for n in nonprojective}, name
        assert not [k for k in a.opposite()._cache if k[0] == "almost_split_sequence"], name


def test_ar_quiver_counts(algebras):
    expected = {"a2": 3, "a3": 6, "ex1": 12, "ex2": 13, "fig1": 14,
                "fig3": 12, "ex5_tilde": 12, "ex5_a": 9, "ex5_aprime": 6,
                "ex5_c": 8}
    for name, count in expected.items():
        assert ar_quiver(algebras[name]).count == count, name


def test_ar_quiver_labels_and_links(a3):
    arq = ar_quiver(a3)
    plabels = sorted(n.projective_label for n in arq.nodes
                     if n.projective_label is not None)
    ilabels = sorted(n.injective_label for n in arq.nodes
                     if n.injective_label is not None)
    assert plabels == ["1", "2", "3"]
    assert ilabels == ["1", "2", "3"]
    # a node is labelled only when the closure finds it projective or injective
    fresh = ARNode(0, arq.nodes[0].rep)
    assert fresh.projective_label is None and fresh.injective_label is None
    # one translate link per non-projective node
    assert len(arq.tau_link) == arq.count - 3
    for ident, pred in arq.tau_link.items():
        assert is_isomorphic(arq.nodes[pred].rep, tau(arq.nodes[ident].rep))


def test_stable_hom_agrees_with_ext(ex2):
    arq = ar_quiver(ex2)
    reps = arq.representatives()
    for m in reps[:6]:
        for n in reps[7:12]:
            assert ext_dim(m, n) == stable_hom_dim_mod_injectives(n, tau(m))


def test_end_algebra_of_projectives(a3):
    reg = [projective(a3, v) for v in a3.quiver.vertices]
    res = end_algebra(direct_sum(a3, reg)[0], labels=["1", "2", "3"])
    b = res.algebra
    assert b.dim == a3.dim
    assert is_hereditary(b)
    # End(A) recovers A up to the composition convention
    assert (presentation_isomorphism(b, a3) is not None
            or presentation_isomorphism(b, a3.opposite()) is not None)


def test_end_algebra_hom_functor_dims(a3):
    members = [projective(a3, "1"), simple(a3, "1")]
    res = end_algebra(direct_sum(a3, members)[0], labels=["p", "s"])
    x = simple(a3, "1")
    hx = res.hom_functor(x)
    assert hx.dims == tuple(hom_dim(m, x) for m in res.summands)


@pytest.mark.parametrize("name, group", [
    ("ex1", "m"), ("ex2", "m"), ("fig1", "sigma"), ("a3", None),
])
def test_tensor_and_tor_of_projectives(algebras, name, group):
    """e_i B (x)_B M = e_i M, the summand M_i; a projective has no Tor_1."""
    a = algebras[name]
    if group is None:
        members = [injective(a, v) for v in a.quiver.vertices]
    else:
        members = fixdata.members(a, name, group)
    res = end_algebra(direct_sum(a, members)[0])
    b = res.algebra
    for i, v in enumerate(b.quiver.vertices):
        p = projective(b, v)
        t, proj = res.tensor_functor(p)
        assert proj.target is t
        assert is_isomorphic(t, res.summands[i])
        assert res.tor1(p).is_zero()
        # memoised on structural equality: an equal copy gets the same result
        copy = Representation(b, p.dims, p.maps)
        assert copy is not p and res.tensor_functor(copy) is res.tensor_functor(p)


@pytest.mark.parametrize("name", ["ex1", "ex2", "fig1"])
def test_ext_class_matrix_invariants(algebras, name):
    """The class basis has the identity as its class matrix, and every
    coboundary psi o (Omega^d -> P_{d-1}) has class zero."""
    reps = ar_quiver(algebras[name]).representatives()
    fld = algebras[name].field
    for x in reps:
        for y in reps:
            for degree in (1, 2):
                ext = ext_data(x, y, degree)
                assert ext.matrix_of(ext.basis_cocycles()) == Matrix.identity(fld, ext.dim)
                for psi in hom_basis(ext.penultimate, y):
                    cls = ext.matrix_of([compose(psi, ext.omega_incl)])
                    assert cls.shape == (ext.dim, 1)
                    assert cls.is_zero()


def test_radical_power_dim_on_ar_universe(a3):
    arq = ar_quiver(a3)
    universe = arq.representatives()
    p3, p1 = projective(a3, "3"), projective(a3, "1")
    # soc P1 includes through P2: a composite of two irreducible maps,
    # so the span survives to rad^2 and dies at rad^3
    assert hom_dim(p3, p1) == 1
    assert radical_power_dim(p3, p1, 1, universe) == 1
    assert radical_power_dim(p3, p1, 2, universe) == 1
    assert radical_power_dim(p3, p1, 3, universe) == 0
    # the tower stops once no span changes, so any higher power answers too
    assert radical_power_dim(p3, p1, 41, universe) == 0
    assert radical_power_dim(p3, p1, 100, universe) == 0
    assert radical_power_dim(p3, p1, "infinity", universe) == 0
    # an isomorphic copy of P1 that is not equal to the universe's P1
    p1_copy = rep(a3, p1.dims, a=[[3]], b=[[5]])
    assert p1_copy != p1
    assert radical_power_dim(p3, p1_copy, 2, universe) == 1


def test_relation_extension_bimodule(ex5_c):
    bim = relation_extension_bimodule(ex5_c)
    assert bim.dim == 3
    bim.check()
    ext = split_extension(ex5_c, bim)
    assert ext.algebra.dim == ex5_c.dim + 3


def check_action_order(bim):
    """Each word of length at most 1 acts by its generator's matrix, the
    left action is multiplicative and the right one reverses products, on
    every pair of basis words: a flipped product order in either passes
    Bimodule.check but fails here."""
    c = bim.algebra
    q = c.quiver
    one = c.field.one()
    left = {x: bim.left_action({x: one}) for x in c.basis}
    right = {x: bim.right_action({x: one}) for x in c.basis}
    for x in c.basis:
        if len(x[1]) <= 1:
            gen = ("arrow", q.arrows[x[1][0]].name) if x[1] else ("e", q.vertices[x[0]])
            assert (left[x], right[x]) == (bim.left[gen], bim.right[gen]), x
    for x in c.basis:
        for y in c.basis:
            xy = c.multiply({x: one}, {y: one})
            assert bim.left_action(xy) == left[x] @ left[y], (x, y)
            assert bim.right_action(xy) == right[y] @ right[x], (x, y)


# the representation-finite fixtures: every one but fig2
@pytest.mark.parametrize("name", [n for n in fixdata.ALGEBRAS if n != "fig2"])
def test_relation_extension_actions_keep_their_order(name):
    check_action_order(relation_extension_bimodule(fixdata.algebra(name)))


def test_ideal_bimodule_actions_keep_their_order(ex5_a):
    q = ex5_a.quiver
    check_action_order(ideal_bimodule(ex5_a, [{w(q, "1", "al"): Fraction(1)}]).bimodule)


def test_ideal_bimodule_reps(ex5_a):
    q = ex5_a.quiver
    ib = ideal_bimodule(ex5_a, [{w(q, "1", "al"): Fraction(1)}])
    c = ib.quotient_map.target
    r = bimodule_right_rep(ib.bimodule)
    assert r.algebra is c
    assert is_isomorphic(r, simple(c, "3"))
    d = bimodule_dual_left_rep(ib.bimodule)
    assert is_isomorphic(d, simple(c, "1"))


# --- small fields ------------------------------------------------------------
#
# AR sizes and support tau-tilting counts of the finite fixtures do not
# depend on the field: the reference values are those over Q.

AR_SIZES_Q = {"a2": 3, "a3": 6, "ex1": 12, "ex2": 13, "fig1": 14, "fig3": 12,
              "ex5_tilde": 12, "ex5_a": 9, "ex5_aprime": 6, "ex5_c": 8}
STT_COUNTS_Q = {"a2": 5, "a3": 14, "ex1": 24, "ex2": 55, "fig1": 118,
                "fig3": 102, "ex5_tilde": 50, "ex5_a": 37, "ex5_aprime": 14,
                "ex5_c": 32}


def load_over(name, field):
    """A fresh copy of fixture ``name`` over ``field`` ("Q", "F2", ...)."""
    return parse_algebra_text(fixdata.path(f"{name}.alg").read_text(),
                              None if field == "Q" else field_from_spec(field))


# ex1 over F2 needs no trace-form radical either: the one middle term with a
# summand of two-dimensional End is knitted, not decomposed.
@pytest.mark.parametrize("name, field", [
    (name, field) for field in ("F3", "F2") for name in sorted(AR_SIZES_Q)
])
def test_small_fields_agree_with_q(name, field):
    a = load_over(name, field)
    assert ar_quiver(a).count == AR_SIZES_Q[name]
    assert count_support_tau_tilting(a) == STT_COUNTS_Q[name]


@pytest.mark.parametrize("field", ["Q", "F2", "F3", "F5"])
def test_translates_round_trip(algebras, field):
    for name in sorted(AR_SIZES_Q):
        a = algebras[name] if field == "Q" else load_over(name, field)
        assert properties.translate_round_trip_failures(a) == [], name


def _end_of(group):
    def build(a, name):
        return end_algebra(direct_sum(a, fixdata.members(a, name, group))[0]).algebra
    return build


def _relation_extension(a, _name):
    return split_extension(a, relation_extension_bimodule(a)).algebra


def _split_along_al(a, _name):
    ib = ideal_bimodule(a, [{w(a.quiver, "1", "al"): Fraction(1)}])
    return split_extension(ib.quotient_map.target, ib.bimodule).algebra


@pytest.mark.parametrize("field", ["F2", "F3", "F5"])
@pytest.mark.parametrize("name, build", [
    ("ex1", _end_of("m")), ("ex2", _end_of("m")), ("fig1", _end_of("sigma")),
    ("ex5_c", _relation_extension), ("fig3", _relation_extension),
    ("ex5_a", _split_along_al),
], ids=["ex1-end", "ex2-end", "fig1-end", "ex5_c-trivial", "fig3-trivial", "ex5_a-split"])
def test_quiverized_presentations_agree_with_q(name, build, field):
    # end_algebra and split_extension hand quiverize the radical they know
    # by construction, so no trace form runs and a field of characteristic
    # at most the dimension gives Q's presentation, read over that field
    q_text, small = (print_algebra(build(load_over(name, f), name)) for f in ("Q", field))
    assert small == print_algebra(parse_algebra_text(q_text, field_from_spec(field)))


@pytest.mark.parametrize("field", ["Q", "F5"])
@pytest.mark.parametrize("name", ["ex1", "ex2", "fig1"])
def test_decomposable_middle_terms_get_no_end_radical(name, field):
    # a middle term with two or more summands is split by an End basis
    # element before rad End is needed
    a = load_over(name, field)
    meshes = ar_quiver(a).meshes.values()
    split = [s.ses.middle for s in meshes if sum(k for _r, k in s.middle_summands) >= 2]
    assert split
    assert [m for m in split if ("end_radical", m) in a._cache] == []


# --- closed forms inside the mesh pipeline -----------------------------------
#
# ext_data and transpose read Hom(P0, n) and the products in A^op from closed
# forms; the references below recompute both the generic way.


def cobound_by_projective_homs(x, y, degree):
    """(hom, restrictions, cobound, complement) of Ext^degree(x, y): the
    restrictions psi o incl of ``hom_basis(P_{d-1}, y)``, the echelon span
    of their coordinates in ``hom_basis(Omega^d, y)``, and the positions of
    the standard vectors e_0, e_1, ... kept when they raise the rank of
    that span and those kept before."""
    fld = x.algebra.field
    cur = syzygy(x, degree - 1)
    if cur.is_zero():
        return [], [], Matrix.zero(fld, 0, 0), []
    pres = minimal_presentation(cur)
    hom = hom_basis(pres.omega, y)
    if not hom:
        return [], [], Matrix.zero(fld, 0, 0), []
    n = len(hom)
    flat = Matrix(fld, [f.flatten() for f in hom], len(hom[0].flatten()))
    restrictions = [compose(psi, pres.omega_incl) for psi in hom_basis(pres.p0.rep, y)]
    co = coordinates_in_basis(flat, [f.flatten() for f in restrictions])
    cobound = span_matrix(fld, co.rows, n)
    rows, complement = list(cobound.rows), []
    for i in range(n):
        e = tuple(fld.one() if j == i else fld.zero() for j in range(n))
        if span_matrix(fld, rows + [e], n).nrows > len(rows):
            rows.append(e)
            complement.append(i)
    return hom, restrictions, cobound, complement


def class_matrix_by_two_solves(hom, cobound, complement, cocycles):
    """Class coordinates of ``cocycles`` as columns: their hom coordinates,
    then those along the cobound rows followed by the complement vectors."""
    fld = cobound.field
    n = len(hom)
    flat = Matrix(fld, [f.flatten() for f in hom], len(hom[0].flatten()))
    co = coordinates_in_basis(flat, [f.flatten() for f in cocycles])
    comp = [tuple(fld.one() if j == i else fld.zero() for j in range(n)) for i in complement]
    full = coordinates_in_basis(Matrix(fld, list(cobound.rows) + comp, n), co.rows)
    return full.submatrix(range(len(cocycles)), range(cobound.nrows, n)).transpose()


@pytest.mark.parametrize("field", ["Q", "F5"])
@pytest.mark.parametrize("name", ["ex1", "ex2", "fig1"])
def test_ext_cobound_matches_projective_hom_restrictions(name, field):
    # the kept classes are the greedy completion of the coboundaries, proj
    # kills them and is the identity on the classes, and matrix_of agrees
    # with solving along coboundaries + complement
    reps = ar_quiver(load_over(name, field)).representatives()
    for x in reps:
        for y in reps:
            for degree in (1, 2):
                ext = ext_data(x, y, degree)
                hom, restrictions, cobound, complement = cobound_by_projective_homs(x, y, degree)
                assert ext.hom == hom
                assert ext.classes == complement
                if not complement:
                    continue
                fld = ext.proj.field
                assert ext.proj.shape == (len(complement), len(hom))
                assert (ext.proj @ cobound.transpose()).is_zero()
                assert [[row[i] for i in complement] for row in ext.proj.rows] == [
                    [fld.one() if t == k else fld.zero() for t in range(len(complement))]
                    for k in range(len(complement))
                ]
                cocycles = ext.basis_cocycles() + hom + restrictions
                assert ext.matrix_of(cocycles) == class_matrix_by_two_solves(
                    hom, cobound, complement, cocycles
                )


def transpose_by_symbolic_products(m):
    """Tr m as the cokernel of the map between opposite projectives whose
    entries are the reversed presentation entries times each fibre word,
    multiplied out with ``multiply`` and reduced to normal form."""
    a = m.algebra
    op = a.opposite()
    fld = a.field
    pres = minimal_presentation(m)
    p0, p1, d = pres.p0, pres.p1, pres.differential
    entries = {}
    for j in range(len(p1.vertex_list)):
        vtx, pos = p1.generator_position(j)
        for i, elt in p0.component_elements(vtx, d.blocks[vtx].column_vector(pos)).items():
            entries.setdefault(i, []).append((j, a.reverse_element(elt)))
    dual_p0, dual_p1 = _proj_sum(op, p0.vertex_list), _proj_sum(op, p1.vertex_list)
    blocks = []
    for w in range(op.quiver.n_vertices):
        rows, cols = dual_p1.fibre_words[w], dual_p0.fibre_words[w]
        mat = [[fld.zero()] * len(cols) for _ in rows]
        for cpos, (i, word) in enumerate(cols):
            for j, x_op in entries.get(i, ()):
                for w2, c in op.multiply(x_op, {word: fld.one()}).items():
                    rpos = dual_p1.fibre_index[(j, w2)]
                    mat[rpos][cpos] = fld.add(mat[rpos][cpos], c)
        blocks.append(Matrix(fld, mat, len(cols)))
    return cokernel(Morphism(dual_p0.rep, dual_p1.rep, blocks))[0]


def capped_closure_nodes(a, cap):
    """The ends and middle summands of every almost split sequence that the
    closure of ``a`` computed before it stopped at ``cap`` nodes."""
    with pytest.raises(CapExceeded):
        ar_quiver(a, max_nodes=cap)
    nodes = []
    for key, ass in list(a._cache.items()):
        if key[0] == "almost_split_sequence":
            for x in [ass.left, ass.right] + [s for s, _k in ass.middle_summands]:
                if x not in nodes:
                    nodes.append(x)
    return nodes


@pytest.mark.parametrize("name, field", [
    (name, field) for field in ("Q", "F3") for name in sorted(AR_SIZES_Q)
] + [("fig2", "F5")])
def test_transpose_matches_symbolic_products(name, field):
    a = load_over(name, field)
    nodes = capped_closure_nodes(a, 24) if name == "fig2" else ar_quiver(a).representatives()
    assert nodes
    for x in nodes:
        # Tr over A, and over A^op on D x, the transpose behind tau^-1
        for m in (x, dual(x)):
            assert transpose(m) == transpose_by_symbolic_products(m)


@pytest.mark.parametrize("name, field", [
    (name, field) for field in ("Q", "F3") for name in sorted(AR_SIZES_Q)
])
def test_left_multiplication_follows_the_algebra_law(name, field):
    # _left_multiplication on the regular module, over A and over A^op (the
    # DC route of the relation-extension bimodule): lambda_1 is the
    # identity and lambda_x o lambda_y = lambda_xy, with xy from multiply
    c = load_over(name, field)
    for a in (c, c.opposite()):
        one = a.field.one()
        ps = _proj_sum(a, a.quiver.vertices)
        unit = {(v, ()): one for v in range(a.quiver.n_vertices)}
        assert _regular_left_multiplication(ps, unit) == identity_morphism(ps.rep)
        lam = {x: _regular_left_multiplication(ps, {x: one}) for x in a.basis}
        for f in lam.values():
            Morphism(f.source, f.target, f.blocks)  # intertwines every arrow
        for x in a.basis:
            for y in a.basis:
                xy = a.multiply({x: one}, {y: one})
                assert compose(lam[x], lam[y]) == _regular_left_multiplication(ps, xy)


def test_mesh_pipeline_solves_no_projective_hom_and_multiplies_nothing(monkeypatch):
    # over fresh algebras: ext_data spans the coboundaries with the Yoneda
    # basis, not with hom_basis out of P0, and the dual of a presentation,
    # behind both translates, reads its products from mult_basis, not from
    # multiply
    inside, homs, products = [], [], []

    def within(name):
        original = getattr(artheory_module, name)

        def wrapped(*args):
            inside.append(name)
            try:
                return original(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(artheory_module, name, wrapped)

    within("ext_data")
    within("_dual_differential")
    original_hom = artheory_module.hom_basis
    monkeypatch.setattr(artheory_module, "hom_basis", lambda m, n: (
        inside[-1:] == ["ext_data"] and homs.append(m)) or original_hom(m, n))
    original_multiply = PresentedAlgebra.multiply
    monkeypatch.setattr(PresentedAlgebra, "multiply", lambda self, x, y: (
        "_dual_differential" in inside and products.append(x)) or original_multiply(self, x, y))
    ex1, fig2 = fixdata.algebra("ex1"), fixdata.algebra("fig2")
    ar_quiver(ex1)
    with pytest.raises(CapExceeded):
        ar_quiver(fig2, max_nodes=24)
    projsums = [ps.rep for b in (ex1, fig2) for key, ps in b._cache.items()
                if key[0] == "projsum"]
    assert homs and projsums
    assert [m for m in homs if any(m is r for r in projsums)] == []
    assert products == []


# ---------------------------------------------------------------------------
# the closure links each mesh once

CLOSURES = [(name, "Q", 512) for name in sorted(AR_SIZES_Q)]
CLOSURES += [("fig2", "Q", 24), ("fig2", "F5", 32)]


def record_closures(monkeypatch):
    """The list to which ar_quiver, from now on, appends each ARQuiver it
    starts to build, so that a capped closure can be inspected too."""
    built = []

    class Recorded(artheory_module.ARQuiver):
        def __init__(self, algebra):
            super().__init__(algebra)
            built.append(self)

    monkeypatch.setattr(artheory_module, "ARQuiver", Recorded)
    return built


def close(name, field, cap):
    """ar_quiver over a fresh copy of fixture ``name``; fig2 stops at
    ``cap`` nodes."""
    a = load_over(name, field)
    if name == "fig2":
        with pytest.raises(CapExceeded):
            ar_quiver(a, max_nodes=cap)
    else:
        ar_quiver(a, max_nodes=cap)


@pytest.mark.parametrize("name, field, cap", CLOSURES)
def test_closure_links_each_node_to_its_inverse_translate(name, field, cap, monkeypatch):
    # the oracle recomputes tau^-1 and the isomorphism class, without the
    # closure's own bookkeeping
    built = record_closures(monkeypatch)
    close(name, field, cap)
    g, = built
    nodes = g.representatives()
    found = 0
    for x, rep_x in enumerate(nodes):
        if is_injective_rep(rep_x):
            continue
        w_node = iso_index(nodes, tau_inverse(rep_x))
        if name != "fig2":
            # a closed AR quiver holds every tau^-1 and links every mesh
            assert w_node is not None and g.tau_link[w_node] == x, (name, x)
        elif w_node is not None:
            # a capped closure may stop before linking a mesh
            assert g.tau_link.get(w_node, x) == x, (name, x)
        found += w_node is not None
    assert found
    for right, left in g.tau_link.items():
        assert iso_index(nodes, tau(nodes[right])) == left


@pytest.mark.parametrize("name, field, cap", CLOSURES)
def test_closure_computes_each_translate_and_sequence_once(name, field, cap, monkeypatch):
    # tau^-1 is asked only for a node that is not yet the left end of a
    # linked mesh, and neither it nor an almost split sequence is computed
    # twice for one node
    built = record_closures(monkeypatch)
    inverse_calls, computed_sequences = [], []
    original_inverse = artheory_module.tau_inverse
    original_sequence = artheory_module.almost_split_sequence

    def counted_inverse(m):
        g, = built
        x = next(i for i, node in enumerate(g.nodes) if node.rep is m)
        assert x not in g.tau_link.values(), (name, x)
        inverse_calls.append(x)
        return original_inverse(m)

    def counted_sequence(m):
        if ("almost_split_sequence", m) not in m.algebra._cache:
            computed_sequences.append(m)
        return original_sequence(m)

    monkeypatch.setattr(artheory_module, "tau_inverse", counted_inverse)
    monkeypatch.setattr(artheory_module, "almost_split_sequence", counted_sequence)
    close(name, field, cap)
    assert inverse_calls and computed_sequences
    assert len(set(inverse_calls)) == len(inverse_calls)
    reps = built[0].representatives()
    assert all(any(m is r for r in reps) for m in computed_sequences)
    assert len({id(m) for m in computed_sequences}) == len(computed_sequences)


# ---------------------------------------------------------------------------
# Ext^1 on a full Hom


def test_full_hom_is_read_off_the_arrows():
    # the arrow test of _full_hom says exactly when the hom basis has one
    # element per block entry
    for name in ("ex1", "ex2", "fig1", "fig2"):
        a = load_over(name, "Q")
        reps = capped_closure_nodes(a, 12) if name == "fig2" else ar_quiver(a).representatives()
        for x in reps:
            for y in reps:
                width = sum(dx * dy for dx, dy in zip(x.dims, y.dims))
                assert _full_hom(x, y) == (len(hom_basis(x, y)) == width), (name, x, y)


@pytest.mark.parametrize("field, cap", [("Q", 24), ("F5", 32)])
def test_ext_data_on_a_full_hom_builds_no_hom_basis(field, cap, monkeypatch):
    # fig2 has radical square zero, so every Omega is semisimple and every
    # Hom(Omega, tau m) is full and read without hom_basis; reading
    # ExtData.hom still gives it, one element per block entry, and the
    # general path, with the coordinates solved along the flattened hom
    # basis, gives the same classes, projection and cocycles
    calls, inside = [], []
    original, original_hom = artheory_module.ext_data, artheory_module.hom_basis

    def recorded(m, n, degree=1):
        inside.append(m)
        ext = original(m, n, degree)
        inside.pop()
        calls.append((m, n, degree, ext))
        return ext

    def guarded_hom(m, n):
        assert not inside, "hom_basis inside ext_data"
        return original_hom(m, n)

    monkeypatch.setattr(artheory_module, "ext_data", recorded)
    monkeypatch.setattr(artheory_module, "hom_basis", guarded_hom)
    a = load_over("fig2", field)
    with pytest.raises(CapExceeded):
        ar_quiver(a, max_nodes=cap)
    assert calls and all(ext.full for _m, _n, _d, ext in calls)
    monkeypatch.undo()
    ext = calls[-1][3]
    basis = ext.hom
    assert len(basis) == len(ext.proj.rows[0])
    assert ext.basis_cocycles() == [basis[i] for i in ext.classes]
    assert ext.matrix_of(ext.basis_cocycles()) == Matrix.identity(a.field, ext.dim)
    monkeypatch.setattr(artheory_module, "_full_hom", lambda m, n: False)
    monkeypatch.setattr(artheory_module, "_hom_coordinates", lambda m, n, basis, vectors: (
        coordinates_in_basis(_flat_matrix(m, n, basis), vectors)))
    for m, n, degree, ext in calls:
        assert len(ext.hom) == sum(x * y for x, y in zip(ext.omega.dims, n.dims))
        again = original(m, n, degree)
        assert not again.full
        assert (again.classes, again.proj) == (ext.classes, ext.proj)
        assert again.basis_cocycles() == ext.basis_cocycles()


# ---------------------------------------------------------------------------
# knitted meshes: a mesh is linked from the arrows recorded out of tau X
# when they certify E, and from decompose(E) otherwise

KNIT_CLOSURES = [(name, field, 512) for name in sorted(AR_SIZES_Q)
                 for field in ("Q", "F3", "F5")]
KNIT_CLOSURES += [("fig2", "Q", 24), ("fig2", "F5", 32)]


def closure_record(name, field, cap, monkeypatch):
    """(nodes, sorted arrows, sorted tau_link, how the closure ended) of a
    fresh closure; a node is its dimension vector, its maps' rows and its
    projective and injective labels."""
    built = record_closures(monkeypatch)
    try:
        ar_quiver(load_over(name, field), max_nodes=cap)
        ending = "closed"
    except (CapExceeded, ArithmeticError, ValueError) as e:
        ending = f"{type(e).__name__}: {e}"
    g = built[-1]
    nodes = [(n.rep.dims, [m.rows for m in n.rep.maps], n.projective_label, n.injective_label)
             for n in g.nodes]
    return nodes, sorted(g.arrows.items()), sorted(g.tau_link.items()), ending


def certifications(monkeypatch):
    """The list to which each _isomorphic_to_sum call of ar_quiver, from
    now on, appends (E, prediction, verdict)."""
    calls = []
    original = artheory_module._isomorphic_to_sum

    def recorded(e, summands):
        verdict = original(e, summands)
        calls.append((e, summands, verdict))
        return verdict

    monkeypatch.setattr(artheory_module, "_isomorphic_to_sum", recorded)
    return calls


@pytest.mark.parametrize("name, field, cap", KNIT_CLOSURES)
def test_knitting_keeps_the_closure(name, field, cap, monkeypatch):
    # the same closure with every certification failing, so that every
    # mesh is linked from decompose(E) and its summands are admitted; a
    # predicted node's representative is a translate, not decompose's
    # summand, so the nodes are compared up to isomorphism
    calls = certifications(monkeypatch)
    built = record_closures(monkeypatch)
    knitted = closure_record(name, field, cap, monkeypatch)
    assert any(verdict for _e, _s, verdict in calls)
    monkeypatch.setattr(artheory_module, "_isomorphic_to_sum", lambda e, summands: False)
    decomposed = closure_record(name, field, cap, monkeypatch)

    def without_rows(record):
        nodes, arrows, tau_link, ending = record
        return [(d, p, i) for d, _rows, p, i in nodes], arrows, tau_link, ending

    assert without_rows(knitted) == without_rows(decomposed)
    assert (knitted[3] != "closed") == (name == "fig2")
    first, second = built
    for x, y in zip(first.nodes, second.nodes):
        same_algebra = Representation(first.algebra, y.rep.dims, y.rep.maps)
        assert _an_isomorphism(x.rep, same_algebra) is not None, (name, x.ident)


@pytest.mark.parametrize("name, field, cap", KNIT_CLOSURES)
def test_certified_meshes_match_decompose(name, field, cap, monkeypatch):
    # a certified prediction is decompose(E) up to isomorphism; the arrows
    # recorded out of tau X always end at middle summands, so a prediction
    # whose dimension vectors add up is right and is certified
    calls = certifications(monkeypatch)
    closure_record(name, field, cap, monkeypatch)
    assert calls
    for e, summands, verdict in calls:
        total = [sum(k * y.dims[v] for y, k in summands) for v in range(len(e.dims))]
        assert verdict == (tuple(total) == e.dims)
        if not verdict:
            continue
        pieces = decompose(e)
        assert len(pieces) == len(summands)
        reps = [r for r, _k in pieces]
        for y, k in summands:
            i = iso_index(reps, y)
            assert i is not None and pieces[i][1] == k


def test_a_wrong_prediction_is_rejected():
    # ex1 has two non-isomorphic nodes of dimension vector (1, 1, 0)
    a = load_over("ex1", "Q")
    y, other = [r for r in ar_quiver(a).representatives() if r.dims == (1, 1, 0)]
    assert not is_isomorphic(y, other)
    certify = artheory_module._isomorphic_to_sum
    twice = direct_sum(a, [y, y])[0]
    mixed = direct_sum(a, [y, other])[0]
    assert certify(twice, [(y, 2)])
    assert certify(mixed, [(y, 1), (other, 1)])
    # a non-isomorphic node with the right dimensions
    assert not certify(twice, [(y, 1), (other, 1)])
    assert not certify(mixed, [(other, 2)])
    # a wrong multiplicity
    assert not certify(mixed, [(y, 2)])
    assert not certify(twice, [(y, 1)])
    assert not certify(twice, [(y, 3)])


def test_a_multi_summand_prediction_is_certified(monkeypatch):
    # ex1's middle term of dimension vector (2, 2, 2) is certified, although
    # the first basis element of each hom_basis(Y, E) is no isomorphism
    calls = certifications(monkeypatch)
    ar_quiver(load_over("ex1", "Q"))
    (e, summands, verdict), = [c for c in calls if c[0].dims == (2, 2, 2)]
    assert verdict and len(summands) == 3
    firsts = [hom_basis(y, e)[0] for y, k in summands for _ in range(k)]
    ranks = [
        Matrix(e.algebra.field, [r for f in firsts for r in f.blocks[v].transpose().rows],
               e.dims[v]).rank()
        for v in range(len(e.dims))
    ]
    assert ranks != list(e.dims)


# the self-injective Nakayama algebra with two simples and Loewy length 4:
# its uniserial modules of length 3 are not projective, and each has an
# End of dimension 2 and a one-dimensional Ext^1(m, tau m)
NAKAYAMA = """field Q
vertex 1
vertex 2
arrow a: 1 -> 2
arrow b: 2 -> 1
relation a*b*a*b
relation b*a*b*a
"""


@pytest.mark.parametrize("name", sorted(AR_SIZES_Q) + ["nakayama"])
def test_a_line_of_ext_needs_no_end_radical(name):
    # on a one-dimensional Ext^1(m, tau m) rad End(m) acts by 0, so the
    # socle generator read through that action is the class (1,) that
    # almost_split_sequence takes
    a = parse_algebra_text(NAKAYAMA) if name == "nakayama" else load_over(name, "Q")
    fld = a.field
    lines = radicals = 0
    for node in ar_quiver(a).nodes:
        m = node.rep
        if node.projective_label is not None:
            continue
        ext = ext_data(m, tau(m), 1)
        assert ext.dim == 1
        lines += 1
        pres = minimal_presentation(m)
        omegas = [artheory_module.syzygy_map(g, pres, pres)
                  for g in artheory_module.end_radical_morphisms(m)]
        radicals += len(omegas)
        phi, = ext.basis_cocycles()
        side = ext.matrix_of([compose(phi, w) for w in omegas])
        assert side.is_zero()
        kern, = Matrix(fld, [[x] for x in side.rows[0]], 1).kernel_basis()
        coords = (kern.rows[0][0],)
        assert coords == (fld.one(),)
        assert ext.cocycle(coords) == phi
        ses = almost_split_sequence(m).ses
        assert realize_extension(ext, coords).middle == ses.middle
    assert lines
    assert (radicals > 0) == (name == "nakayama")


def test_fig2_knits_all_twenty_three_of_its_meshes_without_decompose(monkeypatch):
    # 11 of the 23 meshes are certified from the arrows out of tau X and
    # the other 12 from the prediction, the 3 at injective nodes among them
    calls = certifications(monkeypatch)
    decomposed = []
    original = artheory_module.decompose

    def recorded(m):
        decomposed.append(m)
        return original(m)

    monkeypatch.setattr(artheory_module, "decompose", recorded)
    with pytest.raises(CapExceeded):
        ar_quiver(load_over("fig2", "F5"), max_nodes=32)
    certified = [e for e, _s, verdict in calls if verdict]
    assert (len(certified), len(calls)) == (23, 35)
    assert not [m for m in decomposed if any(m == e for e in certified)]


#: the nodes whose mesh is linked from decompose(E) in these closures
UNCOVERED_MESHES = [
    ("fig2", "F5", 32, []),
    # 11 -> 3, whose middle term (1, 1, 1) is the radical of the
    # projective-injective P2, is linked first, with no arrow recorded yet;
    # at 9 -> 4, Z = 3 is linked, Z = P2 is injective and no arrow out of 4
    # is recorded
    ("ex1", "Q", 512, [3, 4]),
]


@pytest.mark.parametrize("name, field, cap, ends", UNCOVERED_MESHES)
def test_meshes_the_prediction_cannot_cover_are_decomposed(name, field, cap, ends, monkeypatch):
    built = record_closures(monkeypatch)
    read = []
    original = artheory_module.AlmostSplitSequence.middle_summands

    def recorded(ass):
        read.append(ass.right)
        return original.fget(ass)

    monkeypatch.setattr(artheory_module.AlmostSplitSequence, "middle_summands",
                        property(recorded))
    close(name, field, cap)
    g, = built
    assert sorted(n.ident for n in g.nodes if any(n.rep is m for m in read)) == ends
    if name == "fig2":
        assert all(g.nodes[x].injective_label is not None for x in ends)


#: nodes admitted from a prediction, per KNIT_CLOSURES entry that has any
PREDICTED_NODES = {("fig1", "Q"): 1, ("fig1", "F3"): 1, ("fig1", "F5"): 1,
                   ("fig2", "Q"): 8, ("fig2", "F5"): 12}


@pytest.mark.parametrize("name, field, cap", KNIT_CLOSURES)
def test_a_predicted_node_is_the_translate_the_closure_computed(name, field, cap, monkeypatch):
    # a node admitted from a prediction is tau^-1 Z or tau W itself, the
    # object memoised for a node Z or W, and once their mesh is linked
    # that node is its tau-link neighbour; a capped closure may stop
    # before linking the last one
    built = record_closures(monkeypatch)
    certified = []
    original = artheory_module._isomorphic_to_sum

    def recorded(e, summands):
        count = built[-1].count
        verdict = original(e, summands)
        if verdict:
            certified.append((count, summands))
        return verdict

    monkeypatch.setattr(artheory_module, "_isomorphic_to_sum", recorded)
    a = load_over(name, field)
    try:
        ar_quiver(a, max_nodes=cap)
    except CapExceeded:
        assert name == "fig2"
    g, = built
    predicted = [n for n in g.nodes if any(
        n.ident >= count and any(n.rep is y for y, _k in summands)
        for count, summands in certified)]
    assert len(predicted) == PREDICTED_NODES.get((name, field), 0)
    for n in predicted:
        inverse_of = [z.ident for z in g.nodes
                      if a._cache.get(("tau_inverse", z.rep)) is n.rep]
        translate_of = [w.ident for w in g.nodes if a._cache.get(("tau", w.rep)) is n.rep]
        assert inverse_of or translate_of, (name, n.ident)
        for z in inverse_of:
            assert g.tau_link.get(n.ident, z) == z
        for w in translate_of:
            assert g.tau_link.get(w, n.ident) == n.ident
        linked = n.ident in g.tau_link or n.ident in g.tau_link.values()
        assert linked or (name == "fig2" and n.ident == g.count - 1), (name, n.ident)


# ---------------------------------------------------------------------------
# each translate once: tau^-1 X keeps the presentation its transpose built,
# and tau tau^-1 X is X itself

@pytest.mark.parametrize("name, field, cap", KNIT_CLOSURES)
def test_tau_inverse_keeps_a_minimal_presentation(name, field, cap, monkeypatch):
    built = record_closures(monkeypatch)
    close(name, field, cap)
    assert properties.kept_presentation_failures(built[0].representatives()) == []


@pytest.mark.parametrize("name", sorted(AR_SIZES_Q))
def test_tau_inverse_of_a_sum_with_an_injective_keeps_no_presentation(name):
    # D(X + I) has the projective summand D I, whose dual lies in the
    # kernel of d*, so P0* -> P1* is not minimal and is not kept; a fresh
    # algebra, since tau^-1 X is structurally equal to the result and
    # would keep its own
    a = load_over(name, "Q")
    nodes = ar_quiver(load_over(name, "Q")).representatives()
    x = next(Representation(a, n.dims, n.maps) for n in nodes if not is_injective_rep(n))
    for v in a.quiver.vertices:
        m = direct_sum(a, [x, injective(a, v)])[0]
        r = tau_inverse(m)
        assert ("presentation", r) not in a._cache, (name, v)
        assert iso_index([r], tau_inverse(x)) == 0
        assert properties.presentation_failures(minimal_presentation(r)) == []
        a._cache.clear()


@pytest.mark.parametrize("name, field, cap", KNIT_CLOSURES)
def test_a_mesh_linked_from_its_left_end_starts_at_that_node(name, field, cap, monkeypatch):
    # a mesh linked when X is popped, before tau^-1 X is, is the sequence
    # ending at tau^-1 X's node R, and no transpose runs for its left end:
    # that is X's own representative, unless a prediction computed tau R
    # earlier, for a summand of I/soc I, say
    built = record_closures(monkeypatch)
    transposed, from_left = [], []

    class Links(dict):
        def __setitem__(self, right, left):
            g, = built
            if right not in g.meshes:
                before = sum(m == g.nodes[right].rep for m in transposed)
                from_left.append((right, left, before))
            super().__setitem__(right, left)

    original_init, original_transpose = artheory_module.ARQuiver.__init__, transpose

    def init(self, algebra):
        original_init(self, algebra)
        self.tau_link = Links()

    monkeypatch.setattr(artheory_module.ARQuiver, "__init__", init)
    monkeypatch.setattr(artheory_module, "transpose",
                        lambda m: transposed.append(m) or original_transpose(m))
    close(name, field, cap)
    g, = built
    assert from_left
    for right, left, before in from_left:
        r = g.nodes[right].rep
        assert sum(m == r for m in transposed) == before <= 1, (name, right)
        ass = almost_split_sequence(r)
        assert before or ass.left is g.nodes[left].rep, (name, right, left)
    assert any(almost_split_sequence(g.nodes[right].rep).left is g.nodes[left].rep
               for right, left, _b in from_left)


@pytest.mark.parametrize("name, field", [
    (name, field) for field in ("Q", "F5") for name in sorted(AR_SIZES_Q) + ["fig2"]
])
def test_cover_images_match_the_word_by_word_evaluation(name, field):
    # projective_cover_data reads a word's value off its prefix's; each
    # entry must be what acting with the whole word on the top vector gives
    a = load_over(name, field)
    nodes = capped_closure_nodes(a, 24) if name == "fig2" else ar_quiver(a).representatives()
    modules = nodes + [minimal_presentation(x).omega for x in nodes]
    for m in modules + [dual(x) for x in modules]:
        ps, cover = artheory_module.projective_cover_data(m)
        tops = top_data(m)
        for w, block in enumerate(cover.blocks):
            cols = [_act_on_vector(m, tops[k][1], word) for k, word in ps.fibre_words[w]]
            assert block.rows == tuple(zip(*cols)) if cols else block.ncols == 0, (name, m)
