from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tauslice import fixtures as fixdata
from tauslice.exactlin import QQ
from tauslice.algebra import (
    radical_span,
    Arrow, Quiver, build_algebra, quotient, quiverize, isomorphism_failure,
    one_point_extension, one_point_coextension, ideal_bimodule, split_extension,
    Bimodule, MalformedRelation, NonAdmissible, NotNilpotent, Record,
)
from tauslice.artheory import is_hereditary
from tauslice.exactlin import Matrix
from tauslice.formats import field_from_spec, parse_algebra_text

from helpers import w
from properties import named_map, path_image_map, structure_constants, unit

EXPECTED_DIMS = {
    "a2": 3, "a3": 6, "ex1": 10, "ex2": 10, "fig1": 12, "fig2": 9,
    "fig3": 10, "ex5_tilde": 10, "ex5_a": 8, "ex5_aprime": 6, "ex5_c": 7,
}


def test_fixture_dimensions(algebras):
    for name, expected in EXPECTED_DIMS.items():
        assert algebras[name].dim == expected, name


def test_unit_is_sum_of_idempotents(ex1):
    total = {}
    for v in ex1.quiver.vertices:
        for word, c in ex1.idempotent(v).items():
            total[word] = total.get(word, QQ.zero()) + c
    assert ex1.normal_form(total) == unit(ex1)


def test_basis_by_class_partitions(ex2):
    classes = ex2.basis_by_class()
    assert sum(len(v) for v in classes.values()) == ex2.dim
    for (i, j), idxs in classes.items():
        for k in idxs:
            word = ex2.basis[k]
            assert word[0] == i
            assert ex2.word_target(word) == j


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_multiplication_associative(data):
    a = fixdata.algebra("ex1")
    idx = st.integers(min_value=0, max_value=a.dim - 1)
    x = {a.basis[data.draw(idx)]: Fraction(1)}
    y = {a.basis[data.draw(idx)]: Fraction(data.draw(st.integers(-3, 3)))}
    z = {a.basis[data.draw(idx)]: Fraction(1)}
    assert a.multiply(a.multiply(x, y), z) == a.multiply(x, a.multiply(y, z))


def test_coords_element_round_trip(ex5_tilde):
    for i, word in enumerate(ex5_tilde.basis):
        elt = {word: Fraction(1)}
        coords = ex5_tilde.coords(elt)
        assert coords[i] == 1
        assert ex5_tilde.element(coords) == elt


def test_opposite_involution(ex2):
    op = ex2.opposite()
    assert op.dim == ex2.dim
    assert isomorphism_failure(op.opposite(), ex2, *named_map(ex2, ex2)) is None
    # reversing twice through the anti-isomorphism is the identity
    x = ex2.arrow_element("de")
    assert op.reverse_element(ex2.reverse_element(x)) == x


def test_quotient_matches_packaged_files(ex5_tilde):
    from tauslice.formats import print_algebra
    qt = ex5_tilde.quiver
    qm = quotient(ex5_tilde, [{w(qt, "1", "om"): Fraction(1)}])
    assert qm.target.dim == 8
    assert print_algebra(qm.target) == fixdata.path("ex5_a.alg").read_text()
    # the killed arrow maps to zero, survivors to themselves
    assert qm.apply(ex5_tilde.arrow_element("om")) == {}
    ga_img = qm.apply(ex5_tilde.arrow_element("ga"))
    assert ga_img == qm.target.arrow_element("ga")


def test_quotient_by_nothing_is_identity_presentation(a3):
    qm = quotient(a3, [])
    assert qm.target.dim == a3.dim
    assert isomorphism_failure(qm.target, a3, *named_map(a3, a3)) is None


def test_arrow_is_an_immutable_value():
    x = Arrow("x", "1", "1")
    assert x == Arrow("x", "1", "1") and hash(x) == hash(Arrow("x", "1", "1"))
    assert x != Arrow("y", "1", "1")
    with pytest.raises(AttributeError):
        x.name = "y"


def test_quotient_rejects_mixed_generator():
    ql = Quiver(["1"], [Arrow("x", "1", "1")])
    loop = build_algebra(ql, [{w(ql, "1", "x", "x"): Fraction(1)}])
    mixed = {(0, ()): Fraction(1), w(ql, "1", "x"): Fraction(1)}
    with pytest.raises(ValueError, match="mixes a trivial path"):
        quotient(loop, [mixed])


def test_ideal_span_dimension(ex5_tilde):
    q = ex5_tilde.quiver
    span = ex5_tilde.ideal_span([{w(q, "1", "om"): Fraction(1)}])
    assert span.nrows == 2  # om and om*de


def test_one_point_extension_shape(ex5_aprime, ex5_a):
    from tauslice.modrep import simple
    res = one_point_extension(ex5_aprime, simple(ex5_aprime, "2"),
                              new_vertex="4", arrow_prefix="de")
    assert res.new_vertex == "4"
    assert len(res.new_arrows) == 1
    assert res.algebra.dim == 8
    # the paper's identification: the new arrow de1 is de
    assert isomorphism_failure(res.algebra, ex5_a,
                               *named_map(res.algebra, ex5_a, {"de1": "de"})) is None


def test_one_point_extension_keeps_only_generating_relations(a3):
    # w1*a*b = (w1*a)*b lies in the ideal of w1*a
    from tauslice.formats import print_algebra
    from tauslice.modrep import simple
    text = print_algebra(one_point_extension(a3, simple(a3, "1")).algebra)
    assert [line for line in text.splitlines() if line.startswith("relation")] == [
        "relation w1*a"]


def extension_modules(a):
    from tauslice.modrep import injective, projective, simple
    return [make(a, v) for v in a.quiver.vertices for make in (simple, projective, injective)]


@pytest.mark.parametrize("name", fixdata.ALGEBRAS)
def test_one_point_extension_dimension(algebras, name):
    # e_new A[x] is spanned by e_new and a copy of x, and the other
    # projectives are A's: dim A[x] = dim A + dim x + 1
    a = algebras[name]
    for x in extension_modules(a):
        assert one_point_extension(a, x).algebra.dim == a.dim + x.total_dim + 1, (name, x)


@pytest.mark.parametrize("name", fixdata.ALGEBRAS)
def test_one_point_extension_drops_no_needed_relation(algebras, name):
    # without any one relation out of the new vertex the ideal is smaller:
    # the algebra grows, or is refused as not admissible
    a = algebras[name]
    for x in extension_modules(a):
        res = one_point_extension(a, x)
        b = res.algebra
        new = b.quiver.vertex_index[res.new_vertex]
        own = [r for r in b.relations if next(iter(r))[0] == new]
        rest = [r for r in b.relations if next(iter(r))[0] != new]
        for i in range(len(own)):
            try:
                smaller = build_algebra(b.quiver, rest + own[:i] + own[i + 1:], b.field,
                                        b.length_cap)
            except NonAdmissible:
                continue
            assert smaller.dim > b.dim, (name, x, i)


def test_one_point_coextension_of_line(a2):
    from tauslice.modrep import simple, injective
    # [S2](kA2) is 1 -> 2 -> n with the length-two composite zero: the new
    # injective must satisfy I_n / soc = S2, so dim = 3 + 1 + 1 = 5.
    res = one_point_coextension(a2, simple(a2, "2"))
    b = res.algebra
    assert b.dim == 5
    assert not is_hereditary(b)
    new_arrows = [ar for ar in b.quiver.arrows if ar.name in res.new_arrows]
    assert [(ar.source, ar.target) for ar in new_arrows] == [("2", res.new_vertex)]
    i_new = injective(b, res.new_vertex)
    assert i_new.dims == tuple(
        1 if v in ("2", res.new_vertex) else 0 for v in b.quiver.vertices
    )


def test_isomorphism_certificate_accepts_a_sign_twist():
    qt = Quiver(["1", "2", "3", "4"], [
        Arrow("al", "1", "3"), Arrow("be", "3", "2"), Arrow("ga", "2", "1"),
        Arrow("om", "1", "4"), Arrow("de", "4", "2"),
    ])

    def build(sign):
        return build_algebra(qt, [
            {w(qt, "1", "al", "be"): Fraction(1), w(qt, "1", "om", "de"): sign},
            {w(qt, "3", "be", "ga"): Fraction(1)},
            {w(qt, "4", "de", "ga"): Fraction(1)},
            {w(qt, "2", "ga", "om"): Fraction(1)},
            {w(qt, "2", "ga", "al"): Fraction(1)},
        ])

    minus, plus = build(Fraction(-1)), build(Fraction(1))
    # al*be - om*de goes to al*be + om*de under om -> -om
    assert isomorphism_failure(minus, plus, *named_map(minus, plus, {"om": "-om"})) is None
    assert isomorphism_failure(minus, plus, *named_map(minus, plus)) is not None


def test_isomorphism_certificate_rejects_an_image_outside_its_corner(a3):
    # a: 1 -> 2 cannot go to b: 2 -> 3
    why = isomorphism_failure(a3, a3, *named_map(a3, a3, {"a": "b"}))
    assert why == "the image of arrow a leaves its corner"


def test_isomorphism_certificate_rejects_a_relation_not_killed(a3):
    # the identity on names from a3/(a*b) to a3 sends a*b to a nonzero path
    b = quotient(a3, [{w(a3.quiver, "1", "a", "b"): Fraction(1)}]).target
    why = isomorphism_failure(b, a3, *named_map(b, a3))
    assert why == "a relation does not map to 0"


def test_isomorphism_certificate_rejects_a_rank_deficit():
    # the Kronecker algebra to the two-cycle with rad^2 = 0, both of
    # dimension 4: both Kronecker arrows go to the one arrow 1 -> 2
    qk = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
    kron = build_algebra(qk, [])
    qc = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")])
    cyc = build_algebra(qc, [
        {w(qc, "1", "a", "b"): Fraction(1)},
        {w(qc, "2", "b", "a"): Fraction(1)},
    ])
    assert kron.dim == cyc.dim == 4
    why = isomorphism_failure(kron, cyc, *named_map(kron, cyc, {"b": "a"}))
    assert why == "the images of the basis words are not a basis"


def test_isomorphism_certificate_maps_an_arrow_to_a_sum_of_paths():
    # relation c*d against c*d + a*b*d: c -> c + a*b carries the first to
    # the second, while the identity leaves c*d nonzero.  Paths compose
    # left to right, so c -> c - a*b would not do.
    q = Quiver(["1", "2", "3", "4"], [Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                      Arrow("c", "1", "3"), Arrow("d", "3", "4")])
    plain = build_algebra(q, [{w(q, "1", "c", "d"): Fraction(1)}])
    mixed = build_algebra(q, [{w(q, "1", "c", "d"): Fraction(1),
                               w(q, "1", "a", "b", "d"): Fraction(1)}])
    assert isomorphism_failure(plain, mixed, *named_map(plain, mixed, {"c": "c + a*b"})) is None
    assert isomorphism_failure(plain, mixed, *named_map(plain, mixed, {"c": "c - a*b"})) \
        == "a relation does not map to 0"
    assert isomorphism_failure(plain, mixed, *named_map(plain, mixed)) \
        == "a relation does not map to 0"


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_construction_map_certifies_every_arrow_ideal(field):
    # C + Q -> A, (c, q) -> s(c) + q, for the ideal Q of each arrow of each
    # fixture where the section s by arrow names is an algebra map
    certified = 0
    for name in fixdata.ALGEBRAS:
        a = parse_algebra_text(fixdata.path(f"{name}.alg").read_text(),
                               None if field == "Q" else field_from_spec(field))
        for ar in a.quiver.arrows:
            try:
                ib = ideal_bimodule(a, [a.arrow_element(ar.name)])
            except ValueError as e:
                assert str(e).startswith("canonical section is not an algebra map"), (name, e)
                continue
            ext = split_extension(ib.quotient_map.target, ib.bimodule)
            assert isomorphism_failure(ext.algebra, a, *ib.extension_map(ext)) is None, \
                (name, ar.name)
            certified += 1
    assert certified == 35


def _vertex_idempotents(a):
    return [a.coords(a.idempotent(v)) for v in a.quiver.vertices]


def _path_radical(a):
    """rad kQ/I: the unit rows at the basis words of positive length."""
    units = Matrix.identity(a.field, a.dim).rows
    return [units[k] for k, (_src, arrows) in enumerate(a.basis) if arrows]


def test_quiverize_recovers_presentation(ex5_aprime):
    a = ex5_aprime
    res = quiverize(structure_constants(a), _vertex_idempotents(a), _path_radical(a))
    assert res.algebra.dim == ex5_aprime.dim
    assert isomorphism_failure(res.algebra, a, *path_image_map(res, a)) is None


@pytest.mark.parametrize("name", ["a3", "ex1", "fig1"])
def test_quiverize_certificate_rejects_bad_input(name):
    # quiverize checks nothing it is given on its own; the closing
    # certificate (admissible, equal dimension, spanning path images,
    # matching structure constants) is what rejects each corruption
    a = fixdata.algebra(name)
    sc, idems, rad = structure_constants(a), _vertex_idempotents(a), _path_radical(a)
    qr = quiverize(sc, idems, rad)
    assert isomorphism_failure(qr.algebra, a, *path_image_map(qr, a)) is None
    merged = tuple(x + y for x, y in zip(idems[0], idems[1]))
    corrupted = {"dropped idempotent": (idems[1:], rad),
                 "repeated idempotent": (idems + idems[:1], rad),
                 "merged idempotents": ([merged] + idems[2:], rad)}
    corrupted.update({f"radical without row {k}": (idems, rad[:k] + rad[k + 1:])
                      for k in range(len(rad))})
    corrupted.update({f"radical with idempotent {k}": (idems, rad + [e])
                      for k, e in enumerate(idems)})

    def accepted(bad_idems, bad_rad):
        try:
            quiverize(sc, bad_idems, bad_rad)
        except (ArithmeticError, ValueError):
            return False
        return True

    assert [what for what, args in corrupted.items() if accepted(*args)] == []


def test_split_extension_by_an_idempotent_ideal_is_not_nilpotent():
    # C = k and Q = k with q.q = q: Q is an ideal of C + Q = k x k that no
    # power kills
    c = build_algebra(Quiver(["1"], []), [])
    one = Matrix.identity(c.field, 1)
    q = Bimodule(c, 1, {("e", "1"): one}, {("e", "1"): one}, {(0, 0): (Fraction(1),)})
    with pytest.raises(NotNilpotent):
        split_extension(c, q)


def test_ideal_bimodule_and_split_extension(ex5_a):
    q = ex5_a.quiver
    ib = ideal_bimodule(ex5_a, [{w(q, "1", "al"): Fraction(1)}])
    assert ib.bimodule.dim == 1
    c = ib.quotient_map.target
    assert c.dim == 7
    ib.bimodule.check()
    ser = split_extension(c, ib.bimodule)
    assert ser.algebra.dim == 8
    assert ser.base_dim == 7


def test_admissibility_errors():
    ql = Quiver(["1"], [Arrow("x", "1", "1")])
    with pytest.raises(NonAdmissible):
        build_algebra(ql, [])  # free loop never becomes finite dimensional
    loop = build_algebra(ql, [{w(ql, "1", "x", "x"): Fraction(1)}])
    assert loop.dim == 2

    q = Quiver(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")])
    with pytest.raises(MalformedRelation):
        build_algebra(q, [{w(q, "1", "a"): Fraction(1),
                           w(q, "2", "b"): Fraction(1)}])
    with pytest.raises(NonAdmissible):
        build_algebra(q, [{w(q, "1", "a"): Fraction(1)}])


def test_radical_dimension_of_basic_algebras(algebras):
    # kQ/I with I admissible is basic, and its radical is spanned by the
    # paths of positive length: dim rad = dim A - number of vertices.  This
    # does not depend on the trace form that radical_span uses.
    assert len(algebras) == 11
    for name, a in algebras.items():
        assert a.field == QQ
        rad = radical_span(structure_constants(a))
        assert rad.nrows == a.dim - a.quiver.n_vertices, name


class _Pair(Record):
    __slots__ = ("left", "right")


def test_record_binds_fields_in_slot_order():
    for pair in (_Pair(1, 2), _Pair(1, right=2), _Pair(right=2, left=1)):
        assert (pair.left, pair.right) == (1, 2)
    for args, kwargs, message in [
        ((1,), {}, "_Pair() missing field(s): right"),
        ((), {}, "_Pair() missing field(s): left, right"),
        ((1, 2), {"middle": 3}, "_Pair() got an unknown field 'middle'"),
        ((1, 2), {"left": 3}, "_Pair() got multiple values for field 'left'"),
        ((1, 2, 3), {}, "_Pair() takes 2 fields but 3 were given"),
    ]:
        with pytest.raises(TypeError) as err:
            _Pair(*args, **kwargs)
        assert str(err.value) == message


def test_records_have_no_instance_dict():
    # importing tauslice.fixtures has loaded the package and every layer
    records = Record.__subclasses__()
    assert len(records) >= 18
    for cls in records:
        rec = cls(*range(len(cls.__slots__)))
        assert not hasattr(rec, "__dict__"), cls.__name__
        assert [getattr(rec, f) for f in cls.__slots__] == list(range(len(cls.__slots__)))
        with pytest.raises(AttributeError):
            rec.not_a_field = 0
