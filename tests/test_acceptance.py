"""End-to-end acceptance gate: one test per headline claim, zero tolerance.

Each test is a single pass/fail line under ``pytest -v``.  Expected values
were frozen from independent recomputation (see properties.py for the
definition-level oracles); nothing here is tuned to the implementation.
"""

from fractions import Fraction

import pytest

import properties
from tauslice import fixtures as fixdata
from tauslice.algebra import (
    CapExceeded, ideal_bimodule, one_point_extension, presentation_isomorphism,
)
from tauslice.exactlin import Matrix, QQ
from tauslice.modrep import (
    simple, direct_sum, decompose, is_isomorphic, is_indecomposable,
    is_faithful, is_sincere, annihilator_span, fac_member, sub_member,
)
from tauslice.artheory import (
    ar_quiver, end_algebra, is_hereditary,
    bimodule_right_rep, bimodule_dual_left_rep,
)
from tauslice.tautilt import (
    is_tau_tilting, is_support_tau_tilting, is_tilting,
    count_support_tau_tilting, slice_candidate, tau_module,
    tau_inverse_module, is_tau_slice, is_complete_tau_slice,
    is_complete_slice, is_local_slice, tau_orbits, orbit_graph,
    bb_verify, quotient_preservation_check, is_tilted,
    onepoint_slice_extend, splitex_check,
)
from tauslice.cli import main
from tauslice.formats import parse_rep_text

from helpers import w, rep, is_path_graph, undirected_degrees


def module_sum(a, name, group):
    return direct_sum(a, fixdata.members(a, name, group))[0]


def sigma_of(a, name, group):
    return slice_candidate(a, fixdata.members(a, name, group))


def spans_equal(s1, s2):
    return s1.nrows == s2.nrows == s1.vstack(s2).rank()


def test_criterion_1_translates_diverge_over_the_quotient(ex1):
    m = module_sum(ex1, "ex1", "m")
    report = bb_verify(m)
    # over A the translate is (top 2 / soc 3) + (top 3 / soc 2); over
    # A/Ann M the second summand degenerates to the simple at 2
    t23 = rep(ex1, (0, 1, 1), be=[[1]])
    t32 = rep(ex1, (0, 1, 1), bep=[[1]])
    parts_a = [r for r, k in decompose(report.tau_a) for _ in range(k)]
    assert len(parts_a) == 2
    assert any(is_isomorphic(p, t23) for p in parts_a)
    assert any(is_isomorphic(p, t32) for p in parts_a)
    parts_c = [r for r, k in decompose(report.tau_c) for _ in range(k)]
    assert len(parts_c) == 2
    assert any(is_isomorphic(p, t23) for p in parts_c)
    assert any(is_isomorphic(p, simple(ex1, "2")) for p in parts_c)
    assert report.part1_isomorphism
    assert not report.ext_equivalence
    wit = report.sub_witness
    assert wit is not None and is_indecomposable(wit)
    assert sub_member(wit, report.tau_a)
    assert not sub_member(wit, report.tau_c)


def test_criterion_2_full_equivalence_on_the_square(ex2):
    m = module_sum(ex2, "ex2", "m")
    assert is_tau_tilting(m)
    assert is_support_tau_tilting(m)
    assert not is_tilting(m)
    assert spans_equal(annihilator_span(m),
                       ex2.ideal_span([ex2.arrow_element("al")]))
    report = bb_verify(m)
    assert sorted(x.dims for x in report.fac_modules) == [
        (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 1),
        (0, 1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 1)]
    assert sorted(x.dims for x in report.sub_tau_a_modules) == [
        (0, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 0),
        (1, 1, 0, 0), (1, 1, 1, 0)]
    # End(M): commuting square with a single binomial relation
    b = report.endo.algebra
    assert b.dim == 9
    assert [(ar.name, ar.source, ar.target) for ar in b.quiver.arrows] == [
        ("b1", "1", "2"), ("b2", "1", "3"), ("b3", "2", "4"), ("b4", "3", "4")]
    assert len(b.relations) == 1
    terms = dict(b.relations[0])
    assert set(terms) == {(0, (0, 2)), (0, (1, 3))}
    assert terms[(0, (0, 2))] == -terms[(0, (1, 3))]
    assert is_hereditary(report.c_map.target)
    assert report.tau_agree
    assert is_isomorphic(report.tau_a, report.tau_c)
    assert sorted(x.dims for x in report.x_modules) == [
        (0, 0, 1, 0), (1, 0, 0, 0), (1, 0, 1, 0),
        (1, 1, 0, 0), (1, 1, 1, 0)]
    assert sorted(y.dims for y in report.y_modules) == [
        (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 0),
        (0, 1, 0, 1), (0, 1, 1, 1), (1, 1, 1, 1)]
    assert report.hom_equivalence
    assert report.ext_equivalence


def test_criterion_3_two_slices_two_shapes(fig1):
    sigma = sigma_of(fig1, "fig1", "sigma")
    sigma_t = sigma_of(fig1, "fig1", "sigma_tilde")
    assert is_complete_tau_slice(sigma)
    assert is_complete_tau_slice(sigma_t)
    e1 = end_algebra(sigma.module()).algebra
    assert is_hereditary(e1)
    edges1 = [(ar.source, ar.target) for ar in e1.quiver.arrows]
    assert is_path_graph(edges1, 5)
    e2 = end_algebra(sigma_t.module()).algebra
    assert is_hereditary(e2)
    assert e2.quiver.n_vertices == 5
    edges2 = sorted((ar.source, ar.target) for ar in e2.quiver.arrows)
    assert edges2 == [("1", "5"), ("2", "3"), ("2", "5"), ("5", "4")]
    # expected shape: a D5 tree.  The members are uniserial, so Hom between
    # them follows from tops and socles: m432 maps only onto m43, s3 embeds
    # in m43 and m53, and m31 maps onto s3 (its maps to m43 and m53 factor
    # through s3).  The irreducible maps are m432-m43-s3-m53 with m31 on s3.
    assert undirected_degrees(edges2) == [3, 2, 1, 1, 1]


def test_criterion_4_local_verification_without_enumeration():
    a = fixdata.algebra("fig2")  # fresh object, empty cache
    sigma = slice_candidate(a, fixdata.members(a, "fig2", "sigma"))
    m = sigma.module()
    from tauslice.tautilt import is_tau_rigid, is_presection
    assert is_tau_rigid(m)
    assert is_presection(sigma)
    assert is_complete_tau_slice(sigma)
    assert not any(
        isinstance(k, tuple) and k and k[0] == "ar_quiver" for k in a._cache
    )
    with pytest.raises(CapExceeded):
        is_complete_slice(sigma, max_nodes=16)
    assert is_sincere(m)
    assert not is_faithful(m)
    verdict = is_tilted(a, max_nodes=16)
    assert verdict.verdict == "inconclusive"
    assert verdict.witness is None


def test_criterion_5_slice_on_a_non_tree_component(fig3):
    sigma = sigma_of(fig3, "fig3", "sigma")
    assert is_complete_tau_slice(sigma)
    arq = ar_quiver(fig3)
    assert not orbit_graph(arq).is_tree()
    i = arq.find(fixdata.module(fig3, "fig3", "m21"))
    j = arq.find(fixdata.module(fig3, "fig3", "m52"))
    assert i is not None and j is not None and i != j
    assert any(i in orbit and j in orbit for orbit in tau_orbits(arq))
    verdict = is_tilted(fig3)
    assert verdict.verdict == "not-tilted"
    assert verdict.witness is None


def test_criterion_6_slice_transport_chain(ex5_tilde, ex5_aprime, ex5_a):
    arq = ar_quiver(ex5_tilde)
    expected_dims = [
        (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 0, 1),
        (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 0, 0), (1, 0, 0, 1),
        (1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1)]
    assert sorted(n.rep.dims for n in arq.nodes) == expected_dims

    sigma_t = sigma_of(ex5_tilde, "ex5_tilde", "sigma")
    assert is_complete_tau_slice(sigma_t)
    assert spans_equal(
        annihilator_span(sigma_t.module()),
        ex5_tilde.ideal_span([ex5_tilde.arrow_element("al"),
                              ex5_tilde.arrow_element("om")]))

    q = ex5_tilde.quiver
    pres = quotient_preservation_check(sigma_t, [{w(q, "1", "om"): Fraction(1)}])
    assert pres.passed
    sigma_a = pres.slice_over_quotient
    assert is_tau_slice(sigma_a)
    assert is_complete_tau_slice(sigma_a)

    assert presentation_isomorphism(
        one_point_extension(ex5_aprime, simple(ex5_aprime, "2"),
                            new_vertex="4", arrow_prefix="de").algebra,
        ex5_a) is not None

    sigma1 = sigma_of(ex5_aprime, "ex5_aprime", "sigma1")
    res = onepoint_slice_extend(ex5_aprime, sigma1, simple(ex5_aprime, "2"),
                                new_vertex="4", arrow_prefix="de")
    assert res.verified and res.complete
    assert sorted(res.slice.dim_vectors()) == sorted(sigma_a.dim_vectors())

    sigma2 = sigma_of(ex5_aprime, "ex5_aprime", "sigma2")
    assert is_complete_tau_slice(sigma2)
    from tauslice.modrep import extend_by_zero
    over_a = slice_candidate(
        ex5_a, [extend_by_zero(u, ex5_a) for u in sigma2.members])
    assert not is_complete_tau_slice(over_a)

    qa = ex5_a.quiver
    ib = ideal_bimodule(ex5_a, [{w(qa, "1", "al"): Fraction(1)}])
    c = ib.quotient_map.target
    sigma_c = slice_candidate(c, [
        parse_rep_text(fixdata.path(f"ex5_c_{n}.rep").read_text(), c)
        for n in fixdata.MEMBER_SETS[("ex5_c", "sigma")]])
    assert is_tilted(c).verdict == "tilted"
    assert is_complete_tau_slice(sigma_c)
    assert is_complete_slice(sigma_c)

    rr = bimodule_right_rep(ib.bimodule)
    assert is_isomorphic(rr, simple(c, "3"))
    assert fac_member(rr, tau_inverse_module(sigma_c))
    dd = bimodule_dual_left_rep(ib.bimodule)
    assert is_isomorphic(dd, simple(c, "1"))
    assert sub_member(dd, tau_module(sigma_c))

    back = splitex_check(c, sigma_c, ib.bimodule)
    assert back.condition_fac and back.condition_sub and back.slice_preserved
    assert back.annihilator_equals_ideal
    assert presentation_isomorphism(back.extension.algebra, ex5_a) is not None

    # one node per indecomposable: P1 = I2, P2 = I1, P3, P4, I3, I4, the
    # four simples, rad P1 and P1/soc P1.  The component is finite and the
    # algebra connected, so by Auslander's theorem it is all of mod A.
    assert arq.count == len(expected_dims) == 12


def test_criterion_7_structural_suites_all_green(suite_results):
    assert suite_results == {name: [] for name in suite_results}


def test_criterion_8_independent_oracles_agree(algebras):
    stt_counts = {"a2": 5, "a3": 14, "ex1": 24, "ex2": 55, "fig1": 118,
                  "fig3": 102, "ex5_tilde": 50, "ex5_a": 37, "ex5_aprime": 14,
                  "ex5_c": 32}
    for name, expected in stt_counts.items():
        a = algebras[name]
        assert count_support_tau_tilting(a) == expected, name
        assert properties.recount_definition_level(a) == expected, name
        assert properties.mesh_radical_failures(a) == [], name
    assert properties.ext_stable_hom_failures(algebras) == []


def test_criterion_9_exactness_and_determinism(algebras, capsys):
    # fraction arithmetic survives an ill-conditioned solve bit for bit
    h = Matrix(QQ, [[Fraction(1, i + j + 1) for j in range(3)]
                    for i in range(3)], 3)
    inv = h.inverse()
    assert inv is not None
    assert (h @ inv).rows == Matrix.identity(QQ, 3).rows
    assert inv.rows[0][0] == Fraction(9)

    finite = ["a2", "a3", "ex1", "ex2", "fig1", "fig3", "ex5_tilde",
              "ex5_a", "ex5_aprime", "ex5_c"]
    for name in finite:
        assert properties.mesh_additivity_failures(algebras[name]) == [], name

    ex2_alg = str(fixdata.path("ex2.alg"))
    argv = ["bb-verify", ex2_alg]
    for n in fixdata.MEMBER_SETS[("ex2", "m")]:
        argv += ["-m", str(fixdata.path(f"ex2_{n}.rep"))]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first

    dot_args = ["ar-quiver", str(fixdata.path("a3.alg")), "--dot"]
    main(dot_args)
    d1 = capsys.readouterr().out
    main(dot_args)
    assert capsys.readouterr().out == d1
