import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tauslice import fixtures as fixdata
from tauslice.algebra import (
    Bimodule, CapExceeded, ideal_bimodule, presentation_isomorphism,
)
from tauslice.exactlin import Matrix, QQ
from tauslice.formats import field_from_spec, parse_algebra_text, print_algebra
from tauslice.modrep import (
    Representation, iso_index, simple, projective, direct_sum, hom_dim, is_isomorphic, is_faithful,
    is_sincere, annihilator_span, inflate_along_quotient,
)
from tauslice.artheory import (
    tau, ar_quiver, relation_extension_bimodule, is_hereditary,
    local_in_neighbors, local_out_neighbors,
)
from tauslice.tautilt import (
    is_tau_rigid, is_tau_tilting, is_support_tau_tilting, is_tilting,
    count_support_tau_tilting, slice_candidate, tau_module,
    tau_inverse_module, is_presection, is_tau_slice, is_complete_tau_slice,
    is_convex_in_mod_a, is_weakly_convex, is_sectionally_convex,
    is_section, is_complete_slice, is_local_slice,
    torsion_pair_of, bb_verify, bb_verify_dual, quotient_preservation_check,
    orbit_graph, tau_orbits, is_simply_connected_component,
    is_tilted, find_complete_tau_slices,
    onepoint_slice_extend, splitex_check, _tau_rigid_cliques,
)

from helpers import w, dims_multiset
from properties import is_generalized_standard


def members_of(a, name, group):
    return fixdata.members(a, name, group)


def sigma_of(a, name, group):
    return slice_candidate(a, members_of(a, name, group))


# ---------------------------------------------------------------------------
# tau-rigidity, tau-tilting, support


def test_two_vertex_line_classification(a2):
    p1, s1, s2 = projective(a2, "1"), simple(a2, "1"), simple(a2, "2")
    both = direct_sum(a2, [p1, s2])[0]
    assert is_tau_tilting(both) and is_tilting(both)
    mixed = direct_sum(a2, [p1, s1])[0]
    assert is_support_tau_tilting(mixed)
    assert is_tilting(mixed)  # faithful, pd <= 1, no self-extensions
    assert is_support_tau_tilting(s1)  # support {1}
    assert not is_support_tau_tilting(p1)  # sincere but too few summands
    assert is_tau_rigid(p1)


def test_support_tau_tilting_counts(a2, a3):
    assert count_support_tau_tilting(a2) == 5
    assert count_support_tau_tilting(a3) == 14


@pytest.mark.parametrize("name", ["a3", "ex1"])
def test_clique_generator_lists_compatible_sets_once_in_lex_order(algebras, name):
    a = algebras[name]
    nodes = ar_quiver(a).representatives()
    taus = [tau(x) for x in nodes]
    vanish = [[hom_dim(x, t) == 0 for t in taus] for x in nodes]
    compatible = sorted(
        c
        for k in range(len(nodes) + 1)
        for c in itertools.combinations(range(len(nodes)), k)
        if all(vanish[i][j] for i in c for j in c)
    )
    got = list(_tau_rigid_cliques(nodes, len(nodes)))
    assert got == compatible
    # size caps the cliques, min_size prunes branches that cannot reach it
    n = a.quiver.n_vertices
    full = [c for c in compatible if len(c) == n]
    capped = list(_tau_rigid_cliques(nodes, n, n))
    assert [c for c in capped if len(c) == n] == full
    assert all(len(c) <= n for c in capped)


def test_ex2_module_is_tau_tilting_not_tilting(ex2):
    m = direct_sum(ex2, members_of(ex2, "ex2", "m"))[0]
    assert is_tau_rigid(m)
    assert is_tau_tilting(m)
    assert is_support_tau_tilting(m)
    assert not is_tilting(m)
    assert annihilator_span(m).nrows == 1


def test_torsion_pair_ex2(ex2):
    m = direct_sum(ex2, members_of(ex2, "ex2", "m"))[0]
    report = torsion_pair_of(m)
    assert (len(report.torsion), len(report.torsion_free)) == (6, 5)
    assert len(report.neither) == 2
    assert report.orthogonal
    assert not report.splitting
    assert sorted(x.dims for x in report.neither) == [(1, 0, 1, 0), (1, 2, 1, 1)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.data())
def test_tau_rigid_iff_pairwise(data):
    a = fixdata.algebra("a3")
    reps = ar_quiver(a).representatives()
    picks = data.draw(st.lists(st.integers(0, len(reps) - 1), min_size=1,
                               max_size=3, unique=True))
    m = direct_sum(a, [reps[k] for k in picks])[0]
    pairwise = all(
        hom_dim(reps[i], tau(reps[j])) == 0 for i in picks for j in picks
    )
    assert is_tau_rigid(m) == pairwise


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.permutations(range(4)))
def test_support_tau_tilting_order_invariant(perm):
    a = fixdata.algebra("ex2")
    ms = members_of(a, "ex2", "m")
    shuffled = direct_sum(a, [ms[k] for k in perm])[0]
    assert is_support_tau_tilting(shuffled)


# ---------------------------------------------------------------------------
# slice candidates and predicates


def test_slice_candidate_validation(a3):
    p1, s1 = projective(a3, "1"), simple(a3, "1")
    with pytest.raises(ValueError, match="indecomposable"):
        slice_candidate(a3, [direct_sum(a3, [p1, s1])[0]])
    with pytest.raises(ValueError):
        slice_candidate(a3, [p1, p1])


def test_projective_slice_translates(a3):
    sig = slice_candidate(a3, [projective(a3, v) for v in a3.quiver.vertices])
    assert tau_module(sig).total_dim == 0
    assert tau_inverse_module(sig).total_dim > 0
    assert is_complete_tau_slice(sig)
    arq = ar_quiver(a3)
    assert is_section(sig, arq)
    assert is_complete_slice(sig)
    assert is_local_slice(sig)


def test_fig1_both_slices_complete(fig1):
    for group in ("sigma", "sigma_tilde"):
        sig = sigma_of(fig1, "fig1", group)
        assert is_presection(sig), group
        assert is_tau_slice(sig), group
        assert is_complete_tau_slice(sig), group


def test_fig1_slice_census(fig1):
    assert len(find_complete_tau_slices(fig1)) == 6


def test_a3_slice_census(a3):
    assert len(find_complete_tau_slices(a3)) == 4


def test_fig3_slice_profile(fig3):
    sig = sigma_of(fig3, "fig3", "sigma")
    assert is_complete_tau_slice(sig)
    suite = {"convex_in_modA": is_convex_in_mod_a(sig),
             "weakly_convex": is_weakly_convex(sig),
             "sectionally_convex": is_sectionally_convex(sig)}
    assert suite == {"convex_in_modA": False, "weakly_convex": True,
                     "sectionally_convex": True}
    arq = ar_quiver(fig3)
    assert not is_section(sig, arq)
    assert is_local_slice(sig)
    assert not is_complete_slice(sig)


def test_fig2_slice_is_local_only(fig2):
    sig = sigma_of(fig2, "fig2", "sigma")
    assert is_tau_rigid(sig.module())
    assert is_presection(sig)
    assert is_tau_slice(sig)
    assert is_complete_tau_slice(sig)
    assert is_local_slice(sig)
    # certifying a complete slice needs the full list of indecomposables,
    # which does not exist here
    with pytest.raises(CapExceeded):
        is_complete_slice(sig, max_nodes=16)
    m = sig.module()
    assert is_sincere(m)
    assert not is_faithful(m)


def test_fig2_checks_stay_local():
    a = fixdata.algebra("fig2")  # fresh: nothing cached yet
    sig = slice_candidate(a, fixdata.members(a, "fig2", "sigma"))
    assert is_complete_tau_slice(sig)
    assert not any(
        isinstance(k, tuple) and k and k[0] == "ar_quiver" for k in a._cache
    )


# ---------------------------------------------------------------------------
# orbit graphs and component predicates


def test_orbit_graph_tree_on_line(a3):
    arq = ar_quiver(a3)
    og = orbit_graph(arq)
    assert og.node_count == 3
    assert og.is_tree()
    assert is_simply_connected_component(arq)
    assert is_generalized_standard(arq)


def test_fig3_orbit_graph_has_cycle(fig3):
    arq = ar_quiver(fig3)
    og = orbit_graph(arq)
    assert (og.node_count, og.edge_count) == (5, 5)
    assert not og.is_tree()
    assert not is_simply_connected_component(arq)
    assert is_generalized_standard(arq)


def test_fig3_two_members_share_orbit(fig3):
    arq = ar_quiver(fig3)
    m21 = fixdata.module(fig3, "fig3", "m21")
    m52 = fixdata.module(fig3, "fig3", "m52")
    i, j = arq.find(m21), arq.find(m52)
    assert i is not None and j is not None and i != j
    orbits = tau_orbits(arq)
    assert any(i in orbit and j in orbit for orbit in orbits)


@pytest.mark.parametrize("name", [n for n in fixdata.ALGEBRAS if n != "fig2"])
def test_local_neighbors_match_the_ar_quiver(algebras, name):
    # the arrows out of and into each node, read off its own almost split
    # sequences (or x/soc x and rad y), are those of the closure; an equal
    # copy of the node gets the same memoised tuple
    a = algebras[name]
    arq = ar_quiver(a)
    nodes = arq.representatives()
    for i, x in enumerate(nodes):
        out = local_out_neighbors(x)
        into = local_in_neighbors(x)
        assert sorted((iso_index(nodes, y), k) for y, k in out) == sorted(
            (t, k) for (s, t), k in arq.arrows.items() if s == i)
        assert sorted((iso_index(nodes, y), k) for y, k in into) == sorted(
            (s, k) for (s, t), k in arq.arrows.items() if t == i)
        copy = Representation(a, x.dims, x.maps)
        assert isinstance(out, tuple) and local_out_neighbors(copy) is out
        assert isinstance(into, tuple) and local_in_neighbors(copy) is into


# ---------------------------------------------------------------------------
# tiltedness search


def test_is_tilted_verdicts(a3, fig3, fig2):
    va = is_tilted(a3)
    assert va.verdict == "tilted"
    assert va.witness is not None
    assert is_faithful(va.witness.module())
    vf = is_tilted(fig3)
    assert vf.verdict == "not-tilted"
    assert vf.witness is None
    assert vf.explored == 214
    vi = is_tilted(fig2, max_nodes=16)
    assert vi.verdict == "inconclusive"


def test_searches_stop_at_their_budget(fig3):
    v = is_tilted(fig3, search_cap=50)
    assert (v.verdict, v.witness, v.explored) == ("inconclusive", None, 51)
    with pytest.raises(CapExceeded):
        find_complete_tau_slices(fig3, limit=50)


# ---------------------------------------------------------------------------
# the two comparison theorems


def test_bb_verify_ex2_full_equivalence(ex2):
    m = direct_sum(ex2, members_of(ex2, "ex2", "m"))[0]
    report = bb_verify(m)
    assert report.part1_isomorphism
    assert report.hom_equivalence
    assert report.ext_equivalence
    assert report.tau_agree
    assert len(report.fac_modules) == 6
    assert len(report.sub_tau_a_modules) == 5
    assert sorted(x.dims for x in report.x_modules) == [
        (0, 0, 1, 0), (1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 0)]
    assert sorted(y.dims for y in report.y_modules) == [
        (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 0, 0), (0, 1, 0, 1),
        (0, 1, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("field", ["F2", "F3", "F5"])
def test_bb_verify_ex2_over_small_fields_matches_q(ex2, field):
    # End(M) is presented from the radical its blocks give, with no trace
    # form, so characteristic 2, 3 and 5 reach Q's verdicts
    def run(a):
        r = bb_verify(direct_sum(a, members_of(a, "ex2", "m"))[0])
        verdicts = (r.part1_isomorphism, r.hom_equivalence, r.ext_equivalence, r.tau_agree,
                    len(r.fac_modules), len(r.sub_tau_a_modules),
                    dims_multiset(r.x_modules), dims_multiset(r.y_modules))
        return verdicts, print_algebra(r.endo.algebra)

    fld = field_from_spec(field)
    small = parse_algebra_text(fixdata.path("ex2.alg").read_text(), fld)
    (q_verdicts, q_text), (verdicts, text) = run(ex2), run(small)
    assert verdicts == q_verdicts
    assert text == print_algebra(parse_algebra_text(q_text, fld))


def test_bb_verify_ex1_translate_disagreement(ex1):
    m = direct_sum(ex1, members_of(ex1, "ex1", "m"))[0]
    report = bb_verify(m)
    assert report.part1_isomorphism
    assert not report.tau_agree
    assert not report.ext_equivalence
    assert report.sub_witness is not None
    assert report.sub_witness.dims == (0, 1, 1)


def test_bb_verify_dual_on_injectives(a3):
    from tauslice.modrep import injective
    m = direct_sum(a3, [injective(a3, v) for v in a3.quiver.vertices])[0]
    report = bb_verify_dual(m)
    assert report.part1_isomorphism
    assert report.hom_equivalence
    assert report.ext_equivalence
    assert report.tau_agree


# ---------------------------------------------------------------------------
# quotients and extensions that carry slices along


def test_quotient_preservation_ex5(ex5_tilde):
    sig = sigma_of(ex5_tilde, "ex5_tilde", "sigma")
    q = ex5_tilde.quiver
    report = quotient_preservation_check(sig, [{w(q, "1", "om"): Fraction(1)}])
    assert report.passed
    assert report.qmap.target.dim == 8
    assert is_complete_tau_slice(report.slice_over_quotient)


def test_onepoint_slice_extension(ex5_aprime, ex5_a):
    sig1 = sigma_of(ex5_aprime, "ex5_aprime", "sigma1")
    res = onepoint_slice_extend(ex5_aprime, sig1, simple(ex5_aprime, "2"),
                                new_vertex="4", arrow_prefix="de")
    assert res.verified
    assert res.complete
    assert presentation_isomorphism(res.extension.algebra, ex5_a) is not None
    assert sorted(res.slice.dim_vectors()) == [
        (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0)]


def test_onepoint_extension_keeps_old_slice_incomplete(ex5_aprime):
    # sigma2 reaches the extension through Fac(tau^{-1} sigma2) instead
    sig2 = sigma_of(ex5_aprime, "ex5_aprime", "sigma2")
    x = simple(ex5_aprime, "2")
    res = onepoint_slice_extend(ex5_aprime, sig2, x, new_vertex="4",
                                arrow_prefix="de")
    assert res.verified
    assert not res.complete
    assert res.slice.size == sig2.size


def test_split_extension_recovers_algebra(ex5_a):
    from tauslice.formats import parse_rep_text
    q = ex5_a.quiver
    ib = ideal_bimodule(ex5_a, [{w(q, "1", "al"): Fraction(1)}])
    c = ib.quotient_map.target
    members = [
        parse_rep_text(fixdata.path(f"ex5_c_{n}.rep").read_text(), c)
        for n in fixdata.MEMBER_SETS[("ex5_c", "sigma")]
    ]
    sig = slice_candidate(c, members)
    assert is_complete_tau_slice(sig)
    assert is_complete_slice(sig)
    assert is_tilted(c).verdict == "tilted"
    report = splitex_check(c, sig, ib.bimodule)
    assert report.condition_fac
    assert report.condition_sub
    assert report.slice_preserved
    assert report.annihilator_equals_ideal
    assert presentation_isomorphism(report.extension.algebra, ex5_a) is not None


def test_relation_extension_round_trip(ex5_c, ex5_tilde):
    sig = sigma_of(ex5_c, "ex5_c", "sigma")
    bim = relation_extension_bimodule(ex5_c)
    report = splitex_check(ex5_c, sig, bim)
    assert report.condition_fac and report.condition_sub
    assert report.slice_preserved
    assert presentation_isomorphism(report.extension.algebra,
                                    ex5_tilde) is not None


def test_split_extension_can_break_a_slice(a3):
    # a bimodule concentrated at the sink adds a loop; nothing survives
    one = Matrix.identity(QQ, 1)
    zero = Matrix.zero(QQ, 1, 1)
    left = {("e", v): (one if v == "3" else zero) for v in a3.quiver.vertices}
    right = {("e", v): (one if v == "3" else zero) for v in a3.quiver.vertices}
    for ar in a3.quiver.arrows:
        left[("arrow", ar.name)] = zero
        right[("arrow", ar.name)] = zero
    bim = Bimodule(a3, 1, left, right)
    # an omitted mu is a fresh empty table, not one shared between bimodules
    assert bim.mu == {} and bim.mu is not Bimodule(a3, 1, left, right).mu
    bim.check()
    sig = slice_candidate(a3, [projective(a3, v) for v in a3.quiver.vertices])
    report = splitex_check(a3, sig, bim)
    assert any(ar.source == ar.target == "3"
               for ar in report.extension.algebra.quiver.arrows)
    assert not report.condition_fac
    assert not report.condition_sub
    assert not report.slice_preserved
