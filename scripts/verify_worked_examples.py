#!/usr/bin/env python3
"""Recompute the headline facts for every bundled example and cross-check.

Walks the packaged algebras, reports what the engine computes (translates,
slice verdicts, endomorphism presentations, orbit graphs, the quotient /
one-point / split-extension transport chain) and validates the results
against the definition-level oracles in tests/properties.py.  Exit status
is 0 iff every cross-check passes; the printed values themselves are
informational.

Usage: python3 scripts/verify_worked_examples.py [--only NAME ...]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import properties  # noqa: E402  (test-side oracles, reused deliberately)

from tauslice import fixtures as fixdata
from tauslice.algebra import (
    CapExceeded, ideal_bimodule, one_point_extension, presentation_isomorphism,
)
from tauslice.modrep import (
    simple, direct_sum, decompose, annihilator_span, is_faithful, is_sincere,
)
from tauslice.artheory import ar_quiver, end_algebra, is_hereditary
from tauslice.tautilt import (
    is_tau_tilting, is_support_tau_tilting, is_tilting, is_tau_rigid,
    count_support_tau_tilting, slice_candidate, is_presection,
    is_complete_tau_slice, is_complete_slice, tau_orbits, orbit_graph,
    bb_verify, quotient_preservation_check, is_tilted, onepoint_slice_extend,
    splitex_check, find_complete_tau_slices,
)
from tauslice.formats import parse_rep_text

FINITE = ["a2", "a3", "ex1", "ex2", "fig1", "fig3",
          "ex5_tilde", "ex5_a", "ex5_aprime", "ex5_c"]

bad = 0


def check(label, ok):
    global bad
    print(f"  [{'ok' if ok else 'FAIL'}] {label}")
    if not ok:
        bad += 1


def summand_dims(m):
    return sorted(r.dims for r, k in decompose(m) for _ in range(k))


def member_sum(a, name, group):
    return direct_sum(a, fixdata.members(a, name, group))[0]


def show_ex1(algebras):
    a = algebras["ex1"]
    print("ex1: translate over A versus over A/Ann")
    rep = bb_verify(member_sum(a, "ex1", "m"))
    print(f"  tau_A M summands {summand_dims(rep.tau_a)}, "
          f"tau_C M summands {summand_dims(rep.tau_c)}")
    check("Hom(M,-) matches Hom_C after quotient", rep.part1_isomorphism)
    check("Ext-level comparison fails (translates differ)",
          not rep.ext_equivalence and not rep.tau_agree)
    if rep.sub_witness is not None:
        print(f"  witness in Sub(tau_A M) \\ Sub(tau_C M): "
              f"dims {rep.sub_witness.dims}")
    check("witness produced", rep.sub_witness is not None)


def show_ex2(algebras):
    a = algebras["ex2"]
    print("ex2: a tau-tilting module that is not tilting")
    m = member_sum(a, "ex2", "m")
    check("tau-tilting", is_tau_tilting(m))
    check("support tau-tilting", is_support_tau_tilting(m))
    check("not tilting", not is_tilting(m))
    rep = bb_verify(m)
    b = rep.endo.algebra
    arrows = ", ".join(f"{ar.source}->{ar.target}" for ar in b.quiver.arrows)
    print(f"  End(M): dim {b.dim}, arrows {arrows}, "
          f"{len(b.relations)} relation(s)")
    check("End(M) is a one-relation square", len(b.relations) == 1)
    print(f"  Fac M: {len(rep.fac_modules)} classes, "
          f"Sub tau M: {len(rep.sub_tau_a_modules)} classes, "
          f"X: {len(rep.x_modules)}, Y: {len(rep.y_modules)}")
    check("quotient algebra hereditary", is_hereditary(rep.c_map.target))
    check("translates agree over A and A/Ann", rep.tau_agree)
    check("Hom equivalence verified on classes", rep.hom_equivalence)
    check("Ext equivalence verified on classes", rep.ext_equivalence)


def show_fig1(algebras):
    a = algebras["fig1"]
    print("fig1: two complete tau-slices, different endomorphism shapes")
    for group in ("sigma", "sigma_tilde"):
        s = slice_candidate(a, fixdata.members(a, "fig1", group))
        e = end_algebra(s.module()).algebra
        degs = sorted(
            (sum(1 for ar in e.quiver.arrows if v in (ar.source, ar.target))
             for v in e.quiver.vertices), reverse=True)
        check(f"{group} complete tau-slice", is_complete_tau_slice(s))
        check(f"End({group}) hereditary", is_hereditary(e))
        print(f"  End({group}) underlying degrees: {degs}")


def show_fig2(algebras):
    a = fixdata.algebra("fig2")  # fresh: the point is to stay local
    print("fig2: infinite type, slice verified without global enumeration")
    s = slice_candidate(a, fixdata.members(a, "fig2", "sigma"))
    m = s.module()
    check("tau-rigid", is_tau_rigid(m))
    check("presection", is_presection(s))
    check("complete tau-slice", is_complete_tau_slice(s))
    check("no component listing was triggered",
          not any(isinstance(k, tuple) and k and k[0] == "ar_quiver"
                  for k in a._cache))
    try:
        is_complete_slice(s, max_nodes=16)
        check("complete-slice test hits the cap", False)
    except CapExceeded:
        check("complete-slice test hits the cap", True)
    check("sincere but not faithful", is_sincere(m) and not is_faithful(m))
    v = is_tilted(a, max_nodes=16)
    print(f"  bounded tilted search: {v.verdict} (explored {v.explored})")
    check("bounded search stays inconclusive", v.verdict == "inconclusive")


def show_fig3(algebras):
    a = algebras["fig3"]
    print("fig3: complete tau-slice on a component with a cycle of orbits")
    s = slice_candidate(a, fixdata.members(a, "fig3", "sigma"))
    check("complete tau-slice", is_complete_tau_slice(s))
    arq = ar_quiver(a)
    og = orbit_graph(arq)
    print(f"  orbit graph: {og.node_count} orbits, {og.edge_count} edges, "
          f"tree={og.is_tree()}")
    check("orbit graph is not a tree", not og.is_tree())
    i = arq.find(fixdata.module(a, "fig3", "m21"))
    j = arq.find(fixdata.module(a, "fig3", "m52"))
    shared = any(i in orb and j in orb for orb in tau_orbits(arq))
    check("modules (1,1,0,0,0) and (0,1,0,0,1) share an orbit", shared)
    v = is_tilted(a)
    print(f"  tilted search: {v.verdict} (explored {v.explored})")
    check("algebra is not tilted", v.verdict == "not-tilted")


def show_ex5(algebras):
    at, ap, aa = (algebras[k] for k in ("ex5_tilde", "ex5_aprime", "ex5_a"))
    print("ex5: transporting a slice along quotients and extensions")
    arq = ar_quiver(at)
    print(f"  component of the big algebra: {arq.count} modules, dims "
          f"{sorted(n.rep.dims for n in arq.nodes)}")
    st = slice_candidate(at, fixdata.members(at, "ex5_tilde", "sigma"))
    check("slice complete over the big algebra", is_complete_tau_slice(st))
    print(f"  annihilator dimension: {annihilator_span(st.module()).nrows}")
    pres = quotient_preservation_check(st, [at.arrow_element("om")])
    check("slice and translates survive the quotient by om", pres.passed)
    check("image is complete over the quotient",
          is_complete_tau_slice(pres.slice_over_quotient))

    ext = one_point_extension(ap, simple(ap, "2"),
                              new_vertex="4", arrow_prefix="de")
    check("one-point extension reproduces the quotient algebra",
          presentation_isomorphism(ext.algebra, aa) is not None)
    s1 = slice_candidate(ap, fixdata.members(ap, "ex5_aprime", "sigma1"))
    res = onepoint_slice_extend(ap, s1, simple(ap, "2"),
                                new_vertex="4", arrow_prefix="de")
    print(f"  extended slice dims: {sorted(res.slice.dim_vectors())}")
    check("extended slice verified and complete", res.verified and res.complete)

    ib = ideal_bimodule(aa, [aa.arrow_element("al")])
    c = ib.quotient_map.target
    sc = slice_candidate(c, [
        parse_rep_text(fixdata.path(f"ex5_c_{n}.rep").read_text(), c)
        for n in fixdata.MEMBER_SETS[("ex5_c", "sigma")]])
    check("quotient by the ideal is tilted", is_tilted(c).verdict == "tilted")
    check("slice is a complete slice there", is_complete_slice(sc))
    back = splitex_check(c, sc, ib.bimodule)
    check("split extension conditions hold",
          back.condition_fac and back.condition_sub and back.slice_preserved)
    check("split extension reproduces the original algebra",
          presentation_isomorphism(back.extension.algebra, aa) is not None)


def show_oracles(algebras):
    print("cross-checks against definition-level recomputation")
    for name, expect in (("a2", 5), ("a3", 14)):
        got = count_support_tau_tilting(algebras[name])
        alt = properties.recount_definition_level(algebras[name])
        print(f"  support tau-tilting count over {name}: {got}")
        check(f"{name}: brute-force count equals recount", got == alt == expect)
    for name in FINITE:
        check(f"{name}: mesh multiplicities match rad/rad^2",
              properties.mesh_radical_failures(algebras[name]) == [])
        check(f"{name}: mesh additivity",
              properties.mesh_additivity_failures(algebras[name]) == [])
    check("Ext^1 dims equal stable Hom to the translate (sampled)",
          properties.ext_stable_hom_failures(algebras) == [])
    for name in ("a3", "fig1", "fig3", "ex5_tilde"):
        found = find_complete_tau_slices(algebras[name])
        print(f"  complete tau-slices over {name}: {len(found)}")


SECTIONS = {
    "ex1": show_ex1, "ex2": show_ex2, "fig1": show_fig1, "fig2": show_fig2,
    "fig3": show_fig3, "ex5": show_ex5, "oracles": show_oracles,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="*", choices=sorted(SECTIONS),
                    help="restrict to the named sections")
    args = ap.parse_args(argv)
    algebras = {name: fixdata.algebra(name) for name in fixdata.ALGEBRAS}
    for name in args.only or sorted(SECTIONS):
        SECTIONS[name](algebras)
        print()
    print(f"{bad} cross-check failure(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
