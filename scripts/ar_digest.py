#!/usr/bin/env python3
"""Print two SHA-256 per AR closure, one over every matrix the closure
computed and one over what it decided, and one per fixture for its
quotients, extensions and orbit graph.

For each representation-finite fixture and each field it digests the
closure's node matrices, the minimal presentation of every node (cover,
differential, syzygy and its inclusion), tau and tau^-1 of every node, the
arrows with their multiplicities, the tau-links and every mesh (the maps of
the almost split sequence and its middle summands).  The closures of the
representation-infinite fig2, which stop with ``CapExceeded``, are digested
from what they left in the algebra's cache: each almost split sequence,
presentation and translate, in the order they were computed.

The second line of each closure, the invariant tier, digests only what
does not depend on the representatives the engine picks: per node in id
order its dimension vector, projective and injective labels, dim End and
the dimension vectors of its top and socle; the arrows with their
multiplicities; the tau-links; how the closure ended; and, on the
representation-finite fixtures, dim Hom for every ordered pair of nodes.
For the capped fig2 closures it reads the almost split sequences from the
cache, as the matrix tier does, and digests the sorted dimension vectors
of their right and left ends and middle summands.  A change must keep the
invariant tier; it may move the matrix tier only with a stated reason.

Per fixture and field it also digests the printed algebra (and the vertex
and arrow images) of ``quotient`` by each vertex, each arrow and each
arrow minus another parallel basis path; the printed one-point extension
and coextension by each simple, projective and injective; the trivial
extension by the relation-extension bimodule; the split extension that
``ideal_bimodule`` gives for the ideal of each arrow; and, for the
representation-finite fixtures, the orbit graph of the AR quiver.

The fig2 records list only what the closure computed: a change that
computes less (a translate it no longer needs, say) drops records from
them, and their digests change with nothing else changed.  Middle summands
are the exception: a mesh record reads them, so a middle term that the
closure knitted without decomposing it is decomposed here.

Running it on two commits gives a one-command check that a change leaves
the AR data and these constructions byte-identical:

    python3 scripts/ar_digest.py > after.txt
    (cd ../parent && python3 scripts/ar_digest.py) > before.txt
    diff before.txt after.txt

With ``--lines`` each digest line is followed by one line per digested
record: a short hash of the record and the start of its first line.  Run
on both commits, a diff then names the records that changed, were added
or were dropped.  Without it the output is the digests alone.

Usage: python3 scripts/ar_digest.py [--lines]
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tauslice import fixtures as fixdata  # noqa: E402
from tauslice.algebra import (  # noqa: E402
    CapExceeded, ideal_bimodule, one_point_coextension, one_point_extension,
    quotient, split_extension,
)
from tauslice.artheory import (  # noqa: E402
    ar_quiver, minimal_presentation, relation_extension_bimodule, tau,
    tau_inverse,
)
from tauslice.formats import field_from_spec, parse_algebra_text, print_algebra  # noqa: E402
from tauslice.modrep import (  # noqa: E402
    hom_dim, injective, projective, simple, socle_rep, top_rep,
)
from tauslice.tautilt import orbit_graph  # noqa: E402

FINITE = ["a2", "a3", "ex1", "ex2", "fig1", "fig3",
          "ex5_tilde", "ex5_a", "ex5_aprime", "ex5_c"]
#: (field, cap) of each digested fig2 closure
FIG2_CLOSURES = [("Q", 24), ("Q", 32), ("Q", 48), ("F5", 24), ("F5", 32), ("F5", 64)]


def mat(m):
    return f"{m.nrows}x{m.ncols}:" + ";".join(",".join(map(str, r)) for r in m.rows)


def rep(r):
    return "dims=" + ",".join(map(str, r.dims)) + " maps=" + "|".join(map(mat, r.maps))


def morph(f):
    return "|".join(map(mat, f.blocks))


def presentation(m):
    p = minimal_presentation(m)
    return "\n".join([
        "p0=" + ",".join(p.p0.vertex_list), "cover=" + morph(p.cover),
        "omega=" + rep(p.omega), "omega_incl=" + morph(p.omega_incl),
        "p1=" + ",".join(p.p1.vertex_list), "p1_cover=" + morph(p.p1_cover),
        "differential=" + morph(p.differential),
    ])


def mesh(ass):
    lines = ["left=" + rep(ass.left), "right=" + rep(ass.right),
             "middle=" + rep(ass.ses.middle),
             "left_map=" + morph(ass.ses.left_map),
             "right_map=" + morph(ass.ses.right_map)]
    lines += [f"summand x{k}=" + rep(s) for s, k in ass.middle_summands]
    return "\n".join(lines)


def finite_lines(a):
    g = ar_quiver(a)
    for node in g.nodes:
        yield (f"node {node.ident} P={node.projective_label} "
               f"I={node.injective_label} " + rep(node.rep))
        yield presentation(node.rep)
        yield "tau=" + rep(tau(node.rep))
        yield "tau_inverse=" + rep(tau_inverse(node.rep))
    yield "arrows=" + repr(sorted(g.arrows.items()))
    yield "tau_link=" + repr(sorted(g.tau_link.items()))
    for ident in sorted(g.meshes):
        yield f"mesh {ident}\n" + mesh(g.meshes[ident])


def finite_invariant_lines(a):
    g = ar_quiver(a)
    for node in g.nodes:
        r = node.rep
        yield (f"node {node.ident} P={node.projective_label} I={node.injective_label} "
               f"dims={r.dims} end={hom_dim(r, r)} "
               f"top={top_rep(r)[0].dims} "
               f"socle={socle_rep(r)[0].dims}")
    yield "arrows=" + repr(sorted(g.arrows.items()))
    yield "tau_link=" + repr(sorted(g.tau_link.items()))
    yield "closed"
    reps = g.representatives()
    for i, x in enumerate(reps):
        yield f"hom {i}: " + " ".join(str(hom_dim(x, y)) for y in reps)


def close_capped(a, cap):
    """How the closure of ``a`` at ``cap`` nodes ended."""
    try:
        ar_quiver(a, max_nodes=cap)
    except CapExceeded as e:
        return f"capped: {e}"
    return "closed"


def capped_invariant_lines(a, ending):
    yield ending
    meshes = [(ass.right.dims, ass.left.dims, sorted((s.dims, k) for s, k in ass.middle_summands))
              for key, ass in list(a._cache.items())
              if isinstance(key, tuple) and key[0] == "almost_split_sequence"]
    for right, left, middle in sorted(meshes):
        yield f"mesh right={right} left={left} middle={middle}"


def capped_lines(a, ending):
    yield ending
    for key, val in list(a._cache.items()):
        if not isinstance(key, tuple):
            continue
        if key[0] == "almost_split_sequence":
            yield "mesh\n" + mesh(val)
        elif key[0] == "presentation":
            yield "presentation of " + rep(key[1]) + "\n" + presentation(key[1])
        elif key[0] in ("tau", "tau_inverse"):
            yield f"{key[0]} of " + rep(key[1]) + " = " + rep(val)


def bimodule_lines(a):
    bim = relation_extension_bimodule(a)
    yield f"dim={bim.dim}"
    for side, action in (("left", bim.left), ("right", bim.right)):
        for key in sorted(action):
            yield f"{side} {key[0]} {key[1]}=" + mat(action[key])


def recorded(make):
    """make(), or the exception it raises, as text."""
    try:
        return make()
    except (ArithmeticError, RuntimeError, ValueError) as e:
        # FieldTooSmall, DecompositionStalled and the like are part of the
        # record
        return f"raised {type(e).__name__}: {e}"


def quotient_lines(a):
    q, fld = a.quiver, a.field
    gens = [a.idempotent(v) for v in q.vertices]
    gens += [a.arrow_element(ar.name) for ar in q.arrows]
    for i in range(len(q.arrows)):
        src, tgt = q.arrow_source[i], q.arrow_target[i]
        gens += [{(src, (i,)): fld.one(), w: fld.neg(fld.one())} for w in a.basis
                 if w[1] not in ((), (i,)) and w[0] == src and a.word_target(w) == tgt]
    for g in gens:
        qmap = recorded(lambda: quotient(a, [g]))
        yield f"quotient by {g!r}"
        if isinstance(qmap, str):
            yield qmap
            continue
        yield print_algebra(qmap.target)
        yield f"alive={qmap.vertex_alive!r} images={qmap.arrow_images!r}"


def extension_lines(a):
    for v in a.quiver.vertices:
        for make in (simple, projective, injective):
            for build in (one_point_extension, one_point_coextension):
                yield f"{build.__name__} by {make.__name__} {v}"
                res = recorded(lambda: build(a, make(a, v)))
                yield res if isinstance(res, str) else print_algebra(res.algebra)
    yield "trivial extension"
    res = recorded(lambda: split_extension(a, relation_extension_bimodule(a)))
    yield res if isinstance(res, str) else print_algebra(res.algebra)
    for ar in a.quiver.arrows:
        yield f"split extension by the ideal of {ar.name}"
        ib = recorded(lambda: ideal_bimodule(a, [a.arrow_element(ar.name)]))
        if isinstance(ib, str):
            yield ib
            continue
        res = recorded(lambda: split_extension(ib.quotient_map.target, ib.bimodule))
        yield print_algebra(ib.quotient_map.target)
        yield res if isinstance(res, str) else print_algebra(res.algebra)


def orbit_graph_lines(a):
    og = recorded(lambda: orbit_graph(ar_quiver(a)))
    yield og if isinstance(og, str) else f"orbits={og.orbits!r} edges={og.edges!r}"


def digest(lines, records=None):
    """SHA-256 of the lines; each line is also appended to ``records``
    when a list is given."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
        if records is not None:
            records.append(line)
    return h.hexdigest()


def report(label, text, records):
    """Print a digest line, then one line per record in ``records`` (a
    short hash and the start of its first line), and empty it."""
    print(f"{label} {text}")
    if records:
        for line in records:
            short = hashlib.sha256(line.encode()).hexdigest()[:12]
            first = line.split("\n", 1)[0]
            print(f"  {short} {first[:96]}")
        records.clear()


def load(name, spec):
    return parse_algebra_text(fixdata.path(f"{name}.alg").read_text(),
                              None if spec == "Q" else field_from_spec(spec))


def guarded_digest(lines, records=None):
    return recorded(lambda: digest(lines, records))


def main(argv):
    if argv not in ([], ["--lines"]):
        sys.exit("usage: ar_digest.py [--lines]")
    rec = [] if argv else None
    for name in FINITE:
        for spec in ("Q", "F5", "F3"):
            a = load(name, spec)
            report(f"{name} {spec}", guarded_digest(finite_lines(a), rec), rec)
            report(f"invariants {name} {spec}",
                   guarded_digest(finite_invariant_lines(a), rec), rec)
    for spec, cap in FIG2_CLOSURES:
        a = load("fig2", spec)
        ending = close_capped(a, cap)
        report(f"fig2 {spec} cap={cap}", digest(capped_lines(a, ending), rec), rec)
        report(f"invariants fig2 {spec} cap={cap}",
               digest(capped_invariant_lines(a, ending), rec), rec)
    for name in FINITE + ["fig2"]:
        for spec in ("Q", "F5", "F3"):
            report(f"bimodule {name} {spec}",
                   guarded_digest(bimodule_lines(load(name, spec)), rec), rec)
    for name in FINITE + ["fig2"]:
        for spec in ("Q", "F5", "F3"):
            report(f"quotients {name} {spec}", digest(quotient_lines(load(name, spec)), rec), rec)
            report(f"extensions {name} {spec}",
                   digest(extension_lines(load(name, spec)), rec), rec)
            if name != "fig2":
                report(f"orbit_graph {name} {spec}",
                       digest(orbit_graph_lines(load(name, spec)), rec), rec)


if __name__ == "__main__":
    main(sys.argv[1:])
