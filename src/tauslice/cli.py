"""Command line front end.

Commands read algebras and modules in the ``.alg`` / ``.rep`` formats of
:mod:`tauslice.formats` and print one JSON report to stdout: command,
algebra hash, verdict, witnesses (dimension vectors with AR-quiver
discovery indices where known), and a timing slot (normalised to "-" so
reports are byte-identical across runs).  Exit status: 0 for a true verdict
or plain success, 1 for a false verdict, 2 for errors, caps and
inconclusive searches.

Modules are selected by ``-m``: a path to a ``.rep`` file, a dimension
vector like ``1,1,0`` (resolved against the AR quiver; ambiguity is an
error listing the candidates), or ``node:<k>`` for a discovery index.
"""

import json
import re
import sys
from pathlib import Path

from .exactlin import FieldError
from .algebra import (
    CapExceeded,
    NotBasic,
    NotNilpotent,
    PresentedAlgebra,
    ideal_bimodule,
    isomorphism_failure,
    one_point_coextension,
    one_point_extension,
    quotient,
    split_extension,
)
from .formats import (
    CliError,
    _parse_relation_terms,
    algebra_hash,
    field_from_spec,
    field_spec,
    parse_algebra_text,
    parse_rep_text,
    print_algebra,
    print_rep,
)
from .modrep import DecompositionStalled, Representation, direct_sum
from .artheory import (
    ar_quiver,
    end_algebra,
    is_hereditary,
    relation_extension_bimodule,
    tau_power,
)
from .tautilt import (
    bb_verify,
    count_support_tau_tilting,
    find_complete_tau_slices,
    is_complete_slice,
    is_complete_tau_slice,
    is_local_slice,
    is_presection,
    is_section,
    is_support_tau_tilting,
    is_tau_rigid,
    is_tau_slice,
    is_tau_tilting,
    is_tilted,
    is_tilting,
    onepoint_slice_extend,
    orbit_graph,
    quotient_preservation_check,
    slice_candidate,
    torsion_pair_of,
)


def _load(path, parse, *context):
    """Parse the file at ``path`` with ``parse(text, *context)``."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None
    return parse(text, *context)


# ---------------------------------------------------------------------------
# module selectors


_DIMS_RE = re.compile(r"\d+(?:,\d+)*")


def resolve_module(sel: str, a: PresentedAlgebra, cap: int) -> Representation:
    """A ``.rep`` path, ``node:<k>``, or a dimension vector like ``1,0,2``."""
    p = Path(sel)
    if p.suffix == ".rep" or p.exists():
        return _load(p, parse_rep_text, a)
    if sel.startswith("node:"):
        try:
            k = int(sel[5:])
        except ValueError:
            raise CliError(f"bad node selector {sel!r} (use node:<k>)") from None
        reps = ar_quiver(a, max_nodes=cap).representatives()
        if not 0 <= k < len(reps):
            raise CliError(f"node index {k} out of range (0..{len(reps) - 1})")
        return reps[k]
    if _DIMS_RE.fullmatch(sel):
        dims = tuple(int(x) for x in sel.split(","))
        if len(dims) != a.quiver.n_vertices:
            raise CliError(
                f"dimension vector {sel} has {len(dims)} entries, "
                f"algebra has {a.quiver.n_vertices} vertices"
            )
        reps = ar_quiver(a, max_nodes=cap).representatives()
        hits = [(k, r) for k, r in enumerate(reps) if r.dims == dims]
        if not hits:
            raise CliError(f"no indecomposable with dimension vector {sel}")
        if len(hits) > 1:
            listing = ", ".join(f"node:{k}" for k, _r in hits)
            raise CliError(
                f"dimension vector {sel} is ambiguous; candidates: {listing}"
            )
        return hits[0][1]
    raise CliError(f"cannot interpret module selector {sel!r}")


def _gather_modules(args, a: PresentedAlgebra):
    if not args.module:
        raise CliError("no modules given (use -m)")
    return [resolve_module(sel, a, args.cap) for sel in args.module]


def _module_sum(args, a: PresentedAlgebra):
    """The direct sum of the ``-m`` modules."""
    mods = _gather_modules(args, a)
    if len(mods) == 1:
        return mods[0]
    total, _i, _p = direct_sum(a, mods)
    return total


# ---------------------------------------------------------------------------
# reports


def _witness(rep, index=None):
    return {"dims": list(rep.dims), "index": index}


def _indexed_witnesses(reps, a, cap):
    """Attach AR discovery indices when the AR quiver is available."""
    try:
        arq = ar_quiver(a, max_nodes=cap)
    except CapExceeded:
        return [_witness(r) for r in reps]
    return [_witness(r, arq.find(r)) for r in reps]


def emit(command, a, verdict, witnesses=None, extra=None):
    out = {
        "command": command,
        "algebra_hash": algebra_hash(a),
        "verdict": verdict,
        "witnesses": witnesses or [],
        "timings": "-",
    }
    if extra:
        out.update(extra)
    print(json.dumps(out, indent=2))


def _write_out(args, text):
    """Write ``text`` to the ``--out`` path, when one was given."""
    if args.out:
        Path(args.out).write_text(text)


# ---------------------------------------------------------------------------
# commands


def cmd_info(args, a):
    q = a.quiver
    emit("info", a, True, extra={
        "field": field_spec(a.field),
        "vertices": list(q.vertices),
        "arrows": [[ar.name, ar.source, ar.target] for ar in q.arrows],
        "relations": len(a.relations),
        "dimension": a.dim,
        "hereditary": is_hereditary(a),
    })
    return 0


def cmd_indecomposables(args, a):
    arq = ar_quiver(a, max_nodes=args.cap)
    wits = []
    for node in arq.nodes:
        w = _witness(node.rep, node.ident)
        w["projective"] = node.projective_label
        w["injective"] = node.injective_label
        wits.append(w)
    emit("indecomposables", a, True, wits, extra={"count": arq.count})
    return 0


def _dot_text(arq) -> str:
    lines = ["digraph AR {", "  rankdir=LR;"]
    for node in arq.nodes:
        label = "(" + ",".join(str(d) for d in node.rep.dims) + ")"
        marks = []
        if node.projective_label is not None:
            marks.append("P" + node.projective_label)
        if node.injective_label is not None:
            marks.append("I" + node.injective_label)
        if marks:
            label += "\\n" + " ".join(marks)
        lines.append(f'  n{node.ident} [label="{label}"];')
    for (s, t) in sorted(arq.arrows):
        mult = arq.arrows[(s, t)]
        attr = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f"  n{s} -> n{t}{attr};")
    for s in sorted(arq.tau_link):
        t = arq.tau_link[s]
        lines.append(f"  n{s} -> n{t} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_ar_quiver(args, a):
    arq = ar_quiver(a, max_nodes=args.cap)
    if args.dot:
        sys.stdout.write(_dot_text(arq))
        return 0
    emit("ar-quiver", a, True, extra={
        "nodes": [
            {"index": n.ident, "dims": list(n.rep.dims),
             "projective": n.projective_label, "injective": n.injective_label}
            for n in arq.nodes
        ],
        "arrows": [[s, t, m] for (s, t), m in sorted(arq.arrows.items())],
        "tau": [[s, t] for s, t in sorted(arq.tau_link.items())],
    })
    return 0


def cmd_tau(args, a):
    m = _module_sum(args, a)
    out = tau_power(m, -args.power if args.inverse else args.power)
    _write_out(args, print_rep(out))
    emit("tau", a, True, [_witness(out)], extra={
        "inverse": args.inverse,
        "power": args.power,
        "source_dims": list(m.dims),
    })
    return 0


_MODULE_CHECKS = {
    "tau-rigid": is_tau_rigid,
    "tau-tilting": is_tau_tilting,
    "support-tau-tilting": is_support_tau_tilting,
    "tilting": is_tilting,
}

_SLICE_CHECKS = {
    "presection": lambda sig, args: is_presection(sig),
    "tau-slice": lambda sig, args: is_tau_slice(sig),
    "complete-tau-slice": lambda sig, args: is_complete_tau_slice(sig),
    "section": lambda sig, args: is_section(sig, ar_quiver(sig.algebra, max_nodes=args.cap)),
    "complete-slice": lambda sig, args: is_complete_slice(sig, max_nodes=args.cap),
    "local-slice": lambda sig, args: is_local_slice(sig),
}


def cmd_check(args, a):
    kind = args.kind
    if kind == "tilted":
        v = is_tilted(a, search_cap=args.limit, max_nodes=args.cap)
        wits = []
        if v.witness is not None:
            wits = _indexed_witnesses(v.witness.members, a, args.cap)
        emit("check tilted", a, v.verdict, wits, extra={"explored": v.explored})
        if v.verdict == "tilted":
            return 0
        if v.verdict == "not-tilted":
            return 1
        return 2
    if kind in _MODULE_CHECKS:
        m = _module_sum(args, a)
        verdict = _MODULE_CHECKS[kind](m)
        emit(f"check {kind}", a, verdict, [_witness(m)])
        return 0 if verdict else 1
    mods = _gather_modules(args, a)
    sig = slice_candidate(a, mods)
    verdict = _SLICE_CHECKS[kind](sig, args)
    emit(f"check {kind}", a, verdict,
         [_witness(u) for u in sig.members])
    return 0 if verdict else 1


def cmd_bb_verify(args, a):
    m = _module_sum(args, a)
    r = bb_verify(m, max_nodes=args.cap)
    ok = (
        r.part1_isomorphism
        and r.hom_equivalence
        and r.ext_equivalence == r.tau_agree
    )
    emit("bb-verify", a, ok, extra={
        "part1_isomorphism": r.part1_isomorphism,
        "hom_equivalence": r.hom_equivalence,
        "ext_equivalence": r.ext_equivalence,
        "tau_agree": r.tau_agree,
        "fac_count": len(r.fac_modules),
        "sub_tau_count": len(r.sub_tau_a_modules),
        "x_count": len(r.x_modules),
        "y_count": len(r.y_modules),
        "annihilator_dim": len(r.annihilator),
        "sub_witness": list(r.sub_witness.dims) if r.sub_witness is not None else None,
    })
    return 0 if ok else 1


def cmd_torsion_pair(args, a):
    m = _module_sum(args, a)
    tp = torsion_pair_of(m, max_nodes=args.cap)
    emit("torsion-pair", a, tp.orthogonal, extra={
        "torsion": [list(x.dims) for x in tp.torsion],
        "torsion_free": [list(x.dims) for x in tp.torsion_free],
        "neither": [list(x.dims) for x in tp.neither],
        "splitting": tp.splitting,
    })
    return 0 if tp.orthogonal else 1


def _parse_gens(args, a):
    gens = []
    for v in args.kill_vertex or []:
        if v not in a.quiver.vertex_index:
            raise CliError(f"unknown vertex {v!r}")
        gens.append(a.idempotent(v))
    for text in args.relation or []:
        gens.append(_parse_relation_terms(text, a.quiver, a.field))
    return gens


def cmd_quotient(args, a):
    gens = _parse_gens(args, a)
    if args.module:
        mods = _gather_modules(args, a)
        sig = slice_candidate(a, mods)
        r = quotient_preservation_check(sig, gens)
        text = print_algebra(r.qmap.target)
        _write_out(args, text)
        emit("quotient", a, r.passed, extra={
            "quotient_dimension": r.qmap.target.dim,
            "tau_slice_preserved": r.tau_slice_preserved,
            "tau_matches": r.tau_matches,
            "tau_inverse_matches": r.tau_inverse_matches,
            "ending_sequences_match": r.ending_sequences_match,
            "starting_sequences_match": r.starting_sequences_match,
            "algebra_text": text,
        })
        return 0 if r.passed else 1
    qmap = quotient(a, gens)
    text = print_algebra(qmap.target)
    _write_out(args, text)
    emit("quotient", a, True, extra={
        "quotient_dimension": qmap.target.dim,
        "algebra_text": text,
    })
    return 0


def cmd_endo(args, a):
    m = _module_sum(args, a)
    er = end_algebra(m)
    text = print_algebra(er.algebra)
    _write_out(args, text)
    emit("endo", a, True, extra={
        "summands": [list(s.dims) for s in er.summands],
        "dimension": er.algebra.dim,
        "hereditary": is_hereditary(er.algebra),
        "algebra_text": text,
    })
    return 0


def cmd_extend(args, a):
    mode = args.mode
    if mode in ("one-point", "coextend"):
        x = _module_sum(args, a)
        if args.slice_member:
            members = [resolve_module(s, a, args.cap) for s in args.slice_member]
            sig = slice_candidate(a, members)
            res = onepoint_slice_extend(
                a, sig, x, new_vertex=args.vertex, arrow_prefix=args.prefix
            )
            text = print_algebra(res.extension.algebra)
            _write_out(args, text)
            emit("extend one-point", a, res.verified,
                 [_witness(u) for u in res.slice.members],
                 extra={
                     "new_vertex": res.extension.new_vertex,
                     "complete": res.complete,
                     "algebra_text": text,
                 })
            return 0 if res.verified else 1
        build = one_point_extension if mode == "one-point" else one_point_coextension
        res = build(a, x, new_vertex=args.vertex, arrow_prefix=args.prefix)
        text = print_algebra(res.algebra)
        _write_out(args, text)
        emit(f"extend {mode}", a, True, extra={
            "new_vertex": res.new_vertex,
            "new_arrows": list(res.new_arrows),
            "dimension": res.algebra.dim,
            "algebra_text": text,
        })
        return 0
    if mode == "split":
        gens = _parse_gens(args, a)
        if not gens:
            raise CliError("extend split needs ideal generators (-r / --kill-vertex)")
        ib = ideal_bimodule(a, gens)
        c = ib.quotient_map.target
        ser = split_extension(c, ib.bimodule)
        text = print_algebra(ser.algebra)
        _write_out(args, text)
        why = isomorphism_failure(ser.algebra, a, *ib.extension_map(ser))
        if why:
            raise ArithmeticError(f"C + Q -> A, (c, q) -> s(c) + q is no isomorphism: {why}")
        emit("extend split", a, True, extra={
            "base_dimension": c.dim,
            "ideal_dimension": ib.bimodule.dim,
            "reproduces_input": True,
            "algebra_text": text,
        })
        return 0
    if mode == "trivial":
        e = relation_extension_bimodule(a)
        ser = split_extension(a, e)
        text = print_algebra(ser.algebra)
        _write_out(args, text)
        emit("extend trivial", a, True, extra={
            "bimodule_dimension": e.dim,
            "dimension": ser.algebra.dim,
            "algebra_text": text,
        })
        return 0
    raise CliError(f"unknown extension mode {mode!r}")


def cmd_slices(args, a):
    found = find_complete_tau_slices(a, limit=args.limit, max_nodes=args.cap)
    arq = ar_quiver(a, max_nodes=args.cap)
    wits = [
        {"members": [
            {"dims": list(u.dims), "index": arq.find(u)} for u in sig.members
        ]}
        for sig in found
    ]
    emit("slices find", a, len(found) > 0, extra={
        "count": len(found),
        "slices": wits,
    })
    return 0 if found else 1


def cmd_orbit_graph(args, a):
    arq = ar_quiver(a, max_nodes=args.cap)
    seed = None
    if args.seed:
        seed = resolve_module(args.seed, a, args.cap)
    og = orbit_graph(arq, seed)
    tree = og.is_tree()
    emit("orbit-graph", a, tree, extra={
        "orbit_count": og.node_count,
        "edge_count": og.edge_count,
        "orbits": [list(o) for o in og.orbits],
        "edges": [list(e) for e in og.edges],
        "is_tree": tree,
    })
    return 0 if tree else 1


def cmd_count_stt(args, a):
    n = count_support_tau_tilting(a, cap=args.cap)
    emit("count-stt", a, True, extra={"count": n})
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _positive_int(text: str) -> int:
    import argparse  # loaded by build_parser before any argument is parsed

    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return n


def _add_common(p, modules=False):
    p.add_argument("algebra", help="path to a .alg file")
    p.add_argument("--field", type=field_from_spec, default=None,
                   help="override the field (Q or F<p>)")
    p.add_argument("--cap", type=_positive_int, default=512,
                   help="bound on AR-quiver size (default 512)")
    if modules:
        p.add_argument("-m", "--module", action="append", default=[],
                       help=".rep path, dimension vector, or node:<k>")


def build_parser():
    import argparse  # here, so that importing tauslice.cli does not load it

    parser = argparse.ArgumentParser(
        prog="tauslice",
        description="Exact tau-tilting, slice and tilting checks for bound "
                    "quiver algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="algebra summary")
    _add_common(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("indecomposables", help="list the indecomposables")
    _add_common(p)
    p.set_defaults(fn=cmd_indecomposables)

    p = sub.add_parser("ar-quiver", help="Auslander-Reiten quiver")
    _add_common(p)
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.set_defaults(fn=cmd_ar_quiver)

    p = sub.add_parser("tau", help="Auslander-Reiten translate")
    _add_common(p, modules=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--power", type=_positive_int, default=1)
    p.add_argument("--out", help="write the result as a .rep file")
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("check", help="boolean predicates")
    p.add_argument("kind", choices=sorted(
        list(_MODULE_CHECKS) + list(_SLICE_CHECKS) + ["tilted"]
    ))
    _add_common(p, modules=True)
    p.add_argument("--limit", type=_positive_int, default=10000,
                   help="search budget for check tilted")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bb-verify", help="torsion-pair equivalence verification")
    _add_common(p, modules=True)
    p.set_defaults(fn=cmd_bb_verify)

    p = sub.add_parser("torsion-pair", help="(Fac M, Sub tau M) classification")
    _add_common(p, modules=True)
    p.set_defaults(fn=cmd_torsion_pair)

    p = sub.add_parser("quotient", help="quotient algebra, slice preservation")
    _add_common(p, modules=True)
    p.add_argument("-r", "--relation", action="append", default=[],
                   help="ideal generator, e.g. 'al' or 'al*be - om*de'")
    p.add_argument("--kill-vertex", action="append", default=[])
    p.add_argument("--out", help="write the quotient as a .alg file")
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("endo", help="endomorphism algebra presentation")
    _add_common(p, modules=True)
    p.add_argument("--out", help="write the presentation as a .alg file")
    p.set_defaults(fn=cmd_endo)

    p = sub.add_parser("extend", help="extensions of the algebra")
    p.add_argument("mode", choices=["one-point", "coextend", "split", "trivial"])
    _add_common(p, modules=True)
    p.add_argument("-r", "--relation", action="append", default=[],
                   help="ideal generator for split mode")
    p.add_argument("--kill-vertex", action="append", default=[])
    p.add_argument("--vertex", default=None, help="label for the new vertex")
    p.add_argument("--prefix", default="w", help="name prefix for new arrows")
    p.add_argument("--slice-member", action="append", default=[],
                   help="slice member to carry through a one-point extension")
    p.add_argument("--out", help="write the extension as a .alg file")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("slices", help="slice searches")
    p.add_argument("action", choices=["find"])
    _add_common(p)
    p.add_argument("--limit", type=_positive_int, default=10000)
    p.set_defaults(fn=cmd_slices)

    p = sub.add_parser("orbit-graph", help="tau-orbit graph of a component")
    _add_common(p)
    p.add_argument("--seed", default=None,
                   help="module selector picking the component")
    p.set_defaults(fn=cmd_orbit_graph)

    p = sub.add_parser("count-stt", help="support tau-tilting census")
    _add_common(p)
    p.set_defaults(fn=cmd_count_stt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, _load(args.algebra, parse_algebra_text, args.field))
    except CliError as e:
        print(json.dumps({"command": args.command, "error": str(e)}, indent=2))
        return 2
    except (CapExceeded, NotBasic, NotNilpotent, FieldError, ValueError,
            DecompositionStalled, ArithmeticError) as e:
        print(json.dumps({
            "command": args.command,
            "error": f"{type(e).__name__}: {e}",
        }, indent=2))
        return 2


if __name__ == "__main__":
    sys.exit(main())
