"""Command line front end.

Algebras are read from ``.alg`` files::

    field Q
    vertex 1
    vertex 2
    arrow a: 1 -> 2
    relation a*b - 3/2 c*d
    option length_cap 16

and modules from ``.rep`` files tied to an algebra::

    dim 1=1
    dim 2=2
    map a = [[1, 0]]

``#`` starts a comment; missing ``map`` lines mean zero matrices; matrices
are row lists over the algebra's field.  Formats have a canonical printer
(``print_algebra`` / ``print_rep``) and parsing a canonical print returns an
equal presentation, so hashes are stable.

Commands print one JSON report to stdout: command, algebra hash, verdict,
witnesses (dimension vectors with AR-quiver discovery indices where known),
and a timing slot (normalised to "-" so reports are byte-identical across
runs).  Exit status: 0 for a true verdict or plain success, 1 for a false
verdict, 2 for errors, caps and inconclusive searches.

Modules are selected by ``-m``: a path to a ``.rep`` file, a dimension
vector like ``1,1,0`` (resolved against the AR quiver; ambiguity is an
error listing the candidates), or ``node:<k>`` for a discovery index.
"""

import hashlib
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .exactlin import Matrix, QQ, PrimeField, FieldError
from .algebra import (
    Arrow,
    CapExceeded,
    NotBasic,
    NotNilpotent,
    PresentedAlgebra,
    Quiver,
    build_algebra,
    ideal_bimodule,
    one_point_coextension,
    one_point_extension,
    presentation_isomorphism,
    quotient,
    split_extension,
)
from .modrep import DecompositionStalled, Representation, direct_sum
from .artheory import (
    ar_quiver,
    end_algebra,
    is_hereditary,
    relation_extension_bimodule,
    tau,
    tau_inverse,
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


class CliError(Exception):
    """A user-facing problem: bad input, ambiguous selector, parse failure."""


# ---------------------------------------------------------------------------
# scalars and fields


def field_from_spec(spec: str):
    spec = spec.strip()
    if spec == "Q":
        return QQ
    m = re.fullmatch(r"F(?:p:)?(\d+)", spec)
    if m:
        return PrimeField(int(m.group(1)))
    raise CliError(f"unknown field {spec!r} (use Q or F<p>)")


def field_spec(fld) -> str:
    if fld is QQ or isinstance(fld, type(QQ)):
        return "Q"
    return f"F{fld.p}"


def parse_scalar(fld, token: str):
    m = re.fullmatch(r"([+-]?\d+)(?:/(\d+))?", token)
    if not m:
        raise CliError(f"bad coefficient {token!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 1:
        return fld.coerce(num)
    return fld.div(fld.coerce(num), fld.coerce(den))


def scalar_str(fld, value) -> str:
    return str(value)


# ---------------------------------------------------------------------------
# .alg format


_WORD_RE = re.compile(r"[A-Za-z_]\w*(?:\*[A-Za-z_]\w*)*")
_COEFF_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def _parse_relation_terms(rest: str, quiver: Quiver, fld):
    """``[+-] [coeff] word [+- [coeff] word ...]`` into an element dict."""
    tokens = rest.replace("+", " + ").replace("-", " - ").split()
    # re-glue coefficient signs: a lone sign binds to the following term
    elt = {}
    sign = 1
    coeff = None
    for tok in tokens:
        if tok == "+":
            if coeff is not None:
                raise CliError(f"dangling coefficient in relation {rest!r}")
            sign = 1
            continue
        if tok == "-":
            if coeff is not None:
                raise CliError(f"dangling coefficient in relation {rest!r}")
            sign = -1
            continue
        if _COEFF_RE.fullmatch(tok) and coeff is None:
            coeff = parse_scalar(fld, tok)
            continue
        if not _WORD_RE.fullmatch(tok):
            raise CliError(f"bad term {tok!r} in relation {rest!r}")
        names = tok.split("*")
        for name in names:
            if name not in quiver.arrow_index:
                raise CliError(f"unknown arrow {name!r} in relation {rest!r}")
        idxs = tuple(quiver.arrow_index[name] for name in names)
        src = quiver.arrow_source[idxs[0]]
        for k in range(1, len(idxs)):
            if quiver.arrow_source[idxs[k]] != quiver.arrow_target[idxs[k - 1]]:
                raise CliError(f"word {tok!r} is not a path")
        c = coeff if coeff is not None else fld.one()
        if sign < 0:
            c = fld.neg(c)
        key = (src, idxs)
        c = fld.add(elt.get(key, fld.zero()), c)
        if c == fld.zero():
            elt.pop(key, None)
        else:
            elt[key] = c
        sign = 1
        coeff = None
    if coeff is not None:
        raise CliError(f"dangling coefficient in relation {rest!r}")
    if not elt:
        raise CliError(f"empty relation {rest!r}")
    return elt


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_algebra_text(text: str, field_override=None) -> PresentedAlgebra:
    fld = None
    vertices = []
    arrow_specs = {}  # name -> (lineno, source, target)
    relation_lines = []
    length_cap = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip(raw)
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "field":
            if fld is not None:
                raise CliError(f"line {lineno}: repeated field line")
            try:
                fld = field_from_spec(rest)
            except (CliError, ValueError) as e:
                raise CliError(f"line {lineno}: {e}") from None
        elif head == "vertex":
            for label in rest.split():
                if label in vertices:
                    raise CliError(f"line {lineno}: duplicate vertex {label!r}")
                vertices.append(label)
        elif head == "arrow":
            m = re.fullmatch(r"(\w+)\s*:\s*(\S+)\s*->\s*(\S+)", rest)
            if not m:
                raise CliError(f"line {lineno}: bad arrow line {line!r}")
            name, src, tgt = m.groups()
            if name in arrow_specs:
                raise CliError(f"line {lineno}: duplicate arrow {name!r}")
            arrow_specs[name] = (lineno, src, tgt)
        elif head == "relation":
            relation_lines.append((lineno, rest))
        elif head == "option":
            m = re.fullmatch(r"length_cap\s+(\d+)", rest)
            if not m:
                raise CliError(f"line {lineno}: unknown option {rest!r}")
            if length_cap is not None:
                raise CliError(f"line {lineno}: repeated option 'length_cap'")
            length_cap = int(m.group(1))
        else:
            raise CliError(f"line {lineno}: unknown directive {head!r}")
    if field_override is not None:
        fld = field_override
    if fld is None:
        fld = QQ
    if not vertices:
        raise CliError("algebra file declares no vertices")
    for name, (lineno, src, tgt) in arrow_specs.items():
        if src not in vertices or tgt not in vertices:
            raise CliError(f"line {lineno}: arrow {name!r} uses undeclared vertices")
    quiver = Quiver(vertices, [Arrow(n, s, t) for n, (_l, s, t) in arrow_specs.items()])
    relations = []
    for lineno, rest in relation_lines:
        try:
            relations.append(_parse_relation_terms(rest, quiver, fld))
        except CliError as e:
            raise CliError(f"line {lineno}: {e}") from None
    if length_cap is None:
        length_cap = 16
    return build_algebra(quiver, relations, fld, length_cap=length_cap)


def _word_names(a: PresentedAlgebra, word) -> str:
    return "*".join(a.quiver.arrows[i].name for i in word[1])


def print_algebra(a: PresentedAlgebra) -> str:
    fld = a.field
    lines = [f"field {field_spec(fld)}"]
    for v in a.quiver.vertices:
        lines.append(f"vertex {v}")
    for ar in a.quiver.arrows:
        lines.append(f"arrow {ar.name}: {ar.source} -> {ar.target}")
    for rel in a.relations:
        terms = sorted(rel.items())
        parts = []
        for pos, (word, c) in enumerate(terms):
            name = _word_names(a, word)
            text = scalar_str(fld, c)
            negative = text.startswith("-")
            mag = text[1:] if negative else text
            body = name if mag == "1" else f"{mag} {name}"
            if pos == 0:
                parts.append(("-" if negative else "") + body)
            else:
                parts.append(("- " if negative else "+ ") + body)
        lines.append("relation " + " ".join(parts))
    if a.length_cap != 16:
        lines.append(f"option length_cap {a.length_cap}")
    return "\n".join(lines) + "\n"


def algebra_hash(a: PresentedAlgebra) -> str:
    return hashlib.sha256(print_algebra(a).encode()).hexdigest()[:16]


def load_algebra(path, field_override=None) -> PresentedAlgebra:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None
    return parse_algebra_text(text, field_override)


# ---------------------------------------------------------------------------
# .rep format


def _parse_matrix_literal(fld, text: str, nrows: int, ncols: int) -> Matrix:
    compact = text.replace(" ", "")
    if not (compact.startswith("[[") and compact.endswith("]]")) and compact != "[]":
        raise CliError(f"bad matrix literal {text!r}")
    if compact == "[]" or compact == "[[]]":
        rows = []
    else:
        rows = compact[2:-2].split("],[")
    entries = [r.split(",") if r else [] for r in rows]
    if len(entries) != nrows or any(len(r) != ncols for r in entries):
        raise CliError(
            f"matrix {text!r} has shape {len(entries)}x"
            f"{len(entries[0]) if entries else 0}, expected {nrows}x{ncols}"
        )
    return Matrix(fld, [[parse_scalar(fld, x) for x in row] for row in entries], ncols)


def parse_rep_text(text: str, a: PresentedAlgebra) -> Representation:
    fld = a.field
    q = a.quiver
    dims = {}
    map_lines = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip(raw)
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "dim":
            for part in rest.split():
                label, _, value = part.partition("=")
                if label not in q.vertex_index:
                    raise CliError(f"line {lineno}: unknown vertex {label!r}")
                if label in dims:
                    raise CliError(f"line {lineno}: repeated vertex {label!r}")
                if not value.isdecimal():
                    raise CliError(f"line {lineno}: dimension {value!r} at vertex {label!r} "
                                   "is not a non-negative integer")
                dims[label] = int(value)
        elif head == "map":
            name, _, literal = rest.partition("=")
            name = name.strip()
            if name not in q.arrow_index:
                raise CliError(f"line {lineno}: unknown arrow {name!r}")
            if name in map_lines:
                raise CliError(f"line {lineno}: repeated arrow {name!r}")
            map_lines[name] = (lineno, literal.strip())
        else:
            raise CliError(f"line {lineno}: unknown directive {head!r}")
    dim_list = [dims.get(v, 0) for v in q.vertices]
    mats = []
    for j, ar in enumerate(q.arrows):
        ds = dim_list[q.arrow_source[j]]
        dt = dim_list[q.arrow_target[j]]
        if ar.name in map_lines:
            lineno, literal = map_lines[ar.name]
            try:
                mats.append(_parse_matrix_literal(fld, literal, dt, ds))
            except CliError as e:
                raise CliError(f"line {lineno}: {e}") from None
        else:
            mats.append(Matrix.zero(fld, dt, ds))
    return Representation(a, dim_list, mats)


def print_rep(r: Representation) -> str:
    a = r.algebra
    q = a.quiver
    lines = []
    for v, d in zip(q.vertices, r.dims):
        lines.append(f"dim {v}={d}")
    for j, ar in enumerate(q.arrows):
        mat = r.maps[j]
        if mat.nrows and mat.ncols and not mat.is_zero():
            body = ", ".join(
                "[" + ", ".join(scalar_str(a.field, x) for x in row) + "]"
                for row in mat.rows
            )
            lines.append(f"map {ar.name} = [{body}]")
    return "\n".join(lines) + "\n"


def load_rep(path, a: PresentedAlgebra) -> Representation:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None
    return parse_rep_text(text, a)


# ---------------------------------------------------------------------------
# module selectors


_DIMS_RE = re.compile(r"\d+(?:,\d+)*")


def resolve_module(sel: str, a: PresentedAlgebra, cap: int) -> Representation:
    """A ``.rep`` path, ``node:<k>``, or a dimension vector like ``1,0,2``."""
    p = Path(sel)
    if p.suffix == ".rep" or p.exists():
        return load_rep(p, a)
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


def _modules_as_sum(mods, a):
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
        "algebra_hash": algebra_hash(a) if a is not None else None,
        "verdict": verdict,
        "witnesses": witnesses or [],
        "timings": "-",
    }
    if extra:
        out.update(extra)
    print(json.dumps(out, indent=2))


# ---------------------------------------------------------------------------
# commands


def cmd_info(args):
    a = load_algebra(args.algebra, args.field)
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


def cmd_indecomposables(args):
    a = load_algebra(args.algebra, args.field)
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


def cmd_ar_quiver(args):
    a = load_algebra(args.algebra, args.field)
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


def cmd_tau(args):
    a = load_algebra(args.algebra, args.field)
    mods = _gather_modules(args, a)
    m = _modules_as_sum(mods, a)
    out = m
    step = tau_inverse if args.inverse else tau
    for _ in range(args.power):
        out = step(out)
    if args.out:
        Path(args.out).write_text(print_rep(out))
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
    "section": None,  # needs the AR quiver, handled inline
    "complete-slice": lambda sig, args: is_complete_slice(sig, max_nodes=args.cap),
    "local-slice": lambda sig, args: is_local_slice(sig),
}


def cmd_check(args):
    a = load_algebra(args.algebra, args.field)
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
        mods = _gather_modules(args, a)
        m = _modules_as_sum(mods, a)
        verdict = _MODULE_CHECKS[kind](m)
        emit(f"check {kind}", a, verdict, [_witness(m)])
        return 0 if verdict else 1
    mods = _gather_modules(args, a)
    sig = slice_candidate(a, mods)
    if kind == "section":
        arq = ar_quiver(a, max_nodes=args.cap)
        verdict = is_section(sig, arq)
    else:
        verdict = _SLICE_CHECKS[kind](sig, args)
    emit(f"check {kind}", a, verdict,
         [_witness(u) for u in sig.members])
    return 0 if verdict else 1


def cmd_bb_verify(args):
    a = load_algebra(args.algebra, args.field)
    mods = _gather_modules(args, a)
    m = _modules_as_sum(mods, a)
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


def cmd_torsion_pair(args):
    a = load_algebra(args.algebra, args.field)
    mods = _gather_modules(args, a)
    m = _modules_as_sum(mods, a)
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


def cmd_quotient(args):
    a = load_algebra(args.algebra, args.field)
    gens = _parse_gens(args, a)
    if args.module:
        mods = _gather_modules(args, a)
        sig = slice_candidate(a, mods)
        r = quotient_preservation_check(sig, gens)
        text = print_algebra(r.qmap.target)
        if args.out:
            Path(args.out).write_text(text)
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
    if args.out:
        Path(args.out).write_text(text)
    emit("quotient", a, True, extra={
        "quotient_dimension": qmap.target.dim,
        "algebra_text": text,
    })
    return 0


def cmd_endo(args):
    a = load_algebra(args.algebra, args.field)
    mods = _gather_modules(args, a)
    m = _modules_as_sum(mods, a)
    er = end_algebra(m)
    text = print_algebra(er.algebra)
    if args.out:
        Path(args.out).write_text(text)
    emit("endo", a, True, extra={
        "summands": [list(s.dims) for s in er.summands],
        "dimension": er.algebra.dim,
        "hereditary": is_hereditary(er.algebra),
        "algebra_text": text,
    })
    return 0


def cmd_extend(args):
    a = load_algebra(args.algebra, args.field)
    mode = args.mode
    if mode in ("one-point", "coextend"):
        mods = _gather_modules(args, a)
        x = _modules_as_sum(mods, a)
        if args.slice_member:
            members = [resolve_module(s, a, args.cap) for s in args.slice_member]
            sig = slice_candidate(a, members)
            res = onepoint_slice_extend(
                a, sig, x, new_vertex=args.vertex, arrow_prefix=args.prefix
            )
            text = print_algebra(res.extension.algebra)
            if args.out:
                Path(args.out).write_text(text)
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
        if args.out:
            Path(args.out).write_text(text)
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
        if args.out:
            Path(args.out).write_text(text)
        iso = presentation_isomorphism(ser.algebra, a)
        emit("extend split", a, iso is not None, extra={
            "base_dimension": c.dim,
            "ideal_dimension": ib.bimodule.dim,
            "reproduces_input": iso is not None,
            "algebra_text": text,
        })
        return 0 if iso is not None else 1
    if mode == "trivial":
        e = relation_extension_bimodule(a)
        ser = split_extension(a, e)
        text = print_algebra(ser.algebra)
        if args.out:
            Path(args.out).write_text(text)
        emit("extend trivial", a, True, extra={
            "bimodule_dimension": e.dim,
            "dimension": ser.algebra.dim,
            "algebra_text": text,
        })
        return 0
    raise CliError(f"unknown extension mode {mode!r}")


def cmd_slices(args):
    a = load_algebra(args.algebra, args.field)
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


def cmd_orbit_graph(args):
    a = load_algebra(args.algebra, args.field)
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


def cmd_count_stt(args):
    a = load_algebra(args.algebra, args.field)
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
        return args.fn(args)
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
