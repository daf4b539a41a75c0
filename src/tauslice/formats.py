"""The on-disk ``.alg`` and ``.rep`` formats.

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
    map a = [[1], [0]]

``#`` starts a comment; missing ``map`` lines mean zero matrices.  A map is
a list of rows over the algebra's field: the matrix of an arrow ``i -> j``
has dim j rows and dim i columns and acts on column vectors.  Formats have
a canonical printer (``print_algebra`` / ``print_rep``) and parsing a
canonical print returns an equal presentation, so hashes are stable.
"""

import hashlib
import re

from .exactlin import Matrix, QQ, PrimeField
from .algebra import Arrow, PresentedAlgebra, Quiver, build_algebra
from .modrep import Representation


class CliError(ValueError):
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
    return "Q" if fld == QQ else f"F{fld.p}"


_COEFF_RE = re.compile(r"[+-]?\d+(?:/(\d+))?")


def parse_scalar(fld, token: str):
    m = _COEFF_RE.fullmatch(token)
    if not m:
        raise CliError(f"bad coefficient {token!r}")
    if m.group(1) and not fld.coerce(int(m.group(1))):
        raise CliError(f"coefficient {token!r} has denominator 0 in {field_spec(fld)}")
    return fld.parse(token)


# ---------------------------------------------------------------------------
# .alg format


_WORD_RE = re.compile(r"[A-Za-z_]\w*(?:\*[A-Za-z_]\w*)*")


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
            except ValueError as e:
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


def print_algebra(a: PresentedAlgebra) -> str:
    lines = [f"field {field_spec(a.field)}"]
    for v in a.quiver.vertices:
        lines.append(f"vertex {v}")
    for ar in a.quiver.arrows:
        lines.append(f"arrow {ar.name}: {ar.source} -> {ar.target}")
    for rel in a.relations:
        terms = sorted(rel.items())
        parts = []
        for pos, (word, c) in enumerate(terms):
            name = "*".join(a.quiver.arrows[i].name for i in word[1])
            text = str(c)
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
    q = r.algebra.quiver
    lines = []
    for v, d in zip(q.vertices, r.dims):
        lines.append(f"dim {v}={d}")
    for j, ar in enumerate(q.arrows):
        mat = r.maps[j]
        if mat.nrows and mat.ncols and not mat.is_zero():
            body = ", ".join("[" + ", ".join(map(str, row)) + "]" for row in mat.rows)
            lines.append(f"map {ar.name} = [{body}]")
    return "\n".join(lines) + "\n"
