"""Bound quiver algebras with exact arithmetic.

An algebra is presented as kQ/I for a finite quiver Q and an admissible ideal
I.  Products are computed by rewriting paths modulo a completed noncommutative
Groebner basis for I (degree-then-lex order on arrow words, arrows ordered by
declaration).  The reduced words that survive rewriting form the canonical
k-basis, so every element has a unique normal form and all downstream linear
algebra is deterministic.

Conventions fixed here and used everywhere else:

* paths compose left to right: for arrows a: x -> y and b: y -> z the word
  ``a*b`` is the path x -> z ("first a, then b");
* a word is stored as ``(source_vertex_index, (arrow_index, ...))``;
* elements are dicts mapping words to nonzero field scalars.
"""

from __future__ import annotations

from collections import namedtuple

from .exactlin import (
    Field,
    Matrix,
    QQ,
    leading_columns,
    null_space,
    read_coordinates,
    span_matrix,
)


class MalformedRelation(ValueError):
    """A relation is not a k-combination of parallel paths of the quiver."""


class NonAdmissible(ValueError):
    """The ideal is not admissible (within the configured length cap)."""


class CapExceeded(RuntimeError):
    """A configured enumeration cap was hit before the computation closed."""


class FieldTooSmall(ValueError):
    """The base field's characteristic invalidates a trace/radical argument."""


class NotBasic(ValueError):
    """The algebra has a semisimple block of dimension > 1."""


class NotNilpotent(ValueError):
    """A bimodule expected to be nilpotent as an ideal is not."""


class Record:
    """A result record whose fields are the subclass's ``__slots__`` tuple.

    The constructor takes the fields in slot order, positionally or by
    keyword, all of them required.  One positional value per field is only
    stored; any other call is bound by :meth:`_bind`.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            setattr(self, name, value)

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values of ``cls(*args, **kwargs)`` in slot order, or
        ``TypeError`` on a surplus, unknown, repeated or missing field."""
        fields, name = cls.__slots__, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unknown field {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for field {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing field(s): {', '.join(missing)}")
        return [values[f] for f in fields]


# ---------------------------------------------------------------------------
# quiver and words


Arrow = namedtuple("Arrow", "name source target")


class Quiver:
    """Finite quiver with ordered vertices and named arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        arrs = []
        for a in arrows:
            if isinstance(a, Arrow):
                arrs.append(a)
            else:
                name, s, t = a
                arrs.append(Arrow(str(name), str(s), str(t)))
        self.arrows = tuple(arrs)
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        for a in self.arrows:
            if a.source not in self.vertex_index or a.target not in self.vertex_index:
                raise ValueError(f"arrow {a.name} references unknown vertex")
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self.arrow_source = tuple(self.vertex_index[a.source] for a in self.arrows)
        self.arrow_target = tuple(self.vertex_index[a.target] for a in self.arrows)

    @property
    def n_vertices(self):
        return len(self.vertices)

    def reversed(self) -> "Quiver":
        return Quiver(self.vertices, [(a.name, a.target, a.source) for a in self.arrows])

    def __repr__(self):
        return f"Quiver({list(self.vertices)}, {len(self.arrows)} arrows)"


# A word is (source_vertex_index, tuple_of_arrow_indices).


def word_target(quiver: Quiver, word):
    src, arrows = word
    return quiver.arrow_target[arrows[-1]] if arrows else src


def word_key(word):
    """Total order on words: degree, then lex on arrow indices, then source."""
    src, arrows = word
    return (len(arrows), arrows, src)


def word_concat(quiver: Quiver, w1, w2):
    """Compose two words left-to-right; returns None if not composable."""
    if word_target(quiver, w1) != w2[0]:
        return None
    return (w1[0], w1[1] + w2[1])


def elt_iadd(elt, other, scalar, fld):
    """In place elt += scalar * other."""
    z = fld.zero()
    for w, c in other.items():
        new = fld.add(elt.get(w, z), fld.mul(scalar, c))
        if new == z:
            elt.pop(w, None)
        else:
            elt[w] = new
    return elt


def elt_mul_free(quiver, e1, e2, fld):
    """Product in the free path algebra (no rewriting)."""
    out = {}
    z = fld.zero()
    for w1, c1 in e1.items():
        for w2, c2 in e2.items():
            w = word_concat(quiver, w1, w2)
            if w is None:
                continue
            new = fld.add(out.get(w, z), fld.mul(c1, c2))
            if new == z:
                out.pop(w, None)
            else:
                out[w] = new
    return out


# ---------------------------------------------------------------------------
# Groebner rewriting


def _find_subword(word_arrows, tip_arrows):
    n, m = len(word_arrows), len(tip_arrows)
    for i in range(n - m + 1):
        if word_arrows[i : i + m] == tip_arrows:
            return i
    return -1


def _reduce_element(quiver, elt, rules, fld):
    """Normal form of ``elt`` with respect to monic rewriting rules.

    ``rules`` is a list of (tip_word, full_element) with tip coefficient 1.
    """
    elt = dict(elt)
    z = fld.zero()
    changed = True
    while changed:
        changed = False
        for word in sorted(elt, key=word_key, reverse=True):
            if word not in elt:
                continue
            src, arrows = word
            for tip, rel in rules:
                pos = _find_subword(arrows, tip[1])
                if pos < 0:
                    continue
                coeff = elt[word]
                prefix = arrows[:pos]
                suffix = arrows[pos + len(tip[1]) :]
                for w2, c2 in rel.items():
                    new_word = (src, prefix + w2[1] + suffix)
                    cur = fld.add(elt.get(new_word, z), fld.neg(fld.mul(coeff, c2)))
                    if cur == z:
                        elt.pop(new_word, None)
                    else:
                        elt[new_word] = cur
                changed = True
                break
            if changed:
                break
    return elt


def _make_monic(elt, fld):
    tip = max(elt, key=word_key)
    inv = fld.inv(elt[tip])
    return tip, {w: fld.mul(inv, c) for w, c in elt.items()}


def _overlap_amalgams(t1, t2):
    """Yield (u, v) with t1 = u+w, t2 = w+v for a nonempty common piece w."""
    a1, a2 = t1[1], t2[1]
    for k in range(1, min(len(a1), len(a2)) + 1):
        if k == len(a1) and k == len(a2):
            continue
        if a1[-k:] == a2[:k]:
            yield a1[:-k], a2[k:]


_MAX_RULES = 4096  # rewriting rules a completion may hold before CapExceeded


def _complete_groebner(quiver, elements, fld, length_cap):
    """Buchberger-style completion for a two-sided ideal of kQ."""
    rules = []  # list of (tip, monic element)

    def spair(ta, ea, tb, eb):
        """S-polynomials of the overlap ambiguities ta = u+w, tb = w+v."""
        out = []
        for u, v in _overlap_amalgams(ta, tb):
            right_word = {(word_target(quiver, ta), v): fld.one()}
            left_word = {(ta[0], u): fld.one()}
            s1 = elt_mul_free(quiver, ea, right_word, fld)
            s2 = elt_mul_free(quiver, left_word, eb, fld)
            elt_iadd(s1, s2, fld.coerce(-1), fld)
            if s1:
                out.append(s1)
        return out

    queue = sorted(
        (dict(e) for e in elements if e),
        key=lambda e: word_key(max(e, key=word_key)),
    )
    while queue:
        elt = queue.pop(0)
        elt = _reduce_element(quiver, elt, rules, fld)
        if not elt:
            continue
        tip, elt = _make_monic(elt, fld)
        if len(tip[1]) > length_cap:
            raise CapExceeded(
                f"Groebner tip of length {len(tip[1])} exceeds length cap {length_cap}"
            )
        # displace rules whose tip contains the new tip as a subword
        keep = []
        for old_tip, old_rel in rules:
            if _find_subword(old_tip[1], tip[1]) >= 0:
                queue.append(old_rel)
            else:
                keep.append((old_tip, old_rel))
        rules = keep
        rules.append((tip, elt))
        rules.sort(key=lambda r: word_key(r[0]))
        if len(rules) > _MAX_RULES:
            raise CapExceeded(f"more than {_MAX_RULES} rewriting rules generated")
        for other_tip, other in list(rules):
            queue.extend(spair(tip, elt, other_tip, other))
            if other is not elt:
                queue.extend(spair(other_tip, other, tip, elt))

    # final interreduction of lower terms
    stable = False
    while not stable:
        stable = True
        new_rules = []
        for i, (tip, rel) in enumerate(rules):
            others = rules[:i] + rules[i + 1 :]
            lower = {w: c for w, c in rel.items() if w != tip}
            red = _reduce_element(quiver, lower, others, fld)
            if red != lower:
                stable = False
            red[tip] = fld.one()
            new_rules.append((tip, red))
        rules = new_rules
    return rules


# ---------------------------------------------------------------------------
# the presented algebra

_MISSING = object()  # a memo miss, told apart from any stored value


class PresentedAlgebra:
    """Finite dimensional algebra kQ/I with a fixed reduced-word basis.

    Do not instantiate directly; use :func:`build_algebra`, which validates
    relations and certifies admissibility within the length cap.
    """

    def __init__(self, quiver, fld, relations, gb, basis, length_cap):
        self.quiver = quiver
        self.field = fld
        self.relations = relations
        self.gb = gb
        self.basis = basis
        self.basis_index = {w: i for i, w in enumerate(basis)}
        self.length_cap = length_cap
        self.dim = len(basis)
        self._opposite = None
        self._cache = {}

    def memo(self, key, build, *args):
        """The value stored under ``key``, ``build(*args)`` stored first on a miss.

        The one memo store for this algebra and its modules, keyed
        (kind, *args), e.g. ("mult", i, j), ("tau", m), ("hom", m, n); it is
        freed with the algebra.  Keys holding modules match on structural
        equality, so a hit may have been built for an earlier, equal object.
        """
        hit = self._cache.get(key, _MISSING)
        if hit is _MISSING:
            hit = self._cache[key] = build(*args)
        return hit

    # -- elements -----------------------------------------------------

    def idempotent(self, v):
        return {(self.quiver.vertex_index[str(v)], ()): self.field.one()}

    def arrow_element(self, name):
        i = self.quiver.arrow_index[name]
        return {(self.quiver.arrow_source[i], (i,)): self.field.one()}

    def normal_form(self, elt):
        return _reduce_element(self.quiver, elt, self.gb, self.field)

    def multiply(self, e1, e2):
        return self.normal_form(elt_mul_free(self.quiver, e1, e2, self.field))

    def coords(self, elt):
        """Coordinate tuple of an element in the reduced-word basis."""
        elt = self.normal_form(elt)
        vec = [self.field.zero()] * self.dim
        for w, c in elt.items():
            idx = self.basis_index.get(w)
            if idx is None:
                raise ValueError(f"word {w} not in reduced basis after normal form")
            vec[idx] = c
        return tuple(vec)

    def element(self, coords):
        z = self.field.zero()
        return {self.basis[i]: c for i, c in enumerate(coords) if c != z}

    def word_target(self, word):
        return word_target(self.quiver, word)

    def basis_by_class(self):
        """dict (source_idx, target_idx) -> list of basis indices."""
        return self.memo(("basis_by_class",), self._basis_by_class)

    def _basis_by_class(self):
        out = {}
        for i, w in enumerate(self.basis):
            out.setdefault((w[0], self.word_target(w)), []).append(i)
        return out

    def mult_basis(self, i, j):
        """Coordinates of basis[i] * basis[j]."""
        return self.memo(("mult", i, j), self._mult_basis, i, j)

    def _mult_basis(self, i, j):
        w = word_concat(self.quiver, self.basis[i], self.basis[j])
        if w is None:
            return tuple([self.field.zero()] * self.dim)
        return self.coords({w: self.field.one()})

    def format_element(self, elt) -> str:
        if not elt:
            return "0"
        fld = self.field
        parts = []
        for w in sorted(elt, key=word_key):
            c = elt[w]
            word = self.format_word(w)
            if c == fld.one():
                parts.append(word)
            else:
                parts.append(f"{c} {word}")
        return " + ".join(parts)

    def format_word(self, w) -> str:
        src, arrows = w
        if not arrows:
            return f"e({self.quiver.vertices[src]})"
        return "*".join(self.quiver.arrows[i].name for i in arrows)

    # -- structure ----------------------------------------------------

    def opposite(self) -> "PresentedAlgebra":
        """The opposite algebra on the reversed quiver (arrow names kept).

        ``a.opposite().opposite() is a``, so modules dualised twice land over
        the original algebra object.
        """
        if self._opposite is None:
            rq = self.quiver.reversed()
            rels = [self._reverse_elt_raw(dict(r)) for r in self.relations]
            op = build_algebra(rq, rels, self.field, self.length_cap)
            op._opposite = self
            self._opposite = op
        return self._opposite

    def _reverse_elt_raw(self, elt):
        out = {}
        for (src, arrows), c in elt.items():
            tgt = word_target(self.quiver, (src, arrows))
            out[(tgt, tuple(reversed(arrows)))] = c
        return out

    def reverse_element(self, elt):
        """Image of an element under the anti-isomorphism A -> A^op."""
        return self.opposite().normal_form(self._reverse_elt_raw(elt))

    def ideal_span(self, gens) -> Matrix:
        """Echelon basis (rows of coords) of the two-sided ideal <gens>."""
        fld = self.field
        vecs = []
        for g in gens:
            v = self.coords(g)
            if any(c != fld.zero() for c in v):
                vecs.append(v)
        current = span_matrix(fld, vecs, self.dim)
        mults = [self.idempotent(v) for v in self.quiver.vertices]
        mults += [self.arrow_element(a.name) for a in self.quiver.arrows]
        while True:
            new_vecs = list(current.rows)
            for row in current.rows:
                elt = self.element(row)
                for m in mults:
                    for prod in (self.multiply(m, elt), self.multiply(elt, m)):
                        if prod:
                            new_vecs.append(self.coords(prod))
            nxt = span_matrix(fld, new_vecs, self.dim)
            if nxt.nrows == current.nrows:
                return nxt
            current = nxt

    def __repr__(self):
        return (
            f"PresentedAlgebra(|Q0|={self.quiver.n_vertices}, "
            f"|Q1|={len(self.quiver.arrows)}, dim={self.dim})"
        )


def _validate_relation(quiver, elt, fld):
    if not elt:
        return None
    classes = set()
    for (src, arrows) in elt:
        for k, a in enumerate(arrows):
            prev = src if k == 0 else quiver.arrow_target[arrows[k - 1]]
            if quiver.arrow_source[a] != prev:
                raise MalformedRelation("word is not a composable path")
        classes.add((src, word_target(quiver, (src, arrows))))
    if len(classes) > 1:
        raise MalformedRelation(f"relation mixes non-parallel paths: {sorted(classes)}")
    if any(len(arrows) < 2 for (_, arrows) in elt):
        raise NonAdmissible("relation has a term of path length < 2")
    return elt


def build_algebra(quiver: Quiver, relations, fld: Field = QQ, length_cap: int = 16):
    """Construct kQ/I from relations, certified admissible within the cap.

    ``relations`` are element dicts (word -> coefficient); every relation must
    be a combination of parallel paths of length >= 2.  Raises
    :class:`NonAdmissible` if reduced words of length ``length_cap`` survive
    (the algebra would not be certified finite dimensional within the cap).
    """
    rels = []
    for r in relations:
        r = {w: fld.coerce(c) for w, c in r.items() if fld.coerce(c) != fld.zero()}
        v = _validate_relation(quiver, r, fld)
        if v:
            rels.append(v)
    gb = _complete_groebner(quiver, rels, fld, length_cap)

    tips = [t[1] for t, _ in gb]

    def reducible_suffix(arrows):
        return any(len(t) <= len(arrows) and arrows[-len(t):] == t for t in tips)

    basis = []
    level = [(i, ()) for i in range(quiver.n_vertices)]
    length = 0
    while level:
        if length >= length_cap:
            raise NonAdmissible(
                f"reduced words of length {length_cap} exist; "
                "ideal is not admissible within the length cap"
            )
        basis.extend(level)
        nxt = []
        for (src, arrows) in level:
            tgt = word_target(quiver, (src, arrows))
            for ai in range(len(quiver.arrows)):
                if quiver.arrow_source[ai] == tgt:
                    cand = arrows + (ai,)
                    if not reducible_suffix(cand):
                        nxt.append((src, cand))
        level = nxt
        length += 1
    basis.sort(key=word_key)
    return PresentedAlgebra(quiver, fld, tuple(rels), tuple(gb), tuple(basis), length_cap)


# ---------------------------------------------------------------------------
# abstract structure constants + quiverization


class StructureConstants(Record):
    """Associative unital algebra given by a dense multiplication table."""

    __slots__ = (
        "field",
        "dim",
        "table",  # table[i][j] = coords of b_i * b_j
    )

    def multiply(self, u, v):
        fld = self.field
        out = [fld.zero()] * self.dim
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, cj in enumerate(v):
                if not cj:
                    continue
                c = fld.mul(ci, cj)
                for k, t in enumerate(self.table[i][j]):
                    if t:
                        out[k] = fld.add(out[k], fld.mul(c, t))
        return tuple(out)

    def power_span(self, span: Matrix) -> Matrix:
        """Row span of {u*v : u, v in span}."""
        vecs = [self.multiply(r1, r2) for r1 in span.rows for r2 in span.rows]
        return span_matrix(self.field, vecs, self.dim)


def radical_span(sc: StructureConstants) -> Matrix:
    """Jacobson radical as a row span, via the trace form of left regular.

    rad(A) is the kernel of the Gram matrix G_ij = tr(L_{b_i} L_{b_j}); this
    characterisation requires characteristic 0 or p > dim(A).
    """
    fld = sc.field
    if 0 < fld.characteristic <= sc.dim:
        raise FieldTooSmall(f"radical via trace form needs char 0 or p > dim = {sc.dim}")
    # L_i[k][l] = table[i][l][k], so tr(L_i L_j) = sum_{k,l} L_i[k][l] L_j[l][k]
    # runs over the nonzero entries of L_i and forms no product.
    d, table, p = sc.dim, sc.table, fld.characteristic
    nonzero = [
        [(k, l, x) for l, vec in enumerate(table[i]) for k, x in enumerate(vec) if x]
        for i in range(d)
    ]
    gram = [[fld.zero()] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            tr = sum((x * table[j][k][l] for k, l, x in nonzero[i]), fld.zero())
            gram[i][j] = gram[j][i] = tr % p if p else tr
    kern = Matrix(fld, gram, sc.dim).kernel_basis()
    return span_matrix(fld, [k.column_vector(0) for k in kern], sc.dim)


class QuiverizeResult(Record):
    __slots__ = (
        "algebra",
        "path_images",  # basis word of the presentation -> coords in the input
        "change_of_basis",  # rows: images of the presentation basis
    )


def quiverize(
    sc: StructureConstants,
    idempotents,
    radical,
    labels=None,
    arrow_prefix: str = "a",
) -> QuiverizeResult:
    """Recover a bound quiver presentation from structure constants.

    The caller supplies what it knows by construction: ``idempotents``
    (coordinate vectors, in vertex order) and rows spanning the radical.
    The Gabriel quiver is read off e_i (rad/rad^2) e_j, and the algebra is
    presented by the kernel of the induced map kQ -> A on the paths up to
    a length found by squaring the radical until it vanishes (else
    :class:`NotNilpotent`).  Nothing supplied is checked on its own; the
    result is certified instead: ``build_algebra`` finds the relations
    admissible, the presentation has the dimension of A, the path images
    span A, and the structure constants match under that change of basis.
    A result that passes is an admissible presentation of ``sc`` whose
    vertices are the given idempotents, so idempotents that are not
    complete, orthogonal and primitive raise an error, as do rows that give
    a wrong Gabriel quiver; rows reaching outside rad A are not nilpotent.
    """
    fld = sc.field
    n = sc.dim
    rad = span_matrix(fld, radical, n)
    idems = [tuple(fld.coerce(c) for c in e) for e in idempotents]
    m = len(idems)
    if labels is None:
        labels = [str(i + 1) for i in range(m)]
    labels = [str(x) for x in labels]
    if len(labels) != m:
        raise ValueError(f"{len(labels)} labels for {m} idempotents")

    rad2 = sc.power_span(rad)

    def corner_span_of(mat, ei, ej):
        vecs = [sc.multiply(sc.multiply(ei, tuple(r)), ej) for r in mat.rows]
        return span_matrix(fld, vecs, n)

    arrows = []
    arrow_reps = []
    for i in range(m):
        for j in range(m):
            vij = corner_span_of(rad, idems[i], idems[j])
            wij = corner_span_of(rad2, idems[i], idems[j])
            count = vij.nrows - wij.nrows
            if count == 0:
                continue
            # the rows of vij independent from wij and the rows before them:
            # the pivot columns past wij with both stacked as columns
            w = wij.nrows
            _r, pivots = Matrix._raw(fld, tuple(zip(*wij.rows, *vij.rows)), w + vij.nrows).rref()
            reps = [vij.rows[c - w] for c in pivots if c >= w]
            if len(reps) != count:
                raise ArithmeticError("failed to pick arrow representatives")
            for rep in reps:
                name = f"{arrow_prefix}{len(arrows) + 1}"
                arrows.append((name, labels[i], labels[j]))
                arrow_reps.append(rep)

    quiver = Quiver(labels, arrows)

    # the radical squared until it vanishes, from the rad^2 above; nil
    # bounds the length of the paths searched for relations
    nil, power = 2, rad2
    while power.nrows:
        if nil > n:
            raise NotNilpotent("the radical rows do not span a nilpotent ideal")
        power = sc.power_span(power)
        nil += 1

    def eval_word(word):
        src, arrs = word
        val = idems[src]
        for a in arrs:
            val = sc.multiply(val, arrow_reps[a])
        return val

    relations = []
    for i in range(m):
        for j in range(m):
            words = []
            frontier = [(i, ())]
            for _ in range(nil):
                nxt = []
                for (src, arrs) in frontier:
                    tgt = quiver.arrow_target[arrs[-1]] if arrs else src
                    for ai in range(len(arrows)):
                        if quiver.arrow_source[ai] == tgt:
                            nxt.append((src, arrs + (ai,)))
                frontier = nxt
                words.extend(w for w in nxt if word_target(quiver, w) == j)
            if not words:
                continue
            mat = Matrix(fld, [eval_word(w) for w in words], n)
            for kvec in mat.transpose().kernel_basis():
                rel = {}
                for idx, w in enumerate(words):
                    c = kvec.rows[idx][0]
                    if c != fld.zero():
                        rel[w] = c
                if rel:
                    relations.append(rel)

    algebra = build_algebra(quiver, relations, fld)
    if algebra.dim != n:
        raise ArithmeticError(f"presentation has dimension {algebra.dim}, expected {n}")
    path_images = {w: eval_word(w) for w in algebra.basis}
    cob = Matrix(fld, [path_images[w] for w in algebra.basis], n)
    if cob.rank() != n:
        raise ArithmeticError("path images do not span; presentation invalid")
    for i1 in range(algebra.dim):
        for j1 in range(algebra.dim):
            prod = algebra.mult_basis(i1, j1)
            lhs = [fld.zero()] * n
            for k, c in enumerate(prod):
                if c != fld.zero():
                    img = path_images[algebra.basis[k]]
                    lhs = [fld.add(x, fld.mul(c, y)) for x, y in zip(lhs, img)]
            rhs = sc.multiply(
                path_images[algebra.basis[i1]], path_images[algebra.basis[j1]]
            )
            if tuple(lhs) != tuple(rhs):
                raise ArithmeticError("structure constants do not match")
    return QuiverizeResult(algebra, path_images, cob)


# ---------------------------------------------------------------------------
# quotients


def _rename(elt, src_quiver: Quiver, dst_quiver: Quiver):
    """An element over ``src_quiver`` as the element over ``dst_quiver`` with
    the same vertex labels and arrow names."""
    out = {}
    for (src, arrows), c in elt.items():
        nsrc = dst_quiver.vertex_index[src_quiver.vertices[src]]
        narrs = tuple(dst_quiver.arrow_index[src_quiver.arrows[i].name] for i in arrows)
        out[(nsrc, narrs)] = c
    return out


class QuotientMap(Record):
    """Surjection A -> B = A/<gens> with images of vertices and arrows.

    ``vertex_alive[v]`` is False when the trivial path at v was killed;
    ``arrow_images[name]`` is an element dict over B (possibly empty = 0).
    """

    __slots__ = ("source", "target", "vertex_alive", "arrow_images")

    def apply(self, elt):
        """Image in B of an element of A."""
        b = self.target
        src_q = self.source.quiver

        def start(v):
            label = src_q.vertices[v]
            return b.idempotent(label) if self.vertex_alive[label] else {}

        def image(ai):
            return self.arrow_images[src_q.arrows[ai].name]

        return b.normal_form(_substitute(b.quiver, b.field, elt, start, image))


def _substitute(quiver: Quiver, fld, elt, start, image):
    """Sum over the words of ``elt`` of the coefficient times the product
    ``start(v) image(a_1) ... image(a_n)`` in the free path algebra of
    ``quiver``, for a word from vertex index v along arrow indices a_i."""
    out = {}
    for (src, arrows), c in elt.items():
        term = start(src)
        for ai in arrows:
            if not term:
                break
            term = elt_mul_free(quiver, term, image(ai), fld)
        if term:
            elt_iadd(out, term, c, fld)
    return out


def quotient(a: PresentedAlgebra, gens) -> QuotientMap:
    """Quotient of A by the two-sided ideal generated by ``gens``.

    Each generator must be either a trivial path (killing a vertex: the
    quotient A -> A/AeA) or lie in the arrow ideal.  Arrow-killing generators
    and honest relations are both supported; a generator mixing a trivial
    path with longer parallel paths is rejected.
    """
    fld = a.field
    components = []
    for g in gens:
        g = a.normal_form({w: fld.coerce(c) for w, c in g.items()})
        by_class = {}
        for w, c in g.items():
            key = (w[0], a.word_target(w))
            by_class.setdefault(key, {})[w] = c
        components.extend(by_class.values())

    killed = set()
    rest = []
    for comp in components:
        trivial = [w for w in comp if not w[1]]
        if trivial and len(comp) > len(trivial):
            raise ValueError("quotient generator mixes a trivial path with longer paths")
        if trivial:
            for w in trivial:
                killed.add(a.quiver.vertices[w[0]])
        else:
            rest.append(comp)

    alive = [v for v in a.quiver.vertices if v not in killed]
    alive_idx = {a.quiver.vertex_index[v] for v in alive}

    def strip(elt):
        out = {}
        for (src, arrows), c in elt.items():
            if src not in alive_idx:
                continue
            if all(
                a.quiver.arrow_source[ai] in alive_idx
                and a.quiver.arrow_target[ai] in alive_idx
                for ai in arrows
            ):
                out[(src, arrows)] = c
        return out

    work = [strip(dict(r)) for r in a.relations] + [strip(dict(g)) for g in rest]
    work = [w for w in work if w]
    removed_arrows = {
        ar.name for ar in a.quiver.arrows if ar.source in killed or ar.target in killed
    }
    substitutions = {}  # arrow name -> expression over the current word set

    def word_names(w):
        return [a.quiver.arrows[i].name for i in w[1]]

    def trivial_path(v):
        return {(v, ()): fld.one()}

    while True:
        target = None
        for g in work:
            singles = [w for w in g if len(w[1]) == 1]
            if singles:
                target = (g, max(singles, key=word_key))
                break
        if target is None:
            break
        g, w1 = target
        name = a.quiver.arrows[w1[1][0]].name
        c = g[w1]
        expr = {w: fld.neg(fld.div(v, c)) for w, v in g.items() if w != w1}
        if any(name in word_names(w) for w in expr):
            raise ValueError(
                f"cannot eliminate arrow {name}: it appears in its own substitute"
            )
        removed_arrows.add(name)
        substitutions[name] = expr

        def factor(ai, dead=w1[1][0], dead_expr=expr):
            if ai == dead:
                return dead_expr
            return {(a.quiver.arrow_source[ai], (ai,)): fld.one()}

        def subst(elt):
            return _substitute(a.quiver, fld, elt, trivial_path, factor)

        work = [subst(g2) for g2 in work if g2 is not g]
        work = [w for w in work if w]
        substitutions = {k: subst(v) for k, v in substitutions.items()}

    new_arrows = [
        (ar.name, ar.source, ar.target)
        for ar in a.quiver.arrows
        if ar.name not in removed_arrows
    ]
    new_quiver = Quiver(alive, new_arrows)
    b = build_algebra(new_quiver, [_rename(w, a.quiver, new_quiver) for w in work], fld,
                       a.length_cap)

    vertex_alive = {v: (v not in killed) for v in a.quiver.vertices}
    arrow_images = {}
    for ar in a.quiver.arrows:
        if ar.name in new_quiver.arrow_index:
            arrow_images[ar.name] = b.arrow_element(ar.name)
        elif ar.name in substitutions:
            arrow_images[ar.name] = b.normal_form(
                _rename(substitutions[ar.name], a.quiver, new_quiver)
            )
        else:
            arrow_images[ar.name] = {}
    qmap = QuotientMap(a, b, vertex_alive, arrow_images)
    for r in a.relations:
        if qmap.apply(dict(r)):
            raise ArithmeticError("quotient map does not kill a source relation")
    for g in gens:
        if qmap.apply(a.normal_form({w: fld.coerce(c) for w, c in g.items()})):
            raise ArithmeticError("quotient map does not kill an ideal generator")
    return qmap


# ---------------------------------------------------------------------------
# bimodules and extensions


class Bimodule:
    """A finite dimensional C-C-bimodule with optional internal product.

    Actions are given on algebra generators: keys ``('e', vertex_label)`` and
    ``('arrow', arrow_name)``, each mapping to a dim x dim matrix acting on
    column vectors.  ``mu`` is an internal multiplication table (dict
    ``(i, j) -> coords``), zero when absent; the split extension by the
    bimodule multiplies as ``(c, q)(c', q') = (cc', c q' + q c' + mu(q, q'))``.
    """

    __slots__ = ("algebra", "dim", "left", "right", "mu")

    def __init__(
        self, algebra: PresentedAlgebra, dim: int, left: dict, right: dict, mu: dict = None
    ):
        self.algebra = algebra
        self.dim = dim
        self.left = left
        self.right = right
        self.mu = {} if mu is None else mu

    def left_action(self, elt) -> Matrix:
        return self._action(elt, self.left, True)

    def right_action(self, elt) -> Matrix:
        return self._action(elt, self.right, False)

    def _action(self, elt, gens, left) -> Matrix:
        """Matrix of ``elt`` from the generator matrices ``gens``: a word
        e_v a_1 ... a_n acts on the left as the product of their matrices
        in that order, on the right in the reverse order."""
        q = self.algebra.quiver
        out = Matrix.zero(self.algebra.field, self.dim, self.dim)
        for (src, arrows), c in elt.items():
            mat = gens[("e", q.vertices[src])]
            for ai in arrows:
                g = gens[("arrow", q.arrows[ai].name)]
                mat = mat @ g if left else g @ mat
            out = out + mat.scale(c)
        return out

    def mu_product(self, u, v):
        fld = self.algebra.field
        z = fld.zero()
        out = [z] * self.dim
        for (i, j), coords in self.mu.items():
            c = fld.mul(u[i], v[j])
            if c != z:
                for k, t in enumerate(coords):
                    if t != z:
                        out[k] = fld.add(out[k], fld.mul(c, t))
        return tuple(out)

    def check(self):
        """Verify unitality, commuting actions and relation compatibility."""
        a = self.algebra
        fld = a.field
        ident = Matrix.identity(fld, self.dim)
        total_l = Matrix.zero(fld, self.dim, self.dim)
        total_r = Matrix.zero(fld, self.dim, self.dim)
        for v in a.quiver.vertices:
            total_l = total_l + self.left[("e", v)]
            total_r = total_r + self.right[("e", v)]
        if total_l != ident or total_r != ident:
            raise ValueError("bimodule: unit does not act as identity")
        for g1, l in self.left.items():
            for g2, r in self.right.items():
                if l @ r != r @ l:
                    raise ValueError(
                        f"bimodule: left action of {g1} and right action of {g2} "
                        "do not commute"
                    )
        for rel in a.relations:
            if not self.left_action(dict(rel)).is_zero():
                raise ValueError("bimodule: relation acts nontrivially on the left")
            if not self.right_action(dict(rel)).is_zero():
                raise ValueError("bimodule: relation acts nontrivially on the right")


class SplitExtensionResult(Record):
    """C + Q with its recovered presentation.

    Coordinates in the structure constants are C-basis followed by Q-basis;
    ``base_dim`` marks the split, so projecting a coordinate vector to its
    first ``base_dim`` entries is the canonical surjection onto C.
    """

    __slots__ = ("algebra", "quiverize", "base", "base_dim", "bimodule")

    def project_arrow_to_base(self, name):
        """Element of C: image of a B-arrow under B -> B/Q = C."""
        coords = self.quiverize.path_images[
            (self.algebra.quiver.arrow_source[self.algebra.quiver.arrow_index[name]],
             (self.algebra.quiver.arrow_index[name],))
        ]
        return self.base.element(tuple(coords[: self.base_dim]))


def split_extension(c: PresentedAlgebra, q: Bimodule) -> SplitExtensionResult:
    """The split extension algebra C + Q for a nilpotent bimodule Q.

    Raises :class:`NotNilpotent` when Q (with its internal product mu) fails
    to generate a nilpotent ideal.
    """
    if q.algebra is not c:
        raise ValueError("bimodule is not over the given algebra")
    q.check()
    fld = c.field
    n, m = c.dim, q.dim
    total = n + m

    left_of = {
        i: q.left_action(c.element(tuple(
            fld.one() if k == i else fld.zero() for k in range(n)
        )))
        for i in range(n)
    }
    right_of = {
        i: q.right_action(c.element(tuple(
            fld.one() if k == i else fld.zero() for k in range(n)
        )))
        for i in range(n)
    }

    def pad(c_part, q_part):
        return tuple(c_part) + tuple(q_part)

    zc = tuple(fld.zero() for _ in range(n))
    zq = tuple(fld.zero() for _ in range(m))
    table = []
    for i in range(total):
        row = []
        for j in range(total):
            if i < n and j < n:
                row.append(pad(c.mult_basis(i, j), zq))
            elif i < n and j >= n:
                row.append(pad(zc, left_of[i].column_vector(j - n)))
            elif i >= n and j < n:
                row.append(pad(zc, right_of[j].column_vector(i - n)))
            else:
                u = tuple(fld.one() if k == i - n else fld.zero() for k in range(m))
                v = tuple(fld.one() if k == j - n else fld.zero() for k in range(m))
                row.append(pad(zc, q.mu_product(u, v)))
        table.append(tuple(row))
    sc = StructureConstants(fld, total, tuple(table))
    # rad(C + Q) = rad C + Q: the basis words of C of positive length and
    # every Q position; quiverize raises NotNilpotent unless Q generates a
    # nilpotent ideal
    units = Matrix.identity(fld, total).rows
    radical = [units[i] for i, (_src, arrows) in enumerate(c.basis) if arrows] + list(units[n:])
    known = [pad(c.coords(c.idempotent(v)), zq) for v in c.quiver.vertices]
    qr = quiverize(sc, known, radical, labels=list(c.quiver.vertices))
    return SplitExtensionResult(qr.algebra, qr, c, n, q)


class OnePointExtensionResult(Record):
    __slots__ = (
        "algebra",
        "new_vertex",
        "new_arrows",  # names, in order of the chosen top basis of x
        "base",
    )


def one_point_extension(
    a: PresentedAlgebra, x, new_vertex=None, arrow_prefix="w"
) -> OnePointExtensionResult:
    """One point extension A[x]: a new source vertex with rad P_new = x.

    ``x`` is a representation of A (see modrep).  New arrows run from the new
    vertex to the vertices supporting top(x).  The combinations of paths
    out of the new vertex that vanish on x form K, a right A-submodule; the
    relations out of the new vertex generate it minimally: a complement of
    K rad A in K.
    """
    from .modrep import top_data  # late import; modrep depends on algebra

    fld = a.field
    vertex = new_vertex or _fresh_vertex_label(a)
    if vertex in a.quiver.vertex_index:
        raise ValueError(f"vertex label {vertex} already in use")
    tops = top_data(x)  # list of (vertex_label, column vector of x there)
    arrow_names = []
    arrows = [(ar.name, ar.source, ar.target) for ar in a.quiver.arrows]
    for k, (v, _vec) in enumerate(tops):
        name = f"{arrow_prefix}{k + 1}"
        while name in a.quiver.arrow_index:
            name = "_" + name
        arrow_names.append(name)
        arrows.append((name, vertex, v))
    quiver = Quiver(list(a.quiver.vertices) + [vertex], arrows)
    relations = [_rename(dict(r), a.quiver, quiver) for r in a.relations]
    # the basis words of A over the new quiver, in basis order
    renamed = list(_rename(dict.fromkeys(a.basis), a.quiver, quiver))

    new_v_idx = quiver.vertex_index[vertex]
    words_by_target = {}
    values_by_target = {}
    place = {}  # (top k, basis index of A) -> (target label, index of its word)
    for k, (v, vec) in enumerate(tops):
        ai = quiver.arrow_index[arrow_names[k]]
        for i, (w, nw) in enumerate(zip(a.basis, renamed)):
            if a.quiver.vertices[w[0]] != v:
                continue
            tgt_label = a.quiver.vertices[a.word_target(w)]
            words = words_by_target.setdefault(tgt_label, [])
            place[(k, i)] = (tgt_label, len(words))
            words.append((new_v_idx, (ai,) + nw[1]))
            values_by_target.setdefault(tgt_label, []).append(_act_on_vector(x, vec, w))
    # K, the relation space out of the new vertex, per target: the words'
    # combinations that vanish on x (all of them over a zero fibre)
    kernels = {}
    for tgt_label, vals in values_by_target.items():
        n, width = len(vals), len(vals[0])
        mat = Matrix(fld, vals, width) if width else Matrix.zero(fld, n, 1)
        kernels[tgt_label] = [kv.column_vector(0) for kv in mat.transpose().kernel_basis()]
    # K rad A, per target: each element of K times each arrow of A
    words_at = {place[key]: key for key in place}
    multiples = {tgt_label: [] for tgt_label in kernels}
    for ai, ar in enumerate(a.quiver.arrows):
        arrow = a.basis_index[(a.quiver.arrow_source[ai], (ai,))]
        for vec in kernels.get(ar.source, []):
            out = [fld.zero()] * len(words_by_target.get(ar.target, ()))
            for idx, c in enumerate(vec):
                if c != fld.zero():
                    k, i = words_at[(ar.source, idx)]
                    for j, d in enumerate(a.mult_basis(i, arrow)):
                        if d != fld.zero():
                            _tgt, into = place[(k, j)]
                            out[into] = fld.add(out[into], fld.mul(c, d))
            if any(c != fld.zero() for c in out):
                multiples[ar.target].append(out)
    # the relations are a complement of K rad A in K: a minimal generating
    # set of K as a right A-module
    for tgt_label in sorted(words_by_target):
        words, kern = words_by_target[tgt_label], kernels[tgt_label]
        keep = range(len(kern))
        if multiples[tgt_label]:
            # a kernel_basis vector's last nonzero entry is its free column,
            # where it is 1 and every other one is 0
            units = [max(j for j, c in enumerate(vec) if c != fld.zero()) for vec in kern]
            coords = read_coordinates(Matrix(fld, kern, len(words)), units,
                                      multiples[tgt_label])
            keep, _basis = null_space(fld, coords.rows, len(kern))
        for idx in keep:
            rel = {w: c for w, c in zip(words, kern[idx]) if c != fld.zero()}
            if any(len(w[1]) < 2 for w in rel):
                raise ArithmeticError("one point extension produced a length-1 relation")
            relations.append(rel)
    b = build_algebra(quiver, relations, fld, a.length_cap)
    return OnePointExtensionResult(b, vertex, arrow_names, a)


def _act_on_vector(x, vec, word):
    """Image of a column vector under the action of a path word of x.algebra."""
    fld = x.algebra.field
    out = list(vec)
    for ai in word[1]:
        mat = x.maps[ai]
        out = [sum_mul(fld, mat.rows[r], out) for r in range(mat.nrows)]
    return tuple(out)


def sum_mul(fld, row, vec):
    acc = fld.zero()
    for a, b in zip(row, vec):
        if a != fld.zero() and b != fld.zero():
            acc = fld.add(acc, fld.mul(a, b))
    return acc


def _fresh_vertex_label(a):
    k = a.quiver.n_vertices + 1
    while str(k) in a.quiver.vertex_index:
        k += 1
    return str(k)


def one_point_coextension(a: PresentedAlgebra, x, new_vertex=None, arrow_prefix="w"):
    """One point coextension: dual construction with a new sink vertex.

    Realised as opposite(one_point_extension(opposite(A), D x)).
    """
    from .modrep import dual

    op = a.opposite()
    res = one_point_extension(op, dual(x), new_vertex=new_vertex, arrow_prefix=arrow_prefix)
    return OnePointExtensionResult(res.algebra.opposite(), res.new_vertex, res.new_arrows, a)


class IdealBimoduleResult(Record):
    """C = A/Q as ``quotient_map.target`` and Q as a C-bimodule, whose
    coordinates run along ``elts``, a basis of Q in A."""

    __slots__ = ("quotient_map", "bimodule", "elts")

    def extension_map(self, ext: SplitExtensionResult):
        """The map C + Q -> A, (c, q) -> s(c) + q for the section s by
        arrow names, as vertex and arrow images of ``ext.algebra`` for
        :func:`isomorphism_failure`; ``ext`` is the split extension by
        ``bimodule``."""
        a, c = self.quotient_map.source, self.quotient_map.target
        b, n = ext.algebra, ext.base_dim
        arrows = {}
        for ai, ar in enumerate(b.quiver.arrows):
            coords = ext.quiverize.path_images[(b.quiver.arrow_source[ai], (ai,))]
            img = a.normal_form(_rename(c.element(coords[:n]), c.quiver, a.quiver))
            for x, q in zip(self.elts, coords[n:]):
                elt_iadd(img, x, q, a.field)
            arrows[ar.name] = img
        return {v: v for v in b.quiver.vertices}, arrows


def ideal_bimodule(a: PresentedAlgebra, gens) -> IdealBimoduleResult:
    """An ideal Q of A as a bimodule over C = A/Q, via the arrow-name section.

    Requires the canonical section C -> A (same-named vertices and arrows) to
    be an algebra map, i.e. the relations of C must hold in A; this is
    checked.  The internal product ``mu`` records products inside the ideal.
    """
    fld = a.field
    qmap = quotient(a, gens)
    c = qmap.target
    span = a.ideal_span(
        [a.normal_form({w: fld.coerce(cf) for w, cf in g.items()}) for g in gens]
    )
    m = span.nrows
    units = leading_columns(span)

    def lift(elt_c):
        return a.normal_form(_rename(elt_c, c.quiver, a.quiver))

    for rel in c.relations:
        if lift(dict(rel)):
            raise ValueError(
                "canonical section is not an algebra map: a relation of the "
                "quotient does not hold in the total algebra"
            )

    elts = [a.element(row) for row in span.rows]

    def action_matrix(gen_elt, side):
        prods = [a.multiply(gen_elt, x) if side == "l" else a.multiply(x, gen_elt) for x in elts]
        co = read_coordinates(span, units, [a.coords(prod) for prod in prods])
        if co is None:
            raise ArithmeticError("ideal is not stable under multiplication")
        return co.transpose()

    left = {}
    right = {}
    for v in c.quiver.vertices:
        gen = lift(c.idempotent(v))
        left[("e", v)] = action_matrix(gen, "l")
        right[("e", v)] = action_matrix(gen, "r")
    for ar in c.quiver.arrows:
        gen = lift(c.arrow_element(ar.name))
        left[("arrow", ar.name)] = action_matrix(gen, "l")
        right[("arrow", ar.name)] = action_matrix(gen, "r")

    co = read_coordinates(span, units, [a.coords(a.multiply(x, y)) for x in elts for y in elts])
    if co is None:
        raise ArithmeticError("ideal is not closed under multiplication")
    mu = {divmod(k, m): row for k, row in enumerate(co.rows) if any(row)}
    bim = Bimodule(c, m, left, right, mu)
    bim.check()
    return IdealBimoduleResult(qmap, bim, elts)


# ---------------------------------------------------------------------------
# isomorphism certificates


def isomorphism_failure(a: PresentedAlgebra, b: PresentedAlgebra, vertices, arrows):
    """Why the map A -> B with these images is not an isomorphism, or None.

    ``vertices`` sends each vertex label of A to one of B and ``arrows``
    each arrow name of A to an element of B.  They define an algebra map
    kQ_A -> B when the vertex map is a bijection and each arrow s -> t goes
    into e_s' B e_t'; it factors through A when every relation of A maps to
    0; and it is an isomorphism when dim A = dim B and the images of A's
    basis words have full rank.  None certifies all four.
    """
    qa, fld = a.quiver, b.field
    if sorted(vertices[v] for v in qa.vertices) != sorted(b.quiver.vertices):
        return "the vertex map is not a bijection"
    at = [b.quiver.vertex_index[vertices[v]] for v in qa.vertices]
    images = [b.normal_form(arrows[ar.name]) for ar in qa.arrows]
    for ai, img in enumerate(images):
        corner = (at[qa.arrow_source[ai]], at[qa.arrow_target[ai]])
        if any((w[0], b.word_target(w)) != corner for w in img):
            return f"the image of arrow {qa.arrows[ai].name} leaves its corner"

    def apply(elt):
        return b.normal_form(_substitute(
            b.quiver, fld, elt, lambda v: {(at[v], ()): fld.one()}, images.__getitem__))

    if any(apply(dict(r)) for r in a.relations):
        return "a relation does not map to 0"
    rows = [b.coords(apply({w: fld.one()})) for w in a.basis]
    if a.dim != b.dim or Matrix(fld, rows, b.dim).rank() != b.dim:
        return "the images of the basis words are not a basis"
    return None
