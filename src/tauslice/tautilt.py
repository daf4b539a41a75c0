"""tau-tilting predicates, slices, torsion pairs, and extension compatibility.

Modules are right modules (representations with maps along the arrows); tau
is the Auslander-Reiten translate DTr.  A basic module M is tau-rigid when
Hom(M, tau M) = 0, tau-tilting when moreover |M| equals the number of
vertices, and support tau-tilting when it is tau-tilting over the support
quotient A/AeA, where e is the sum of the idempotents at the vertices on
which M vanishes.

Slice terminology.  A presection is a connected full subquiver Sigma of the
AR quiver such that for every arrow X -> Y with X in Sigma either Y or tau Y
lies in Sigma, and dually for arrows into Sigma.  A presection whose module
is support tau-tilting is a tau-slice, complete when the module is honestly
tau-tilting.  Sections, Ringel's (complete) slices and local slices are
checked axiom by axiom.

Predicates that only consume almost split sequences at the members and their
immediate neighbours work over representation-infinite algebras too.  They
read the AR arrows at a module from ``artheory.local_in_neighbors`` and
``artheory.local_out_neighbors``, which compute rad P and I/soc I as the AR
closure does.  The global ones (convexity in mod A, sections, complete
slices, torsion pairs) enumerate the indecomposables and raise CapExceeded
when they cannot.
"""

from .exactlin import Matrix, leading_columns, read_coordinates, span_matrix, sparse_echelon
from .algebra import (
    CapExceeded,
    NotBasic,
    PresentedAlgebra,
    Bimodule,
    Record,
    quotient,
    split_extension,
    one_point_extension,
)
from .modrep import (
    Representation,
    compose,
    decompose,
    direct_sum,
    annihilator,
    annihilator_span,
    fac_member,
    sub_member,
    hom_basis,
    hom_dim,
    is_isomorphic,
    is_indecomposable,
    iso_index,
    is_sincere,
    is_faithful,
    inflate_along_quotient,
    restrict_along_quotient,
    restrict_scalars,
    extend_by_zero,
    projective,
    zero_rep,
    dual,
    _morphism_from_vector,
    _register,
    _summands_match,
)
from .artheory import (
    ARQuiver,
    EndAlgebraResult,
    ar_quiver,
    end_algebra,
    ext_data,
    is_injective_rep,
    is_projective_rep,
    local_in_neighbors,
    local_out_neighbors,
    minimal_presentation,
    projective_dimension_at_most,
    radical_hom_basis,
    tau,
    tau_inverse,
    bimodule_right_rep,
    bimodule_dual_left_rep,
    syzygy_map,
)


# ---------------------------------------------------------------------------
# tau-rigidity and (support) tau-tilting


def _basic_summands(m):
    """The summand list of a basic module; NotBasic on a repeated summand."""
    summands = decompose(m)
    if any(mult > 1 for _rep, mult in summands):
        raise NotBasic("module has a repeated indecomposable summand")
    return [rep for rep, _mult in summands]


def is_tau_rigid(m: Representation) -> bool:
    """Hom(M, tau M) = 0."""
    if m.is_zero():
        return True
    return hom_dim(m, tau(m)) == 0


def is_tau_tilting(m: Representation) -> bool:
    """tau-rigid with as many summands as the algebra has vertices."""
    summands = _basic_summands(m)
    out = is_tau_rigid(m) and len(summands) == m.algebra.quiver.n_vertices
    if out:
        # tau-tilting modules are exactly the sincere support tau-tilting ones
        if not is_sincere(m):
            raise ArithmeticError("tau-tilting module is not sincere")
    return out


def support_vertices(m: Representation):
    """Vertex labels where the module is nonzero."""
    return [v for v in m.algebra.quiver.vertices if m.dim_at(v) > 0]


def support_quotient(m: Representation):
    """A -> A/AeA for e the sum of idempotents outside the support.

    Returns None when the module is sincere (the quotient would be A itself).
    """
    a = m.algebra
    dead = [v for v in a.quiver.vertices if m.dim_at(v) == 0]
    if not dead:
        return None
    return quotient(a, [a.idempotent(v) for v in dead])


def is_support_tau_tilting(m: Representation) -> bool:
    """tau-tilting over the support quotient A/AeA.

    Cross-checked against the pair criterion: tau_A-rigid with exactly one
    summand per support vertex.
    """
    if m.is_zero():
        return True
    summands = _basic_summands(m)
    qmap = support_quotient(m)
    if qmap is None:
        out = is_tau_tilting(m)
    else:
        out = is_tau_tilting(inflate_along_quotient(m, qmap))
    by_pair = is_tau_rigid(m) and len(summands) == len(support_vertices(m))
    if out != by_pair:
        raise ArithmeticError("support quotient and pair criteria disagree")
    return out


def is_tilting(m: Representation) -> bool:
    """tau-tilting of projective dimension at most one."""
    out = is_tau_tilting(m) and projective_dimension_at_most(m, 1)
    if out:
        # tilting modules are exactly the faithful support tau-tilting ones
        if not is_faithful(m):
            raise ArithmeticError("tilting module is not faithful")
    return out


# ---------------------------------------------------------------------------
# tau-rigid cliques: the one backtracker behind every search


def _tau_rigid_cliques(nodes, size, min_size=0):
    """Every set of pairwise tau-compatible tau-rigid indecs, in lex order.

    Yields each visited clique as a tuple of indices into ``nodes``: the
    empty one first, then depth first.  A clique of ``size`` members is not
    extended, nor one from which ``min_size`` members can no longer be
    reached; both are still yielded.
    """
    taus = [tau(x) for x in nodes]
    rigid = [i for i in range(len(nodes)) if hom_dim(nodes[i], taus[i]) == 0]
    memo = {}

    def compat(i, j):
        key = (min(i, j), max(i, j))
        if key not in memo:
            memo[key] = (
                hom_dim(nodes[i], taus[j]) == 0 and hom_dim(nodes[j], taus[i]) == 0
            )
        return memo[key]

    def extend(current, start):
        yield tuple(current)
        if len(current) == size or min_size - len(current) > len(rigid) - start:
            return
        for pos in range(start, len(rigid)):
            k = rigid[pos]
            if all(compat(k, c) for c in current):
                current.append(k)
                yield from extend(current, pos + 1)
                current.pop()

    yield from extend([], 0)


def count_support_tau_tilting(a: PresentedAlgebra, cap: int = 512) -> int:
    """Number of support tau-tilting modules (the zero module included).

    Counts by the pair criterion of Adachi-Iyama-Reiten: a tau-rigid basic
    module is support tau-tilting iff it has exactly one summand per vertex
    of its support.  Every clique of pairwise tau-compatible tau-rigid
    indecomposables sums to a tau-rigid basic module, so the count is the
    number of cliques whose size equals the size of the union of their
    members' supports.  Requires representation-finiteness; ``cap`` bounds
    the AR-quiver size.
    """
    nodes = ar_quiver(a, max_nodes=cap).representatives()
    supports = [set(support_vertices(x)) for x in nodes]
    return sum(
        len(clique) == len(set().union(*(supports[k] for k in clique)))
        for clique in _tau_rigid_cliques(nodes, a.quiver.n_vertices)
    )


# ---------------------------------------------------------------------------
# slice candidates


class SliceCandidate:
    """A finite set of pairwise non-isomorphic indecomposables, as a subquiver
    candidate of the AR quiver and as the basic module it sums to."""

    __slots__ = ("algebra", "members", "_module")

    def __init__(self, algebra: PresentedAlgebra, members: list):
        self.algebra = algebra
        self.members = members
        self._module = None

    @property
    def size(self):
        return len(self.members)

    def module(self) -> Representation:
        if self._module is None:
            self._module = _sum_or_zero(self.algebra, self.members)
        return self._module

    def member_index(self, x: Representation):
        return iso_index(self.members, x)

    def contains(self, x: Representation) -> bool:
        return self.member_index(x) is not None

    def dim_vectors(self):
        return [u.dims for u in self.members]


def slice_candidate(algebra, members) -> SliceCandidate:
    """Build a slice candidate, verifying indecomposability and basicness."""
    members = list(members)
    for u in members:
        if u.algebra is not algebra:
            raise ValueError("member is not a module over the given algebra")
        if u.is_zero() or not is_indecomposable(u):
            raise ValueError("slice members must be nonzero indecomposables")
    if any(iso_index(members[:i], u) is not None for i, u in enumerate(members)):
        raise NotBasic("repeated member")
    return SliceCandidate(algebra, members)


def _sum_or_zero(algebra, parts) -> Representation:
    """Direct sum of the nonzero ``parts``, or the zero module if none."""
    parts = [p for p in parts if not p.is_zero()]
    if not parts:
        return zero_rep(algebra)
    return direct_sum(algebra, parts)[0]


def tau_module(sigma: SliceCandidate) -> Representation:
    """Direct sum of the translates of the members (projectives drop out)."""
    return _sum_or_zero(sigma.algebra, map(tau, sigma.members))


def tau_inverse_module(sigma: SliceCandidate) -> Representation:
    """Direct sum of the inverse translates of the members."""
    return _sum_or_zero(sigma.algebra, map(tau_inverse, sigma.members))


def member_quiver(sigma: SliceCandidate):
    """AR-quiver arrows between members, as (source idx, target idx, mult)."""
    out = []
    for i, u in enumerate(sigma.members):
        for y, mult in local_out_neighbors(u):
            j = sigma.member_index(y)
            if j is not None:
                out.append((i, j, mult))
    return out


def is_presection(sigma: SliceCandidate) -> bool:
    """Connected full subquiver closed under the two presection arrow rules.

    For an arrow X -> Y with X a member, Y or tau Y must be a member (so a
    projective successor must itself be a member); dually for arrows into a
    member.  Only almost split sequences at the members are consumed.
    """
    if not sigma.members:
        return False
    for u in sigma.members:
        for y, _mult in local_out_neighbors(u):
            if sigma.contains(y):
                continue
            if is_projective_rep(y):  # tau y = 0
                return False
            if not sigma.contains(tau(y)):
                return False
        for x, _mult in local_in_neighbors(u):
            if sigma.contains(x):
                continue
            if is_injective_rep(x):  # tau^{-1} x = 0
                return False
            if not sigma.contains(tau_inverse(x)):
                return False
    return _members_connected(sigma)


def _reachable(frontier, step):
    """Every node reachable from ``frontier``, the frontier included, along
    ``step``, a dict from a node to its neighbours (none if it is absent)."""
    seen = set()
    frontier = list(frontier)
    while frontier:
        k = frontier.pop()
        if k not in seen:
            seen.add(k)
            frontier.extend(step.get(k, ()))
    return seen


def _between(members, arrows) -> set:
    """Nodes outside ``members`` that lie on a path of ``arrows``, (s, t)
    pairs, from a member to a member."""
    succ, pred = {}, {}
    for s, t in arrows:
        succ.setdefault(s, []).append(t)
        pred.setdefault(t, []).append(s)
    down = _reachable([t for s in members for t in succ.get(s, ())], succ)
    up = _reachable([s for t in members for s in pred.get(t, ())], pred)
    return (down & up) - set(members)


def _undirected(nodes, edges):
    """Neighbour sets of the undirected graph on ``nodes`` with ``edges``."""
    adj = {k: set() for k in nodes}
    for s, t in edges:
        adj[s].add(t)
        adj[t].add(s)
    return adj


def _members_connected(sigma: SliceCandidate) -> bool:
    n = len(sigma.members)
    if n <= 1:
        return True
    adj = _undirected(range(n), [(i, j) for i, j, _mult in member_quiver(sigma)])
    return len(_reachable([0], adj)) == n


def is_tau_slice(sigma: SliceCandidate) -> bool:
    """Presection whose module is support tau-tilting.

    A tau-rigid presection is automatically support tau-tilting, so the
    rigidity test decides; the support test is re-run as a consistency
    check that raises ``ArithmeticError`` when the two disagree.
    """
    if not is_presection(sigma):
        return False
    mod = sigma.module()
    rigid = is_tau_rigid(mod)
    if rigid != is_support_tau_tilting(mod):
        raise ArithmeticError("rigid presection failed the support tau-tilting test")
    return rigid


def is_complete_tau_slice(sigma: SliceCandidate) -> bool:
    """Presection whose module is tau-tilting."""
    if sigma.size != sigma.algebra.quiver.n_vertices:
        return False
    if not is_presection(sigma):
        return False
    return is_tau_tilting(sigma.module())


# ---------------------------------------------------------------------------
# convexity

_MAX_STATES = 4096  # states a convexity search explores before CapExceeded


def _dedupe_universe(a, extra, max_nodes):
    """The AR quiver's indecomposables, with ``extra`` merged in."""
    objs = list(ar_quiver(a, max_nodes=max_nodes).representatives())
    for r in extra:
        _register(objs, r)
    return objs


def convex_in_mod_a_witness(sigma: SliceCandidate, max_nodes=512):
    """(verdict, witness): convexity with respect to chains of nonzero maps.

    A violation is an indecomposable Z outside the candidate with paths of
    nonzero morphisms (through indecomposables of the AR quiver) from some
    member to Z and from Z to some member.  The verdict is exact.
    """
    objs = _dedupe_universe(sigma.algebra, sigma.members, max_nodes)
    member_ids = {
        k for k, o in enumerate(objs) if sigma.contains(o)
    }
    n = len(objs)
    maps = [(i, j) for i in range(n) for j in range(n)
            if i != j and hom_dim(objs[i], objs[j]) > 0]
    for k in sorted(_between(member_ids, maps)):
        return False, objs[k]
    return True, None


def _span_morphisms(x0, z, span):
    return [_morphism_from_vector(x0, z, row) for row in span.rows]


def _can_still_reach(sigma, w, span_morphs):
    """Whether some member receives a nonzero composite from the carried span."""
    for y in sigma.members:
        for h in hom_basis(w, y):
            for c in span_morphs:
                comp = compose(h, c)
                if any(v != comp.source.algebra.field.zero() for v in comp.flatten()):
                    return True
    return False


def weakly_convex_witness(sigma: SliceCandidate):
    """(verdict, witness path) for weak convexity.

    Explores AR-quiver paths leaving each member, carrying the span of all
    composites of radical morphisms along the path.  A path dies when the
    span vanishes (no choice of irreducible morphisms composes to a nonzero
    map) or when no member receives a nonzero morphism composed with the
    span; a violation is a surviving path back into the candidate passing
    through an outsider.  Raises CapExceeded past ``_MAX_STATES`` states.
    """
    fld = sigma.algebra.field
    reps = []  # the modules reached, up to isomorphism
    acc = {}  # (member idx, node ident, flag) -> accumulated row span

    def subsumed(key, span):
        old = acc.get(key)
        if old is None or old.nrows == 0:
            return False
        return read_coordinates(old, leading_columns(old), span.rows) is not None

    def absorb(key, span):
        old = acc.get(key)
        if old is None:
            acc[key] = span
        else:
            acc[key] = span_matrix(fld, list(old.rows) + list(span.rows), span.ncols)

    queue = []
    for s_idx, x0 in enumerate(sigma.members):
        for y, _mult in local_out_neighbors(x0):
            rows = [f.flatten() for f in radical_hom_basis(x0, y)]
            width = sum(dx * dy for dx, dy in zip(x0.dims, y.dims))
            span = span_matrix(fld, rows, width)
            if span.nrows == 0:
                continue
            yid = _register(reps, y)
            flag = not sigma.contains(y)
            key = (s_idx, yid, flag)
            if subsumed(key, span):
                continue
            absorb(key, span)
            queue.append((s_idx, yid, span, flag, [x0.dims, y.dims]))

    explored = 0
    while queue:
        s_idx, zid, span, flag, path = queue.pop(0)
        explored += 1
        if explored > _MAX_STATES:
            raise CapExceeded("weak convexity search exceeded its state budget")
        x0 = sigma.members[s_idx]
        z = reps[zid]
        morphs = _span_morphisms(x0, z, span)
        for w, _mult in local_out_neighbors(z):
            rad = radical_hom_basis(z, w)
            vecs = [compose(g, c).flatten() for c in morphs for g in rad]
            width = sum(dx * dy for dx, dy in zip(x0.dims, w.dims))
            nspan = span_matrix(fld, vecs, width)
            if nspan.nrows == 0:
                continue
            wpath = path + [w.dims]
            if sigma.contains(w):
                if flag:
                    return False, wpath
                nflag = False
            else:
                nflag = True
            wid = _register(reps, w)
            key = (s_idx, wid, nflag)
            if nflag and subsumed(key, nspan):
                continue
            if not nflag and (
                subsumed((s_idx, wid, True), nspan) or subsumed(key, nspan)
            ):
                continue
            if nflag and not _can_still_reach(
                sigma, w, _span_morphisms(x0, w, nspan)
            ):
                continue
            absorb(key, nspan)
            queue.append((s_idx, wid, nspan, nflag, wpath))
    return True, None


def sectionally_convex_witness(sigma: SliceCandidate):
    """(verdict, witness path) for sectional convexity.

    A sectional path avoids X_i = tau X_{i+2}; every sectional path between
    members must stay inside the candidate.  Composites along sectional
    paths are automatically nonzero, so no span bookkeeping is needed, but a
    surviving path must still reach a member through a nonzero morphism,
    which prunes the search on infinite components.  Raises CapExceeded
    past ``_MAX_STATES`` states.
    """
    reps = []  # the modules reached, up to isomorphism
    visited = set()
    queue = []
    for s_idx, x0 in enumerate(sigma.members):
        x0id = _register(reps, x0)
        for y, _mult in local_out_neighbors(x0):
            yid = _register(reps, y)
            flag = not sigma.contains(y)
            state = (s_idx, x0id, yid, flag)
            if state in visited:
                continue
            visited.add(state)
            queue.append((s_idx, x0id, yid, flag, [x0.dims, y.dims]))

    explored = 0
    while queue:
        s_idx, pid, zid, flag, path = queue.pop(0)
        explored += 1
        if explored > _MAX_STATES:
            raise CapExceeded("sectional convexity search exceeded its state budget")
        prev = reps[pid]
        z = reps[zid]
        for w, _mult in local_out_neighbors(z):
            if not is_projective_rep(w) and iso_index([prev], tau(w)) is not None:
                continue  # not sectional
            wpath = path + [w.dims]
            if sigma.contains(w):
                if flag:
                    return False, wpath
                nflag = False
            else:
                nflag = True
                if not any(hom_dim(w, y) > 0 for y in sigma.members):
                    continue  # no sectional continuation can reach the candidate
            wid = _register(reps, w)
            state = (s_idx, zid, wid, nflag)
            if state in visited:
                continue
            visited.add(state)
            queue.append((s_idx, zid, wid, nflag, wpath))
    return True, None


def is_convex_in_mod_a(sigma) -> bool:
    return convex_in_mod_a_witness(sigma)[0]


def is_weakly_convex(sigma) -> bool:
    return weakly_convex_witness(sigma)[0]


def is_sectionally_convex(sigma) -> bool:
    return sectionally_convex_witness(sigma)[0]


# ---------------------------------------------------------------------------
# sections, complete slices, local slices


def component_idents(arq: ARQuiver, seed_ident: int):
    """Node idents of the connected component of the AR quiver at a seed."""
    return _reachable([seed_ident], _undirected(range(arq.count), arq.arrows))


def tau_orbits(arq: ARQuiver, idents=None):
    """Partition of the nodes into tau-orbits, as sorted tuples of idents."""
    if idents is None:
        idents = range(arq.count)
    return sorted(tuple(sorted(v)) for v in _classes(idents, arq.tau_link.get))


def _classes(keys, partner) -> list:
    """Classes of the equivalence on ``keys`` generated by k ~ partner(k)
    wherever that is one of the keys, each a list in the order of ``keys``
    (union-find)."""
    parent = {k: k for k in keys}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for k in parent:
        t = partner(k)
        if t in parent:
            parent[find(k)] = find(t)
    classes = {}
    for k in parent:
        classes.setdefault(find(k), []).append(k)
    return list(classes.values())


def is_section(sigma: SliceCandidate, arq: ARQuiver) -> bool:
    """Acyclic, convex-in-the-component, one node per tau-orbit."""
    ids = []
    for u in sigma.members:
        k = arq.find(u)
        if k is None:
            raise ValueError("slice member does not appear in the AR quiver")
        ids.append(k)
    comp = component_idents(arq, ids[0])
    if any(k not in comp for k in ids):
        return False
    idset = set(ids)
    # connected
    inner = [(s, t) for (s, t) in arq.arrows if s in idset and t in idset]
    if len(_reachable([ids[0]], _undirected(idset, inner))) != len(idset):
        return False
    # acyclic inside the candidate
    colour = {}

    def dfs(k):
        colour[k] = 1
        for (s, t) in arq.arrows:
            if s == k and t in idset:
                if colour.get(t) == 1:
                    return False
                if colour.get(t) is None and not dfs(t):
                    return False
        colour[k] = 2
        return True

    for k in idset:
        if colour.get(k) is None and not dfs(k):
            return False
    # convex inside the component (directed AR-quiver paths)
    if _between(idset, [(s, t) for (s, t) in arq.arrows if s in comp and t in comp]):
        return False
    # one node per tau-orbit of the component
    for orbit in tau_orbits(arq, comp):
        if len(set(orbit) & idset) != 1:
            return False
    return True


def is_complete_slice(sigma: SliceCandidate, max_nodes=512) -> bool:
    """Ringel's slice axioms: sincere, convex in mod A, and the two almost
    split sequence conditions (at most one end in the slice; a middle summand
    in the slice forces an end in).

    The sequence conditions only involve sequences touching the candidate and
    are checked locally; convexity in mod A needs the indecomposables, the
    AR quiver's up to ``max_nodes``.
    """
    mod = sigma.module()
    if not is_sincere(mod):
        return False
    for u in sigma.members:
        # ends of one almost split sequence: at most one inside
        if not is_projective_rep(u) and sigma.contains(tau(u)):
            return False
    for u in sigma.members:
        # middle summand inside forces an end inside
        for w, _mult in local_out_neighbors(u):
            if is_projective_rep(w):
                continue  # no almost split sequence ends at w
            if sigma.contains(w) or sigma.contains(tau(w)):
                continue
            return False
    ok, _witness = convex_in_mod_a_witness(sigma, max_nodes)
    return ok


def is_local_slice(sigma: SliceCandidate) -> bool:
    """Presection, sectionally convex, with one member per vertex."""
    if sigma.size != sigma.algebra.quiver.n_vertices:
        return False
    if not is_presection(sigma):
        return False
    return sectionally_convex_witness(sigma)[0]


# ---------------------------------------------------------------------------
# torsion pairs


class TorsionPairReport(Record):
    """(Fac M, Sub tau M) classification of the indecomposables."""

    __slots__ = ("module", "torsion", "torsion_free", "neither", "orthogonal")

    @property
    def splitting(self):
        return not self.neither


def torsion_pair_of(m: Representation, max_nodes=512) -> TorsionPairReport:
    """Classify every indecomposable against (Fac M, Sub tau M).

    Requires M support tau-tilting; Hom(torsion, torsion-free) = 0 is
    verified pairwise and reported.
    """
    if not is_support_tau_tilting(m):
        raise ValueError("module is not support tau-tilting")
    tm = tau(m)
    objs = _dedupe_universe(m.algebra, [], max_nodes)
    torsion, free, neither = [], [], []
    orthogonal = True
    for x in objs:
        t = fac_member(x, m)
        f = sub_member(x, tm)
        if t and f:
            orthogonal = False
            torsion.append(x)
        elif t:
            torsion.append(x)
        elif f:
            free.append(x)
        else:
            neither.append(x)
    for t in torsion:
        for f in free:
            if hom_dim(t, f) != 0:
                orthogonal = False
    return TorsionPairReport(m, torsion, free, neither, orthogonal)


# ---------------------------------------------------------------------------
# the Ext functor into modules over the endomorphism algebra


def ext_functor(er: EndAlgebraResult, x: Representation) -> Representation:
    """Ext^1(M, x) as a right End(M)-module.

    The fibre at vertex i is Ext^1(M_i, x); an arrow of the presentation,
    realised by a morphism f: M_j -> M_i, acts by precomposition (pull back
    the extension class along f, computed on cocycles through a cover lift).
    """
    b = er.algebra
    fld = b.field
    exts = [ext_data(s, x, 1) for s in er.summands]
    press = [minimal_presentation(s) for s in er.summands]
    cocycles = [e.basis_cocycles() for e in exts]
    dims = [e.dim for e in exts]
    maps = []
    for ar in b.quiver.arrows:
        i = b.quiver.vertex_index[ar.source]
        j = b.quiver.vertex_index[ar.target]
        if dims[i] == 0 or dims[j] == 0:
            maps.append(Matrix.zero(fld, dims[j], dims[i]))
            continue
        f_b = er.arrow_morphisms[ar.name]  # M_j -> M_i
        omega_map = syzygy_map(f_b, press[j], press[i])
        maps.append(exts[j].matrix_of([compose(phi, omega_map) for phi in cocycles[i]]))
    return Representation(b, dims, maps)


# ---------------------------------------------------------------------------
# the two-functor comparison engine


def _right_action_total_matrix(m: Representation, word) -> Matrix:
    """Right action of a basis path on the concatenated vertex spaces."""
    a = m.algebra
    fld = a.field
    d = m.total_dim
    offs = []
    off = 0
    for dv in m.dims:
        offs.append(off)
        off += dv
    src = word[0]
    tgt = a.word_target(word)
    # word_action maps the source fibre into the target fibre
    act = m.word_action(word)
    rows = [[fld.zero()] * d for _ in range(d)]
    for r in range(act.nrows):
        for c in range(act.ncols):
            rows[offs[tgt] + r][offs[src] + c] = act.rows[r][c]
    return Matrix(fld, rows, d)


def _bb_part_one(msum, incls, projs, er, c_dim, ann_dim):
    """Verify that right multiplication identifies A/Ann M with End_B(M).

    B = End_A(M) acts on M through evaluation; End_B(M) is the centralizer
    of that action inside the linear endomorphisms of M.  The map sending an
    algebra element to its right action lands there, has kernel Ann M, and
    must fill the centralizer exactly.
    """
    a = msum.algebra
    fld = a.field
    d = msum.total_dim
    b_mats = []
    for (i, j) in sorted(er.block_basis):
        for f in er.block_basis[(i, j)]:
            g = compose(incls[i], compose(f, projs[j]))
            b_mats.append(Matrix.block_diagonal(fld, g.blocks))
    # centralizer of the B-action: one sparse row {unknown: coefficient}
    # per entry (r, s) of F X - X F, whose two terms can meet on X[r][s]
    rows = []
    for fm in b_mats:
        fr = fm.rows
        for r in range(d):
            for s in range(d):
                row = {k * d + s: fr[r][k] for k in range(d) if fr[r][k]}
                for k in range(d):
                    if fr[k][s]:
                        row[r * d + k] = row.get(r * d + k, 0) - fr[k][s]
                rows.append(row)
    cent_dim = d * d - len(sparse_echelon(fld, rows)[1])
    # the right-multiplication map
    phi_rows = []
    for word in msum.algebra.basis:
        t = _right_action_total_matrix(msum, word)
        for fm in b_mats:
            left = fm @ t
            right = t @ fm
            if left.rows != right.rows:
                return False
        phi_rows.append(list(t.flatten()))
    phi_span = span_matrix(fld, phi_rows, d * d)
    if a.dim - phi_span.nrows != ann_dim:
        return False
    return phi_span.nrows == cent_dim == c_dim


class BBReport(Record):
    """Outcome of comparing mod A and mod End(M) through Hom, tensor, Ext, Tor.

    ``hom_equivalence`` records whether Hom(M,-) and -(x)M restrict to
    mutually inverse bijections between the indecomposables of Fac M and the
    torsion-free class over End(M); ``ext_equivalence`` the same for
    Ext^1(M,-) and Tor_1(-,M) between Sub(tau M) and the torsion class.  The
    latter is expected exactly when tau of M agrees over A and over A/Ann M.
    """

    __slots__ = (
        "module", "endo", "c_map", "annihilator", "tau_a",
        "tau_c",  # computed over A/Ann M, restricted back to A
        "part1_isomorphism", "x_modules", "y_modules", "fac_modules", "sub_tau_a_modules",
        "hom_equivalence", "ext_equivalence", "tau_agree", "sub_witness",
    )


def bb_verify(m: Representation, max_nodes=512) -> BBReport:
    """Extensional verification of the two torsion-pair equivalences.

    Requires M support tau-tilting and both A and End(M) representation
    finite.  Every indecomposable in Fac M is pushed through Hom(M,-),
    matched into the torsion-free class, and pulled back through the tensor
    product; every indecomposable in Sub(tau_A M) is pushed through
    Ext^1(M,-) and pulled back through Tor_1.  Round trips are checked by
    isomorphism, the matchings for bijectivity, and Hom dimensions on every
    pair of Fac M.
    """
    a = m.algebra
    if not is_support_tau_tilting(m):
        raise ValueError("module is not support tau-tilting")
    if not is_sincere(m):
        raise ValueError(
            "module is not sincere: restrict to the support algebra first"
        )
    er = end_algebra(m)
    ann = annihilator(m)
    c_map = quotient(a, ann)
    m_c = inflate_along_quotient(m, c_map)
    tau_a = tau(m)
    tau_c = restrict_along_quotient(tau(m_c), c_map)
    tau_agree = is_isomorphic(tau_a, tau_c)

    msum, incls, projs = direct_sum(a, er.summands)
    part1 = _bb_part_one(
        msum, incls, projs, er, c_map.target.dim, annihilator_span(m).nrows
    )

    indec_a = ar_quiver(a, max_nodes=max_nodes).representatives()
    indec_b = ar_quiver(er.algebra, max_nodes=max_nodes).representatives()
    fac = [x for x in indec_a if fac_member(x, m)]
    sub_a = [x for x in indec_a if sub_member(x, tau_a)]
    xs = [y for y in indec_b if er.tensor_is_zero(y)]
    ys = [y for y in indec_b if er.tor1_is_zero(y)]

    # Hom(M,-) : Fac M -> torsion-free class, quasi-inverse -(x)M
    hom_ok = True
    hom_images = []
    used = set()
    for x in fac:
        h = er.hom_functor(x)
        hom_images.append(h)
        j = iso_index(ys, h)
        back, _proj = er.tensor_functor(h)
        ok = j is not None and j not in used and iso_index([x], back) is not None
        if j is not None:
            used.add(j)
        hom_ok = hom_ok and ok
    hom_ok = hom_ok and len(used) == len(ys)
    for y in ys:
        t, _proj = er.tensor_functor(y)
        hom_ok = hom_ok and fac_member(t, m)
        h2 = er.hom_functor(t)
        hom_ok = hom_ok and iso_index([y], h2) is not None
    for x1, h1 in zip(fac, hom_images):
        for x2, h2 in zip(fac, hom_images):
            hom_ok = hom_ok and hom_dim(x1, x2) == hom_dim(h1, h2)

    # Ext^1(M,-) : Sub(tau_A M) -> torsion class, quasi-inverse Tor_1(-,M)
    ext_ok = True
    used2 = set()
    for x in sub_a:
        e = ext_functor(er, x)
        j = iso_index(xs, e)
        ok = j is not None and j not in used2 and iso_index([x], er.tor1(e)) is not None
        if j is not None:
            used2.add(j)
        ext_ok = ext_ok and ok
    ext_ok = ext_ok and len(used2) == len(xs)
    for xb in xs:
        t1 = er.tor1(xb)
        ext_ok = ext_ok and sub_member(t1, tau_a)
        if not t1.is_zero():
            ext_ok = ext_ok and iso_index([xb], ext_functor(er, t1)) is not None

    witness = None
    if not tau_agree:
        for x in sub_a:
            if not sub_member(x, tau_c):
                witness = x
                break

    return BBReport(
        module=m,
        endo=er,
        c_map=c_map,
        annihilator=ann,
        tau_a=tau_a,
        tau_c=tau_c,
        part1_isomorphism=part1,
        x_modules=xs,
        y_modules=ys,
        fac_modules=fac,
        sub_tau_a_modules=sub_a,
        hom_equivalence=hom_ok,
        ext_equivalence=ext_ok,
        tau_agree=tau_agree,
        sub_witness=witness,
    )


def bb_verify_dual(m: Representation) -> BBReport:
    """The cotilting-side run: the same verification for D(m) over A^op.

    Hom(-,M) and Ext^1(-,M) on mod A translate to Hom and Ext out of D(M)
    over the opposite algebra, so all verdicts transport through the
    duality.
    """
    return bb_verify(dual(m))


# ---------------------------------------------------------------------------
# quotients preserving slices


class QuotientPreservationReport(Record):
    __slots__ = (
        "qmap", "slice_over_quotient", "tau_slice_preserved", "tau_matches",
        "tau_inverse_matches", "ending_sequences_match", "starting_sequences_match",
    )

    @property
    def passed(self):
        return (
            self.tau_slice_preserved
            and self.tau_matches
            and self.tau_inverse_matches
            and self.ending_sequences_match
            and self.starting_sequences_match
        )


def quotient_preservation_check(sigma: SliceCandidate, gens) -> QuotientPreservationReport:
    """Pass a tau-slice to A/I for an ideal I inside its annihilator.

    Verifies the containment, re-runs the tau-slice test over the quotient,
    and checks that tau, tau^{-1} and the almost split sequences at the
    members are unchanged.
    """
    a = sigma.algebra
    fld = a.field
    mod = sigma.module()
    ann = annihilator_span(mod)
    norm = [a.normal_form({w: fld.coerce(c) for w, c in g.items()}) for g in gens]
    gen_span = a.ideal_span(norm)
    if read_coordinates(ann, leading_columns(ann), gen_span.rows) is None:
        raise ValueError("ideal is not contained in the annihilator of the slice")
    qmap = quotient(a, gens)
    members_b = [inflate_along_quotient(u, qmap) for u in sigma.members]
    sigma_b = SliceCandidate(qmap.target, members_b)
    preserved = is_tau_slice(sigma_b)

    tau_ok = tinv_ok = True
    # the middle terms of the sequences ending at the members, then of those
    # starting there, read as the AR arrows into and out of the members:
    # none at a projective, resp. injective, member
    seq_ok = [True, True]
    sides = ((is_projective_rep, local_in_neighbors),
             (is_injective_rep, local_out_neighbors))
    for u, ub in zip(sigma.members, members_b):
        ta = tau(u)
        tb = restrict_along_quotient(tau(ub), qmap)
        tau_ok = tau_ok and is_isomorphic(ta, tb)
        ia = tau_inverse(u)
        ib = restrict_along_quotient(tau_inverse(ub), qmap)
        tinv_ok = tinv_ok and is_isomorphic(ia, ib)

        for k, (has_none, neighbors) in enumerate(sides):
            na, nb = has_none(u), has_none(ub)
            if na != nb:
                seq_ok[k] = False
            elif not na:
                back = [(restrict_along_quotient(r, qmap), mult) for r, mult in neighbors(ub)]
                seq_ok[k] = seq_ok[k] and _summands_match(neighbors(u), back)

    return QuotientPreservationReport(
        qmap=qmap,
        slice_over_quotient=sigma_b,
        tau_slice_preserved=preserved,
        tau_matches=tau_ok,
        tau_inverse_matches=tinv_ok,
        ending_sequences_match=seq_ok[0],
        starting_sequences_match=seq_ok[1],
    )


# ---------------------------------------------------------------------------
# orbit graphs and component properties


class OrbitGraph(Record):
    """tau-orbits of a component with one edge per sigma-orbit of arrows
    (multiplicities give parallel edges)."""

    __slots__ = (
        "orbits",  # sorted tuples of node idents
        "edges",  # (orbit index, orbit index), repeated per multiplicity
    )

    @property
    def node_count(self):
        return len(self.orbits)

    @property
    def edge_count(self):
        return len(self.edges)

    def is_tree(self):
        n = len(self.orbits)
        if n == 0:
            return False
        if len(self.edges) != n - 1:
            return False
        return len(_reachable([0], _undirected(range(n), self.edges))) == n


def _component_or_all(arq: ARQuiver, seed):
    if seed is not None:
        if isinstance(seed, Representation):
            seed = arq.find(seed)
            if seed is None:
                raise ValueError("seed module does not appear in the AR quiver")
        return component_idents(arq, seed)
    if arq.count == 0:
        return set()
    comp = component_idents(arq, 0)
    if len(comp) != arq.count:
        raise ValueError(
            "AR quiver is disconnected; pass a seed to pick a component"
        )
    return comp


def orbit_graph(arq: ARQuiver, seed=None) -> OrbitGraph:
    """Orbit graph of a connected component (default: the whole quiver)."""
    comp = _component_or_all(arq, seed)
    orbits = tau_orbits(arq, comp)
    orbit_of = {}
    for idx, orbit in enumerate(orbits):
        for k in orbit:
            orbit_of[k] = idx
    bundles = {
        (s, t): mult for (s, t), mult in arq.arrows.items() if s in comp and t in comp
    }
    edges = []
    # the sigma-orbit of an arrow s -> t contains tau(t) -> s
    for reps in _classes(bundles, lambda st: (arq.tau_link.get(st[1]), st[0])):
        mults = {bundles[k] for k in reps}
        if len(mults) != 1:
            raise ArithmeticError("sigma-orbit with inconsistent multiplicities")
        s, t = min(reps)
        e = (min(orbit_of[s], orbit_of[t]), max(orbit_of[s], orbit_of[t]))
        edges.extend([e] * bundles[(s, t)])
    return OrbitGraph(orbits=orbits, edges=sorted(edges))


def is_simply_connected_component(arq: ARQuiver) -> bool:
    """Whether the orbit graph of the (connected) AR quiver is a tree."""
    return orbit_graph(arq).is_tree()


# ---------------------------------------------------------------------------
# tiltedness and slice searches


class TiltedVerdict(Record):
    __slots__ = (
        "verdict",  # "tilted" | "not-tilted" | "inconclusive"
        "witness",
        "explored",
    )


def is_tilted(a: PresentedAlgebra, search_cap=10000, max_nodes=512) -> TiltedVerdict:
    """Search for a faithful tau-slice (the characterisation of tiltedness).

    Backtracks over tau-rigid subsets of AR-quiver size |A| in discovery
    order; the first faithful presection wins.  A complete search without a
    witness is a definitive no; running out of AR quiver (infinite type) or
    of budget is inconclusive.
    """
    try:
        arq = ar_quiver(a, max_nodes=max_nodes)
    except CapExceeded:
        return TiltedVerdict("inconclusive", None, 0)
    nodes = arq.representatives()
    n = a.quiver.n_vertices
    explored = 0
    for explored, clique in enumerate(_tau_rigid_cliques(nodes, n, n), 1):
        if explored > search_cap:
            return TiltedVerdict("inconclusive", None, explored)
        if len(clique) < n:
            continue
        members = [nodes[k] for k in clique]
        mod, _i, _p = direct_sum(a, members)
        if annihilator_span(mod).nrows != 0:
            continue
        cand = SliceCandidate(a, members)
        if is_presection(cand):
            if not is_complete_tau_slice(cand):
                raise ArithmeticError("tilted witness is not a complete tau-slice")
            return TiltedVerdict("tilted", cand, explored)
    return TiltedVerdict("not-tilted", None, explored)


def find_complete_tau_slices(a: PresentedAlgebra, limit=10000, max_nodes=512):
    """All complete tau-slices, by backtracking over tau-rigid subsets.

    Deterministic (AR-quiver discovery order); raises CapExceeded when the
    backtracking budget is exhausted.
    """
    arq = ar_quiver(a, max_nodes=max_nodes)
    nodes = arq.representatives()
    n = a.quiver.n_vertices
    out = []
    for explored, clique in enumerate(_tau_rigid_cliques(nodes, n, n), 1):
        if explored > limit:
            raise CapExceeded("slice search budget exhausted")
        if len(clique) == n:
            cand = SliceCandidate(a, [nodes[k] for k in clique])
            if is_presection(cand):
                out.append(cand)
    return out


# ---------------------------------------------------------------------------
# one-point extensions


class OnePointSliceResult(Record):
    __slots__ = ("extension", "slice", "complete", "verified")


def onepoint_slice_extend(
    a: PresentedAlgebra,
    sigma: SliceCandidate,
    x: Representation,
    new_vertex=None,
    arrow_prefix="w",
) -> OnePointSliceResult:
    """Extend a slice through the one-point extension A[x].

    For x in add(sigma) the new projective joins the slice and completeness
    is preserved; for x in Fac(tau^{-1} sigma) the old members alone stay a
    (never complete) tau-slice.  Anything else is rejected.
    """
    if sigma.algebra is not a or x.algebra is not a:
        raise ValueError("slice and extension module must live over the algebra")
    strong = sigma.contains(x)
    if not strong and not fac_member(x, tau_inverse_module(sigma)):
        raise ValueError(
            "extension module is neither in add(sigma) nor in Fac(tau^{-1} sigma)"
        )
    ope = one_point_extension(a, x, new_vertex=new_vertex, arrow_prefix=arrow_prefix)
    b = ope.algebra
    members_b = [extend_by_zero(u, b) for u in sigma.members]
    if strong:
        members_b.append(projective(b, ope.new_vertex))
        cand = SliceCandidate(b, members_b)
        return OnePointSliceResult(ope, cand, True, is_complete_tau_slice(cand))
    cand = SliceCandidate(b, members_b)
    return OnePointSliceResult(ope, cand, False, is_tau_slice(cand))


# ---------------------------------------------------------------------------
# split-by-nilpotent extensions


class SplitExtensionSliceReport(Record):
    __slots__ = (
        "extension",
        "condition_fac",  # Q as a right module lies in Fac(tau^{-1} sigma)
        "condition_sub",  # D(Q as a left module) lies in Sub(tau sigma)
        "slice_preserved",
        "annihilator_equals_ideal",
    )


def splitex_check(
    c: PresentedAlgebra, sigma: SliceCandidate, q: Bimodule
) -> SplitExtensionSliceReport:
    """Whether a complete tau-slice survives the split extension by Q.

    Evaluates the two membership conditions, builds C + Q, re-runs the slice
    test there, and raises ``ArithmeticError`` unless the outcomes agree
    (they are equivalent).
    Also reports whether the annihilator over the extension is exactly Q,
    which is the expected behaviour when the base is tilted and sigma a
    complete slice.
    """
    if sigma.algebra is not c or q.algebra is not c:
        raise ValueError("slice and bimodule must live over the base algebra")
    if not is_complete_tau_slice(sigma):
        raise ValueError("sigma is not a complete tau-slice over the base")
    q_right = bimodule_right_rep(q)
    q_dual = bimodule_dual_left_rep(q)
    cond_fac = fac_member(q_right, tau_inverse_module(sigma))
    cond_sub = sub_member(q_dual, tau_module(sigma))
    ser = split_extension(c, q)
    members_b = [
        restrict_scalars(u, ser.algebra, ser.project_arrow_to_base) for u in sigma.members
    ]
    cand = SliceCandidate(ser.algebra, members_b)
    preserved = is_complete_tau_slice(cand)
    if preserved != (cond_fac and cond_sub):
        raise ArithmeticError(
            "membership conditions disagree with the slice test over the extension"
        )
    # annihilator of the slice over the extension, in C (+) Q coordinates
    mod = cand.module()
    ann = annihilator_span(mod)
    cob = ser.quiverize.change_of_basis
    fld = c.field
    ann_is_q = ann.nrows == q.dim
    if ann_is_q and ann.nrows:
        transformed = ann @ cob
        for row in transformed.rows:
            if any(v != fld.zero() for v in row[: ser.base_dim]):
                ann_is_q = False
                break
    return SplitExtensionSliceReport(
        extension=ser,
        condition_fac=cond_fac,
        condition_sub=cond_sub,
        slice_preserved=preserved,
        annihilator_equals_ideal=ann_is_q,
    )
