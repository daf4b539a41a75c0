"""Structural property suites and independent cross-checking oracles.

Each ``suite_*`` function takes the shared algebra dict and returns a list of
failure descriptions (empty = suite passes); they feed test_properties and the
aggregate gate in test_acceptance.  The ``*_failures`` / ``recount_*``
functions at the bottom recompute key quantities by a second route (straight
from the definitions) so the main implementations can be checked against
something they do not share code with.
"""

import itertools
import random
from fractions import Fraction

from tauslice import fixtures as fixdata
from tauslice.algebra import FieldTooSmall, StructureConstants, quotient
from tauslice.exactlin import span_matrix
from tauslice.formats import _parse_relation_terms
from tauslice.modrep import (
    Representation, projective, injective, hom_basis, hom_dim, annihilator, fac_member,
    compose, dual, is_isomorphic, iso_index, top_rep, _morphism_from_vector, _register,
)
from tauslice.artheory import (
    ARQuiver, ar_quiver, tau, tau_inverse, end_algebra, ext_dim, radical_hom_basis,
    is_hereditary, is_projective_rep, is_injective_rep, almost_split_sequence,
    local_in_neighbors, local_out_neighbors, minimal_presentation, _presentation,
    _hom_to_tau_vanishes,
)
from tauslice.tautilt import (
    SliceCandidate, slice_candidate, member_quiver, is_weakly_convex,
    is_sectionally_convex, is_complete_tau_slice, is_local_slice,
    tau_inverse_module, quotient_preservation_check, count_support_tau_tilting,
    support_vertices, is_presection, is_tau_rigid, _component_or_all, _tau_rigid_cliques,
    _is_presection_on_ids, _members_tau_rigid,
)

from helpers import digraph_is_acyclic

#: (algebra name, member group, representation-finite?)
SLICE_FIXTURES = [
    ("fig1", "sigma", True),
    ("fig1", "sigma_tilde", True),
    ("fig2", "sigma", False),
    ("fig3", "sigma", True),
    ("ex5_tilde", "sigma", True),
    ("ex5_c", "sigma", True),
    ("ex5_aprime", "sigma1", True),
    ("ex5_aprime", "sigma2", True),
]


def slice_of(algebras, name, group):
    a = algebras[name]
    if group == "projectives":
        members = [projective(a, v) for v in a.quiver.vertices]
    else:
        members = fixdata.members(a, name, group)
    return slice_candidate(a, members)


def all_slices(algebras):
    out = [(f"{n}/{g}", slice_of(algebras, n, g), fin)
           for n, g, fin in SLICE_FIXTURES]
    out.append(("a3/projectives", slice_of(algebras, "a3", "projectives"), True))
    return out


def boundary_neighbors(sigma: SliceCandidate):
    """Immediate neighbours outside the candidate.

    Returns (incoming, outgoing): lists of (outside module, member index,
    multiplicity) for arrows into members, and (member index, outside module,
    multiplicity) for arrows out of members.
    """
    incoming, outgoing = [], []
    for i, u in enumerate(sigma.members):
        for y, mult in local_out_neighbors(u):
            if not sigma.contains(y):
                outgoing.append((i, y, mult))
        for x, mult in local_in_neighbors(u):
            if not sigma.contains(x):
                incoming.append((x, i, mult))
    return incoming, outgoing


def suite_presecpro(algebras):
    """No projective immediate successor nor injective immediate predecessor
    of a slice member lies outside the slice."""
    bad = []
    for label, sig, _fin in all_slices(algebras):
        incoming, outgoing = boundary_neighbors(sig)
        for z, _i, _m in incoming:
            if is_injective_rep(z):
                bad.append(f"{label}: injective predecessor {z.dims} outside")
        for _i, y, _m in outgoing:
            if is_projective_rep(y):
                bad.append(f"{label}: projective successor {y.dims} outside")
    return bad


def suite_presecpro2(algebras):
    """The quiver drawn on the slice members is acyclic."""
    bad = []
    for label, sig, _fin in all_slices(algebras):
        edges = [(i, j) for i, j, _m in member_quiver(sig)]
        if not digraph_is_acyclic(sig.size, edges):
            bad.append(f"{label}: member quiver has a directed cycle")
    return bad


def suite_endoslice(algebras):
    """Endomorphism algebras of slices are hereditary."""
    bad = []
    for label, sig, _fin in all_slices(algebras):
        if not is_hereditary(end_algebra(sig.module()).algebra):
            bad.append(f"{label}: End(slice) not hereditary")
    return bad


def suite_wconvex_lemix(algebras):
    """Slices are weakly convex and sectionally convex."""
    bad = []
    for label, sig, _fin in all_slices(algebras):
        if not is_weakly_convex(sig):
            bad.append(f"{label}: not weakly convex")
        if not is_sectionally_convex(sig):
            bad.append(f"{label}: not sectionally convex")
    return bad


def suite_rmk1(algebras):
    """Hom(tau^{-1} slice, slice) vanishes."""
    bad = []
    for label, sig, _fin in all_slices(algebras):
        if hom_dim(tau_inverse_module(sig), sig.module()) != 0:
            bad.append(f"{label}: Hom(tau^-1 S, S) nonzero")
    return bad


def suite_propita(algebras):
    """Fac(tau^{-1} slice) together with add(slice) is exactly Fac(slice),
    checked against every indecomposable of the rep-finite fixtures."""
    bad = []
    for label, sig, fin in all_slices(algebras):
        if not fin:
            continue
        tinv = tau_inverse_module(sig)
        smod = sig.module()
        for r in ar_quiver(sig.algebra).representatives():
            lhs = fac_member(r, tinv) or sig.contains(r)
            rhs = fac_member(r, smod)
            if lhs != rhs:
                bad.append(f"{label}: {r.dims} lhs={lhs} rhs={rhs}")
    return bad


def suite_tauiguales(algebras):
    """Translates agree with the quotient computation for every ideal
    generated by a subset of the slice annihilator's generators."""
    bad = []
    for label, sig, _fin in all_slices(algebras):
        gens = annihilator(sig.module())
        for k in range(len(gens) + 1):
            for subset in itertools.combinations(gens, k):
                r = quotient_preservation_check(sig, list(subset))
                if not r.passed:
                    bad.append(f"{label}: subset of size {k} fails")
    return bad


def suite_clustertilted_forward(algebras):
    """Every complete tau-slice fixture is a local slice."""
    bad = []
    for label, sig, _fin in all_slices(algebras):
        if is_complete_tau_slice(sig) and not is_local_slice(sig):
            bad.append(f"{label}: complete tau-slice but not a local slice")
    return bad


ALL_SUITES = [
    suite_presecpro,
    suite_presecpro2,
    suite_endoslice,
    suite_wconvex_lemix,
    suite_rmk1,
    suite_propita,
    suite_tauiguales,
    suite_clustertilted_forward,
]


# ---------------------------------------------------------------------------
# independent oracles


def recount_definition_level(a):
    """Support tau-tilting census straight from the definition.

    For every subset of vertices to kill, pass to the idempotent quotient,
    enumerate subsets of its indecomposables of the right size, and keep the
    sincere pairwise tau-rigid ones.  Shares no logic with
    count_support_tau_tilting beyond the translate itself.
    """
    n = a.quiver.n_vertices
    labels = list(a.quiver.vertices)
    total = 0
    for killed in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)
    ):
        alive = [i for i in range(n) if i not in killed]
        if not alive:
            total += 1  # the zero module, supported nowhere
            continue
        gens = [a.idempotent(labels[i]) for i in killed]
        b = quotient(a, gens).target
        reps = ar_quiver(b).representatives()
        for subset in itertools.combinations(range(len(reps)), len(alive)):
            mods = [reps[i] for i in subset]
            dims = [sum(m.dims[v] for m in mods)
                    for v in range(b.quiver.n_vertices)]
            if any(d == 0 for d in dims):
                continue
            if all(hom_dim(y, tau(x)) == 0 for x in mods for y in mods):
                total += 1
    return total


def mesh_radical_failures(a):
    """Compare every almost-split middle multiplicity with rad/rad^2.

    The irreducible-map count between indecomposables equals
    dim rad(R, Z) - dim rad^2(R, Z); the right-hand side is recomputed here
    from composition spans of radical morphisms, independently of the mesh
    bookkeeping inside ar_quiver.
    """
    arq = ar_quiver(a)
    objs = arq.representatives()
    n = len(objs)
    fld = a.field
    rad1 = {}

    def rad1_of(i, j):
        if (i, j) not in rad1:
            rad1[(i, j)] = radical_hom_basis(objs[i], objs[j])
        return rad1[(i, j)]

    def rad2_dim(i, j):
        vecs = []
        for z in range(n):
            for f in rad1_of(i, z):
                for g in rad1_of(z, j):
                    vecs.append(compose(g, f).flatten())
        width = sum(dx * dy for dx, dy in zip(objs[i].dims, objs[j].dims))
        return span_matrix(fld, vecs, width).nrows

    bad = []
    for ident, ass in sorted(arq.meshes.items()):
        for r, mult in ass.middle_summands:
            i = arq.find(r)
            irr = len(rad1_of(i, ident)) - rad2_dim(i, ident)
            if irr != mult:
                bad.append(
                    f"mesh at node {ident}: middle {r.dims} has multiplicity "
                    f"{mult} but rad/rad^2 gives {irr}"
                )
    return bad


def mesh_additivity_failures(a):
    """Exactness and dimension additivity of every almost split sequence."""
    arq = ar_quiver(a)
    bad = []
    for ident, ass in sorted(arq.meshes.items()):
        ass.ses.verify()
        mid = sum(ass.ses.middle.dims)
        if mid != sum(ass.left.dims) + sum(ass.right.dims):
            bad.append(f"node {ident}: middle {mid} != left + right")
    return bad


def starting_sequence_duality_failures(a):
    """The AR arrows out of X against the dual of the sequence ending at D X.

    D turns the almost split sequence 0 -> tau D X -> E' -> D X -> 0 over
    the opposite algebra into 0 -> X -> D E' -> tau^{-1} X -> 0, so the
    targets of the arrows out of a non-injective X must be the duals of the
    middle summands of that sequence, up to isomorphism and with
    multiplicities.  The library reads them off the sequence ending at
    tau^{-1} X instead, and never works over the opposite.
    """
    bad = []
    for ident, node in enumerate(ar_quiver(a).nodes):
        x = node.rep
        if is_injective_rep(x):
            continue
        unmatched = [[dual(r), k] for r, k in almost_split_sequence(dual(x)).middle_summands]
        for r, k in local_out_neighbors(x):
            hit = next((e for e in unmatched if e[1] == k and is_isomorphic(e[0], r)), None)
            if hit is None:
                bad.append(f"node {ident}: middle summand {r.dims} x{k} has no dual partner")
            else:
                unmatched.remove(hit)
        bad += [f"node {ident}: dual summand {r.dims} x{k} is missing" for r, k in unmatched]
    return bad


def translate_round_trip_failures(a):
    """tau and tau^{-1} undo each other on the nodes of the AR quiver.

    For each node X that is not injective, tau(tau^{-1} X) must be
    isomorphic to X, and for each node that is not projective, so must
    tau^{-1}(tau X).  Isomorphism is tested by the rank test of
    ``iso_index``, which needs no radical and so runs over every field.
    """
    bad = []
    for ident, node in enumerate(ar_quiver(a).nodes):
        x = node.rep
        if not is_injective_rep(x) and iso_index([x], tau(tau_inverse(x))) is None:
            bad.append(f"node {ident}: tau tau^-1 X is not X")
        if not is_projective_rep(x) and iso_index([x], tau_inverse(tau(x))) is None:
            bad.append(f"node {ident}: tau^-1 tau X is not X")
    return bad


def presentation_failures(pres):
    """``pres`` against the definition of a minimal presentation
    P1 -> P0 -> M -> 0: the cover is onto, Omega is its kernel, P1 -> Omega
    is onto with one summand per dimension of top Omega, and the
    differential is P1 -> Omega -> P0.  The vertices of P0 and P1, with
    multiplicity, must be those of a fresh :func:`_presentation` of M,
    which builds both covers from the tops."""
    m, omega = pres.module, pres.omega
    bad = []

    def onto(f, dims):
        return all(b.rank() == d for b, d in zip(f.blocks, dims))

    if not onto(pres.cover, m.dims):
        bad.append("the cover is not onto")
    if (not compose(pres.cover, pres.omega_incl).is_zero()
            or any(b.rank() != d for b, d in zip(pres.omega_incl.blocks, omega.dims))
            or [p - d for p, d in zip(pres.p0.dims, m.dims)] != list(omega.dims)):
        bad.append("Omega is not the kernel of the cover")
    if not onto(pres.p1_cover, omega.dims):
        bad.append("P1 -> Omega is not onto")
    if len(pres.p1.vertex_list) != top_rep(omega)[0].total_dim:
        bad.append("P1 has not one summand per dimension of top Omega")
    if compose(pres.omega_incl, pres.p1_cover) != pres.differential:
        bad.append("the differential is not P1 -> Omega -> P0")
    fresh = _presentation(m)
    if (sorted(pres.p0.vertex_list), sorted(pres.p1.vertex_list)) != (
            sorted(fresh.p0.vertex_list), sorted(fresh.p1.vertex_list)):
        bad.append("P0 or P1 differs from the fresh presentation's")
    return bad


def kept_presentation_failures(nodes):
    """The presentation memoised for tau^-1 X, for each non-injective X of
    ``nodes``, against :func:`presentation_failures`; computing tau^-1 X
    keeps one, so a missing one is a failure too."""
    bad = []
    for k, x in enumerate(nodes):
        if is_injective_rep(x):
            continue
        r = tau_inverse(x)
        pres = r.algebra._cache.get(("presentation", r))
        if pres is None:
            bad.append(f"node {k}: no presentation kept for tau^-1 X")
            continue
        bad += [f"node {k}: {b}" for b in presentation_failures(pres)]
    return bad


def unit(a):
    """The unit of ``a``: the sum of its vertex idempotents."""
    one = a.field.one()
    return {(i, ()): one for i in range(a.quiver.n_vertices)}


def structure_constants(a):
    """The multiplication table of ``a`` in its basis of normal words."""
    table = tuple(tuple(a.mult_basis(i, j) for j in range(a.dim)) for i in range(a.dim))
    return StructureConstants(a.field, a.dim, table)


def named_map(a, b, images=()):
    """Vertex and arrow images of a map A -> B for
    ``algebra.isomorphism_failure``: each vertex to B's vertex of the same
    label, each arrow to B's arrow of the same name, or to ``images[name]``,
    an element of B written as in a ``.alg`` relation ("c + a*b", "-om")."""
    images = dict(images)
    return ({v: v for v in a.quiver.vertices},
            {ar.name: _parse_relation_terms(images.get(ar.name, ar.name), b.quiver, b.field)
             for ar in a.quiver.arrows})


def path_image_map(qr, a):
    """The map from ``quiverize(structure_constants(a), ...)``'s presentation
    to A that its path images give: the i-th vertex to A's i-th vertex, each
    arrow to the element of A whose coordinates are its path image."""
    q = qr.algebra.quiver
    return (dict(zip(q.vertices, a.quiver.vertices)),
            {ar.name: a.element(qr.path_images[(q.arrow_source[i], (i,))])
             for i, ar in enumerate(q.arrows)})


def stable_hom_dim_mod_injectives(n: Representation, t: Representation) -> int:
    """dim of Hom(n, t) modulo maps factoring through injectives."""
    a = n.algebra
    fld = a.field
    homs = hom_basis(n, t)
    if not homs:
        return 0
    width = len(homs[0].flatten())
    factoring = []
    for v in a.quiver.vertices:
        i_v = injective(a, v)
        for g in hom_basis(n, i_v):
            for h in hom_basis(i_v, t):
                factoring.append(compose(h, g).flatten())
    fact_dim = span_matrix(fld, factoring, width).nrows
    return span_matrix(fld, [h.flatten() for h in homs] + factoring, width).nrows - fact_dim


def radical_power_dim(x, y, power, universe) -> int:
    """dim rad^power(x, y), composing radical maps through ``universe``.

    x and y join the universe unless they are isomorphic to a member.
    """
    if power == 1:
        return len(radical_hom_basis(x, y))
    objs = list(universe)
    ends = (_register(objs, x), _register(objs, y))
    return _radical_tower(objs, power)[ends].nrows


def _radical_tower(objs, power):
    """Spans of rad^power(objs[i], objs[j]) for indecomposables, keyed (i, j).

    Starts from rad(u, v) and composes with rad on the right, through every
    object, until ``power`` (an int, or "infinity") is reached or no span
    changes.  The spans only shrink, so a step that changes none of them
    has reached the fixed point that every higher power shares.
    """
    pairs = [(i, j) for i in range(len(objs)) for j in range(len(objs))]
    rad1 = {(i, j): radical_hom_basis(objs[i], objs[j]) for i, j in pairs}

    def span(i, j, morphisms):
        width = sum(du * dv for du, dv in zip(objs[i].dims, objs[j].dims))
        return span_matrix(objs[i].algebra.field, [f.flatten() for f in morphisms], width)

    cur = {(i, j): span(i, j, rad1[(i, j)]) for i, j in pairs}
    k = 1
    while k != power:
        # morphisms i -> z in cur, then z -> j in rad1
        morphs = {
            (i, z): [_morphism_from_vector(objs[i], objs[z], row) for row in cur[(i, z)].rows]
            for i, z in pairs
        }
        nxt = {
            (i, j): span(i, j, [
                compose(g, f)
                for z in range(len(objs))
                for f in morphs[(i, z)]
                for g in rad1[(z, j)]
            ])
            for i, j in pairs
        }
        if all(nxt[p].nrows == cur[p].nrows for p in pairs):
            break
        cur = nxt
        k += 1
    return cur


def is_generalized_standard(arq: ARQuiver) -> bool:
    """rad^infinity(X, Y) = 0 for all X, Y in the (connected) AR quiver.

    The radical powers are propagated over all indecomposables until they
    stabilise; generalized standard means the stable spans vanish on the
    component.
    """
    comp = sorted(_component_or_all(arq, None))
    tower = _radical_tower(arq.representatives(), "infinity")
    return all(tower[(i, j)].nrows == 0 for i in comp for j in comp)


def ext_stable_hom_failures(algebras, sample=50, seed=7):
    """dim Ext^1(M, N) against the stable-Hom dual on sampled pairs."""
    rng = random.Random(seed)
    pairs = []
    for name in ("ex2", "fig3", "ex5_tilde"):
        reps = ar_quiver(algebras[name]).representatives()
        for _ in range(17):
            pairs.append((name, rng.choice(reps), rng.choice(reps)))
    bad = []
    for name, m, n in pairs[:sample]:
        lhs = ext_dim(m, n, 1)
        rhs = stable_hom_dim_mod_injectives(n, tau(m))
        if lhs != rhs:
            bad.append(f"{name}: Ext({m.dims}, {n.dims}) = {lhs} != {rhs}")
    return bad


def translate_hom_rank_failures(nodes):
    """The rank test of Hom(N, tau M) = 0 on M's minimal presentation
    (``artheory._hom_to_tau_vanishes``, Adachi-Iyama-Reiten Prop. 2.4)
    against ``hom_dim(N, tau(M)) == 0``, which builds the translate, on
    every ordered pair (N, M) of ``nodes``."""
    return [f"nodes {i}, {j}: the rank test says {not ok}"
            for i, n in enumerate(nodes) for j, m in enumerate(nodes)
            if (ok := _hom_to_tau_vanishes(n, m)) != (hom_dim(n, tau(m)) == 0)]


def g_vector(m):
    """[P0] - [P1] in the algebra's vertex order, for the minimal
    projective presentation P1 -> P0 -> m (Adachi-Iyama-Reiten, section 5)."""
    pres = minimal_presentation(m)
    labels = list(m.algebra.quiver.vertices)
    return tuple(pres.p0.vertex_list.count(v) - pres.p1.vertex_list.count(v) for v in labels)


def integer_determinant(rows):
    """The determinant of a square integer matrix, exactly, by elimination
    over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(mat)):
        pivot = next((r for r in range(c, len(mat)) if mat[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        for r in range(c + 1, len(mat)):
            f = mat[r][c] / mat[c][c]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[c])]
    return int(det)


def g_vector_failures(a):
    """Adachi-Iyama-Reiten's g-vector theorems on the support tau-tilting
    cliques of ``a``, from the presentations alone.

    For each clique that ``count_support_tau_tilting`` counts, the
    g-vectors of its members and -e_v for every vertex v outside their
    support form a Z-basis (the integer determinant is +-1, Thm. 5.1) and
    are sign-coherent: no coordinate is positive in one of them and
    negative in another.  Distinct tau-rigid nodes have distinct
    g-vectors.  The number of cliques checked must be the count.
    """
    arq = ar_quiver(a)
    nodes = arq.representatives()
    n = a.quiver.n_vertices
    labels = list(a.quiver.vertices)
    g = [g_vector(x) for x in nodes]
    bad, checked, rigid = [], 0, []
    for clique in _tau_rigid_cliques(arq, n):
        if len(clique) == 1:
            rigid.append(clique[0])
        support = set().union(*(support_vertices(nodes[k]) for k in clique))
        if len(clique) != len(support):
            continue
        checked += 1
        vectors = [g[k] for k in clique] + [
            tuple(-(u == v) for u in labels) for v in labels if v not in support]
        if abs(integer_determinant(vectors)) != 1:
            bad.append(f"clique {clique}: the g-vectors are no Z-basis")
        for c in range(n):
            if {x[c] > 0 for x in vectors if x[c]} == {True, False}:
                bad.append(f"clique {clique}: coordinate {c} has both signs")
    if checked != (counted := count_support_tau_tilting(a)):
        bad.append(f"{checked} cliques checked, {counted} counted")
    if len({g[k] for k in rigid}) != len(rigid):
        bad.append("two tau-rigid nodes share a g-vector")
    return bad


def rational_inverse(rows):
    """The inverse of an invertible square integer matrix, exactly, by
    Gauss-Jordan elimination over the rationals."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
           for r, row in enumerate(rows)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if mat[r][c])
        mat[c], mat[pivot] = mat[pivot], mat[c]
        mat[c] = [x / mat[c][c] for x in mat[c]]
        for r in range(n):
            if r != c and (f := mat[r][c]):
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[c])]
    return [row[n:] for row in mat]


def euler_form_failures(a):
    """The Euler form on every ordered pair (M, N) of AR nodes of ``a``, an
    algebra of global dimension at most 3: hom_dim(M, N) plus the sum over
    i = 1, 2, 3 of (-1)^i ext_dim(M, N, i) is dim M . C^-1 . dim N^T, where
    row v of the Cartan matrix C is dim P(v) (Assem-Simson-Skowronski,
    vol. 1, III.3.13).  C^-1 is found over the rationals here, with none of
    the engine's linear algebra."""
    c_inv = rational_inverse([projective(a, v).dims for v in a.quiver.vertices])
    nodes = ar_quiver(a).representatives()
    bad = []
    for i, m in enumerate(nodes):
        for j, n in enumerate(nodes):
            alternating = hom_dim(m, n) + sum((-1) ** d * ext_dim(m, n, d) for d in (1, 2, 3))
            euler = sum(x * c_inv[r][s] * y
                        for r, x in enumerate(m.dims) for s, y in enumerate(n.dims))
            if alternating != euler:
                bad.append(f"nodes {i}, {j}: alternating sum {alternating}, Euler form {euler}")
    return bad


def presection_on_ids_failures(arq: ARQuiver, groups):
    """(failures, skipped): the presection test on node ids
    (``tautilt._is_presection_on_ids``) against :func:`is_presection`, which
    reads the AR arrows at the members from their modules, on each tuple of
    node ids of ``arq`` in ``groups``.  A group on which ``is_presection``
    raises ``FieldTooSmall`` is skipped."""
    nodes = arq.representatives()
    bad, skipped = [], 0
    for group in groups:
        try:
            expect = is_presection(SliceCandidate(arq.algebra, [nodes[k] for k in group]))
        except FieldTooSmall:
            skipped += 1
            continue
        if _is_presection_on_ids(arq, group) != expect:
            bad.append(f"nodes {group}: the id test says {not expect}")
    return bad, skipped


def rigidity_candidates(a):
    """A candidate for every AR node of ``a``, every pair of AR nodes and
    every clique of one tau-rigid node per vertex."""
    arq = ar_quiver(a)
    nodes = arq.representatives()
    n = a.quiver.n_vertices
    groups = [(k,) for k in range(len(nodes))]
    groups += itertools.combinations(range(len(nodes)), 2)
    groups += [c for c in _tau_rigid_cliques(arq, n, n) if len(c) == n]
    return [SliceCandidate(a, [nodes[k] for k in g]) for g in groups]


def members_tau_rigid_failures(candidates):
    """Pairwise tau-rigidity of the members (``tautilt._members_tau_rigid``)
    against ``is_tau_rigid`` of their direct sum, on each candidate."""
    return [f"members {[u.dims for u in c.members]}: the pairwise test says {ok}"
            for c in candidates if (ok := _members_tau_rigid(c)) != is_tau_rigid(c.module())]
