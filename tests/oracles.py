"""Independent brute-force oracles used to freeze expected values.

The counts here are computed by direct enumeration, never through the
library's own engines, so the values they produce can back the library's
outputs.  coend_all_relations is the unpruned coend, built from the library's
products and colimits, the reference for the pruned one in kan.enriched_lan;
with_relation_products rebuilds the bare relation pieces of a
kan.coend_diagram as those full products and checks the library's legs against
them with a validated SSetMap.
colimit_all_simplices and product_all_tuples list every simplex, degenerate
ones included, and strip degeneracies through the generic operator action in
the materialize engine: the references for ops.colimit, bisset.bi_colimit and
ops.product (of simplicial or bisimplicial factors), which list
non-degenerate simplices only; vtensor_by_act lists every pair the same way,
the reference for groth.vtensor, the product A x vertical(X).
The act_* oracles read vertices, faces and bead transport through the generic
operator action (SSet.act, BiSSet.act) only, never through the face-table
routines they check: SSet.vertices, necklace.sub_necklace, ops.is_1_ordered
and the bead and necklace tables of Categorification.hom.
hom_names and hom_from_names convert a hom element between the form that
Categorification.hom speaks, (necklace row, entry times), and the name form
(bead names, chain of vertex-name sets), the reference form the hom oracles
below are written in;
hom_levels_from_posets lists hom generators from each level slice's necklace
poset, the reference for the bead paths of Categorification.hom; level_of
keeps the level slices these oracles read, one per categorification and level;
first_unordered_level checks every level slice up to a bound, the reference
for Categorification's 1-orderedness gate, which checks the top level first;
hom_act_by_names and hom_degen_by_names act on hom elements in the name form
(beads, chain), the action of the full-listing route that Categorification.hom
replaced with entry-time chains read from necklace tables;
hom_bound_by_dfs and tnd_by_tails walk the bead paths recursively, the
references for the one fold over ops.post_order and the one path listing in
necklace, behind Categorification's bounds, necklace_count and TndPoset;
enumerate_maps_by_recursion is the recursive backtracking reference for
ops.enumerate_maps, which keeps its choices on the explicit stack of
ops.backtrack; isos_by_degree, the one for ops.find_isos, prunes by degree
only, where find_isos prunes by colour refinement too;
hc_functors_by_generate_and_test lists every choice of prism maps on the cube
cells and tests each, the reference for nerves.hc_functors, which backtracks
cell by cell; nat_trans_by_products builds every tuple of componentwise maps
and tests each for naturality, the reference for scat.enumerate_nat_trans,
which prunes component by component;
bead_containment_by_scan finds each containing bead by a scan over the outer
necklace's beads, the reference for necklace.containing_beads behind
TndPoset.bead_map and the weights of cubes;
lf_rep_by_listing finds the product representatives of bisset.lf by listing
every simplex, the reference for its one pass over generators.
cfunctor_on_hom_by_element, comp_el_by_element and face_by_composing compute
an enriched functor's image, a composite and a face element by element, with
no table: the references for cfunctor's generator table, the comp_el memo and
delta.face_of_word behind GradedSet._face; strip_word_by_section undoes common
degeneracies through a section, the reference for delta.strip_word behind
ops.product's normal forms and the Eilenberg-Zilber shortcut of io_schemas'
dumps; merge_words_by_composing composes two words' epis, the reference for
the closed form of delta.merge_words.
cube_hom_by_listing lists every chain of an interval and tests each through the
operator action, the reference for cubes.cube_hom's strict chains;
weight_G0_by_products builds the G0 weight from its own products and arrows
(ops.product and ops.pairing), the reference for cubes.weight_G0, which is
built from F0.
presheaf_actions_all_pairs calls a presheaf's action on every pair of
simplices, and scat_comp_all_pairs a simplicial category's composition, the
references for io_schemas.presheaf_dump and io_schemas.scat_dump, which call
them only on the pairs whose degeneracy words share no index.
"""

import itertools
import weakref

from necklace_calculus import delta
from necklace_calculus.bisset import level_id, materialize_bi
from necklace_calculus.cubes import chain_act, cube_hom
from necklace_calculus.necklace import RealizedNecklace, TndPoset
from necklace_calculus.nerves import CoherentFunctor, _prism, exp_act, exp_comp, exp_of_element
from necklace_calculus.ops import BarePiece, Diagram, OrderWitness, colimit, product
from necklace_calculus.scat import NatTrans
from necklace_calculus.sset import EMPTY, NF, SSetMap, materialize, nd


def shuffle_count(p: int, q: int, n: int) -> int:
    """Non-degenerate n-simplices of Delta[p] x Delta[q] lying over the top cells:
    pairs of jointly surjective degeneracy words."""
    # choose the positions where each factor degenerates; they must be disjoint
    total = 0
    for u in itertools.combinations(range(n), n - p):
        for v in itertools.combinations(range(n), n - q):
            if not set(u) & set(v):
                total += 1
    return total


def product_nd_counts(counts_a, counts_b):
    """nd cell counts of a product from the factors' nd counts, via shuffles."""
    top = len(counts_a) + len(counts_b) - 2
    out = [0] * (top + 1)
    for p, na in enumerate(counts_a):
        for q, nb in enumerate(counts_b):
            for n in range(max(p, q), p + q + 1):
                out[n] += na * nb * shuffle_count(p, q, n)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pair_objects(i: int, m: int):
    """All (J, V) with {i, m+1} <= J <= V <= {i..m+1}, by direct enumeration."""
    inner = list(range(i + 1, m + 1))
    out = []
    for vmask in range(1 << len(inner)):
        V = frozenset([i, m + 1] + [inner[t] for t in range(len(inner)) if vmask >> t & 1])
        rest = sorted(V - {i, m + 1})
        for jmask in range(1 << len(rest)):
            J = frozenset([i, m + 1] + [rest[t] for t in range(len(rest)) if jmask >> t & 1])
            out.append((tuple(sorted(J)), tuple(sorted(V))))
    return sorted(set(out))


def chain_count(J, V, j: int, strict: bool) -> int:
    """Chains S_0 <= ... <= S_j in the interval [J, V]."""
    free = [v for v in V if v not in J]
    if strict:
        total = 0
        for times in itertools.product(range(0, j + 2), repeat=len(free)):
            chain = [frozenset(J) | {v for v, t in zip(free, times) if t <= r}
                     for r in range(j + 1)]
            if all(chain[r] < chain[r + 1] for r in range(j)):
                total += 1
        return total
    return (j + 2) ** len(free)


def boolean_top_cells(n_free: int) -> int:
    import math

    return math.factorial(n_free)


def interval_nerve_counts(J, V):
    """nd chain counts of the subset-interval nerve, degree by degree."""
    free = len(V) - len(J)
    return tuple(chain_count(J, V, j, strict=True) for j in range(free + 1))


def cube_chain_counts(k: int):
    """Strict chains S_0 < ... < S_j in the poset {0,1}^k of subsets of a
    k-set, counted by length j: the nd simplex counts of its nerve."""
    subsets = range(1 << k)
    counts = [0] * (k + 1)

    def extend(top: int, length: int) -> None:
        counts[length] += 1
        for s in subsets:
            if s != top and s & top == top:
                extend(s, length + 1)

    for s in subsets:
        extend(s, 0)
    return tuple(counts)


def coend_all_relations(F, G, D, d):
    """The colimit at d of the coend of F along G: D(d, Ga) x F(a) for every
    object a, glued by the relation piece C(a, b) x D(d, Ga) x F(b) of every
    pair (a, b), trivial ones included."""
    C = F.base
    prods = {a: product(D.hom[(d, G.on_obj[a])], F.value[a]) for a in C.objects}
    diag = Diagram({f"p.{a}": prods[a].sset for a in C.objects})
    for a in C.objects:
        for b in C.objects:
            pr3 = product(C.hom[(a, b)], D.hom[(d, G.on_obj[a])], F.value[b])
            name = f"r.{a}.{b}"
            diag.objects[name] = pr3.sset
            k_pr, h_pr, x_pr = pr3.projections
            to_b, to_a = {}, {}
            for g in pr3.sset.gens():
                dd = pr3.sset.gen_dim(g)
                k_el, h_el, x_el = k_pr(nd(g)), h_pr(nd(g)), x_pr(nd(g))
                gk = G.on_hom(a, b, k_el)
                to_b[g] = prods[b].to_nf(
                    dd, (D.comp(d, G.on_obj[a], G.on_obj[b], gk, h_el), x_el))
                to_a[g] = prods[a].to_nf(dd, (h_el, F.action(a, b, k_el, x_el)))
            diag.add(f"eb.{a}.{b}", name, f"p.{b}", SSetMap(pr3.sset, prods[b].sset, to_b))
            diag.add(f"ea.{a}.{b}", name, f"p.{a}", SSetMap(pr3.sset, prods[a].sset, to_a))
    return colimit(diag)


def presheaf_actions_all_pairs(F):
    """The "actions" of presheaf.v1 for F, with F.action called on every pair."""
    def js(nf):
        return {"word": list(nf.word), "target": nf.gen}

    base = F.base
    actions = {}
    for a in base.objects:
        for b in base.objects:
            entries = [{"dim": dim, "h": js(h), "x": js(x), "to": js(F.action(a, b, h, x))}
                       for dim in range(base.hom_bound + 1)
                       for h in base.hom[(a, b)].simplices(dim)
                       for x in F.value[b].simplices(dim)]
            if entries:
                actions[f"{a}|{b}"] = entries
    return actions


def scat_comp_all_pairs(C):
    """The "comp" of scat.v1 for C, with C.comp called on every pair."""
    def js(nf):
        return {"word": list(nf.word), "target": nf.gen}

    comp = {}
    for a, b, c in itertools.product(C.objects, repeat=3):
        entries = [{"dim": dim, "g": js(g), "f": js(f), "to": js(C.comp(a, b, c, g, f))}
                   for dim in range(C.hom_bound + 1)
                   for g in C.hom[(b, c)].simplices(dim)
                   for f in C.hom[(a, b)].simplices(dim)]
        if entries:
            comp[f"{a}|{b}|{c}"] = entries
    return comp


def with_relation_products(F, G, D, d, diag):
    """The coend diagram diag = kan.coend_diagram(F, G, D, d) with each bare
    relation piece r.a.b replaced by the full product C(a, b) x D(d, Ga) x F(b).
    Asserts that the piece lists that product's generators, with the same ids
    at the same degrees, and that both its legs are simplicial maps out of it
    (SSetMap with validate=True raises otherwise)."""
    C = F.base
    full = Diagram(dict(diag.objects))
    for a in C.objects:
        for b in C.objects:
            name = f"r.{a}.{b}"
            if name in diag.objects:
                piece = diag.objects[name]
                assert isinstance(piece, BarePiece), name
                pr3 = product(C.hom[(a, b)], D.hom[(d, G.on_obj[a])], F.value[b])
                assert piece._by_deg == pr3.sset._by_deg, name
                full.objects[name] = pr3.sset
    assert not any(isinstance(X, BarePiece) for X in full.objects.values())
    for edge, s, t, f in diag.edges:
        X = full.objects[s]
        full.add(edge, s, t, f if X is f.src else SSetMap(X, f.dst, f.assign, validate=True))
    return full


# -- level slices ------------------------------------------------------------------


_LEVELS = weakref.WeakKeyDictionary()  # categorification -> {level: its slice}


def level_of(C, j):
    """The level-j slice of the categorification C, built once per C and level
    for the oracles below; C.level(j) builds a new slice on each call, and C
    keeps none."""
    levels = _LEVELS.setdefault(C, {})
    if j not in levels:
        levels[j] = C.level(j)
    return levels[j]


def first_unordered_level(W, bound):
    """The first level j in 0..bound whose slice LevelSSet(W, j) is not
    1-ordered, with its witness, or None: every level checked in turn, the
    reference for the gate of Categorification, which checks the level bound
    alone unless it fails."""
    from necklace_calculus.bisset import LevelSSet
    from necklace_calculus.ops import is_1_ordered

    for j in range(bound + 1):
        ok, wit = is_1_ordered(LevelSSet(W, j))
        if not ok:
            return j, wit
    return None


# -- the generic operator action ------------------------------------------------


def act_vertices(X, x):
    """The vertices of a simplex x of X, each picked by X.act."""
    return tuple(X.act(x, (v,)).gen for v in range(X.dim(x) + 1))


def act_sub_necklace(K, t, joints, verts):
    """The face of the necklace t with the given joint and vertex sets: bead
    vertices by act_vertices, each new bead picked by K.act on the vertex
    positions of a segment between two consecutive new joints; None when the
    sets do not give a face of t."""
    bead_verts = [act_vertices(K, nd(g)) for g in t.beads]
    vt = list(bead_verts[0]) + [v for vs in bead_verts[1:] for v in vs[1:]]
    tj = [bead_verts[0][0]] + [vs[-1] for vs in bead_verts]
    pos = {v: i for i, v in enumerate(vt)}
    if not set(verts) <= set(vt) or not set(joints) <= set(verts) or not set(tj) <= set(joints):
        return None
    joints = sorted(set(joints), key=pos.get)
    verts = sorted(set(verts), key=pos.get)
    if len(joints) == 1:
        return RealizedNecklace((joints[0],))
    beads = []
    for lo, hi in zip(joints, joints[1:]):
        seg = [v for v in verts if pos[lo] <= pos[v] <= pos[hi]]
        bi = next((b for b in range(len(t.beads))
                   if pos[tj[b]] <= pos[lo] and pos[hi] <= pos[tj[b + 1]]), None)
        if bi is None or not set(seg) <= set(bead_verts[bi]):
            return None
        face = K.act(nd(t.beads[bi]), tuple(bead_verts[bi].index(v) for v in seg))
        if face.word:
            return None
        beads.append(face.gen)
    return RealizedNecklace(tuple(beads))


def act_hom_action(C, e, j, mu):
    """A hom element (beads, chain) of the categorification C at level j moved
    along mu: every bead by the vertical W.act, the chain by mu, and the
    necklace always re-saturated by act_sub_necklace."""
    beads, ch = e
    L = level_of(C, len(mu) - 1)
    moved = []
    for g in beads:
        b = C.W.act(level_of(C, j).origin[g], mu_v=mu)
        assert not b.hword
        moved.append(level_id(C.W, b.gen, b.vword))
    ch2 = tuple(ch[r] for r in mu)
    t2 = act_sub_necklace(L, RealizedNecklace(tuple(moved)), ch2[0], ch2[-1])
    assert t2 is not None
    return t2.beads, ch2


def act_is_1_ordered(X):
    """Verdict and witness of ops.is_1_ordered, with every vertex and every
    spine edge picked by X.act, checked in the same order."""
    arcs = {}
    for e in X.by_dim[1] if X.dim_bound >= 1 else ():
        vs = act_vertices(X, nd(e))
        if vs[0] == vs[1]:
            return False, OrderWitness("antisymmetry", (e,))
        arcs.setdefault(vs[0], set()).add(vs[1])
    state = {}

    def dfs(v, stack):
        state[v] = 1
        stack.append(v)
        for w in sorted(arcs.get(v, ())):
            if state.get(w) == 1:
                return stack[stack.index(w):]
            if state.get(w, 0) == 0:
                cyc = dfs(w, stack)
                if cyc is not None:
                    return cyc
        stack.pop()
        state[v] = 2
        return None

    for v in X.by_dim[0] if X.dim_bound >= 0 else ():
        if state.get(v, 0) == 0:
            cyc = dfs(v, [])
            if cyc is not None:
                return False, OrderWitness("antisymmetry", tuple(cyc))
    for d in range(1, X.dim_bound + 1):
        seen = {}
        for g in X.by_dim[d]:
            if len(set(act_vertices(X, nd(g)))) != d + 1:
                return False, OrderWitness("spine-mono", (g,))
            sp = tuple(X.act(nd(g), (i, i + 1)) for i in range(d))
            if sp in seen:
                return False, OrderWitness("spine-injectivity", (seen[sp], g))
            seen[sp] = g
    return True, None


# -- colimits and products over every simplex -----------------------------------


def colimit_all_simplices(diag, build=materialize, empty=EMPTY):
    """(set, cocone, reps) of the colimit of a diagram of n-fold sets:
    every simplex of every object, degenerate ones included, union-found along
    every edge, and each class materialized by build (materialize, or
    bisset.materialize_bi with empty BI_EMPTY) from its least member, which
    tests degeneracy through two calls of the objects' act per index."""
    objects = diag.objects
    names = sorted(objects)
    bounds = tuple(max((deg[a] for X in objects.values() for deg in X._by_deg), default=-1)
                   for a in range(empty.n_axes))
    if min(bounds) < 0:
        return empty, {n: objects[n].map_type(objects[n], empty, {}) for n in names}, {}
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    level_nodes = {}
    for deg in itertools.product(*(range(b + 1) for b in bounds)):
        nodes = [(n, x) for n in names for x in objects[n].simplices(*deg)]
        level_nodes[deg] = nodes
        for _, s, t, f in diag.edges:
            for x in objects[s].simplices(*deg):
                rx, ry = find((s, x)), find((t, f(x)))
                parent[max(rx, ry)] = min(rx, ry)
    classes = {}  # per degree: root -> least member
    for deg, nodes in level_nodes.items():
        by_root = {}
        for node in nodes:
            by_root.setdefault(find(node), []).append(node)
        classes[deg] = {root: min(ms) for root, ms in by_root.items()}

    def levels(*deg):
        return sorted(classes[deg].values())

    def act(e, d, *mus):
        n, x = e
        X = objects[n]
        y = X.act(x, *mus)
        return classes[X.degree(y)][find((n, y))]

    out, to_nf, elem_of, _ = build(levels, act, *bounds, prefix="q")
    cocone = {}
    for n in names:
        X = objects[n]
        assign = {g: to_nf(*X._deg[g], classes[X._deg[g]][find((n, X._nd(g)))])
                  for g in X.gens()}
        cocone[n] = X.map_type(X, out, assign, validate=False)
    return out, cocone, {g: elem_of[g] for g in out.gens()}


def product_all_tuples(*factors):
    """(set, projections, to_nf) of the product of n-fold sets (simplicial or
    bisimplicial, an empty one among them too): every tuple of simplices of
    one degree listed, the degenerate ones stripped by materialize (or
    bisset.materialize_bi) through the factors' own act, faces taken through
    act.  to_nf(d, e) takes d as ops.product's does, an int for simplicial
    sets."""
    n = factors[0].n_axes
    bounds = tuple(-1 if any(X.is_empty() for X in factors)
                   else sum(max(deg[a] for deg in X._by_deg) for X in factors)
                   for a in range(n))

    def levels(*deg):
        return sorted(itertools.product(*(X.simplices(*deg) for X in factors)))

    def act(e, d, *mus):
        return tuple(X.act(x, *mus) for X, x in zip(factors, e))

    mat = (materialize if n == 1 else materialize_bi)(levels, act, *bounds, prefix="p")
    out = mat[0]

    def to_nf(d, e):
        return mat.to_nf(d, e) if n == 1 else mat.to_nf(*d, e)

    projs = tuple(X.map_type(out, X, {g: mat.elem_of[g][i] for g in out.gens()},
                             validate=False)
                  for i, X in enumerate(factors))
    return out, projs, to_nf


def vtensor_by_act(A, X):
    """groth.vtensor as first built: every pair (a, x) of A x X listed and
    each tested for degeneracy through A's and X's act by materialize_bi.
    The reference for groth.vtensor, the product A x vertical(X)."""

    def levels(m, k):
        return sorted(itertools.product(A.simplices(m, k), X.simplices(k)))

    def act(e, mk, mu_h, mu_v):
        a, x = e
        return (A.act(a, mu_h=mu_h, mu_v=mu_v), x if mu_v is None else X.act(x, mu_v))

    mat = materialize_bi(levels, act, A.h_bound, A.v_bound + max(X.dim_bound, 0),
                         prefix="t")
    return mat.bisset, mat.elem_of, mat.to_nf


# -- hom generators and LF representatives by listing ----------------------------


def hom_names(C, a, b, e):
    """The name form (beads, chain) of the element e = (row, entry times) of
    Hom(a, b) of the categorification C: the row's beads by their names in
    the level slice, and S_r the vertices, in name order, that enter by step
    r, the joints at 0."""
    row = C._hom_build(a, b)[0].rows[e[0]]
    enter = dict.fromkeys(row.joints, 0) | dict(zip(row.free, e[1]))
    order = sorted(enter)
    return (tuple(map(C._level_beads.name, row.beads)),
            tuple(tuple(v for v in order if enter[v] <= r) for r in range(row.j + 1)))


def hom_from_names(C, a, b, j, e):
    """The element (row, entry times) of Hom(a, b) of the categorification C
    named by the level-j name form e = (beads, chain); SSetError unless the
    beads are generators of the level-j slice and the chain is a saturated
    chain of their necklace."""
    from necklace_calculus.sset import SSetError

    beads, ch = e
    origin = level_of(C, j).origin
    if not all(g in origin for g in beads):
        raise SSetError(f"beads {beads!r} are not all generators of level {j}")
    table = C._hom_build(a, b)[0]
    n = table.row(j, tuple(C._level_beads.id(origin[g].gen, origin[g].vword) for g in beads))
    enter = {}
    for r, S in enumerate(ch):
        for v in S:
            enter.setdefault(v, r)
    out = (n, tuple(enter.get(v, 0) for v in table.rows[n].free))
    if 0 in out[1] or hom_names(C, a, b, out) != e:  # a free vertex in S_0 or in no S_r
        raise SSetError("the chain does not saturate the necklace")
    return out


def hom_levels_from_posets(C, a, b, j):
    """The non-degenerate j-simplices of Hom(a, b) of the categorification C,
    sorted: for each necklace T of the level-j slice's TndPoset, with joints and
    vertices from the poset, the saturated chains stepping where every bead of
    T is flat, skipping T when it has fewer free vertices than flat positions."""
    from necklace_calculus.cubes import chains

    poset = TndPoset(level_of(C, j), a, b)
    origin = level_of(C, j).origin
    out = []
    for t in poset.objects:
        J, V = poset._joints[t], poset._verts[t]
        flat = set(origin[t.beads[0]].vword).intersection(*(origin[g].vword for g in t.beads[1:]))
        if len(set(V) - set(J)) < len(flat):
            continue
        out.extend((t.beads, ch) for ch in chains(J, V, j, saturated=True, steps=flat))
    return sorted(out)


def hom_act_by_names(C, e, j, mu):
    """A hom element (beads, chain) of the categorification C at level j moved
    along mu in the name form: every bead by the vertical W.act, the chain by
    mu, and the necklace re-saturated by necklace.sub_necklace unless mu keeps
    both chain ends.  With hom_degen_by_names, the action of the full-listing
    route, the reference for the entry-time tables of Categorification.hom."""
    from necklace_calculus.necklace import sub_necklace

    beads, ch = e
    L = level_of(C, len(mu) - 1)
    moved = []
    for g in beads:
        b = C.W.act(level_of(C, j).origin[g], mu_v=mu)
        assert not b.hword
        moved.append(level_id(C.W, b.gen, b.vword))
    ch2 = tuple(ch[r] for r in mu)
    if mu[0] == 0 and mu[-1] == j:
        return tuple(moved), ch2
    t2 = sub_necklace(L, RealizedNecklace(tuple(moved)), ch2[0], ch2[-1])
    assert t2 is not None
    return t2.beads, ch2


def hom_degen_by_names(C, e, j, i):
    """d_i e when the name-form element e = s_i d_i e: its chain repeats at i
    and i is in every bead's vertical degeneracy word; else None."""
    beads, ch = e
    origin = level_of(C, j).origin
    flat = set(origin[beads[0]].vword).intersection(*(origin[g].vword for g in beads[1:]))
    if ch[i] != ch[i + 1] or i not in flat:
        return None
    return hom_act_by_names(C, e, j, delta.coface(i, j))


def hom_bound_by_dfs(C, a, b):
    """The largest sum of (m - 1) + k over a path of beads of bidegree (m, k)
    from a to b in C's acyclic bead table, by a recursive depth-first search
    from a with a sentinel for the vertices that do not reach b: the
    reference for Categorification.hom_bound and bound, one pass over
    ops.post_order."""
    table = C._beads()
    best = {}

    def dfs(v):
        if v not in best:
            score = 0 if v == b else -(10 ** 9)
            for g, k, verts in table.get(v, ()):
                sub = dfs(verts[-1])
                if sub > -(10 ** 9):
                    score = max(score, len(verts) - 2 + k + sub)
            best[v] = score
        return best[v]

    return max(dfs(a), 0)


def tnd_by_tails(K, a, b):
    """The totally non-degenerate necklaces of an acyclic K from a to b, sorted:
    a recursive listing of the bead paths from each vertex, the beads read by
    their vertices through K.act; the reference for necklace_count and
    TndPoset, one pass over ops.post_order."""
    if a == b:
        return [RealizedNecklace((a,))]
    beads = {}
    for d in range(1, K.dim_bound + 1):
        for g in K.by_dim[d]:
            vs = act_vertices(K, nd(g))
            beads.setdefault(vs[0], []).append((g, vs[-1]))

    def tails(v):
        out = []
        for g, w in beads.get(v, ()):
            if w == b:
                out.append((g,))
            out.extend((g,) + rest for rest in tails(w))
        return out

    return [RealizedNecklace(bs) for bs in sorted(tails(a))]


def lf_rep_by_listing(L):
    """For each generator g of L.W, the first simplex of the external product
    at g's bidegree, degenerate ones included, that the quotient sends to g."""
    from necklace_calculus.bisset import bnd

    rep = {}
    for g in L.W.gens():
        rep[g] = next(e for e in L.product.simplices(*L.W.bidegree(g))
                      if L.cls(e) == bnd(g))
    return rep


# -- enriched functors, composition and faces element by element -----------------


def cfunctor_on_hom_by_element(f, Csrc, Cdst, a, b, x):
    """The image of any simplex x of Hom(a, b) under the functor that the
    precategory map f induces: x expanded to its element at its own level,
    every bead through f, the chain through f on vertices, and the necklace
    re-saturated by sub_necklace in the target level; no table."""
    from necklace_calculus.necklace import sub_necklace

    on_obj = {v: f(level_of(Csrc, 0).origin[v]).gen for v in Csrc.objects}
    hs = Csrc.hom(a, b)
    j = hs.sset.dim(x)
    beads, ch = hom_names(Csrc, a, b, hs.expand(x))
    Lsrc, Ldst = level_of(Csrc, j), level_of(Cdst, j)
    new_beads = []
    for g in beads:
        binf = f(Lsrc.origin[g])
        if Ldst.W.bidegree(binf.gen)[0] > 0:
            new_beads.append(level_id(Cdst.W, binf.gen, binf.vword))
    ch2 = tuple(tuple(sorted({on_obj[v] for v in S})) for S in ch)
    if not new_beads:
        t2 = RealizedNecklace((on_obj[ch[0][0] if ch[0] else a],))
    else:
        t2 = sub_necklace(Ldst, RealizedNecklace(tuple(new_beads)), ch2[0], ch2[-1])
        assert t2 is not None
    a2, b2 = on_obj[a], on_obj[b]
    return Cdst.hom(a2, b2).to_nf(j, hom_from_names(Cdst, a2, b2, j, (t2.beads, ch2)))


def comp_el_by_element(C, a, b, c, g, f):
    """The composite of f in Hom(a, b) and g in Hom(b, c) of the
    categorification C, from both elements expanded at g's level; no memo."""
    from necklace_calculus.cubes import chain_join

    hg, hf = C.hom(b, c), C.hom(a, b)
    j = hg.sset.dim(g)
    tg, chg = hom_names(C, b, c, hg.expand(g))
    tf, chf = hom_names(C, a, b, hf.expand(f))
    if tf[0] in C.objects:  # the point necklace, named by its vertex
        beads = tg
    elif tg[0] in C.objects:
        beads = tf
    else:
        beads = tf + tg
    return C.hom(a, c).to_nf(j, hom_from_names(C, a, c, j, (beads, chain_join(chf, chg))))


def face_by_composing(X, e, a, r):
    """d_r along axis a of the normal form e of X: the epi of e's word composed
    with the coface, factored epi-mono, and the missing index read from X's
    face table."""
    g = e[-1]
    top = X._deg[g][a]
    m = top + len(e[a])
    word, mono = delta.factor(delta.compose(delta.word_to_epi(e[a], m), delta.coface(r, m)))
    missing = set(range(top + 1)).difference(mono)
    f = X._faces[a][g][missing.pop()] if missing else X._nd(g)
    return X._degenerate(e[:a] + (word,) + e[a + 1:-1], f)


def face_of_word_by_composing(word, m, r):
    """(word', i) with d_r s_word = s_word' d_i on a simplex of dimension
    m - len(word), i None when no face of the simplex is taken; by composing
    and factoring monotone maps."""
    word2, mono = delta.factor(delta.compose(delta.word_to_epi(word, m), delta.coface(r, m)))
    missing = set(range(m - len(word) + 1)).difference(mono)
    return word2, (missing.pop() if missing else None)


def merge_words_by_composing(outer, inner, m):
    """The word of s_outer s_inner on a simplex with s_inner of it of
    dimension m: the epis of both words composed as monotone maps, and the
    composite's repeats read off.  The reference for delta.merge_words."""
    e_in = delta.word_to_epi(inner, m)
    e_out = delta.word_to_epi(outer, m + len(outer))
    return delta.epi_to_word(delta.compose(e_in, e_out))


def strip_word_by_section(word, common, m):
    """The word w' with s_word = s_common s_w' on a simplex of dimension
    m - len(word), for common a subset of word: the epi of word composed with
    the section of the epi of common that takes the first index of each
    fiber."""
    section = tuple(j for j in range(m + 1) if j - 1 not in common)
    return delta.epi_to_word(delta.compose(delta.word_to_epi(word, m), section))


# -- cube homs and the G0 weight as first built -------------------------------------


def cube_hom_by_listing(J, V):
    """The interval nerve of [J, V] from every chain, degenerate ones included,
    each tested through the operator action, with a closed-form normal form:
    (space, chain of each generator, to_nf).  The reference for cubes.cube_hom,
    which lists strict chains only."""
    from necklace_calculus.cubes import chain_act, chains

    J, V = tuple(sorted(set(J))), tuple(sorted(set(V)))
    mat = materialize(lambda j: chains(J, V, j), lambda e, j, mu: chain_act(e, mu),
                      len(V) - len(J), prefix="ch")
    gen_of = {ch: g for g, ch in mat.elem_of.items()}

    def to_nf(d, chain):
        word = tuple(sorted((r for r in range(d) if chain[r] == chain[r + 1]), reverse=True))
        strict = tuple(S for r, S in enumerate(chain) if r == 0 or S != chain[r - 1])
        return NF(word, gen_of[strict])

    return mat.sset, mat.elem_of, to_nf


def weight_G0_by_products(m, f):
    """The boundary pushout-product weight on pairs from 0 to m+1 with its own
    products and arrows: X at the top cell, Y^t at a pair with t beads, arrows
    out of the top pairing copies of f, the others pairing projections.  The
    reference for cubes.weight_G0, which is built from F0."""
    from necklace_calculus.cubes import Weight
    from necklace_calculus.necklace import PairPoset
    from necklace_calculus.ops import pairing
    from necklace_calculus.sset import identity_map

    X, Y = f.src, f.dst
    pp = PairPoset(0, m)
    top = pp.top()
    prods = {p: product(*[Y] * (len(p.J) - 1)) for p in pp.objects if p != top}
    values = {p: X if p == top else prods[p].sset for p in pp.objects}

    def arrow(p, q):
        if q == top:
            if p == top:
                return identity_map(X)
            return pairing(prods[p], [f] * len(prods[p].projections))
        return pairing(prods[p], [prods[q].projections[ti]
                                  for ti in bead_containment_by_scan(pp, p, q)])

    return Weight(pp, values, arrow)


def bead_containment_by_scan(pp, p, q):
    """Index in q of the bead containing each bead of p, for pairs p <= q of
    the pair poset pp, by a scan over q's beads: the reference for
    necklace.containing_beads."""
    out = []
    for bead in pp.beads(p):
        lo, hi = bead[0], bead[-1]
        for ti in range(len(q.J) - 1):
            if q.J[ti] <= lo and hi <= q.J[ti + 1]:
                out.append(ti)
                break
        else:
            raise AssertionError("no containing bead")
    return tuple(out)


def enumerate_maps_by_recursion(A, B, over=None):
    """All maps A -> B (with over=(pA, pB), those f with pB . f == pA) by
    recursive backtracking over A's generators in (degree, id) order: the
    reference for ops.enumerate_maps, which yields the same maps in the same
    order from an explicit stack."""
    order = sorted(A.gens(), key=lambda g: (A._deg[g], g))
    assign = {}

    def fits(g, img):
        if over is not None and over[1](img) != over[0](A._nd(g)):
            return False
        return all(B._face(img, a, i) == B._degenerate(fa[:-1], assign[fa[-1]])
                   for a, faces in enumerate(A._faces) for i, fa in enumerate(faces.get(g, ())))

    def extend(k):
        if k == len(order):
            yield dict(assign)
            return
        g = order[k]
        for img in B.simplices(*A._deg[g]):
            if fits(g, img):
                assign[g] = img
                yield from extend(k + 1)
                del assign[g]

    for a in extend(0):
        yield A.map_type(A, B, a, validate=False)


def isos_by_degree(A, B):
    """All isomorphisms A -> B by recursive backtracking pruned by degree only:
    A's generators in (degree, id) order, each tried against B's unused
    generators of its degree in B.gens() order and kept where its faces match.
    The reference for ops.find_isos, whose colour refinement may prune only
    what cannot extend to an isomorphism: so it yields these maps in this order."""
    if A.n_gens() != B.n_gens():
        return
    order = sorted(A.gens(), key=lambda g: (A._deg[g], g))
    assign = {}

    def extend(k):
        if k == len(order):
            yield dict(assign)
            return
        g = order[k]
        for h in B.gens():
            if B._deg[h] == A._deg[g] and h not in assign.values() and all(
                    fa[:-1] + (assign[fa[-1]],) == B._faces[a][h][i]
                    for a, faces in enumerate(A._faces) for i, fa in enumerate(faces.get(g, ()))):
                assign[g] = h
                yield from extend(k + 1)
                del assign[g]

    for a in extend(0):
        yield A.map_type(A, B, {x: B._nd(h) for x, h in a.items()}, validate=False)


def hc_functors_by_generate_and_test(C, m, k):
    """All enriched functors c^h Delta[m] -> C^{Delta[k]}, sorted: every tuple
    of objects and every choice of a prism map Delta[d] x Delta[k] -> hom at each
    d-cell of each cube(i, j), kept where each cell's faces are its value's
    faces and, at every vertex p inside every set of its chain, its value is
    the composite of the values at the chain cut at p.  The reference for
    nerves.hc_functors, which backtracks cell by cell and forces composites."""
    pairs = [(i, i + gap) for gap in range(1, m + 1) for i in range(m + 1 - gap)]
    cubes = {p: cube_hom(p, range(p[0], p[1] + 1)) for p in pairs}
    slots = [(p, g, ch) for p in pairs for g, ch in sorted(cubes[p].chain_of.items())]
    out = []
    for objs in itertools.product(C.objects, repeat=m + 1):
        def hom(i, j):
            return C.hom[(objs[i], objs[j])]

        listings = [[tuple(sorted(f.assign.items())) for f in enumerate_maps_by_recursion(
                        _prism(cubes[p].space.gen_dim(g), k).sset, hom(*p))]
                    for p, g, _ in slots]
        for choice in itertools.product(*listings):
            vals = {(p, g): e for (p, g, _), e in zip(slots, choice)}

            def at(i, j, ch):
                d = len(ch) - 1
                if i == j:
                    return exp_of_element(hom(i, i), d, k, C.id_el(objs[i], k))
                x = cubes[(i, j)].to_nf(d, ch)
                e = vals[((i, j), x.gen)]
                return exp_act(hom(i, j), d - len(x.word), k, e,
                               delta.word_to_epi(x.word, d)) if x.word else e

            def fits(p, g, ch):
                (i, j), d, e = p, len(ch) - 1, vals[(p, g)]
                return (all(exp_act(hom(i, j), d, k, e, delta.coface(r, d))
                            == at(i, j, chain_act(ch, delta.coface(r, d)))
                            for r in (range(d + 1) if d else ()))
                        and all(e == exp_comp(C, objs[i], objs[q], objs[j], k, d,
                                              at(q, j, tuple(tuple(v for v in S if v >= q)
                                                             for S in ch)),
                                              at(i, q, tuple(tuple(v for v in S if v <= q)
                                                             for S in ch)))
                                for q in range(i + 1, j) if all(q in S for S in ch)))

            if all(fits(*slot) for slot in slots):
                out.append(CoherentFunctor(objs, tuple(
                    tuple(vals[(p, g)] for q, g, _ in slots if q == p) for p in pairs)))
    return sorted(out)


def nat_trans_by_products(F, G):
    """All natural transformations F -> G: every tuple of componentwise maps,
    kept where each component commutes with the actions along every simplex
    of every hom.  The reference for scat.enumerate_nat_trans, which prunes
    component by component, and yields these in this order."""
    base = F.base
    obs = list(base.objects)
    for combo in itertools.product(*(list(enumerate_maps_by_recursion(F.value[a], G.value[a]))
                                     for a in obs)):
        eta = dict(zip(obs, combo))
        if all(eta[a](F.action(a, b, h, x)) == G.action(a, b, h, eta[b](x))
               for d in range(base.hom_bound + 1)
               for a, b in itertools.product(obs, repeat=2)
               for h in base.hom[(a, b)].simplices(d) for x in F.value[b].simplices(d)):
            yield NatTrans(F, G, eta)
