"""Products, colimits, isomorphism search, and structural predicates.

Colimits, isomorphism search and map enumeration are written once for the
n-fold sets of `sset` and serve simplicial and bisimplicial sets alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from . import delta
from .sset import EMPTY, NF, SSet, SSetError, SSetMap, materialize, nd


# -- products -----------------------------------------------------------------


class Product(NamedTuple):
    sset: SSet
    projections: tuple[SSetMap, ...]
    to_nf: Callable[[int, tuple], NF]


def product(*factors: SSet) -> Product:
    """Finite product with projections; generators are the shuffle pairs."""
    if not factors:
        pt = SSet([("*", 0)], {})
        return Product(pt, (), lambda d, e: NF(tuple(range(d - 1, -1, -1)), "*"))
    if any(X.is_empty() for X in factors):
        return Product(EMPTY, tuple(SSetMap(EMPTY, X, {}) for X in factors),
                       lambda d, e: (_ for _ in ()).throw(SSetError("empty product")))
    max_dim = sum(X.dim_bound for X in factors)

    def levels(d: int) -> list:
        return sorted(itertools.product(*(X.simplices(d) for X in factors)))

    def act(e, d, mu):
        return tuple(X.act(x, mu) for X, x in zip(factors, e))

    def degen(e, d, i):
        out = []
        for X, x in zip(factors, e):
            epi = delta.word_to_epi(x.word, d)
            if epi[i] != epi[i + 1]:
                return None
            word2, _ = delta.factor(delta.compose(epi, delta.coface(i, d)))
            out.append(NF(word2, x.gen))
        return tuple(out)

    mat = materialize(levels, act, max_dim, prefix="p", degen=degen)
    projs = tuple(
        SSetMap(mat.sset, X, {g: mat.elem_of[g][i] for g in mat.sset.gens()}, validate=False)
        for i, X in enumerate(factors))
    return Product(mat.sset, projs, mat.to_nf)


def pairing(prod: Product, maps: list[SSetMap]) -> SSetMap:
    """The map into a product induced by maps out of a common source."""
    src = maps[0].src
    assign = {}
    for g in src.gens():
        d = src.gen_dim(g)
        assign[g] = prod.to_nf(d, tuple(f(nd(g)) for f in maps))
    return SSetMap(src, prod.sset, assign, validate=False)


# -- colimits -----------------------------------------------------------------


class DiagramError(ValueError):
    pass


@dataclass
class Diagram:
    objects: dict[str, SSet]
    edges: list[tuple[str, str, str, SSetMap]] = field(default_factory=list)

    def add(self, name: str, src: str, dst: str, f: SSetMap) -> None:
        self.edges.append((name, src, dst, f))


class Colimit(NamedTuple):
    sset: SSet
    cocone: dict[str, SSetMap]
    cls: Callable[[str, NF], NF]
    reps: dict[str, tuple[str, NF]]


class _UF:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            p = self.parent[x] = self.find(p)
        return p

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def colimit(diag: Diagram) -> Colimit:
    """Levelwise union-find colimit, re-normalized to EZ form."""
    return Colimit(*_colimit(diag, materialize, EMPTY))


def _colimit(diag: Diagram, build: Callable, empty):
    """The colimit of a diagram of n-fold sets, up to the objects' top degree per axis.

    build is the public materialize entry point of the grading, called as
    build(levels, act, *bounds, prefix="q"); empty is its empty set.  Returns
    (set, cocone, cls, reps): cls(name, x) is the class of x from the named
    object, reps[g] the least (name, simplex) in the class of g.
    """
    objects = diag.objects
    names = sorted(objects)
    bounds = tuple(max((deg[a] for X in objects.values() for deg in X._by_deg), default=-1)
                   for a in range(empty.n_axes))
    if min(bounds) < 0:
        def no_cls(name, x):
            raise SSetError("empty colimit")

        return empty, {n: objects[n].map_type(objects[n], empty, {}) for n in names}, no_cls, {}
    uf = _UF()
    level_nodes: dict[tuple, list] = {}
    for deg in itertools.product(*(range(b + 1) for b in bounds)):
        nodes = [(n, x) for n in names for x in objects[n].simplices(*deg)]
        level_nodes[deg] = nodes
        for node in nodes:
            uf.find(node)
        for _, s, t, f in diag.edges:
            for x in objects[s].simplices(*deg):
                uf.union((s, x), (t, f(x)))
    classes: dict[tuple, dict] = {}  # per degree: root -> canonical key (min member)
    for deg, nodes in level_nodes.items():
        by_root: dict = {}
        for node in nodes:
            by_root.setdefault(uf.find(node), []).append(node)
        classes[deg] = {root: min(ms) for root, ms in by_root.items()}

    def levels(*deg) -> list:
        return sorted(classes[deg].values())

    def act(e, d, *mus):
        n, x = e
        X = objects[n]
        y = X.act(x, *mus)
        return classes[X.degree(y)][uf.find((n, y))]

    out, to_nf, elem_of = build(levels, act, *bounds, prefix="q")

    def gen_class(n: str, g: str) -> tuple:
        X = objects[n]
        deg = X._deg[g]
        return to_nf(*deg, classes[deg][uf.find((n, X._nd(g)))])

    cocone = {n: objects[n].map_type(objects[n], out,
                                     {g: gen_class(n, g) for g in objects[n].gens()},
                                     validate=False)
              for n in names}

    def cls(name: str, x: tuple) -> tuple:
        return cocone[name](x)

    return out, cocone, cls, {g: elem_of[g] for g in out.gens()}


def _span(f: SSetMap, g: SSetMap) -> Diagram:
    """The diagram X <- A -> Y of f: A -> X and g: A -> Y."""
    if f.src is not g.src and f.src != g.src:
        raise DiagramError("pushout legs must share a source")
    diag = Diagram({"A": f.src, "X": f.dst, "Y": g.dst})
    diag.add("f", "A", "X", f)
    diag.add("g", "A", "Y", g)
    return diag


def pushout(f: SSetMap, g: SSetMap) -> Colimit:
    """Pushout of X <- A -> Y along f: A -> X and g: A -> Y."""
    return colimit(_span(f, g))


def coequalizer(f: SSetMap, g: SSetMap) -> Colimit:
    if f.src != g.src or f.dst != g.dst:
        raise DiagramError("coequalizer needs parallel maps")
    diag = Diagram({"A": f.src, "X": f.dst})
    diag.add("f", "A", "X", f)
    diag.add("g", "A", "X", g)
    return colimit(diag)


def coproduct(xs: list[SSet]) -> Colimit:
    return colimit(Diagram({f"i{k}": X for k, X in enumerate(xs)}))


def mediating_map(col: Colimit, objects: Mapping[str, SSet],
                  test: Mapping[str, SSetMap]) -> SSetMap:
    """The unique map out of a colimit matching a test cocone; raises if none."""
    target = next(iter(test.values())).dst
    assign = {}
    for g in col.sset.gens():
        n, x = col.reps[g]
        assign[g] = test[n](x)
    u = SSetMap(col.sset, target, assign)  # validates simpliciality
    for n, leg in col.cocone.items():
        comp = leg.then(u)
        if any(comp(nd(x)) != test[n](nd(x)) for x in objects[n].gens()):
            raise SSetError("mediating map does not commute; cocone invalid")
    return u


# -- pi0, 1-orderedness -------------------------------------------------------


def sub_sset(X: SSet, gens) -> tuple[SSet, SSetMap]:
    """The subcomplex spanned by the given generators, with its inclusion."""
    keep = set(gens)
    stack = list(keep)
    while stack:
        g = stack.pop()
        for f in X.faces.get(g, ()):
            if f.gen not in keep:
                keep.add(f.gen)
                stack.append(f.gen)
    sub = SSet([(g, X.gen_dim(g)) for g in X.gens() if g in keep],
               {g: fs for g, fs in X.faces.items() if g in keep}, validate=False)
    return sub, SSetMap(sub, X, {g: nd(g) for g in keep}, validate=False)


def component_maps(f: SSetMap) -> list[SSetMap]:
    """Restrict f: X -> Y to the connected components of X."""
    comps, index = pi0(f.src)
    out = []
    for ci in range(len(comps)):
        gens = [g for g in f.src.gens() if index[f.src.vertices(nd(g))[0]] == ci]
        sub, inc = sub_sset(f.src, gens)
        out.append(inc.then(f))
    return out


def pi0(X: SSet) -> tuple[list[tuple[str, ...]], dict[str, int]]:
    """Connected components of the vertex set, linked by edges."""
    uf = _UF()
    verts = list(X.by_dim[0]) if X.dim_bound >= 0 else []
    for v in verts:
        uf.find(v)
    if X.dim_bound >= 1:
        for e in X.by_dim[1]:
            vs = X.vertices(nd(e))
            uf.union(vs[0], vs[1])
    comps: dict[str, list[str]] = {}
    for v in verts:
        comps.setdefault(uf.find(v), []).append(v)
    ordered = sorted((tuple(sorted(c)) for c in comps.values()), key=lambda c: c[0])
    index = {v: i for i, c in enumerate(ordered) for v in c}
    return list(ordered), index


def is_connected(X: SSet) -> bool:
    return len(pi0(X)[0]) == 1


class OrderWitness(NamedTuple):
    condition: str
    detail: tuple


def is_1_ordered(X: SSet) -> tuple[bool, Optional[OrderWitness]]:
    """Antisymmetric edge order plus spine-injectivity of nd simplices.

    Vertices and spines are read from the face tables (SSet.vertices; a
    spine is the spine of the last face plus the last edge of the first
    face), so the check makes no operator calls.  The verdict is memoized
    on X, which is immutable.
    """
    if X._order_check is None:
        X._order_check = _check_1_ordered(X)
    return X._order_check


def _check_1_ordered(X: SSet) -> tuple[bool, Optional[OrderWitness]]:
    arcs: dict[str, set[str]] = {}
    if X.dim_bound >= 1:
        for e in X.by_dim[1]:
            vs = X.vertices(nd(e))
            if vs[0] == vs[1]:
                return False, OrderWitness("antisymmetry", (e,))
            arcs.setdefault(vs[0], set()).add(vs[1])
    state: dict[str, int] = {}

    def dfs(v: str, stack: list[str]) -> Optional[list[str]]:
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

    for v in (X.by_dim[0] if X.dim_bound >= 0 else ()):
        if state.get(v, 0) == 0:
            cyc = dfs(v, [])
            if cyc is not None:
                return False, OrderWitness("antisymmetry", tuple(cyc))
    # the faces of a spine-mono simplex are non-degenerate
    spine: dict[str, tuple[str, ...]] = {}
    for d in range(1, X.dim_bound + 1):
        seen: dict[tuple, str] = {}
        for g in X.by_dim[d]:
            vs = X.vertices(nd(g))
            if len(set(vs)) != d + 1:
                return False, OrderWitness("spine-mono", (g,))
            fs = X.faces[g]
            sp = spine[g] = (g,) if d == 1 else spine[fs[-1].gen] + spine[fs[0].gen][-1:]
            if sp in seen:
                return False, OrderWitness("spine-injectivity", (seen[sp], g))
            seen[sp] = g
    return True, None


# -- isomorphism search -------------------------------------------------------


def _refine_colors(X) -> dict[str, tuple]:
    gens = X.gens()
    color = {g: X._deg[g] for g in gens}
    groups = len(set(color.values()))
    for _ in range(len(color) + 1):
        up: dict[str, list] = {g: [] for g in gens}
        down: dict[str, list] = {g: [] for g in gens}
        for a, faces in enumerate(X._faces):
            for g in gens:
                for i, f in enumerate(faces.get(g, ())):
                    up[f[-1]].append((a, i, f[:-1], color[g]))
                    down[g].append((a, f[:-1], color[f[-1]]))
        new = {g: (color[g], tuple(down[g]), tuple(sorted(up[g]))) for g in gens}
        ranks = {c: i for i, c in enumerate(sorted(set(new.values()), key=repr))}
        relabeled = {g: (X._deg[g], ranks[new[g]]) for g in gens}
        n2 = len(set(relabeled.values()))
        if relabeled == color or n2 == groups:
            break
        color = relabeled
        groups = n2
    return color


def find_iso(A, B) -> Optional[SSetMap]:
    """The first isomorphism A -> B that find_isos yields; None if not isomorphic."""
    return next(find_isos(A, B), None)


def find_isos(A, B) -> Iterator[SSetMap]:
    """All isomorphisms A -> B (refinement-pruned backtracking on generators).

    Generators of A are assigned in (degree, id) order, candidates tried in
    B.gens() order, so the first one yielded does not depend on the pruning.
    """
    if A.nd_counts() != B.nd_counts():
        return
    ca, cb = _refine_colors(A), _refine_colors(B)
    if sorted(ca.values()) != sorted(cb.values()):
        return
    order = sorted(A.gens(), key=lambda g: (A._deg[g], g))
    if not order:
        yield A.map_type(A, B, {}, validate=False)
        return
    b_by_color: dict[tuple, list[str]] = {}
    for h in B.gens():
        b_by_color.setdefault(cb[h], []).append(h)
    assign: dict[str, str] = {}
    used: set[str] = set()

    def candidates(g: str):
        for h in b_by_color.get(ca[g], ()):
            if h not in used and all(fa[:-1] + (assign[fa[-1]],) == B._faces[a][h][i]
                                     for a, faces in enumerate(A._faces)
                                     for i, fa in enumerate(faces.get(g, ()))):
                yield h

    stack = [candidates(order[0])]
    while stack:
        k = len(stack) - 1
        g = order[k]
        if g in assign:
            used.discard(assign.pop(g))
        h = next(stack[-1], None)
        if h is None:
            stack.pop()
            continue
        assign[g] = h
        used.add(h)
        if k + 1 < len(order):
            stack.append(candidates(order[k + 1]))
        else:
            # a bijection on generators that matches every face is an isomorphism
            yield A.map_type(A, B, {x: B._nd(assign[x]) for x in order}, validate=False)


_ARROW_ISO_TRIES = 2000


def find_arrow_iso(f: SSetMap, g: SSetMap) -> Optional[tuple[SSetMap, SSetMap]]:
    """Isomorphisms (u, v) with v . f = g . u, identifying two maps as arrows;
    None also when the first 2000 pairs of isomorphisms fail."""
    tries = 0
    for u in find_isos(f.src, g.src):
        for v in find_isos(f.dst, g.dst):
            tries += 1
            if tries > _ARROW_ISO_TRIES:
                return None
            if all(v(f(nd(x))) == g(u(nd(x))) for x in f.src.gens()):
                return (u, v)
    return None


# -- map enumeration ----------------------------------------------------------


def enumerate_maps(A, B, over: Optional[tuple[SSetMap, SSetMap]] = None) -> Iterator[SSetMap]:
    """All maps A -> B; with over=(pA, pB), only those f with pB . f == pA."""
    order = sorted(A.gens(), key=lambda g: (A._deg[g], g))
    assign: dict[str, tuple] = {}

    def fits(g: str, img: tuple) -> bool:
        if over is not None and over[1](img) != over[0](A._nd(g)):
            return False
        return all(B._face(img, a, i) == B._degenerate(fa[:-1], assign[fa[-1]])
                   for a, faces in enumerate(A._faces) for i, fa in enumerate(faces.get(g, ())))

    def extend(k: int) -> Iterator[dict[str, tuple]]:
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
