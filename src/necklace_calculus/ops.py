"""Products, colimits, isomorphism search, and structural predicates."""

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
    relations: list[tuple[list[str], list[str]]] = field(default_factory=list)

    def add(self, name: str, src: str, dst: str, f: SSetMap) -> None:
        self.edges.append((name, src, dst, f))

    def edge_map(self, name: str) -> tuple[str, str, SSetMap]:
        for n, s, t, f in self.edges:
            if n == name:
                return s, t, f
        raise DiagramError(f"no edge named {name!r}")

    def compose_path(self, path: list[str]) -> tuple[str, str, SSetMap]:
        s0, t, f = self.edge_map(path[0])
        for name in path[1:]:
            s, t2, g = self.edge_map(name)
            if s != t:
                raise DiagramError(f"path breaks at {name!r}")
            f, t = f.then(g), t2
        return s0, t, f

    def check_commutes(self) -> None:
        for p, q in self.relations:
            sp, tp, fp = self.compose_path(p)
            sq, tq, fq = self.compose_path(q)
            if (sp, tp) != (sq, tq) or fp.assign != fq.assign:
                raise DiagramError(f"diagram does not commute on {p} vs {q}")


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


def colimit(diag: Diagram, max_dim: Optional[int] = None) -> Colimit:
    """Levelwise union-find colimit, re-normalized to EZ form."""
    diag.check_commutes()
    names = sorted(diag.objects)
    if max_dim is None:
        max_dim = max((diag.objects[n].dim_bound for n in names), default=-1)
    if max_dim < 0:
        return Colimit(EMPTY, {n: SSetMap(diag.objects[n], EMPTY, {}) for n in names},
                       lambda o, x: (_ for _ in ()).throw(SSetError("empty colimit")), {})
    uf = _UF()
    level_nodes: list[list] = []
    for d in range(max_dim + 1):
        nodes = [(n, x) for n in names for x in diag.objects[n].simplices(d)]
        level_nodes.append(nodes)
        for node in nodes:
            uf.find(node)
        for _, s, t, f in diag.edges:
            for x in diag.objects[s].simplices(d):
                uf.union((s, x), (t, f(x)))
    classes: list[dict] = []  # per dim: root -> canonical key (min member)
    members: dict = {}
    for d in range(max_dim + 1):
        by_root: dict = {}
        for node in level_nodes[d]:
            by_root.setdefault(uf.find(node), []).append(node)
        canon = {root: min(ms) for root, ms in by_root.items()}
        classes.append(canon)
        members.update({canon[root]: canon[root] for root in canon})

    def levels(d: int) -> list:
        return sorted(classes[d].values())

    def act(e, d, mu):
        n, x = e
        y = diag.objects[n].act(x, mu)
        return classes[len(mu) - 1][uf.find((n, y))]

    mat = materialize(levels, act, max_dim, prefix="q")

    def cls(objname: str, x: NF) -> NF:
        d = diag.objects[objname].dim(x)
        if d > max_dim:
            raise SSetError("simplex above colimit bound")
        return mat.to_nf(d, classes[d][uf.find((objname, x))])

    cocone = {}
    for n in names:
        X = diag.objects[n]
        cocone[n] = SSetMap(X, mat.sset, {g: cls(n, nd(g)) for g in X.gens()}, validate=False)
    reps = {g: mat.elem_of[g] for g in mat.sset.gens()}
    return Colimit(mat.sset, cocone, cls, reps)


def pushout(f: SSetMap, g: SSetMap, max_dim: Optional[int] = None) -> Colimit:
    """Pushout of X <- A -> Y along f: A -> X and g: A -> Y."""
    if f.src != g.src:
        raise DiagramError("pushout legs must share a source")
    diag = Diagram({"A": f.src, "X": f.dst, "Y": g.dst})
    diag.add("f", "A", "X", f)
    diag.add("g", "A", "Y", g)
    return colimit(diag, max_dim=max_dim)


def coequalizer(f: SSetMap, g: SSetMap, max_dim: Optional[int] = None) -> Colimit:
    if f.src != g.src or f.dst != g.dst:
        raise DiagramError("coequalizer needs parallel maps")
    diag = Diagram({"A": f.src, "X": f.dst})
    diag.add("f", "A", "X", f)
    diag.add("g", "A", "X", g)
    return colimit(diag, max_dim=max_dim)


def coproduct(xs: list[SSet], max_dim: Optional[int] = None) -> Colimit:
    return colimit(Diagram({f"i{k}": X for k, X in enumerate(xs)}), max_dim=max_dim)


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

    The verdict is memoized on X, which is immutable.
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
    for d in range(1, X.dim_bound + 1):
        seen: dict[tuple, str] = {}
        for g in X.by_dim[d]:
            vs = X.vertices(nd(g))
            if len(set(vs)) != d + 1:
                return False, OrderWitness("spine-mono", (g,))
            sp = tuple(X.act(nd(g), (i, i + 1)) for i in range(d))
            if sp in seen:
                return False, OrderWitness("spine-injectivity", (seen[sp], g))
            seen[sp] = g
    return True, None


# -- isomorphism search -------------------------------------------------------


def _refine_colors(X: SSet) -> dict[str, tuple]:
    color = {g: (X.gen_dim(g),) for g in X.gens()}
    groups = len(set(color.values()))
    for _ in range(len(color) + 1):
        up: dict[str, list] = {g: [] for g in X.gens()}
        for g in X.gens():
            for i, nf in enumerate(X.faces.get(g, ())):
                up[nf.gen].append((i, nf.word, color[g]))
        new = {}
        for g in X.gens():
            fs = X.faces.get(g, ())
            new[g] = (color[g], tuple((nf.word, color[nf.gen]) for nf in fs),
                      tuple(sorted(up[g])))
        ranks = {c: i for i, c in enumerate(sorted(set(new.values()), key=repr))}
        relabeled = {g: (X.gen_dim(g), ranks[new[g]]) for g in X.gens()}
        n2 = len(set(relabeled.values()))
        if relabeled == color or n2 == groups:
            break
        color = relabeled
        groups = n2
    return color


def find_iso(A: SSet, B: SSet) -> Optional[SSetMap]:
    """Backtracking isomorphism search on generators; None if not isomorphic."""
    if A.nd_counts() != B.nd_counts():
        return None
    ca, cb = _refine_colors(A), _refine_colors(B)
    if sorted(ca.values()) != sorted(cb.values()):
        return None
    order = sorted(A.gens(), key=lambda g: (A.gen_dim(g), g))
    b_by_color: dict[tuple, list[str]] = {}
    for h in B.gens():
        b_by_color.setdefault(cb[h], []).append(h)
    assign: dict[str, NF] = {}
    used: set[str] = set()

    def candidates(g: str):
        d = A.gen_dim(g)
        for h in b_by_color.get(ca[g], ()):
            if h in used:
                continue
            if d == 0 or all(NF(fa.word, assign[fa.gen].gen) == B.faces[h][i]
                             for i, fa in enumerate(A.faces[g])):
                yield h

    stack = [candidates(order[0])] if order else []
    if not order:
        return SSetMap(A, B, {}, validate=False)
    while stack:
        k = len(stack) - 1
        g = order[k]
        h = next(stack[-1], None)
        if h is None:
            stack.pop()
            if k > 0:
                prev = order[k - 1]
                used.discard(assign[prev].gen)
                del assign[prev]
            continue
        assign[g] = nd(h)
        used.add(h)
        if k + 1 == len(order):
            f = SSetMap(A, B, assign)
            return f if f.is_iso() else None
        stack.append(candidates(order[k + 1]))
    return None


def find_isos(A: SSet, B: SSet) -> Iterator[SSetMap]:
    """All isomorphisms A -> B (refinement-pruned backtracking)."""
    if A.nd_counts() != B.nd_counts():
        return
    ca, cb = _refine_colors(A), _refine_colors(B)
    if sorted(ca.values()) != sorted(cb.values()):
        return
    order = sorted(A.gens(), key=lambda g: (A.gen_dim(g), g))
    if not order:
        yield SSetMap(A, B, {}, validate=False)
        return
    b_by_color: dict[tuple, list[str]] = {}
    for h in B.gens():
        b_by_color.setdefault(cb[h], []).append(h)
    assign: dict[str, NF] = {}
    used: set[str] = set()

    def candidates(g: str):
        d = A.gen_dim(g)
        for h in b_by_color.get(ca[g], ()):
            if h in used:
                continue
            if d == 0 or all(NF(fa.word, assign[fa.gen].gen) == B.faces[h][i]
                             for i, fa in enumerate(A.faces[g])):
                yield h

    stack = [candidates(order[0])]
    while stack:
        k = len(stack) - 1
        g = order[k]
        h = next(stack[-1], None)
        if h is None:
            stack.pop()
            if k > 0:
                prev = order[k - 1]
                used.discard(assign[prev].gen)
                del assign[prev]
            continue
        if g in assign:
            used.discard(assign[g].gen)
        assign[g] = nd(h)
        used.add(h)
        if k + 1 == len(order):
            f = SSetMap(A, B, dict(assign))
            if f.is_iso():
                yield f
            used.discard(h)
            del assign[g]
            continue
        stack.append(candidates(order[k + 1]))


def find_arrow_iso(f: SSetMap, g: SSetMap,
                   max_tries: int = 2000) -> Optional[tuple[SSetMap, SSetMap]]:
    """Isomorphisms (u, v) with v . f = g . u, identifying two maps as arrows."""
    tries = 0
    for u in find_isos(f.src, g.src):
        for v in find_isos(f.dst, g.dst):
            tries += 1
            if tries > max_tries:
                return None
            if all(v(f(nd(x))) == g(u(nd(x))) for x in f.src.gens()):
                return (u, v)
    return None


# -- map enumeration ----------------------------------------------------------


def enumerate_maps(A: SSet, B: SSet,
                   forced: Optional[Mapping[str, NF]] = None) -> Iterator[SSetMap]:
    """All simplicial maps A -> B, optionally with forced generator images."""
    order = sorted(A.gens(), key=lambda g: (A.gen_dim(g), g))
    assign: dict[str, NF] = {}

    def candidates(g: str) -> list[NF]:
        d = A.gen_dim(g)
        if forced and g in forced:
            return [forced[g]]
        return B.simplices(d)

    def extend(k: int) -> Iterator[dict[str, NF]]:
        if k == len(order):
            yield dict(assign)
            return
        g = order[k]
        d = A.gen_dim(g)
        for img in candidates(g):
            if d > 0:
                want = [NF(delta.merge_words(fa.word, assign[fa.gen].word,
                                             B.dim(assign[fa.gen])), assign[fa.gen].gen)
                        for fa in A.faces[g]]
                if [B.face(img, i) for i in range(d + 1)] != want:
                    continue
            assign[g] = img
            yield from extend(k + 1)
            del assign[g]

    for a in extend(0):
        yield SSetMap(A, B, a, validate=False)
