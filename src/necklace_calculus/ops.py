"""Products, colimits, isomorphism search, and structural predicates.

Products, colimits, isomorphism search and map enumeration are written once
for the n-fold sets of `sset` and serve simplicial and bisimplicial sets
alike.  Products and colimits list non-degenerate simplices only and give
every normal form in closed form (Eilenberg-Zilber): a product's to_nf strips,
axis by axis, the indices its factors' words share (delta.strip_word), and a
product of points and one factor X is X renamed, one copy kept on X.  A
colimit union-finds each degree's generators as integers in (name, generator)
order, so every class's root is its least member, and gives the class of x
from n as cocone[n](x); induced_map reads a map out of it from its least
members.  backtrack is the one depth-first search behind find_isos,
enumerate_maps, nerves' coherent functors and scat's natural transformations.
"""

from __future__ import annotations

import functools
import itertools
import threading
from operator import gt, sub
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from . import delta
from .sset import EMPTY, NF, GradedSet, SSet, SSetError, SSetMap, _new, identity_map, nd


# -- products -----------------------------------------------------------------


class Product(NamedTuple):
    sset: GradedSet
    projections: tuple[SSetMap, ...]
    to_nf: Callable[[object, tuple], tuple]


@functools.lru_cache(maxsize=1 << 12)
def _word_masks(low: tuple[int, ...], deg: tuple[int, ...]) -> tuple[tuple[int, tuple], ...]:
    """Each tuple of words, one per axis, that lifts degree low to degree deg
    (none unless low <= deg on every axis), with one bit mask of its indices:
    axis a's indices shifted by the sum of deg before a, so two tuples share
    an index on some axis exactly when their masks meet."""
    if any(map(gt, low, deg)):
        return ()
    out = []
    for words in itertools.product(*map(delta.all_words, map(sub, deg, low), deg)):
        mask = shift = 0
        for w, top in zip(words, deg):
            for i in w:
                mask |= 1 << (shift + i)
            shift += top
        out.append((mask, words))
    return tuple(out)


def _empty(n_axes: int) -> GradedSet:
    """The empty set of the grading with n_axes axes."""
    if n_axes == 1:
        return EMPTY
    from .bisset import BI_EMPTY

    return BI_EMPTY


def is_point(X: GradedSet) -> bool:
    """Whether X is the point: one generator, of degree 0 on every axis."""
    return X.n_gens() == 1 and not any(*X._by_deg)


def _lone(factors: tuple[GradedSet, ...]) -> Optional[int]:
    """k when every factor but the k-th is the point, the last when all are
    (so kan's coend piece pt x F(a) renames F(a), which outlives the hom
    pt); None otherwise."""
    rest = [k for k, X in enumerate(factors) if not is_point(X)]
    return None if len(rest) > 1 else (rest or [len(factors) - 1])[0]


class _Renamed(NamedTuple):
    """A set X renamed as its product with points: what of that product does
    not depend on the points and holds no reference to X (see _renamed)."""

    sset: GradedSet
    assign: dict[str, tuple]  # the projection to X, on the new generators
    nfs: dict[str, tuple]  # generator of X -> its new generator, as a normal form


_RENAMING = threading.Lock()  # makes the first build of each renamed copy win


def _renamed(X: GradedSet) -> _Renamed:
    """X with the ids product gives X beside points: p{deg}_{i} for the i-th
    generator of degree deg in id order, each face target renamed with it.
    The faces are X's own, so no face is computed.  Kept on X, which is
    immutable, so one copy serves every product of X with points and lives
    exactly as long as X; the first build wins, so threads agree.  It holds
    the projection's assignment and not the projection, whose dst is X: a
    copy that pointed back at X would keep X in a reference cycle."""
    kept = X._renamed
    if kept is not None:
        return kept
    nf_type, n = X.nf_type, X.n_axes
    nd_words = ((),) * n
    nfs: dict[str, tuple] = {}
    gens: list[tuple[str, object]] = []
    for deg in sorted(X._by_deg):
        stem = "p" + "_".join(map(str, deg)) + "_"
        key = deg[0] if n == 1 else deg
        for i, x in enumerate(sorted(X._by_deg[deg])):
            gid = stem + str(i)
            nfs[x] = _new(nf_type, nd_words + (gid,))
            gens.append((gid, key))
    faces: tuple[dict, ...] = tuple({} for _ in range(n))
    for x, g in nfs.items():
        for a, top in enumerate(X._deg[x]):
            if top:
                faces[a][g[-1]] = [_new(nf_type, (*f[:-1], nfs[f[-1]][-1]))
                                   for f in X._faces[a][x]]
    empty = _empty(n)
    out = type(empty)(gens, *faces, validate=False) if gens else empty
    built = _Renamed(out, {g[-1]: X._nd(x) for x, g in nfs.items()}, nfs)
    with _RENAMING:
        if X._renamed is None:
            X._renamed = built
        return X._renamed


def _over_points(factors: tuple[GradedSet, ...], k: int) -> Product:
    """The product of factors, every one but the k-th a point: its set is
    _renamed(factors[k]), and only the projections and to_nf are made here.
    to_nf(d, e) is e[k] under its generator's new id, memoized per e; it
    raises SSetError unless e[k] is a simplex of factors[k] (a generator of
    it under words into e[k]'s degree) and every other entry is its point
    degenerated to that degree."""
    X = factors[k]
    ren = _renamed(X)
    nf_type, out, nfs = X.nf_type, ren.sset, ren.nfs
    pts = [(j, next(iter(P._deg))) for j, P in enumerate(factors) if j != k]
    memo: dict[tuple, tuple] = {}

    def to_nf(d, e: tuple) -> tuple:
        hit = memo.get(e)
        if hit is None:
            x = e[k]
            nf = nfs.get(x[-1])
            if nf is None:
                raise _no_simplex(d)
            full = _full(X.degree(x))
            if any(e[j] != _new(nf_type, full + (pt,)) for j, pt in pts):
                raise _no_simplex(d)
            if any(x[:-1]):
                if not all(map(_is_word, x[:-1], map(len, full))):
                    raise _no_simplex(d)
                nf = _new(nf_type, (*x[:-1], nf[-1]))
            hit = memo[e] = nf
        return hit

    def to_point(pt: str, P: GradedSet) -> SSetMap:
        return out.map_type(out, P, {g: _new(nf_type, _full(deg) + (pt,))
                                     for g, deg in out._deg.items()}, validate=False)

    return Product(out, tuple(X.map_type(out, X, ren.assign, validate=False) if j == k
                              else to_point(next(iter(P._deg)), P)
                              for j, P in enumerate(factors)), to_nf)


def _no_simplex(d) -> SSetError:
    return SSetError(f"no generator of the product below a simplex of degree {d}")


@functools.lru_cache(maxsize=1 << 12)
def _is_word(w: tuple[int, ...], top: int) -> bool:
    """Whether w is a degeneracy word into dimension top: strictly decreasing, in [0, top)."""
    return w == tuple(sorted(set(w), reverse=True)) and (not w or 0 <= w[-1] and w[0] < top)


@functools.lru_cache(maxsize=1 << 10)
def _full(deg: tuple[int, ...]) -> tuple:
    """The words, one per axis, that degenerate a point to degree deg."""
    return tuple(tuple(range(p - 1, -1, -1)) for p in deg)


def shuffles(factors: tuple[GradedSet, ...]) -> Iterator[tuple[tuple[int, ...], list[tuple]]]:
    """The non-degenerate simplices of the product of n-fold factors (SSet or
    BiSSet, all with the same number of axes): (degree, sorted list) for each
    degree up to the sum of the factors' top degrees, axis by axis, in
    ascending order; when all factors but X are points, for X's degrees only.

    A simplex of the product is a tuple of simplices of one degree, one per
    factor; it is non-degenerate exactly when, on every axis, the factors'
    degeneracy words have no index in common (Eilenberg-Zilber), so only
    those tuples are listed.  product numbers the list at degree deg p{deg}_0,
    p{deg}_1, ..., the degree joined by "_"; a caller that needs the
    generators but not their faces (the relation pieces of
    kan.enriched_lan) lists them here under the same ids.  Nothing is listed
    when a factor is empty.
    """
    if any(X.is_empty() for X in factors):
        return
    nf_type = factors[0].nf_type
    k = _lone(factors)
    if k is not None:  # the k-th factor's generators by id, beside the points at their degree
        X = factors[k]
        for deg in sorted(X._by_deg):
            pts = [_new(nf_type, _full(deg) + (next(iter(P._deg)),)) for P in factors]
            yield deg, [(*pts[:k], X._nd(g), *pts[k + 1:]) for g in sorted(X._by_deg[deg])]
        return
    # per axis, the sum over the factors of their top degrees on it
    tops = map(sum, zip(*(map(max, zip(*X._by_deg)) for X in factors)))
    for deg in itertools.product(*(range(top + 1) for top in tops)):
        # per factor: (bit mask of a tuple of words, the simplices with those words)
        by_word = [[(mask, [_new(nf_type, words + (g,)) for g in level])
                    for low, level in X._by_deg.items()
                    for mask, words in _word_masks(low, deg)]
                   for X in factors]
        level: list[tuple] = []
        for words in itertools.product(*by_word):
            common = -1
            for mask, _ in words:
                common &= mask
            if not common:
                level.extend(itertools.product(*(xs for _, xs in words)))
        level.sort()
        yield deg, level


def product(*factors: GradedSet) -> Product:
    """Finite product of n-fold factors with projections; generators are the shuffles.

    The generators are the tuples that shuffles lists, numbered p{deg}_{i} in
    its order (p{d}_{i} for simplicial sets).  Their faces are read, axis by
    axis, from the factors' face tables.  to_nf(d, e) gives any tuple's
    normal form in closed form, above the top degree too, for d the degree of
    e (an int for simplicial sets): on each axis, the common indices C of the
    words, applied to the tuple with C stripped from each word
    (delta.strip_word).  It raises SSetError on a tuple that reduces to no
    listed shuffle, which is then no simplex of the product.  When every
    factor but X is the point (one adds no common index), the product is
    _over_points: X renamed, the same ids and normal forms.  A
    product of one factor is that factor, with the identity as its projection.
    """
    if not factors:
        raise SSetError("a product needs at least one factor")
    n = factors[0].n_axes
    if any(X.n_axes != n for X in factors):
        raise SSetError("the factors of a product need the same number of axes")
    if len(factors) == 1:
        return Product(factors[0], (identity_map(factors[0]),), lambda d, e: e[0])
    k = _lone(factors)
    if k is not None:
        return _over_points(factors, k)
    nf_type = factors[0].nf_type
    memo: dict[tuple, tuple] = {}  # tuple -> normal form; each shuffle entered as it is listed

    def to_nf(d, e: tuple) -> tuple:
        hit = memo.get(e)
        if hit is None:
            commons = [set(e[0][a]).intersection(*(x[a] for x in e[1:])) for a in range(n)]
            base = any(commons) and memo.get(tuple(
                _new(nf_type, (*map(delta.strip_word, x[:-1], commons), x[-1])) for x in e))
            if not base or any(base[:-1]):
                raise _no_simplex(d)
            hit = memo[e] = _new(nf_type, (*(tuple(sorted(c, reverse=True)) for c in commons),
                                           base[-1]))
        return hit

    gens: list[tuple[str, object]] = []
    faces: tuple[dict, ...] = tuple({} for _ in range(n))
    elem_of: dict[str, tuple] = {}
    nd_words = ((),) * n
    for deg, level in shuffles(factors):
        stem = "p" + "_".join(map(str, deg)) + "_"
        key = deg[0] if n == 1 else deg
        for i, e in enumerate(level):
            gid = stem + str(i)
            gens.append((gid, key))
            elem_of[gid] = e
            memo[e] = _new(nf_type, nd_words + (gid,))
        for a, top in enumerate(deg):
            if top:
                low = top - 1 if n == 1 else deg[:a] + (top - 1,) + deg[a + 1:]
                fa = faces[a]
                for e in level:
                    fa[memo[e][-1]] = tuple(
                        to_nf(low, tuple(X._face(x, a, i) for X, x in zip(factors, e)))
                        for i in range(top + 1))
    empty = _empty(n)
    out = type(empty)(gens, *faces, validate=False) if gens else empty
    projs = tuple(X.map_type(out, X, {g: e[k] for g, e in elem_of.items()}, validate=False)
                  for k, X in enumerate(factors))
    return Product(out, projs, to_nf)


def pairing(prod: Product, maps: list[SSetMap]) -> SSetMap:
    """The map into a product induced by maps out of a common source."""
    src = maps[0].src
    assign = {}
    for g in src.gens():
        d = src._deg[g]
        assign[g] = prod.to_nf(d[0] if len(d) == 1 else d, tuple(f(src._nd(g)) for f in maps))
    return src.map_type(src, prod.sset, assign, validate=False)


# -- colimits -----------------------------------------------------------------


class DiagramError(ValueError):
    pass


class BarePiece:
    """A diagram object given by its generators alone, by degree, with no face
    table: a piece that only glues the generators of other objects, through
    the edges out of it.  Its generators never name a class of the colimit
    (_colimit raises if one would), so the colimit reads no face of it, and it
    gets no cocone leg."""

    def __init__(self, by_deg: dict[tuple[int, ...], list[str]]):
        self._by_deg = by_deg

    def n_gens(self) -> int:
        return sum(map(len, self._by_deg.values()))


class Diagram:
    """Named objects, and the maps between them that add() names."""

    def __init__(self, objects: dict[str, SSet | BarePiece]):
        self.objects = objects
        self.edges: list[tuple[str, str, str, SSetMap]] = []

    def add(self, name: str, src: str, dst: str, f: SSetMap) -> None:
        self.edges.append((name, src, dst, f))


class Colimit(NamedTuple):
    sset: SSet
    cocone: dict[str, SSetMap]
    reps: dict[str, tuple[str, NF]]


def _root(parent: list[int], x: int) -> int:
    """The root of x's class in the union-find forest parent, halving the path
    on the way: no recursion, so a long chain of unions cannot overflow the stack."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def colimit(diag: Diagram) -> Colimit:
    """Levelwise union-find colimit of non-degenerate simplices, in EZ form."""
    return Colimit(*_colimit(diag, EMPTY))


def _colimit(diag: Diagram, empty):
    """The colimit of a diagram of n-fold sets; empty is the empty set of the grading.

    Degrees are taken in ascending order.  At each degree the generators of
    all objects, numbered in (name, generator) order, are union-found as
    integers under the smaller root, so each class's root is its least
    member, along every edge whose image of a generator is non-degenerate.
    An image s_w z instead marks the generator's class as the degenerate
    simplex s_w [z], where the class [z] is already known because z lies at
    a lower degree.  By Eilenberg-Zilber uniqueness, a class with no mark is
    a non-degenerate simplex of the colimit and has only non-degenerate
    members, and every relation between degenerate simplices follows from
    one at a lower degree; two marks on one class that disagree, or an image
    of another degree, mean a map of the diagram is not simplicial
    (SSetError).  The unmarked classes become generators q{deg}_{i} in the
    order of their roots, whose face tables give theirs.  A BarePiece has no
    face table, so a class whose least member lies in one raises SSetError;
    a bare piece may be the source of edges only (DiagramError otherwise),
    and gets no cocone leg.

    Returns (set, cocone, reps): cocone[name](x) is the class of x from the
    named object, reps[g] the least (name, generator) in the class of g, the
    generator as a normal form with empty words.
    """
    objects = diag.objects
    bare = {n for n, X in objects.items() if isinstance(X, BarePiece)}
    if any(t in bare for _, _, t, _ in diag.edges):
        raise DiagramError("a bare piece can only be the source of an edge")
    names = sorted(objects)
    degrees = sorted({deg for X in objects.values() for deg in X._by_deg})
    nf_type = empty.nf_type
    n_axes = empty.n_axes
    targets = {t for _, _, t, _ in diag.edges}
    nd_words = ((),) * n_axes
    # the cocone as it is found, keyed in each object's generator order
    image = {n: {} if n in bare else dict.fromkeys(objects[n].gens()) for n in names}
    gens: list[tuple[str, object]] = []
    faces: tuple[dict, ...] = tuple({} for _ in range(n_axes))
    reps: dict[str, tuple] = {}

    def push(name: str, f: tuple) -> tuple:
        """The class of the normal form f of the named object, f's generator already placed."""
        c = image[name][f[-1]]
        if f[:-1] == nd_words:
            return c
        dims = objects[name]._deg[f[-1]]
        return _new(nf_type, (*map(delta.merge_words, f[:-1], c, dims), c[-1]))

    for deg in degrees:
        # this degree's generators, numbered in (name, generator) order: n's from start[n] on
        level = {n: sorted(objects[n]._by_deg.get(deg, ())) for n in names}
        start = dict(zip(names, itertools.accumulate(map(len, level.values()), initial=0)))
        number = {t: dict(zip(level[t], itertools.count(start[t]))) for t in targets}
        parent = list(range(sum(map(len, level.values()))))
        marked = []
        for name, s, t, f in diag.edges:
            at_t = number[t]
            for i, g in enumerate(level[s], start[s]):
                img = f.assign[g]
                if img[:-1] == nd_words and img[-1] in at_t:  # join under the smaller root
                    x, y = _root(parent, i), _root(parent, at_t[img[-1]])
                    parent[max(x, y)] = min(x, y)
                elif img[:-1] != nd_words and objects[t].degree(img) == deg:
                    marked.append((i, push(t, img)))
                else:
                    raise SSetError(f"edge {name!r} sends {g!r} of degree {list(deg)} to a "
                                    f"simplex of another degree")
        for i, p in enumerate(parent):  # a root is its class's least member: one pass finds all
            parent[i] = parent[p]
        nf_of: dict[int, tuple] = {}  # class root -> the class's normal form
        for i, m in marked:
            if nf_of.setdefault(parent[i], m) != m:
                raise SSetError(f"a colimit class at degree {list(deg)} has two normal forms, "
                                f"{tuple(m)} and {tuple(nf_of[parent[i]])}")
        stem = "q" + "_".join(map(str, deg)) + "_"
        key, first = deg[0] if n_axes == 1 else deg, len(gens)
        for n in names:
            X, image_n = objects[n], image[n]
            for i, g in enumerate(level[n], start[n]):
                if parent[i] == i and i not in nf_of:  # an unmarked class, met at its least member
                    if n in bare:
                        raise SSetError(f"the class of {g!r} of {n!r} at degree {list(deg)} has "
                                        f"its least member in a piece with no face table")
                    gid = stem + str(len(gens) - first)
                    nf_of[i] = _new(nf_type, nd_words + (gid,))
                    gens.append((gid, key))
                    reps[gid] = (n, _new(nf_type, nd_words + (g,)))
                    for a, fs in enumerate(X._faces):
                        if deg[a]:
                            faces[a][gid] = [push(n, f) for f in fs[g]]
                image_n[g] = nf_of[parent[i]]
    out = type(empty)(gens, *faces, validate=False)
    cocone = {n: objects[n].map_type(objects[n], out, image[n], validate=False)
              for n in names if n not in bare}
    return out, cocone, reps


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


def induced_map(col, legs: Mapping[str, SSetMap], target: GradedSet,
                validate: bool = True) -> SSetMap:
    """The map out of a colimit of either grading that sends each generator to
    the image of its least member under the leg of its object: the map a
    commuting cocone legs into target induces."""
    src, reps = col[0], col.reps  # col[0]: the set of a Colimit or a bisset.BiColimit
    assign = {g: legs[reps[g][0]](reps[g][1]) for g in src.gens()}
    return target.map_type(src, target, assign, validate=validate)


def mediating_map(col, objects: Mapping[str, GradedSet],
                  test: Mapping[str, SSetMap]) -> SSetMap:
    """The unique map out of a colimit matching a test cocone; raises if none."""
    u = induced_map(col, test, next(iter(test.values())).dst)  # validates simpliciality
    for n, leg in col.cocone.items():
        comp, X = leg.then(u), objects[n]
        if any(comp(X._nd(x)) != test[n](X._nd(x)) for x in X.gens()):
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
    verts = list(X.by_dim[0]) if X.dim_bound >= 0 else []
    number = {v: i for i, v in enumerate(verts)}
    parent = list(range(len(verts)))
    for e in X.by_dim[1] if X.dim_bound >= 1 else ():
        vs = X.vertices(nd(e))
        x, y = _root(parent, number[vs[0]]), _root(parent, number[vs[1]])
        parent[max(x, y)] = min(x, y)
    comps: dict[int, list[str]] = {}
    for i, v in enumerate(verts):
        comps.setdefault(_root(parent, i), []).append(v)
    ordered = sorted((tuple(sorted(c)) for c in comps.values()), key=lambda c: c[0])
    index = {v: i for i, c in enumerate(ordered) for v in c}
    return list(ordered), index


def is_connected(X: SSet) -> bool:
    return len(pi0(X)[0]) == 1


class OrderWitness(NamedTuple):
    condition: str
    detail: tuple


def post_order(succ: Callable[[str], Iterable[str]], starts: Iterable[str]
               ) -> tuple[list[str], Optional[tuple[str, ...]]]:
    """Depth-first walk from each start in turn, without recursion.

    Returns the vertices reached, each listed after the successors it
    reaches, and None; or, as soon as a successor is still on the walk's
    path, the vertices listed so far and the directed cycle it closes, from
    that successor on.  succ(v) gives v's successors in the order walked; a
    vertex reached from an earlier start is not walked again.
    """
    order: list[str] = []
    done: set[str] = set()
    for s in starts:
        if s in done:
            continue
        path = {s: iter(succ(s))}  # the walk's path, each vertex with its successors to go
        while path:
            v, rest = next(reversed(path.items()))
            for w in rest:
                if w in path:
                    cycle = list(path)
                    return order, tuple(cycle[cycle.index(w):])
                if w not in done:
                    path[w] = iter(succ(w))
                    break
            else:
                del path[v]
                done.add(v)
                order.append(v)
    return order, None


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
    _, cycle = post_order(lambda v: sorted(arcs.get(v, ())),
                          X.by_dim[0] if X.dim_bound >= 0 else ())
    if cycle is not None:
        return False, OrderWitness("antisymmetry", cycle)
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


# -- backtracking search ------------------------------------------------------


def backtrack(items: list, candidates: Callable[[object, dict], Iterable]) -> Iterator[dict]:
    """Each assignment of the items, in their order, to values that
    candidates(item, partial) gives, tried in its order, where partial holds
    the items before item: depth-first, on an explicit stack, so no recursion
    limit bounds the items.  What candidates returns is read lazily, with
    partial unchanged.  Each assignment is yielded as the one live dict, which
    changes once the search resumes."""
    assign: dict = {}
    if not items:
        yield assign
        return
    last = len(items) - 1
    stack = [iter(candidates(items[0], assign))]
    while stack:
        k = len(stack) - 1
        assign.pop(items[k], None)
        for value in stack[-1]:
            assign[items[k]] = value
            if k < last:
                stack.append(iter(candidates(items[k + 1], assign)))
            else:
                yield assign
            break
        else:
            stack.pop()


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
    b_by_color: dict[tuple, list[str]] = {}
    for h in B.gens():
        b_by_color.setdefault(cb[h], []).append(h)
    used: set[str] = set()  # the images of the assigned generators

    def candidates(g: str, assign: dict[str, str]) -> Iterator[str]:
        for h in b_by_color.get(ca[g], ()):
            if h not in used and all(fa[:-1] + (assign[fa[-1]],) == B._faces[a][h][i]
                                     for a, faces in enumerate(A._faces)
                                     for i, fa in enumerate(faces.get(g, ()))):
                used.add(h)  # until backtrack resumes this generator, when h is unassigned
                yield h
                used.discard(h)

    order = sorted(A.gens(), key=lambda g: (A._deg[g], g))
    for assign in backtrack(order, candidates):
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
    """All maps A -> B; with over=(pA, pB), only those f with pB . f == pA.

    Generators of A are assigned in (degree, id) order by backtrack,
    candidates tried in B.simplices order."""

    def candidates(g: str, assign: dict[str, tuple]) -> Iterator[tuple]:
        for img in B.simplices(*A._deg[g]):
            if over is not None and over[1](img) != over[0](A._nd(g)):
                continue
            if all(B._face(img, a, i) == B._degenerate(fa[:-1], assign[fa[-1]])
                   for a, faces in enumerate(A._faces) for i, fa in enumerate(faces.get(g, ()))):
                yield img

    for assign in backtrack(sorted(A.gens(), key=lambda g: (A._deg[g], g)), candidates):
        yield A.map_type(A, B, dict(assign), validate=False)
