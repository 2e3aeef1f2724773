"""Strict and homotopy coherent nerves of simplicial categories.

The strict nerve at (m, k) is the set of strings of m composable k-simplices.
The coherent nerve at (m, k) is the set of enriched functors from the coherent
simplex category into C^{Delta[k]}, whose homs are maps Delta[j] x Delta[k] -> hom,
found cell by cell by ops.backtrack and counted against MAX_FUNCTORS as found.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from . import delta
from .bisset import BiMap, BiSSet, materialize_bi
from .cubes import Chain, chain_act, cube_hom
from .ops import Product, backtrack, enumerate_maps, product
from .scat import SCat
from .sset import NF, SSet, SSetError, SSetMap, nd

MAX_FUNCTORS = 200_000  # coherent functors hc_nerve may list over all its levels


class Nerve(NamedTuple):
    cat: SCat
    bisset: BiSSet
    to_nf: object
    elem_of: dict
    expand: object
    act: object
    edge_hom: object  # element at (1, k) -> (a, b, hom element at level k)
    kind: str


def _auto_bounds(C: SCat) -> tuple[int, int]:
    """Longest composable chain without identities, and its vertical capacity."""
    if not C.is_directed():
        raise SSetError("nerve bounds are only automatic for directed categories")
    # homs go forward only, so the chains from each object are known before
    # those from the objects ahead of it
    best: dict[str, tuple[int, int]] = {}
    for i in reversed(range(len(C.objects))):
        a = C.objects[i]
        bl = bv = 0
        for b in C.objects[i + 1:]:
            if not C.hom[(a, b)].is_empty():
                bl = max(bl, 1 + best[b][0])
                bv = max(bv, max(C.hom[(a, b)].dim_bound, 0) + best[b][1])
        best[a] = bl, bv
    return (max((bl for bl, _ in best.values()), default=0),
            max((bv for _, bv in best.values()), default=0))


def strict_nerve(C: SCat, m_bound: Optional[int] = None,
                 k_bound: Optional[int] = None) -> Nerve:
    """The strict nerve as a bisimplicial set with discrete row 0."""
    if m_bound is None or k_bound is None:
        am, ak = _auto_bounds(C)
        m_bound = am if m_bound is None else m_bound
        k_bound = ak if k_bound is None else k_bound

    def levels(m, k):
        out = []
        for objs in itertools.product(C.objects, repeat=m + 1):
            pools = [C.hom[(objs[r], objs[r + 1])].simplices(k) for r in range(m)]
            if any(not p for p in pools):
                continue
            for fs in itertools.product(*pools):
                out.append((objs, fs))
        return sorted(out)

    def act(e, mk, mu_h, mu_v):
        objs, fs = e
        m, k = mk
        if mu_v is not None:
            fs = tuple(C.hom[(objs[r], objs[r + 1])].act(f, mu_v) for r, f in enumerate(fs))
            k = len(mu_v) - 1
        if mu_h is not None:
            new_objs = tuple(objs[v] for v in mu_h)
            new_fs = []
            for r in range(len(mu_h) - 1):
                lo, hi = mu_h[r], mu_h[r + 1]
                if lo == hi:
                    new_fs.append(C.id_el(objs[lo], k))
                    continue
                acc = fs[lo]
                for s in range(lo + 1, hi):
                    acc = C.comp(objs[lo], objs[s], objs[s + 1], fs[s], acc)
                new_fs.append(acc)
            objs, fs = new_objs, tuple(new_fs)
        return (objs, fs)

    mat = materialize_bi(levels, act, m_bound, k_bound, prefix="n")

    def edge_hom(e, k):
        objs, fs = e
        return objs[0], objs[1], fs[0]

    return Nerve(C, mat.bisset, mat.to_nf, mat.elem_of, mat.expand, act, edge_hom, "strict")


# -- exponentials H^{Delta[k]} ---------------------------------------------------


@lru_cache(maxsize=64)
def _prism(d: int, k: int) -> Product:
    from .shapes import simplex

    return product(simplex(d), simplex(k))


ExpEl = tuple  # sorted tuple of (generator, NF) pairs over prism generators


def exp_elements(H: SSet, d: int, k: int) -> list[ExpEl]:
    """All d-simplices of H^{Delta[k]}: maps Delta[d] x Delta[k] -> H."""
    pr = _prism(d, k)
    return sorted(tuple(sorted(f.assign.items())) for f in enumerate_maps(pr.sset, H))


def exp_as_map(H: SSet, d: int, k: int, e: ExpEl) -> SSetMap:
    return SSetMap(_prism(d, k).sset, H, dict(e), validate=False)


def exp_act(H: SSet, d: int, k: int, e: ExpEl, mu: delta.Monotone,
            nu: Optional[delta.Monotone] = None) -> ExpEl:
    """Pre-composition along mu x nu."""
    from .shapes import simplex_operator

    d2 = len(mu) - 1
    k2 = k if nu is None else len(nu) - 1
    src, dst = _prism(d2, k2), _prism(d, k)
    f = exp_as_map(H, d, k, e)
    op_h = simplex_operator(mu, d)
    op_v = simplex_operator(nu, k) if nu is not None else None
    assign = {}
    for g in src.sset.gens():
        x, y = src.projections[0](nd(g)), src.projections[1](nd(g))
        xi = op_h(x)
        yi = y if op_v is None else op_v(y)
        dd = src.sset.gen_dim(g)
        assign[g] = f(dst.to_nf(dd, (xi, yi)))
    return tuple(sorted(assign.items()))


def exp_comp(C: SCat, a: str, b: str, c: str, k: int, d: int,
             eg: ExpEl, ef: ExpEl) -> ExpEl:
    """Pointwise composition in C^{Delta[k]}."""
    pr = _prism(d, k)
    g = exp_as_map(C.hom[(b, c)], d, k, eg)
    f = exp_as_map(C.hom[(a, b)], d, k, ef)
    out = {}
    for pg in pr.sset.gens():
        dd = pr.sset.gen_dim(pg)
        out[pg] = C.comp(a, b, c, g(nd(pg)), f(nd(pg)))
    return tuple(sorted(out.items()))


def exp_of_element(H: SSet, d: int, k: int, x: NF) -> ExpEl:
    """The d-fold degenerate prism map classifying x in H_k."""
    from .shapes import simplex

    pr = _prism(d, k)
    dk = simplex(k)
    assign = {}
    for g in pr.sset.gens():
        y = pr.projections[1](nd(g))
        vy = tuple(int(v) for v in dk.vertices(y))
        assign[g] = H.act(x, vy)
    return tuple(sorted(assign.items()))


# -- the coherent nerve ------------------------------------------------------------


class CoherentFunctor(NamedTuple):
    """An enriched functor from the coherent simplex into C^{Delta[k]}."""

    objs: tuple[str, ...]
    maps: tuple  # per (i, j), i < j: tuple over nd cube chains of ExpEl


def _cube_cells(i: int, j: int):
    """The cube hom of (i, j) and its cells; each nerve build memoizes it in a
    table of its own."""
    c = cube_hom((i, j), range(i, j + 1))
    cells = sorted(c.chain_of.items())
    return c, cells


def _pairs(m: int) -> list[tuple[int, int]]:
    """The pairs i < j of [m], by gap, then by i: the order of a functor's maps."""
    return [(i, i + gap) for gap in range(1, m + 1) for i in range(m + 1 - gap)]


def _at_chain(C: SCat, objs: tuple[str, ...], k: int, vals: Mapping[tuple, ExpEl],
              i: int, j: int, ch: Chain, cube_cells) -> ExpEl:
    """The value at the chain ch of cube(i, j) of a functor whose components
    vals gives on the cubes' generators, keyed (i, j, generator): the identity
    of objs[i] when i == j, else the value at the generator of ch's normal
    form, precomposed with its degeneracy.  cube_cells is the caller's table
    of _cube_cells."""
    d = len(ch) - 1
    if i == j:
        return exp_of_element(C.hom[(objs[i],) * 2], d, k, C.id_el(objs[i], k))
    x = cube_cells(i, j)[0].to_nf(d, ch)
    if not x.word:
        return vals[(i, j, x.gen)]
    return exp_act(C.hom[(objs[i], objs[j])], d - len(x.word), k, vals[(i, j, x.gen)],
                   delta.word_to_epi(x.word, d))


def hc_functors(C: SCat, m: int, k: int) -> list[CoherentFunctor]:
    """All enriched functors c^h Delta[m] -> C^{Delta[k]}."""
    return sorted(_hc_functors(C, m, k, lru_cache(maxsize=None)(_cube_cells)))


def _hc_functors(C: SCat, m: int, k: int, cube_cells) -> Iterator[CoherentFunctor]:
    """The functors as ops.backtrack finds them: it assigns the objects of the
    vertices 0..m, then the components pair by pair, in the order of pairs,
    each cell by cell, by dimension; a cell with an inner vertex in every set
    of its chain is forced to the composite of the components below it."""
    pairs = _pairs(m)
    steps = [(i, j, g) for i, j in pairs  # a cell's chain is one longer than its dimension
             for g, _ in sorted(cube_cells(i, j)[1], key=lambda cell: len(cell[1]))]

    def candidates(step, vals: dict) -> Iterable:
        if type(step) is int:  # a vertex
            return C.objects
        i, j, g = step
        objs = tuple(vals[v] for v in range(m + 1))
        ch = cube_cells(i, j)[0].chain_of[g]
        d = len(ch) - 1
        H = C.hom[(objs[i], objs[j])]
        p = next((p for p in range(i + 1, j) if all(p in S for S in ch)), None)
        if p is None:
            cands = exp_elements(H, d, k)
        else:
            left = tuple(tuple(v for v in S if v <= p) for S in ch)
            right = tuple(tuple(v for v in S if v >= p) for S in ch)
            cands = [exp_comp(C, objs[i], objs[p], objs[j], k, d,
                              _at_chain(C, objs, k, vals, p, j, right, cube_cells),
                              _at_chain(C, objs, k, vals, i, p, left, cube_cells))]
        return (e for e in cands
                if all(exp_act(H, d, k, e, delta.coface(r, d))
                       == _at_chain(C, objs, k, vals, i, j, chain_act(ch, delta.coface(r, d)),
                                    cube_cells)
                       for r in (range(d + 1) if d else ())))

    for vals in backtrack(list(range(m + 1)) + steps, candidates):
        yield CoherentFunctor(tuple(vals[v] for v in range(m + 1)),
                              tuple(tuple(vals[(i, j, g)] for g, _ in cube_cells(i, j)[1])
                                    for i, j in pairs))


def hc_nerve(C: SCat, m_bound: int, k_bound: int) -> Nerve:
    """The truncated homotopy coherent nerve; SSetError as soon as its levels
    have found more than MAX_FUNCTORS functors."""
    found = itertools.count(1)
    cube_cells = lru_cache(maxsize=None)(_cube_cells)

    def levels(m, k):
        fs = []
        for f in _hc_functors(C, m, k, cube_cells):
            if next(found) > MAX_FUNCTORS:
                raise SSetError(f"coherent nerve lists more than {MAX_FUNCTORS} functors")
            fs.append(f)
        return sorted(fs)

    def act(e, mk, mu_h, mu_v):
        m, k = mk
        objs, maps = e
        table = {(i, j, g): v for (i, j), ms in zip(_pairs(m), maps)
                 for (g, _), v in zip(cube_cells(i, j)[1], ms)}
        m2 = m if mu_h is None else len(mu_h) - 1
        mu = delta.identity(m) if mu_h is None else mu_h
        objs2 = tuple(objs[v] for v in mu)
        new_maps = []
        for i, j in _pairs(m2):
            cube, cells = cube_cells(i, j)
            H2 = C.hom[(objs2[i], objs2[j])]
            comp_maps = []
            for g, ch in cells:
                d = cube.space.gen_dim(g)
                big = tuple(tuple(sorted({mu[v] for v in S})) for S in ch)
                val = _at_chain(C, objs, k, table, mu[i], mu[j], big, cube_cells)
                if mu_v is not None:
                    val = exp_act(H2, d, k, val, delta.identity(d), mu_v)
                comp_maps.append(val)
            new_maps.append(tuple(comp_maps))
        return CoherentFunctor(objs2, tuple(new_maps))

    mat = materialize_bi(levels, act, m_bound, k_bound, prefix="hn")

    def edge_hom(e, k):
        objs, maps = e
        val = maps[0][0]
        H = C.hom[(objs[0], objs[1])]
        f = exp_as_map(H, 0, k, val)
        pr = _prism(0, k)
        from .shapes import subset_id

        full = pr.to_nf(k, (NF(tuple(range(k - 1, -1, -1)), "0"),
                            nd(subset_id(range(k + 1)))))
        return objs[0], objs[1], f(full)

    return Nerve(C, mat.bisset, mat.to_nf, mat.elem_of, mat.expand, act, edge_hom, "hc")


def nerve_comparison(N: Nerve, HN: Nerve) -> BiMap:
    """The canonical map from the strict to the coherent nerve."""
    C = N.cat
    cube_cells = lru_cache(maxsize=None)(_cube_cells)
    assign = {}
    for g in N.bisset.gens():
        m, k = N.bisset.bidegree(g)
        objs, fs = N.elem_of[g]
        maps = []
        for i, j in _pairs(m):
            acc = fs[i]
            for s in range(i + 1, j):
                acc = C.comp(objs[i], objs[s], objs[s + 1], fs[s], acc)
            cube, cells = cube_cells(i, j)
            H = C.hom[(objs[i], objs[j])]
            comp_maps = []
            for gg, ch in cells:
                d = cube.space.gen_dim(gg)
                comp_maps.append(exp_of_element(H, d, k, acc))
            maps.append(tuple(comp_maps))
        fun = CoherentFunctor(objs, tuple(maps))
        assign[g] = HN.to_nf(m, k, fun)
    return BiMap(N.bisset, HN.bisset, assign)