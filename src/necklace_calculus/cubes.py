"""Cube models of coherent-composition spaces and the necklace-weighted colimit.

The mapping space of a totally non-degenerate necklace with joints J and
vertices V is the nerve of the subset interval [J, V]: a j-simplex is a chain
S_0 <= ... <= S_j with J <= S_r <= V, non-degenerate iff strictly increasing.
A weight takes a pair with t beads to a product of t factors built by
ops.product (one factor is that factor itself), and its arrows are pairings
of the projections.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from . import delta
from .necklace import PairObject, PairPoset, UnsupportedInput, containing_beads, plus_m
from .ops import Product, is_connected, pairing, product
from .sset import (EMPTY, NF, SSet, SSetError, SSetMap, Materialized, identity_map,
                   materialize, nd)

Chain = tuple[tuple, ...]  # weakly increasing tuple of sorted vertex tuples


def chains(J, V, j: int, saturated: bool = False, steps=()) -> list[Chain]:
    """All chains S_0 <= ... <= S_j in the interval [J, V], sorted.

    saturated keeps only chains from S_0 = J to S_j = V.  steps lists
    positions i where S_i < S_{i+1} is required.  A chain is fixed by the
    index at which each vertex of V outside J enters it, so the chains are
    generated from those indices with the required steps built in.
    """
    J, V = frozenset(J), tuple(sorted(set(V)))
    free = [v for v in V if v not in J]
    lo, hi = (1, j) if saturated else (0, j + 1)
    every = sorted(J | set(V))
    out = []
    for ts in _entry_times(len(free), lo, hi, frozenset(i + 1 for i in steps)):
        enter = dict(zip(free, ts))
        verts = [(v, enter.get(v, 0)) for v in every]
        out.append(tuple(tuple(v for v, t in verts if t <= r) for r in range(j + 1)))
    return sorted(out)


def _entry_times(n: int, lo: int, hi: int, need: frozenset) -> list[tuple[int, ...]]:
    """All n-tuples over [lo, hi] whose values include every member of need,
    in lexicographic order."""
    out: list[tuple[int, ...]] = []
    _extend_times(out, (), need, n, range(lo, hi + 1))
    return out


def _extend_times(out: list, prefix: tuple[int, ...], missing: frozenset, n: int,
                  values: range) -> None:
    """Append to out each n-tuple that extends prefix by values and takes
    every value in missing; a prefix with too few places left is cut."""
    if len(missing) > n - len(prefix):
        return
    if len(prefix) == n:
        out.append(prefix)
        return
    for t in values:
        _extend_times(out, prefix + (t,), missing - {t}, n, values)


def chain_act(chain: Chain, mu: delta.Monotone) -> Chain:
    return tuple(chain[r] for r in mu)


def chain_join(c1: Chain, c2: Chain) -> Chain:
    return tuple(tuple(sorted(set(a) | set(b))) for a, b in zip(c1, c2))


class CubeHom(NamedTuple):
    """The interval nerve of [J, V], materialized with chain bookkeeping."""

    J: tuple
    V: tuple
    to_nf: Callable[[int, Chain], NF]
    chain_of: Mapping[str, Chain]
    space: SSet
    expand: Callable[[NF], Chain]


def cube_hom(J, V) -> CubeHom:
    J, V = tuple(sorted(set(J))), tuple(sorted(set(V)))
    if not set(J) <= set(V):
        raise SSetError("cube_hom needs J <= V")
    n_free = len(V) - len(J)

    def levels(j):
        return chains(J, V, j, steps=range(j))

    def act(e, j, mu):
        return chain_act(e, mu)

    def degen(e, j, i):
        """A chain that repeats at i is s_i of the chain without the repeat."""
        return e[:i] + e[i + 1:] if e[i] == e[i + 1] else None

    mat = materialize(levels, act, max_dim=n_free, prefix="ch", degen=degen)
    return CubeHom(J, V, mat.to_nf, mat.elem_of, mat.sset, mat.expand)


def cube_of_pair(p: PairObject) -> CubeHom:
    return cube_hom(p.J, p.V)


def pushforward(src: CubeHom, dst: CubeHom) -> SSetMap:
    """Chains transport along a necklace monomorphism: J_dst <= J_src, V_src <= V_dst."""
    if not (set(dst.J) <= set(src.J) and set(src.V) <= set(dst.V)):
        raise SSetError("pushforward requires a necklace monomorphism")
    assign = {}
    for g in src.space.gens():
        d = src.space.gen_dim(g)
        assign[g] = dst.to_nf(d, src.chain_of[g])
    return SSetMap(src.space, dst.space, assign)


def split_iso(whole: CubeHom, left: CubeHom, right: CubeHom) -> SSetMap:
    """The wedge-splitting isomorphism cube(T1 v T2) -> cube(T1) x cube(T2)."""
    prod = product(left.space, right.space)
    assign = {}
    lv, rv = set(left.V), set(right.V)
    for g in whole.space.gens():
        d = whole.space.gen_dim(g)
        ch = whole.chain_of[g]
        c1 = tuple(tuple(v for v in S if v in lv) for S in ch)
        c2 = tuple(tuple(v for v in S if v in rv) for S in ch)
        assign[g] = prod.to_nf(d, (left.to_nf(d, c1), right.to_nf(d, c2)))
    return SSetMap(whole.space, prod.sset, assign)


def projection_phi(m: int, src_pair: PairObject) -> tuple[PairObject, SSetMap]:
    """The coordinate projection cube(T) -> cube(T^{+m}) given by S -> S u {m}."""
    dst_pair = plus_m(src_pair, m)
    src, dst = cube_of_pair(src_pair), cube_of_pair(dst_pair)
    assign = {}
    for g in src.space.gens():
        d = src.space.gen_dim(g)
        ch = tuple(tuple(sorted(set(S) | {m})) for S in src.chain_of[g])
        assign[g] = dst.to_nf(d, ch)
    return dst_pair, SSetMap(src.space, dst.space, assign)


# -- weight functors -----------------------------------------------------------


class Weight:
    """A contravariant functor on a pair poset, valued in simplicial sets."""

    def __init__(self, poset: PairPoset, value: Mapping[PairObject, SSet],
                 arrow: Callable[[PairObject, PairObject], SSetMap]):
        self.poset = poset
        self.value = dict(value)
        self._arrow = arrow
        self._cache: dict = {}

    def arrow(self, p: PairObject, q: PairObject) -> SSetMap:
        """value(q) -> value(p) for p <= q."""
        key = (p, q)
        if key not in self._cache:
            self._cache[key] = self._arrow(p, q)
        return self._cache[key]

    def check_functorial(self) -> None:
        objs = self.poset.objects
        for p in objs:
            a = self.arrow(p, p)
            if any(a(nd(g)) != nd(g) for g in self.value[p].gens()):
                raise SSetError("weight arrow at identity is not the identity")
        for p in objs:
            for q in objs:
                for r in objs:
                    if p != q and q != r and self.poset.leq(p, q) and self.poset.leq(q, r):
                        lhs = self.arrow(q, r).then(self.arrow(p, q))
                        rhs = self.arrow(p, r)
                        if lhs.assign != rhs.assign:
                            raise SSetError(f"weight not functorial at {p} <= {q} <= {r}")


def _empty_map_to(X: SSet) -> SSetMap:
    return SSetMap(EMPTY, X, {}, validate=False)


def weight_F(mu: delta.Monotone, f: SSetMap, i: int, m: int) -> Weight:
    """The weight sending T to (prod over non-last beads of Y) x X when the last
    bead lies in the image of mu+1, and to the empty space otherwise."""
    X, Y = f.src, f.dst
    if not delta.is_mono(mu):
        raise SSetError("mu must be injective")
    if not (f.is_mono() and is_connected(X) and is_connected(Y)):
        raise UnsupportedInput("weight_F needs a monomorphism between connected inputs")
    pp = PairPoset(i, m)
    im = set(mu) | {m + 1}
    prods: dict[PairObject, Product] = {}
    values: dict[PairObject, SSet] = {}
    for p in pp.objects:
        if set(pp.last_bead(p)) <= im:
            t = len(p.J) - 1  # at least 1: a pair has at least 2 joints
            prods[p] = product(*[Y] * (t - 1), X)
            values[p] = prods[p].sset
        else:
            values[p] = EMPTY

    def arrow(p: PairObject, q: PairObject) -> SSetMap:
        if values[q].is_empty():
            return _empty_map_to(values[p])
        projs = prods[q].projections
        cont = containing_beads(p.J, q.J)
        # p's last bead lands in q's last bead and keeps X; another bead
        # collapsed into q's last bead applies f
        return pairing(prods[p], [projs[ti].then(f) if ti == len(projs) - 1 and r < len(cont) - 1
                                  else projs[ti] for r, ti in enumerate(cont)])

    return Weight(pp, values, arrow)


def weight_G0(m: int, f: SSetMap) -> Weight:
    """The boundary pushout-product weight on pairs from 0 to m+1: F0 of
    (id_[m], id_Y) with X in place of Y at the top cell, entered from below
    through f.  weight_F requires Y connected."""
    X, Y = f.src, f.dst
    if not f.is_mono():
        raise SSetError("weight_G0 needs a monomorphism")
    f0 = weight_F(delta.identity(m), identity_map(Y), 0, m)
    top = f0.poset.top()

    def arrow(p: PairObject, q: PairObject) -> SSetMap:
        if q != top:
            return f0.arrow(p, q)
        return identity_map(X) if p == top else f.then(f0.arrow(p, top))

    return Weight(f0.poset, {**f0.value, top: X}, arrow)


def last_factor_postcompose(t: int, f: SSetMap) -> SSetMap:
    """(Y^{t-1} x X) -> Y^t applying f to the last factor."""
    Y = f.dst
    projs = product(*[Y] * (t - 1), f.src).projections
    return pairing(product(*[Y] * t), [*projs[:-1], projs[-1].then(f)])


def weight_constant(i: int, m: int, X: SSet) -> Weight:
    pp = PairPoset(i, m)
    return Weight(pp, {p: X for p in pp.objects}, lambda p, q: identity_map(X))


def weight_inclusion_G0_F0(m: int, f: SSetMap) -> tuple[Weight, Weight, dict[PairObject, SSetMap]]:
    """The canonical objectwise inclusion of the G0 weight into F0 of (id_[m], id_Y):
    f at the top cell, and away from it the identity, as G0 takes F0's values there."""
    g0 = weight_G0(m, f)
    f0 = weight_F(delta.identity(m), identity_map(f.dst), 0, m)
    top = g0.poset.top()
    out = {p: SSetMap(f.src, f0.value[p], f.assign) if p == top else identity_map(g0.value[p])
           for p in g0.poset.objects}
    return g0, f0, out


# -- the weighted colimit -------------------------------------------------------


def weighted_colim(weight: Weight) -> Materialized:
    """diag of the colimit of cube homs weighted by `weight`.

    Elements are canonical: the pair is saturated by its chain, so a class is
    (pair, chain with S_0 = J and S_j = V, weight simplex).
    """
    pp = weight.poset
    live = [p for p in pp.objects if not weight.value[p].is_empty()]
    if not live:
        def empty(*args):
            raise SSetError("empty")

        return Materialized(EMPTY, empty, {}, empty)
    max_dim = max(len(p.V) - len(p.J) + max(weight.value[p].dim_bound, 0) for p in live)

    def levels(j):
        # (p, chain, s_w y) is degenerate exactly when the chain stays put at an index of w
        return sorted((p, ch, x) for p in live for x in weight.value[p].simplices(j)
                      for ch in chains(p.J, p.V, j, saturated=True, steps=x.word))

    def act(e, j, mu):
        p, ch, x = e
        ch2 = chain_act(ch, mu)
        p2 = PairObject.of(ch2[0], ch2[-1])
        x2 = weight.arrow(p2, p)(weight.value[p].act(x, mu))
        return (p2, ch2, x2)

    def degen(e, j, i):
        p, ch, x = e
        if ch[i] != ch[i + 1] or i not in x.word:
            return None
        return (p, ch[:i] + ch[i + 1:], NF(delta.strip_word(x.word, (i,)), x.gen))

    return materialize(levels, act, max_dim, prefix="wc", degen=degen)


def weighted_colim_map(src: Weight, dst: Weight,
                       components: Mapping[PairObject, SSetMap]) -> SSetMap:
    """The map of weighted colimits induced by a weight transformation."""
    ms, md = weighted_colim(src), weighted_colim(dst)
    assign = {}
    for g in ms.sset.gens():
        p, ch, x = ms.elem_of[g]
        d = ms.sset.gen_dim(g)
        assign[g] = md.to_nf(d, (p, ch, components[p](x)))
    return SSetMap(ms.sset, md.sset, assign)
