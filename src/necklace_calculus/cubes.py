"""Cube models of coherent-composition spaces and the necklace-weighted colimit.

The mapping space of a totally non-degenerate necklace with joints J and
vertices V is the nerve of the subset interval [J, V]: a j-simplex is a chain
S_0 <= ... <= S_j with J <= S_r <= V, non-degenerate iff strictly increasing.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Optional

from . import delta
from .necklace import Necklace, PairObject, PairPoset, plus_m
from .ops import product
from .sset import EMPTY, NF, SSet, SSetError, SSetMap, Materialized, materialize, nd

Chain = tuple[tuple, ...]  # weakly increasing tuple of sorted vertex tuples


def chains(J, V, j: int, saturated: bool = False, steps=()) -> list[Chain]:
    """All chains S_0 <= ... <= S_j in the interval [J, V], sorted.

    saturated keeps only chains from S_0 = J to S_j = V.  steps lists
    positions i where S_i < S_{i+1} is required.  A chain is fixed by the
    index at which each vertex of V outside J enters it, so the chains are
    generated from those indices with the required steps built in.
    """
    J, V = tuple(sorted(set(J))), tuple(sorted(set(V)))
    free = [v for v in V if v not in J]
    lo, hi = (1, j) if saturated else (0, j + 1)
    every = sorted(set(J) | set(V))
    out = []
    for ts in _entry_times(len(free), lo, hi, frozenset(i + 1 for i in steps)):
        enter = dict(zip(free, ts))
        verts = [(v, enter.get(v, 0)) for v in every]
        out.append(tuple(tuple(v for v, t in verts if t <= r) for r in range(j + 1)))
    return sorted(out)


def _entry_times(n: int, lo: int, hi: int, need: frozenset) -> list[tuple[int, ...]]:
    """All n-tuples over [lo, hi] whose values include every member of need."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], missing: frozenset) -> None:
        if len(missing) > n - len(prefix):
            return
        if len(prefix) == n:
            out.append(prefix)
            return
        for t in range(lo, hi + 1):
            extend(prefix + (t,), missing - {t})

    extend((), need)
    return out


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


def cube_hom(J, V) -> CubeHom:
    J, V = tuple(sorted(set(J))), tuple(sorted(set(V)))
    if not set(J) <= set(V):
        raise SSetError("cube_hom needs J <= V")
    n_free = len(V) - len(J)

    def levels(j):
        return chains(J, V, j)

    def act(e, j, mu):
        return chain_act(e, mu)

    mat = materialize(levels, act, max_dim=n_free, prefix="ch")
    gen_of = {ch: g for g, ch in mat.elem_of.items()}

    def to_nf(d: int, chain: Chain) -> NF:
        word = tuple(sorted((r for r in range(d) if chain[r] == chain[r + 1]), reverse=True))
        strict = tuple(S for r, S in enumerate(chain) if r == 0 or S != chain[r - 1])
        return NF(word, gen_of[strict])

    return CubeHom(J, V, to_nf, {g: ch for g, ch in mat.elem_of.items()}, mat.sset)


def cube_of_necklace(T: Necklace) -> CubeHom:
    return cube_hom(T.joints, range(T.n_vertices))


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


def _bead_containment(pp: PairPoset, p: PairObject, q: PairObject) -> tuple[int, ...]:
    """Index in q of the bead containing each bead of p, for p <= q."""
    qj = q.J
    out = []
    for bead in pp.beads(p):
        lo, hi = bead[0], bead[-1]
        for ti in range(len(qj) - 1):
            if qj[ti] <= lo and hi <= qj[ti + 1]:
                out.append(ti)
                break
        else:
            raise SSetError("no containing bead")
    return tuple(out)


class NProd:
    """An n-ary product whose nullary and unary cases are literal units."""

    def __init__(self, factors: list[SSet]):
        from .shapes import point
        from .sset import identity_map

        self.factors = tuple(factors)
        if len(factors) == 0:
            self.sset = point()
            self._prod = None
        elif len(factors) == 1:
            self.sset = factors[0]
            self._prod = None
        else:
            self._prod = product(*factors)
            self.sset = self._prod.sset

    def project(self, i: int) -> SSetMap:
        from .sset import identity_map

        if len(self.factors) == 1:
            return identity_map(self.sset)
        return self._prod.projections[i]

    def pair(self, maps: list[SSetMap], src: SSet) -> SSetMap:
        from .ops import pairing
        from .sset import constant_map

        if len(self.factors) == 0:
            return constant_map(src, self.sset, self.sset.by_dim[0][0])
        if len(self.factors) == 1:
            return maps[0]
        return pairing(self._prod, maps)


def weight_F(mu: delta.Monotone, f: SSetMap, i: int, m: int,
             check: bool = True) -> Weight:
    """The weight sending T to (prod over non-last beads of Y) x X when the last
    bead lies in the image of mu+1, and to the empty space otherwise."""
    from .ops import is_connected

    X, Y = f.src, f.dst
    if not delta.is_mono(mu):
        raise SSetError("mu must be injective")
    if check and not (f.is_mono() and is_connected(X) and is_connected(Y)):
        from .necklace import UnsupportedInput

        raise UnsupportedInput("weight_F needs a monomorphism between connected inputs")
    pp = PairPoset(i, m)
    im = set(mu) | {m + 1}
    prods: dict[PairObject, NProd] = {}
    values: dict[PairObject, SSet] = {}
    for p in pp.objects:
        if set(pp.last_bead(p)) <= im:
            t = len(p.J) - 1
            pv = NProd([Y] * (t - 1) + [X])
            prods[p] = pv
            values[p] = pv.sset
        else:
            values[p] = EMPTY

    def arrow(p: PairObject, q: PairObject) -> SSetMap:
        if values[q].is_empty():
            return _empty_map_to(values[p])
        pv_q, pv_p = prods[q], prods[p]
        cont = _bead_containment(pp, p, q)
        nq = len(pv_q.factors)
        comps: list[SSetMap] = []
        for r, ti in enumerate(cont):
            pr = pv_q.project(ti)
            if r == len(cont) - 1:
                comps.append(pr)  # last bead lands in the last bead: keep X
            elif ti == nq - 1:
                comps.append(pr.then(f))  # collapsed into q's last bead: apply f
            else:
                comps.append(pr)
        return pv_p.pair(comps, pv_q.sset)

    return Weight(pp, values, arrow)


def weight_G0(m: int, f: SSetMap, check: bool = True) -> Weight:
    """The boundary pushout-product weight on pairs from 0 to m+1."""
    from .ops import is_connected
    from .sset import identity_map

    X, Y = f.src, f.dst
    if check and not f.is_mono():
        raise SSetError("weight_G0 needs a monomorphism")
    if check and not is_connected(Y):
        from .necklace import UnsupportedInput

        raise UnsupportedInput("weight_G0 needs a connected target")
    pp = PairPoset(0, m)
    top = pp.top()
    prods: dict[PairObject, NProd] = {}
    values: dict[PairObject, SSet] = {}
    for p in pp.objects:
        if p == top:
            values[p] = X
        else:
            pv = NProd([Y] * (len(p.J) - 1))
            prods[p] = pv
            values[p] = pv.sset

    def arrow(p: PairObject, q: PairObject) -> SSetMap:
        if q == top:
            if p == top:
                return identity_map(X)
            comps = [f for _ in prods[p].factors]
            return prods[p].pair(comps, X)
        cont = _bead_containment(pp, p, q)
        comps = [prods[q].project(ti) for ti in cont]
        return prods[p].pair(comps, values[q])

    return Weight(pp, values, arrow)


def last_factor_postcompose(t: int, f: SSetMap) -> SSetMap:
    """(Y^{t-1} x X) -> Y^t applying f to the last factor."""
    Y = f.dst
    src = NProd([Y] * (t - 1) + [f.src])
    dst = NProd([Y] * t)
    comps = [src.project(r) for r in range(t - 1)] + [src.project(t - 1).then(f)]
    return dst.pair(comps, src.sset)


def weight_constant(i: int, m: int, X: SSet) -> Weight:
    from .sset import identity_map

    pp = PairPoset(i, m)
    return Weight(pp, {p: X for p in pp.objects}, lambda p, q: identity_map(X))


def weight_inclusion_G0_F0(m: int, f: SSetMap) -> tuple[Weight, Weight, dict[PairObject, SSetMap]]:
    """The canonical objectwise inclusion of the G0 weight into F0 of (id_[m], id_Y)."""
    from .sset import identity_map

    Y = f.dst
    g0 = weight_G0(m, f)
    f0 = weight_F(delta.identity(m), identity_map(Y), 0, m)
    out = {}
    for p in g0.poset.objects:
        if p == g0.poset.top():
            out[p] = SSetMap(g0.value[p], f0.value[p], f.assign)
        else:
            if g0.value[p] != f0.value[p]:
                raise SSetError("G0 and F0 disagree away from the top cell")
            out[p] = identity_map(g0.value[p])
    return g0, f0, out


# -- the weighted colimit -------------------------------------------------------


def weighted_colim(weight: Weight, as_diag: bool = True) -> Materialized:
    """diag of the colimit of cube homs weighted by `weight`.

    Elements are canonical: the pair is saturated by its chain, so a class is
    (pair, chain with S_0 = J and S_j = V, weight simplex).
    """
    pp = weight.poset
    live = [p for p in pp.objects if not weight.value[p].is_empty()]
    if not live:
        return Materialized(EMPTY, lambda d, e: (_ for _ in ()).throw(SSetError("empty")), {})
    max_dim = max(len(p.V) - len(p.J) + max(weight.value[p].dim_bound, 0) for p in live)

    def levels(j):
        out = []
        for p in live:
            xs = weight.value[p].simplices(j)
            if not xs:
                continue
            for ch in chains(p.J, p.V, j, saturated=True):
                for x in xs:
                    out.append((p, ch, x))
        return sorted(out)

    def act(e, j, mu):
        p, ch, x = e
        ch2 = chain_act(ch, mu)
        p2 = PairObject.of(ch2[0], ch2[-1])
        x2 = weight.arrow(p2, p)(weight.value[p].act(x, mu))
        return (p2, ch2, x2)

    def degen(e, j, i):
        p, ch, x = e
        if ch[i] != ch[i + 1]:
            return None
        epi = delta.word_to_epi(x.word, j)
        if epi[i] != epi[i + 1]:
            return None
        word2, _ = delta.factor(delta.compose(epi, delta.coface(i, j)))
        from .sset import NF

        return (p, ch[:i] + ch[i + 1:], NF(word2, x.gen))

    return materialize(levels, act, max_dim, prefix="wc", degen=degen)


def weighted_colim_map(src: Weight, dst: Weight,
                       components: Mapping[PairObject, SSetMap],
                       mat_src: Optional[Materialized] = None,
                       mat_dst: Optional[Materialized] = None) -> SSetMap:
    """The map of weighted colimits induced by a weight transformation."""
    ms = mat_src if mat_src is not None else weighted_colim(src)
    md = mat_dst if mat_dst is not None else weighted_colim(dst)
    assign = {}
    for g in ms.sset.gens():
        p, ch, x = ms.elem_of[g]
        d = ms.sset.gen_dim(g)
        assign[g] = md.to_nf(d, (p, ch, components[p](x)))
    return SSetMap(ms.sset, md.sset, assign)
