"""Homotopy coherent categorification of a Segal precategory.

Hom(a, b) at simplicial level j is the set of canonical pairs (T, chain):
T a totally non-degenerate necklace in the level-j slice from a to b, and a
chain in the subset interval [J_T, V_T] whose endpoints saturate T (the chain
starts at the joints and ends at the full vertex set).  Operators transport
beads along the vertical structure and re-saturate; composition is the wedge.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Optional

from . import delta
from .bisset import BiMap, BiSSet, LevelSSet, bnd
from .cubes import Chain, chain_act, chain_join, chains
from .necklace import (RealizedNecklace, TndPoset, UnsupportedInput, necklace_joint_ids,
                       necklace_vertex_ids, sub_necklace)
from .ops import is_1_ordered
from .scat import EnrichedFunctor, SCat
from .sset import NF, SSet, SSetError, materialize

HomElement = tuple[tuple[str, ...], Chain]  # (bead generators in the level slice, chain)


class HomSpace(NamedTuple):
    space: SSet
    to_nf: Callable[[int, HomElement], NF]
    elem_of: dict[str, HomElement]
    act: Callable[[HomElement, int, delta.Monotone], HomElement]

    def expand(self, x: NF, j: int) -> HomElement:
        e = self.elem_of[x.gen]
        if not x.word:
            return e
        return self.act(e, j - len(x.word), delta.word_to_epi(x.word, j))


class Categorification:
    """The simplicial category of a precategory, computed degree by degree.

    Each hom space is complete: its computation depth is the maximal possible
    non-degenerate degree, the longest bead path from a to b weighted by
    (horizontal dim - 1) + vertical dim per bead.
    """

    def __init__(self, W: BiSSet, bound: Optional[int] = None):
        if not W.row0_discrete():
            raise UnsupportedInput("categorification needs a discrete row 0")
        self.W = W
        self.user_bound = bound
        self.objects = tuple(sorted(W.row0()))
        self._levels: dict[int, LevelSSet] = {}
        self._posets: dict[tuple[int, str, str], TndPoset] = {}
        self._homs: dict[tuple[str, str], HomSpace] = {}
        self._act_cache: dict = {}
        self._flat_cache: dict[tuple[tuple[str, ...], int], frozenset[int]] = {}
        self._beads: Optional[list[tuple[str, str, int]]] = None
        self._bound_cache: dict[tuple[str, str], int] = {}

    def _bead_arcs(self) -> list[tuple[str, str, int]]:
        if self._beads is None:
            arcs = []
            for g in self.W.gens():
                m, k = self.W.bidegree(g)
                if m == 0:
                    continue
                u = self.W.act(bnd(g), mu_h=(0,)).gen
                w = self.W.act(bnd(g), mu_h=(m,)).gen
                arcs.append((u, w, (m - 1) + k))
            self._beads = arcs
        return self._beads

    def hom_bound(self, a: str, b: str) -> int:
        """Max possible non-degenerate degree of Hom(a, b)."""
        if self.user_bound is not None:
            return self.user_bound
        key = (a, b)
        if key in self._bound_cache:
            return self._bound_cache[key]
        arcs = self._bead_arcs()
        out: dict[str, dict[str, int]] = {}
        for u, w, c in arcs:
            if u != w:
                cur = out.setdefault(u, {})
                cur[w] = max(cur.get(w, -1), c)
        best: dict[str, int] = {}
        state: dict[str, int] = {}

        def dfs(v: str) -> int:
            if state.get(v) == 1:
                raise UnsupportedInput("the vertex order has a directed cycle",
                                       witness=v)
            if v in best:
                return best[v]
            state[v] = 1
            score = 0 if v == b else -(10 ** 9)
            for w, c in out.get(v, {}).items():
                sub = dfs(w)
                if sub > -(10 ** 9):
                    score = max(score, c + sub)
            state[v] = 2
            best[v] = score
            return score

        val = dfs(a)
        self._bound_cache[key] = max(val, 0)
        return self._bound_cache[key]

    @property
    def bound(self) -> int:
        if self.user_bound is not None:
            return self.user_bound
        return max((self.hom_bound(a, b) for a in self.objects for b in self.objects),
                   default=0)

    def level(self, j: int) -> LevelSSet:
        if j not in self._levels:
            self._levels[j] = LevelSSet(self.W, j)
        return self._levels[j]

    def poset(self, j: int, a: str, b: str) -> TndPoset:
        key = (j, a, b)
        if key not in self._posets:
            self._posets[key] = TndPoset(self.level(j), a, b)
        return self._posets[key]

    # -- hom spaces ------------------------------------------------------------

    def _act(self, e: HomElement, j: int, mu: delta.Monotone) -> HomElement:
        key = (e, j, mu)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        beads, ch = e
        j2 = len(mu) - 1
        Lsrc, Ldst = self.level(j), self.level(j2)
        beads2 = []
        for g in beads:
            binf = self.W.act(Lsrc.origin[g], mu_v=mu)
            if binf.hword:
                raise SSetError("vertical transport degenerated a bead in a 1-ordered level")
            beads2.append(Ldst._id(binf.gen, binf.vword))
        ch2 = chain_act(ch, mu)
        if mu[0] == 0 and mu[-1] == j:
            # the chain keeps its ends, which saturate the transported beads
            out = (tuple(beads2), ch2)
        else:
            t2 = sub_necklace(Ldst, RealizedNecklace(tuple(beads2)), ch2[0], ch2[-1])
            if t2 is None:
                raise SSetError("saturation failed")
            out = (t2.beads, ch2)
        self._act_cache[key] = out
        return out

    def _flat(self, beads: tuple[str, ...], j: int) -> frozenset[int]:
        """Positions i < j where every bead's vertical epi identifies i and i+1."""
        key = (beads, j)
        hit = self._flat_cache.get(key)
        if hit is None:
            L = self.level(j)
            epis = [delta.word_to_epi(L.origin[g].vword, j) for g in beads]
            hit = frozenset(i for i in range(j) if all(epi[i] == epi[i + 1] for epi in epis))
            self._flat_cache[key] = hit
        return hit

    def _degen(self, e: HomElement, j: int, i: int):
        """Fast check that e = s_i(df); returns df or None."""
        beads, ch = e
        if ch[i] != ch[i + 1] or i not in self._flat(beads, j):
            return None
        Lsrc, Ldst = self.level(j), self.level(j - 1)
        new_beads = []
        for g in beads:
            epi = delta.word_to_epi(Lsrc.origin[g].vword, j)
            word2, _ = delta.factor(delta.compose(epi, delta.coface(i, j)))
            new_beads.append(Ldst._id(Lsrc.origin[g].gen, word2))
        return (tuple(new_beads), ch[:i] + ch[i + 1:])

    def hom(self, a: str, b: str) -> HomSpace:
        key = (a, b)
        if key in self._homs:
            return self._homs[key]

        def levels(j: int) -> list:
            """The non-degenerate j-simplices: (T, chain) with the chain
            stepping at every position where all of T's beads are flat."""
            poset = self.poset(j, a, b)
            out = []
            for t in poset.objects:
                J = necklace_joint_ids(poset.K, t)
                V = necklace_vertex_ids(poset.K, t)
                flat = self._flat(t.beads, j)
                if len(set(V) - set(J)) < len(flat):
                    continue
                for ch in chains(J, V, j, saturated=True, steps=flat):
                    out.append((t.beads, ch))
            return sorted(out)

        mat = materialize(levels, self._act, self.hom_bound(a, b), prefix=f"h{a}.{b}_",
                          degen=self._degen)
        hs = HomSpace(mat.sset, mat.to_nf, mat.elem_of, self._act)
        self._homs[key] = hs
        return hs

    def hom_sset(self, a: str, b: str) -> SSet:
        return self.hom(a, b).space

    def id_element(self, a: str) -> str:
        hs = self.hom(a, a)
        return hs.to_nf(0, ((a,), ((a,),))).gen

    def comp_el(self, a: str, b: str, c: str, g: NF, f: NF) -> NF:
        hg, hf, hgf = self.hom(b, c), self.hom(a, b), self.hom(a, c)
        j = hg.space.dim(g)
        tg, chg = hg.expand(g, j)
        tf, chf = hf.expand(f, j)
        if self._is_point(tf):
            beads = tg
        elif self._is_point(tg):
            beads = tf
        else:
            beads = tf + tg
        return hgf.to_nf(j, (beads, chain_join(chf, chg)))

    def _is_point(self, beads: tuple[str, ...]) -> bool:
        # vertex beads carry the row-0 name at every level
        return len(beads) == 1 and beads[0] in self.objects

    def scat(self) -> SCat:
        hom = {(a, b): self.hom_sset(a, b)
               for a, b in itertools.product(self.objects, repeat=2)}
        ids = {a: self.id_element(a) for a in self.objects}
        return SCat(self.objects, hom, self.comp_el, ids, hom_bound=self.bound)

    def hom_report(self, a: str, b: str) -> dict:
        """Generator counts of Hom(a, b) against the a-priori degree bound."""
        counts = self.hom_sset(a, b).nd_counts()
        return {
            "nd_counts": counts,
            "degree_bound": self.hom_bound(a, b),
            "top_degree": max((d for d, c in enumerate(counts) if c), default=-1),
            "complete": self.user_bound is None,
        }

    def stabilization_report(self) -> dict:
        """hom_report for every pair of objects."""
        return {(a, b): self.hom_report(a, b)
                for a, b in itertools.product(self.objects, repeat=2)}


def categorify(W: BiSSet, bound: Optional[int] = None, check: bool = True) -> Categorification:
    """The categorification of W; with check, every level slice up to the
    bound must be 1-ordered, else UnsupportedInput carries (level, witness)."""
    C = Categorification(W, bound=bound)
    if check:
        for j in range(C.bound + 1):
            ok, wit = is_1_ordered(C.level(j))
            if not ok:
                raise UnsupportedInput(f"level {j} is not 1-ordered ({wit.condition})",
                                       witness=(j, wit))
    return C


def cfunctor(f: BiMap, Csrc: Categorification, Cdst: Categorification) -> EnrichedFunctor:
    """The enriched functor between categorifications induced by a precategory map."""
    on_obj = {a: f(Csrc.level(0).origin[a]).gen for a in Csrc.objects}

    def vmap(v: str) -> str:
        return on_obj[v]

    def on_hom(a: str, b: str, x: NF) -> NF:
        hs = Csrc.hom(a, b)
        j = hs.space.dim(x)
        beads, ch = hs.expand(x, j)
        Lsrc, Ldst = Csrc.level(j), Cdst.level(j)
        new_beads = []
        for g in beads:
            binf = f(Lsrc.origin[g])
            root = binf.gen
            if Ldst.W.bidegree(root)[0] > 0:
                new_beads.append(Ldst._id(root, binf.vword))
        ch2 = tuple(tuple(sorted({vmap(v) for v in S})) for S in ch)
        if not new_beads:
            t2 = RealizedNecklace((vmap(ch[0][0] if ch[0] else a),))
        else:
            t2 = sub_necklace(Ldst, RealizedNecklace(tuple(new_beads)), ch2[0], ch2[-1])
            if t2 is None:
                raise SSetError("image necklace failed to saturate")
        return Cdst.hom(on_obj[a], on_obj[b]).to_nf(j, (t2.beads, ch2))

    return EnrichedFunctor(None, None, on_obj, on_hom)


def scat_functor(f: BiMap, Csrc: Categorification, Cdst: Categorification,
                 src_cat: SCat, dst_cat: SCat) -> EnrichedFunctor:
    raw = cfunctor(f, Csrc, Cdst)
    return EnrichedFunctor(src_cat, dst_cat, raw.on_obj, raw.on_hom)
