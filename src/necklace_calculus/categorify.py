"""Homotopy coherent categorification of a Segal precategory.

Hom(a, b) at simplicial level j is the set of canonical pairs (T, chain):
T a totally non-degenerate necklace in the level-j slice from a to b, and a
chain in the subset interval [J_T, V_T] whose endpoints saturate T (the chain
starts at the joints and ends at the full vertex set).  Composition is the
wedge.

The necklaces are listed from bead paths, not from a necklace poset of each
level slice.  Row 0 is discrete, so a necklace of the level-j slice is a path
of W generators of horizontal degree >= 1 (beads) from a to b with one
vertical degeneracy word per bead, and its joints and vertices are those of
the path, the same at every level.  The bead-path model is `necklace`'s:
- the bead table is `necklace.bead_table`, read once per Categorification
  from the level slices: a bead of vertical degree k is a generator of the
  level-k slice under its own name, and `SSet.vertices` reads its row-0
  vertices there;
- `necklace.fold_beads`, one pass over the vertices, each after its
  successors (`ops.post_order`), gives the longest weighted bead paths: from
  every vertex for `bound`, from a to b for `hom_bound(a, b)`, computed once
  per hom space;
- `necklace.bead_paths` lists the paths from a to b, each a tuple of beads,
  once per hom space, in memory that grows with the paths listed;
- at level j, a path with all vertical degrees <= j gives one necklace per
  tuple of words, skipped when its flat positions (the words' intersection)
  outnumber its free vertices, before any generator id is built; the chains
  of a path depend only on its flat set, so one `_hom_level` call lists them
  once per (path, flat set).
`necklace.TndPoset` of a level slice serves DOT output and the verify checks.

Enriched functors and composition are read from tables:
- a functor from `cfunctor` is simplicial, so by Eilenberg-Zilber it is fixed
  by its values on generators: it computes the image of a source hom
  generator once, in a table its closure owns, and maps s_w x to s_w of x's
  image;
- `comp_el` memoizes each composite per (a, b, c, g, f), in a table the
  Categorification owns;
- faces of normal forms go through `delta.face_of_word`, a bounded lookup.

Faces and other operators are read from tables, not recomputed:
- each bead is moved along an operator by the vertical action of W once per
  (bead, level, operator); the memo belongs to the Categorification;
- re-saturation is `necklace.sub_necklace`, one pass over the beads' vertex
  tuples that cuts them at the chain's end sets and reads each piece from the
  level's face table; it is skipped when the operator keeps both chain ends;
- a j-simplex is s_i of a face exactly when its chain repeats at i and i is
  in every bead's vertical degeneracy word;
- building a Categorification checks each level slice up to the bound with
  `ops.is_1_ordered`, which reads vertices and spines from the level's face
  table; this is the one 1-orderedness gate, and every hom space relies on it.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional

from . import delta
from .bisset import BiMap, BiSSet, LevelSSet
from .cubes import Chain, chain_act, chain_join, chains
from .necklace import (Bead, RealizedNecklace, UnsupportedInput, bead_paths, bead_table,
                       fold_beads, sub_necklace)
from .ops import is_1_ordered
from .scat import EnrichedFunctor, SCat
from .sset import NF, Materialized, SSet, SSetError, materialize

HomElement = tuple[tuple[str, ...], Chain]  # (bead generators in the level slice, chain)


class Categorification:
    """The simplicial category of a precategory, computed degree by degree.

    Each hom space is complete: its computation depth is the maximal possible
    non-degenerate degree, the longest bead path from a to b weighted by
    (horizontal dim - 1) + vertical dim per bead.  Building one checks that
    every level slice up to the bound is 1-ordered, else UnsupportedInput
    carries (level, witness).
    """

    def __init__(self, W: BiSSet, bound: Optional[int] = None):
        if not W.row0_discrete():
            raise UnsupportedInput("categorification needs a discrete row 0")
        self.W = W
        self.user_bound = bound
        self.objects = tuple(sorted(W.row0()))
        self._levels: dict[int, LevelSSet] = {}
        self._homs: dict[tuple[str, str], Materialized] = {}
        self._comp_cache: dict[tuple[str, str, str, NF, NF], NF] = {}
        self._bead_cache: dict[tuple[str, int, delta.Monotone], str] = {}
        self._table: Optional[dict[str, list[Bead]]] = None
        for j in range(self.bound + 1):
            ok, wit = is_1_ordered(self.level(j))
            if not ok:
                raise UnsupportedInput(f"level {j} is not 1-ordered ({wit.condition})",
                                       witness=(j, wit))

    def _beads(self) -> dict[str, list[Bead]]:
        """The bead table: each W generator g of bidegree (m, k), m >= 1, as a
        Bead with its row-0 vertices, read by SSet.vertices in the level-k
        slice, where g is a generator under its own name.  With a user bound
        below k, g is left out, and level k is not built: no walk under that
        bound reaches it.  With none, a bead that is not a loop is a path of
        weight >= k, so k <= bound: only a loop's level can lie above the
        levels the 1-orderedness gate builds."""
        if self._table is None:
            cap = math.inf if self.user_bound is None else self.user_bound
            self._table = bead_table((g, k, self.level(k)) for g in self.W.gens()
                                     for m, k in [self.W.bidegree(g)] if m and k <= cap)
        return self._table

    def _longest(self, starts, ends) -> dict[str, int]:
        """The largest sum of (m - 1) + k over a path of beads of bidegree
        (m, k) to a vertex of ends, from each vertex reached from starts that
        has such a path."""
        return fold_beads(self._beads(), starts, ends, lambda end, steps: max(
            [0] * end + [len(bd.verts) - 2 + bd.k + n for bd, n in steps]))

    def hom_bound(self, a: str, b: str) -> int:
        """Max possible non-degenerate degree of Hom(a, b): the largest sum of
        (m - 1) + k over a path of beads of bidegree (m, k) from a to b."""
        if self.user_bound is not None:
            return self.user_bound
        return self._longest((a,), (b,)).get(a, 0)

    @property
    def bound(self) -> int:
        """The largest hom_bound over all pairs: the weights are >= 0, so the
        largest over all bead paths."""
        if self.user_bound is not None:
            return self.user_bound
        return max(self._longest(self.objects, set(self.objects)).values(), default=0)

    def level(self, j: int) -> LevelSSet:
        if j not in self._levels:
            self._levels[j] = LevelSSet(self.W, j)
        return self._levels[j]

    # -- hom spaces ------------------------------------------------------------

    def _transport(self, g: str, j: int, mu: delta.Monotone) -> str:
        """Bead g of level j moved along mu vertically, memoized per (bead, level, mu)."""
        key = (g, j, mu)
        hit = self._bead_cache.get(key)
        if hit is None:
            binf = self.W.act(self.level(j).origin[g], mu_v=mu)
            if binf.hword:
                raise SSetError("vertical transport degenerated a bead in a 1-ordered level")
            hit = self._bead_cache[key] = self.level(len(mu) - 1)._id(binf.gen, binf.vword)
        return hit

    def _act(self, e: HomElement, j: int, mu: delta.Monotone) -> HomElement:
        beads, ch = e
        beads2 = tuple(self._transport(g, j, mu) for g in beads)
        ch2 = chain_act(ch, mu)
        if mu[0] == 0 and mu[-1] == j:
            # the chain keeps its ends, which saturate the transported beads
            return (beads2, ch2)
        t2 = sub_necklace(self.level(len(mu) - 1), RealizedNecklace(beads2), ch2[0], ch2[-1])
        if t2 is None:
            raise SSetError("saturation failed")
        return (t2.beads, ch2)

    def _flat(self, beads: tuple[str, ...], j: int) -> frozenset[int]:
        """Positions i < j where every bead's vertical epi identifies i and i+1:
        the positions in every bead's degeneracy word."""
        origin = self.level(j).origin
        return frozenset(origin[beads[0]].vword).intersection(
            *(origin[g].vword for g in beads[1:]))

    def _degen(self, e: HomElement, j: int, i: int):
        """Fast check that e = s_i(df); returns df or None."""
        beads, ch = e
        if ch[i] != ch[i + 1] or i not in self._flat(beads, j):
            return None
        mu = delta.coface(i, j)
        return (tuple(self._transport(g, j, mu) for g in beads), ch[:i] + ch[i + 1:])

    def _hom_level(self, a: str, b: str, paths: list[tuple[Bead, ...]],
                   j: int) -> list[HomElement]:
        """The non-degenerate j-simplices of Hom(a, b), sorted, from its bead
        paths: (T, chain) for each necklace T of the level-j slice, a path
        with one vertical degeneracy word per bead, and each chain stepping at
        every position where all of T's beads are flat (in every bead's word)."""
        if a == b:
            return [((a,), ((a,),))] if j == 0 else []
        name = self.level(j)._id
        out = []
        for path in paths:
            beads, ks, verts = zip(*path)
            if max(ks) > j:
                continue
            J = (a,) + tuple(vs[-1] for vs in verts)
            V = {v for vs in verts for v in vs}
            free = len(V) - len(J)  # the joints of a path in a 1-ordered level are distinct
            by_flat: dict[frozenset[int], list[Chain]] = {}  # the path's chains, per flat set
            for words in itertools.product(*(delta.all_words(j - k, j) for k in ks)):
                flat = frozenset(words[0]).intersection(*words[1:])
                if free < len(flat):
                    continue
                chs = by_flat.get(flat)
                if chs is None:
                    chs = by_flat[flat] = chains(J, V, j, saturated=True, steps=flat)
                t = tuple(map(name, beads, words))
                out.extend((t, ch) for ch in chs)
        return sorted(out)

    def hom(self, a: str, b: str) -> Materialized:
        """Hom(a, b) up to hom_bound(a, b), computed once, from the bead paths
        from a to b.  Every level slice up to the bound was checked to be
        1-ordered when the Categorification was built."""
        key = (a, b)
        if key not in self._homs:
            if a not in self.objects or b not in self.objects:
                raise SSetError(f"endpoints {a!r}, {b!r} must be vertices of K")
            paths = list(bead_paths(self._beads(), a, b))
            levels = functools.partial(self._hom_level, a, b, paths)
            self._homs[key] = materialize(levels, self._act, self.hom_bound(a, b),
                                          prefix=f"h{a}.{b}_", degen=self._degen)
        return self._homs[key]

    def hom_sset(self, a: str, b: str) -> SSet:
        return self.hom(a, b).sset

    def id_element(self, a: str) -> str:
        hs = self.hom(a, a)
        return hs.to_nf(0, ((a,), ((a,),))).gen

    def comp_el(self, a: str, b: str, c: str, g: NF, f: NF) -> NF:
        """The composite of f in Hom(a, b) and g in Hom(b, c), at g's level:
        the wedge of their necklaces and the join of their chains.  Memoized
        per (a, b, c, g, f) in a table the Categorification owns."""
        key = (a, b, c, g, f)
        hit = self._comp_cache.get(key)
        if hit is not None:
            return hit
        j = self.hom_sset(b, c).dim(g)
        tg, chg = self.hom(b, c).expand(g)
        tf, chf = self.hom(a, b).expand(f)
        if self._is_point(tf):
            beads = tg
        elif self._is_point(tg):
            beads = tf
        else:
            beads = tf + tg
        hit = self._comp_cache[key] = self.hom(a, c).to_nf(j, (beads, chain_join(chf, chg)))
        return hit

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


def categorify(W: BiSSet, bound: Optional[int] = None) -> Categorification:
    """The categorification of W.  Every level slice up to the bound must be
    1-ordered, else UnsupportedInput carries (level, witness)."""
    return Categorification(W, bound=bound)


def cfunctor(f: BiMap, Csrc: Categorification, Cdst: Categorification) -> EnrichedFunctor:
    """The enriched functor between categorifications induced by a precategory map.

    on_hom is simplicial, so it is fixed by its values on generators: the
    image of a generator is computed once, in a table that this functor's
    closure owns and fills on first use, and a degenerate s_w x maps to
    s_w of the image of x, through the target hom space's `_degenerate`.
    """
    on_obj = {a: f(Csrc.level(0).origin[a]).gen for a in Csrc.objects}
    table: dict[tuple[str, str, str], tuple[NF, SSet]] = {}

    def on_gen(a: str, b: str, g: str) -> NF:
        """The image of generator g of Hom(a, b): its beads through f, its
        chain through f on vertices, re-saturated in the target level."""
        hs = Csrc.hom(a, b)
        j = hs.sset.gen_dim(g)
        beads, ch = hs.elem_of[g]
        Lsrc, Ldst = Csrc.level(j), Cdst.level(j)
        new_beads = []
        for bg in beads:
            binf = f(Lsrc.origin[bg])
            root = binf.gen
            if Ldst.W.bidegree(root)[0] > 0:
                new_beads.append(Ldst._id(root, binf.vword))
        ch2 = tuple(tuple(sorted({on_obj[v] for v in S})) for S in ch)
        if not new_beads:
            t2 = RealizedNecklace((on_obj[ch[0][0] if ch[0] else a],))
        else:
            t2 = sub_necklace(Ldst, RealizedNecklace(tuple(new_beads)), ch2[0], ch2[-1])
            if t2 is None:
                raise SSetError("image necklace failed to saturate")
        return Cdst.hom(on_obj[a], on_obj[b]).to_nf(j, (t2.beads, ch2))

    def on_hom(a: str, b: str, x: NF) -> NF:
        key = (a, b, x.gen)
        hit = table.get(key)
        if hit is None:
            hit = table[key] = (on_gen(a, b, x.gen), Cdst.hom_sset(on_obj[a], on_obj[b]))
        img, dst = hit
        return dst._degenerate((x.word,), img) if x.word else img

    return EnrichedFunctor(None, None, on_obj, on_hom)


def scat_functor(f: BiMap, Csrc: Categorification, Cdst: Categorification,
                 src_cat: SCat, dst_cat: SCat) -> EnrichedFunctor:
    raw = cfunctor(f, Csrc, Cdst)
    return EnrichedFunctor(src_cat, dst_cat, raw.on_obj, raw.on_hom)
