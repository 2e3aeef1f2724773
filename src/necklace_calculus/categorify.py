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
  per hom space and kept with it for `hom_report`;
- `necklace.bead_paths` lists the paths from a to b, each a tuple of beads,
  once per hom space, in memory that grows with the paths listed;
- at level j, a path with all vertical degrees <= j gives one necklace per
  tuple of words, and a tuple whose flat positions (the words'
  intersection) outnumber the path's free vertices is pruned while the
  tuple is built, before any generator id is.
`necklace.TndPoset` of a level slice serves DOT output and the verify checks.

A hom space computes on flagged necklaces in integer form (Dugger and
Spivak, Rigidification of quasi-categories, AGT 11, 2011, section 4):
- each hom build owns a necklace table; a row is a necklace of one level
  slice, with its beads, its joints, its free vertices in path order and its
  flat positions (those in every bead's vertical degeneracy word);
- an element at level j is (row, entry times): the step in [1, j] at which
  each free vertex enters the saturated chain J = S_0 <= ... <= S_j = V;
- the chains of a necklace are listed from `cubes._entry_times`, memoized per
  (free count, level, flat set) in a table the Categorification owns, and
  put in the order of their chains of vertex names once per (name ranks,
  level, flat set), so generators keep the ids and order of the name form;
- a monotone mu sends an entry time t to min{r : t <= mu(r)}; a vertex that
  lands at 0 becomes a joint and one beyond mu's last value leaves the
  necklace;
- the necklace side of mu is one lookup per (row, mu, vertices joined,
  vertices dropped), filled once: each bead is moved by the vertical action
  of W, read per (bead, mu), and a bead with a vertex that joined or left is
  cut by `necklace.cut_bead`, the per-bead cut of `necklace.sub_necklace`,
  once per (W generator, joined, dropped), the cut commuting with vertical
  degeneracies; beads are integer ids in tables the Categorification owns;
- a j-simplex is s_i of its face exactly when no free vertex enters at
  i + 1 and i is flat.
The name form (beads, chain) stays at the hom space's boundary: `elem_of`
and `expand` return it and `to_nf` accepts it, so enriched functors,
straightening and the oracles read hom spaces as before.

Enriched functors and composition are read from tables:
- a functor from `cfunctor` is simplicial, so by Eilenberg-Zilber it is fixed
  by its values on generators: it computes the image of a source hom
  generator once, in a table its closure owns, and maps s_w x to s_w of x's
  image;
- `comp_el` reads the wedge on (row, entry times), the beads of both rows
  and their entry times side by side, and memoizes each composite per
  (a, b, c, g, f), in a table the Categorification owns;
- faces of normal forms go through `delta.face_of_word`, a bounded lookup.

Building a Categorification checks each level slice up to the bound with
`ops.is_1_ordered`, which reads vertices and spines from the level's face
table; this is the one 1-orderedness gate, and every hom space relies on it.
"""

from __future__ import annotations

import bisect
import copy
import functools
import itertools
import math
import threading
from collections.abc import Mapping
from operator import itemgetter
from typing import NamedTuple, Optional

from . import delta
from .bisset import BiMap, BiNF, BiSSet, LevelSSet
from .cubes import Chain, _entry_times
from .necklace import (Bead, RealizedNecklace, UnsupportedInput, bead_paths, bead_table,
                       cut_bead, fold_beads, sub_necklace)
from .ops import is_1_ordered
from .scat import EnrichedFunctor, SCat
from .sset import NF, Materialized, SSet, SSetError, materialize, nd

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
        self._homs: dict[tuple[str, str], _HomTable] = {}
        self._comp_cache: dict[tuple[str, str, str, NF, NF], NF] = {}
        self._level_beads = _LevelBeads(self)
        self._times_cache: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}
        self._order_cache: dict[tuple, list[tuple[int, ...]]] = {}
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

    def _chains(self, ranks: tuple[tuple[int, ...], tuple[int, ...]], j: int,
                flat: int) -> list[tuple[int, ...]]:
        """The saturated chains of level j that step at every flat position (a
        bit mask), as entry times in [1, j] of the free vertices, ordered as
        their chains of vertex names are.  ranks holds the rank of each free
        vertex and of each joint among the necklace's vertices by name.  The
        entry times are memoized per (free count, level, flat), their order
        per (ranks, level, flat); both tables belong to the Categorification."""
        key = (ranks, j, flat)
        hit = self._order_cache.get(key)
        if hit is None:
            free, joints = ranks
            tkey = (len(free), j, flat)
            times = self._times_cache.get(tkey)
            if times is None:
                need = frozenset(i + 1 for i in range(j) if flat >> i & 1)
                times = self._times_cache[tkey] = _entry_times(len(free), 1, j, need)
            hit = self._order_cache[key] = sorted(times, key=lambda ts: tuple(
                [tuple(sorted(joints + tuple([f for f, t in zip(free, ts) if t <= r])))
                 for r in range(1, j)]))
        return hit

    def _hom_level(self, a: str, b: str, table: "_HomTable", paths, j: int
                   ) -> list[tuple[int, tuple[int, ...]]]:
        """The non-degenerate j-simplices of Hom(a, b) as (row, entry times), in
        the order of their name forms (T, chain): for each necklace T of the
        level-j slice, a bead path with one vertical degeneracy word per bead,
        each chain stepping at every position where all of T's beads are flat
        (in every bead's word).  paths() gives each bead path from a to b as
        _path_data reads it, listed once, on the first level listed."""
        lb = self._level_beads
        if a == b:
            return [(table.row(0, (lb.id(a, ()),)), ())] if j == 0 else []
        rows = []
        for gens, ks, shape, ranks, top, reach in paths():
            if top > j or reach < j:  # a bead above level j, or too many flat positions
                continue
            for words, flat in _word_tuples(ks, j, len(shape[1])):
                beads = tuple(map(lb.id, gens, words))
                rows.append((tuple(map(lb.name, beads)), table.row(j, beads, shape, flat),
                             self._chains(ranks, j, flat)))
        rows.sort(key=itemgetter(0))  # distinct necklaces have distinct beads
        return [(n, ts) for _, n, times in rows for ts in times]

    def hom(self, a: str, b: str) -> Materialized:
        """Hom(a, b) up to hom_bound(a, b), computed once, from the bead paths
        from a to b, on the elements of its own necklace table; elem_of,
        expand and to_nf speak the name form (beads, chain).  Every level slice
        up to the bound was checked to be 1-ordered when the Categorification
        was built."""
        key = (a, b)
        if key not in self._homs:
            if a not in self.objects or b not in self.objects:
                raise SSetError(f"endpoints {a!r}, {b!r} must be vertices of K")
            paths = functools.cache(lambda: list(map(_path_data, bead_paths(self._beads(), a, b))))
            table = _HomTable(self, self.hom_bound(a, b))
            table.build(functools.partial(self._hom_level, a, b, table, paths), f"h{a}.{b}_")
            self._homs.setdefault(key, table)  # published whole; the first build wins
        return self._homs[key].space

    def _hom_table(self, a: str, b: str) -> "_HomTable":
        """The build of Hom(a, b): its necklace table, elements and bound."""
        self.hom(a, b)
        return self._homs[(a, b)]

    def hom_sset(self, a: str, b: str) -> SSet:
        return self.hom(a, b).sset

    def id_element(self, a: str) -> str:
        hs = self.hom(a, a)
        return hs.to_nf(0, ((a,), ((a,),))).gen

    def comp_el(self, a: str, b: str, c: str, g: NF, f: NF) -> NF:
        """The composite of f in Hom(a, b) and g in Hom(b, c), at g's level:
        the wedge of their necklaces and the join of their chains, read on the
        elements (row, entry times).  Memoized per (a, b, c, g, f) in a table
        the Categorification owns."""
        key = (a, b, c, g, f)
        hit = self._comp_cache.get(key)
        if hit is not None:
            return hit
        hg, hf, hc = self._hom_table(b, c), self._hom_table(a, b), self._hom_table(a, c)
        j = hg.mat.sset.dim(g)
        ng, tg = hg.mat.expand(g)
        nf, tf = hf.mat.expand(f)
        rg, rf = hg.rows[ng], hf.rows[nf]
        # the wedge's free vertices are f's, then g's, each entering as before
        if len(rf.joints) == 1:  # f is the point necklace
            beads = rg.beads
        elif len(rg.joints) == 1:
            beads = rf.beads
        else:
            beads = rf.beads + rg.beads
        hit = self._comp_cache[key] = hc.mat.to_nf(j, (hc.row(j, beads), tf + tg))
        return hit

    def _is_point(self, beads: tuple[str, ...]) -> bool:
        # vertex beads carry the row-0 name at every level
        return len(beads) == 1 and beads[0] in self.objects

    def scat(self) -> SCat:
        hom = {(a, b): self.hom_sset(a, b)
               for a, b in itertools.product(self.objects, repeat=2)}
        ids = {a: self.id_element(a) for a in self.objects}
        return SCat(self.objects, hom, self.comp_el, ids, hom_bound=self.bound)

    def handle(self) -> "Categorification":
        """Another Categorification object over this one's tables: a level,
        bead, hom space or composite built through either is there for both."""
        return copy.copy(self)

    def held(self) -> int:
        """The generators of the hom spaces built so far plus the composites
        memoized: how much this categorification holds, as one count."""
        return (sum(t.space.sset.n_gens() for t in list(self._homs.values()))
                + len(self._comp_cache))

    def hom_report(self, a: str, b: str) -> dict:
        """Generator counts of Hom(a, b) against the a-priori degree bound."""
        counts = self.hom_sset(a, b).nd_counts()
        return {
            "nd_counts": counts,
            "degree_bound": self._homs[(a, b)].bound,  # hom_sset built it
            "top_degree": max((d for d, c in enumerate(counts) if c), default=-1),
            "complete": self.user_bound is None,
        }

    def stabilization_report(self) -> dict:
        """hom_report for every pair of objects."""
        return {(a, b): self.hom_report(a, b)
                for a, b in itertools.product(self.objects, repeat=2)}


class _LevelBeads:
    """The beads of a Categorification's level slices by integer id.

    Bead s_w x is a W generator x (an object, for the point necklace) under
    a vertical degeneracy word w; it lives in the level-(k + len(w)) slice for
    x of vertical degree k.  Its name there, the vertices of x, its transport
    along a vertical operator and its cuts are each read once, into tables
    this object owns for the Categorification's lifetime.  Ids are handed
    out under a lock, and an id is published only once its key is stored,
    so threads sharing the Categorification agree on them."""

    def __init__(self, C: Categorification):
        self.W, self.level = C.W, C.level
        self._lock = threading.Lock()
        self.keys: list[tuple[str, delta.Word]] = []  # bead id -> (x, w)
        self._ids: dict[tuple[str, delta.Word], int] = {}
        self._names: list[Optional[str]] = []
        self._verts: dict[str, tuple[str, ...]] = {}
        self._moved: dict[delta.Monotone, dict[int, int]] = {}
        self._cuts: dict[tuple[int, tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}
        self._pieces: dict[tuple[str, tuple[int, ...], tuple[int, ...]],
                           tuple[tuple[delta.Word, str], ...]] = {}

    def id(self, x: str, w: delta.Word) -> int:
        b = self._ids.get((x, w))
        if b is None:
            with self._lock:
                b = self._ids.get((x, w))
                if b is None:
                    self._names.append(None)
                    self.keys.append((x, w))
                    b = self._ids[(x, w)] = len(self.keys) - 1
        return b

    def name(self, b: int) -> str:
        """The generator id of bead b in its level slice."""
        name = self._names[b]
        if name is None:
            x, w = self.keys[b]
            name = self._names[b] = self.level(self.W.bidegree(x)[1] + len(w))._id(x, w)
        return name

    def verts(self, x: str) -> tuple[str, ...]:
        """The row-0 vertices of W generator x, read in the level slice of its
        vertical degree, where x is a generator under its own name."""
        vs = self._verts.get(x)
        if vs is None:
            vs = self._verts[x] = self.level(self.W.bidegree(x)[1]).vertices(nd(x))
        return vs

    def transport(self, beads: tuple[int, ...], mu: delta.Monotone) -> list[int]:
        """Each bead moved along mu vertically by W's action, memoized per
        (bead, mu): s_w x goes to s_w' y, y being x or a vertical face of x."""
        moved = self._moved.get(mu)
        if moved is None:
            moved = self._moved[mu] = {}
        out = []
        for b in beads:
            hit = moved.get(b)
            if hit is None:
                x, w = self.keys[b]
                binf = self.W.act(BiNF((), w, x), mu_v=mu)
                if binf.hword:
                    raise SSetError("vertical transport degenerated a bead "
                                    "in a 1-ordered level")
                hit = moved[b] = self.id(binf.gen, binf.vword)
            out.append(hit)
        return out

    def cut(self, b: int, joined: tuple[int, ...], dropped: tuple[int, ...]) -> tuple[int, ...]:
        """The beads into which bead b is cut when its inner vertices at
        positions joined become joints and those at positions dropped are left
        out, memoized per (bead, joined, dropped).  Vertical degeneracies commute
        with the cut: b is s_w x for a W generator x of vertical degree k, so
        the cut is that of x in the level-k slice, by necklace.cut_bead (the
        cut of each bead in sub_necklace) once per (x, joined, dropped), with
        s_w put on each piece."""
        hit = self._cuts.get((b, joined, dropped))
        if hit is None:
            x, w = self.keys[b]
            k = self.W.bidegree(x)[1]
            pieces = self._pieces.get((x, joined, dropped))
            if pieces is None:
                L, vs = self.level(k), self.verts(x)
                cut = cut_bead(L, x, vs, {vs[0], vs[-1], *(vs[1 + p] for p in joined)},
                               set(vs).difference(vs[1 + p] for p in dropped))
                if cut is None:
                    raise SSetError("saturation failed")
                pieces = self._pieces[(x, joined, dropped)] = tuple(L.origin[y][1:] for y in cut)
            hit = self._cuts[(b, joined, dropped)] = tuple(
                [self.id(y, delta.merge_words(w, v, k)) for v, y in pieces])
        return hit


def _word_tuples(ks: tuple[int, ...], j: int, free: int):
    """The tuples of vertical degeneracy words that lift beads of vertical
    degrees ks to level j and leave at most free flat positions, each with
    its flat positions as a bit mask, in itertools.product order.  A word's
    complement in [0, j) has k positions and the flat positions are the
    complement of their union, so a partial tuple is pruned when its union,
    grown by the remaining beads' k, cannot reach j - free positions."""
    need = j - free
    full = (1 << j) - 1
    rest = list(itertools.accumulate(reversed(ks), initial=0))[::-1]  # rest[d] = sum(ks[d:])
    comps = {k: _complements(k, j) for k in set(ks)}
    words: list[tuple[int, ...]] = []
    unions = [0]
    stack = [iter(comps[ks[0]])]  # the words to go for each bead of the tuple
    while stack:
        d = len(stack) - 1
        nxt = next(stack[-1], None)
        del words[d:], unions[d + 1:]
        if nxt is None:
            stack.pop()
            continue
        w, comp = nxt
        union = unions[d] | comp
        if union.bit_count() + rest[d + 1] < need:
            continue
        words.append(w)
        unions.append(union)
        if d + 1 == len(ks):
            yield tuple(words), full & ~union
        else:
            stack.append(iter(comps[ks[d + 1]]))


@functools.lru_cache(maxsize=1024)
def _complements(k: int, j: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each word lifting vertical degree k to level j, with the bit mask of
    the k positions in [0, j) that it leaves out."""
    return tuple((w, ((1 << j) - 1) & ~sum(1 << i for i in w)) for w in delta.all_words(j - k, j))


def _path_data(path: tuple[Bead, ...]) -> tuple:
    """A bead path's generators, vertical degrees, shape (see _shape), the
    name ranks of its free vertices and of its joints among its vertices,
    its top vertical degree, and its free count plus vertical degrees: a
    level above that has more flat positions than free vertices."""
    gens, ks, verts = zip(*path)
    shape = _shape(verts)
    joints, free = shape[:2]
    ranks = ((), ())  # one chain, or none, when no vertex is free
    if free:
        rank = {v: r for r, v in enumerate(sorted(joints + free))}
        ranks = (tuple(map(rank.__getitem__, free)), tuple(map(rank.__getitem__, joints)))
    return gens, ks, shape, ranks, max(ks), len(free) + sum(ks)


def _shape(verts) -> tuple[tuple[str, ...], tuple[str, ...], tuple[int, ...]]:
    """The joints, the free vertices in path order and the bounds of each
    bead's free vertices among them, of a necklace with beads' vertices verts."""
    joints, free, bounds = [verts[0][0]], [], [0]
    for vs in verts:
        if len(vs) > 1:  # not the point necklace's one vertex
            joints.append(vs[-1])
            free.extend(vs[1:-1])
        bounds.append(len(free))
    return tuple(joints), tuple(free), tuple(bounds)


class _Row(NamedTuple):
    """A necklace of the level-j slice in a hom build's table: its beads (ids
    of _LevelBeads), its joints, its free vertices in path order,
    bead i's free vertices being free[bounds[i]:bounds[i + 1]], and its flat
    positions, those in every bead's vertical degeneracy word, as a bit mask."""

    j: int
    beads: tuple[int, ...]
    joints: tuple[str, ...]
    free: tuple[str, ...]
    bounds: tuple[int, ...]
    flat: int


class _HomTable:
    """The necklace table of one hom build and the action on its elements.

    An element at level j is (n, ts): row n of the table, a necklace of the
    level-j slice, and the step in [1, j] at which each of the row's free
    vertices enters the saturated chain J = S_0 < ... < S_j = V.  A monotone
    mu sends an entry time t to min{r : t <= mu(r)}; a vertex that lands at 0
    joins the joints, one beyond mu's last value leaves the necklace.  The
    necklace side of mu is one lookup per (row, mu, vertices joined, vertices
    dropped), filled once from the beads' transport and cuts."""

    def __init__(self, C: Categorification, bound: int):
        self._lock = threading.Lock()  # rows are added as ids are: stored, then published
        self.beads = C._level_beads
        self.level = C.level
        self.bound = bound
        self.rows: list[_Row] = []
        self._index: dict[tuple[int, ...], int] = {}
        # per (mu, level): each entry time's image, the necklace side of mu
        # per row (and vertices joined and dropped), and whether mu is outer
        self._by_mu: dict[tuple[delta.Monotone, int], tuple[tuple[int, ...], dict, bool]] = {}
        self._namings: dict[int, tuple[tuple[str, ...], tuple[tuple[str, int], ...]]] = {}
        self._named: dict[tuple[int, tuple[str, ...]], int] = {}  # (level, bead names) -> row

    def row(self, j: int, beads: tuple[int, ...], shape=None, flat: Optional[int] = None) -> int:
        """The index of the necklace of level j with these beads, added on first
        sight; its shape and flat mask are read off the beads unless given."""
        n = self._index.get(beads)
        if n is None:
            keys = [self.beads.keys[b] for b in beads]
            if shape is None:
                shape = _shape([self.beads.verts(x) for x, _ in keys])
            if flat is None:
                flat = functools.reduce(int.__and__, (sum(1 << i for i in w) for _, w in keys))
            with self._lock:
                n = self._index.get(beads)
                if n is None:
                    self.rows.append(_Row(j, beads, *shape, flat))
                    n = self._index[beads] = len(self.rows) - 1
        return n

    def act(self, e: tuple[int, tuple[int, ...]], j: int, mu: delta.Monotone):
        n, ts = e
        by_mu = self._by_mu.get((mu, j))
        if by_mu is None:
            inv = tuple(bisect.bisect_left(mu, t) for t in range(j + 1))
            by_mu = self._by_mu[(mu, j)] = (inv, {}, bool(mu[0] or mu[-1] != j))
        inv, moves, outer = by_mu
        if outer:  # an outer face or operator may join or drop vertices
            out = len(mu)  # the entry time of a vertex beyond mu's last value
            joined, dropped, kept = [], [], []
            for p, t in enumerate(ts):
                t = inv[t]
                if not t:
                    joined.append(p)
                elif t == out:
                    dropped.append(p)
                else:
                    kept.append(t)
            joined, dropped, ts = tuple(joined), tuple(dropped), tuple(kept)
        else:
            joined = dropped = ()
            ts = tuple([inv[t] for t in ts])
        key = (n, joined, dropped) if joined or dropped else n
        hit = moves.get(key)
        if hit is None:
            hit = moves[key] = self._move(self.rows[n], mu, joined, dropped)
        return hit, ts

    def _move(self, row: _Row, mu: delta.Monotone, joined: tuple[int, ...],
              dropped: tuple[int, ...]) -> int:
        """The row of row's necklace moved along mu: each bead transported, and
        a bead with a free vertex that joined or left cut to its new joints and
        vertices."""
        beads = self.beads.transport(row.beads, mu)
        if not joined and not dropped:  # vertical operators keep each bead's vertices
            return self.row(len(mu) - 1, tuple(beads), (row.joints, row.free, row.bounds))
        cut = []
        for b, lo, hi in zip(beads, row.bounds, row.bounds[1:]):
            jl = tuple([p - lo for p in joined if lo <= p < hi])
            dl = tuple([p - lo for p in dropped if lo <= p < hi])
            if jl or dl:
                cut.extend(self.beads.cut(b, jl, dl))
            else:
                cut.append(b)
        return self.row(len(mu) - 1, tuple(cut))

    def degen(self, e: tuple[int, tuple[int, ...]], j: int, i: int):
        """d_i e when e = s_i d_i e: no free vertex enters at i + 1 and i is
        flat; else None."""
        n, ts = e
        if not self.rows[n].flat >> i & 1 or i + 1 in ts:
            return None
        return self.act(e, j, delta.coface(i, j))

    def _naming(self, n: int) -> tuple[tuple[str, ...], tuple[tuple[str, int], ...]]:
        """Row n's bead names, and its vertices in name order, each with its
        position among the free vertices (-1 for a joint); memoized per row."""
        hit = self._namings.get(n)
        if hit is None:
            row = self.rows[n]
            pos = {v: p for p, v in enumerate(row.free)}
            order = sorted(row.joints + row.free)
            hit = self._namings[n] = (tuple(map(self.beads.name, row.beads)),
                                      tuple((v, pos.get(v, -1)) for v in order))
        return hit

    def names(self, e: tuple[int, tuple[int, ...]]) -> HomElement:
        """The name form (beads, chain) of e."""
        n, ts = e
        beads, order = self._naming(n)
        times = [(v, ts[p] if p >= 0 else 0) for v, p in order]
        return beads, tuple([tuple([v for v, t in times if t <= r])
                             for r in range(self.rows[n].j + 1)])

    def entries(self, j: int, e: HomElement) -> tuple[int, tuple[int, ...]]:
        """The element (n, ts) of a name-form element of level j; SSetError
        unless its chain is a saturated chain of its necklace."""
        beads, ch = e
        n = self._named.get((j, beads))
        if n is None:
            origin = self.level(j).origin
            if not all(g in origin for g in beads):
                raise SSetError(f"beads {beads!r} are not all generators of level {j}")
            n = self._named[(j, beads)] = self.row(
                j, tuple(self.beads.id(origin[g].gen, origin[g].vword) for g in beads))
        enter: dict[str, int] = {}
        for r, S in enumerate(ch):
            for v in S:
                enter.setdefault(v, r)
        out = (n, tuple([enter.get(v, 0) for v in self.rows[n].free]))
        if 0 in out[1] or self.names(out) != e:  # a free vertex in S_0 or in no S_r
            raise SSetError("the chain does not saturate the necklace")
        return out

    def build(self, levels, prefix: str) -> None:
        """Materialize the hom space from levels up to the bound: mat on the
        elements (n, ts), space with elem_of, expand and to_nf in the name form."""
        self.mat = mat = materialize(levels, self.act, self.bound, prefix=prefix, degen=self.degen)
        self.space = Materialized(mat.sset, lambda j, e: mat.to_nf(j, self.entries(j, e)),
                                  _Named(mat.elem_of, self.names),
                                  lambda x: self.names(mat.expand(x)))


class _Named(Mapping):
    """Generator id -> element in name form, converted on lookup."""

    def __init__(self, elems: dict, names):
        self._elems = elems
        self._names = names

    def __getitem__(self, g: str) -> HomElement:
        return self._names(self._elems[g])

    def __iter__(self):
        return iter(self._elems)

    def __len__(self) -> int:
        return len(self._elems)


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
