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
  from W alone: a bead's row-0 vertices are read from W's horizontal faces,
  its name in a level slice is `bisset.level_id`, the slice's own naming,
  and its cuts are read on W's horizontal faces, so no hom space builds or
  keeps a level slice;
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
- a hom build is the necklace action (`_Necklaces`: the table, the beads and
  the operator tables) and the space materialized from it, whose operators
  read the action; the action never points at the space, and nothing a
  Categorification owns points back at it, so reference counting frees them
  with it;
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
  on W's horizontal faces once per (W generator, joined, dropped), the cut
  commuting with vertical degeneracies; beads are integer ids in tables the
  Categorification owns;
- a j-simplex is s_i of its face exactly when no free vertex enters at
  i + 1 and i is flat.
The hom space speaks this form only: its `elem_of`, `expand` and `to_nf`
read and give (row, entry times), and `to_nf` refuses an entry time outside
[1, j].  Callers that build an element from its beads, by key (W generator,
vertical word), and the entry times of their vertices go through
`Categorification.element`.  The name form (bead names, chain of vertex-name
sets) is the tests' reference form, in `tests/oracles.py`.

Enriched functors and composition are read from tables:
- a functor from `cfunctor` is simplicial, so by Eilenberg-Zilber it is fixed
  by its values on generators: it computes the image of a source hom
  generator once, in a table its closure owns, and maps s_w x to s_w of x's
  image; a generator is mapped on its element, a map of necklaces sending a
  flag by image: a bead (x, w) goes to the root of f(s_w x) and drops out
  when that has horizontal degree 0, and each image vertex enters at the
  least entry time of its preimages;
- `comp_el` reads the wedge on (row, entry times), the beads of both rows
  and their entry times side by side, and memoizes each composite per
  (a, b, c, g, f), in a table the Categorification owns;
- faces of normal forms go through `delta.face_of_word`, a bounded lookup.

Building a Categorification is the one 1-orderedness gate, and every hom
space relies on it: each level slice up to the bound must pass
`ops.is_1_ordered`, which reads vertices and spines from the level's face
table.  Vertical s_0 embeds W_{-,j} in W_{-,j+1} as an injective simplicial
map that keeps vertex names and spines (Dugger and Spivak, section 4), so a
failure at level j recurs at every level above: the gate checks the level
`bound` alone, and only when that fails does it check the levels 0..bound in
turn, to name the first failing level and its witness.  It builds that one
slice and keeps none; `level(j)` builds W's level-j slice on each call.
"""

from __future__ import annotations

import bisect
import copy
import functools
import itertools
import math
import threading
from collections.abc import Iterable, Mapping
from operator import itemgetter
from typing import NamedTuple, Optional

from . import delta
from .bisset import BiMap, BiNF, BiSSet, LevelSSet, bnd, level_id
from .cubes import _entry_times
from .necklace import Bead, UnsupportedInput, bead_paths, bead_table, cut_bead, fold_beads
from .ops import is_1_ordered
from .scat import EnrichedFunctor, SCat
from .sset import NF, Materialized, SSet, SSetError, materialize


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
        self._homs: dict[tuple[str, str], tuple[_Necklaces, Materialized]] = {}
        self._comp_cache: dict[tuple[str, str, str, NF, NF], NF] = {}
        self._one_bead: dict[tuple[str, str], tuple[str, ...]] = {}
        self._level_beads = _LevelBeads(W)
        self._times_cache: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}
        self._order_cache: dict[tuple, list[tuple[int, ...]]] = {}
        self._table: Optional[dict[str, list[Bead]]] = None
        # the largest hom_bound over all pairs: the weights are >= 0, so the
        # largest over all bead paths
        self.bound = bound if bound is not None else max(
            self._longest(self.objects, set(self.objects)).values(), default=0)
        # vertical s_0 embeds each level slice in the next: the top level
        # decides, and only its failure scans the levels for the first one
        if not is_1_ordered(W.level(self.bound))[0]:
            for j in range(self.bound + 1):
                ok, wit = is_1_ordered(W.level(j))
                if not ok:
                    raise UnsupportedInput(f"level {j} is not 1-ordered ({wit.condition})",
                                           witness=(j, wit))

    def _beads(self) -> dict[str, list[Bead]]:
        """The bead table: each W generator g of bidegree (m, k), m >= 1, as a
        Bead with its row-0 vertices, read from W's horizontal faces, so no
        level slice is built for it.  With a user bound below k, g is left
        out: no walk under that bound reaches it."""
        if self._table is None:
            cap = math.inf if self.user_bound is None else self.user_bound
            verts = self._level_beads.verts
            self._table = bead_table((g, k, verts(g)) for g in self.W.gens()
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

    def level(self, j: int) -> LevelSSet:
        """The level-j slice of W, built on each call; the Categorification keeps none."""
        return self.W.level(j)

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

    def _hom_level(self, a: str, b: str, table: "_Necklaces", paths, j: int
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
        from a to b, on the elements (row, entry times) of its own necklace
        table.  Every level slice up to the bound was checked to be 1-ordered
        when the Categorification was built.  The build is its necklace table
        and then the space that reads it, which the table never points at."""
        key = (a, b)
        if key not in self._homs:
            if a not in self.objects or b not in self.objects:
                raise SSetError(f"endpoints {a!r}, {b!r} must be vertices of K")
            paths = functools.cache(lambda: list(map(_path_data, bead_paths(self._beads(), a, b))))
            table = _Necklaces(self._level_beads, self.hom_bound(a, b))
            build = (table, table.materialize(
                functools.partial(self._hom_level, a, b, table, paths), f"h{a}.{b}_"))
            self._homs.setdefault(key, build)  # published whole; the first build wins
        return self._homs[key][1]

    def _hom_build(self, a: str, b: str) -> tuple["_Necklaces", Materialized]:
        """The build of Hom(a, b): its necklace table and its space."""
        self.hom(a, b)
        return self._homs[(a, b)]

    def hom_sset(self, a: str, b: str) -> SSet:
        return self.hom(a, b).sset

    def id_element(self, a: str) -> str:
        return self.element(a, a, 0, ((a, ()),), {}).gen

    def element(self, a: str, b: str, j: int, beads: Iterable[tuple[str, delta.Word]],
                enter: Mapping[str, int]) -> NF:
        """The normal form of the level-j element of Hom(a, b) on the necklace
        of beads, each given by its key (W generator, vertical word), whose
        free vertices v enter the saturated chain at step enter[v].  The beads
        must be a path from a to b at level j."""
        (table, space), lb = self._hom_build(a, b), self._level_beads
        n = table.row(j, tuple([lb.id(x, w) for x, w in beads]))
        return space.to_nf(j, (n, tuple([enter[v] for v in table.rows[n].free])))

    def comp_el(self, a: str, b: str, c: str, g: NF, f: NF) -> NF:
        """The composite of f in Hom(a, b) and g in Hom(b, c), at g's level:
        the wedge of their necklaces and the join of their chains, read on the
        elements (row, entry times).  Memoized per (a, b, c, g, f) in a table
        the Categorification owns."""
        key = (a, b, c, g, f)
        hit = self._comp_cache.get(key)
        if hit is not None:
            return hit
        (hg, sg), (hf, sf), (hc, sc) = (self._hom_build(b, c), self._hom_build(a, b),
                                        self._hom_build(a, c))
        j = sg.sset.dim(g)
        ng, tg = sg.expand(g)
        nf, tf = sf.expand(f)
        rg, rf = hg.rows[ng], hf.rows[nf]
        # the wedge's free vertices are f's, then g's, each entering as before
        if len(rf.joints) == 1:  # f is the point necklace
            beads = rg.beads
        elif len(rg.joints) == 1:
            beads = rf.beads
        else:
            beads = rf.beads + rg.beads
        hit = self._comp_cache[key] = sc.to_nf(j, (hc.row(j, beads), tf + tg))
        return hit

    def one_bead(self, a: str, b: str) -> tuple[str, ...]:
        """The generators of Hom(a, b) whose necklace is a single bead, listed
        once per (a, b) in a table the Categorification owns.  Every
        simplex of a hom is the wedge of its beads, each with the entry times
        of its own free vertices, and a bead's simplex is a degeneracy of a
        one-bead generator (a degeneracy keeps the beads), so with their
        degeneracies these generate the homs under composition, level by
        level (Dugger and Spivak, Rigidification of quasi-categories,
        AGT 11, 2011)."""
        hit = self._one_bead.get((a, b))
        if hit is None:
            table, space = self._hom_build(a, b)
            rows, elem_of = table.rows, space.elem_of
            hit = self._one_bead.setdefault((a, b), tuple(
                g for g in space.sset.gens() if len(rows[elem_of[g][0]].beads) == 1))
        return hit

    def scat(self) -> SCat:
        hom = {(a, b): self.hom_sset(a, b)
               for a, b in itertools.product(self.objects, repeat=2)}
        ids = {a: self.id_element(a) for a in self.objects}
        return SCat(self.objects, hom, self.comp_el, ids, hom_bound=self.bound)

    def handle(self) -> "Categorification":
        """Another Categorification object over this one's tables: a bead, hom
        space or composite built through either is there for both.
        What is asked of a handle is counted per object (perfbench's tracer
        counts a hom build per categorification object and arguments)."""
        return copy.copy(self)

    def hom_report(self, a: str, b: str) -> dict:
        """Generator counts of Hom(a, b) against the a-priori degree bound."""
        counts = self.hom_sset(a, b).nd_counts()
        return {
            "nd_counts": counts,
            "degree_bound": self._homs[(a, b)][0].bound,  # hom_sset built it
            "top_degree": max((d for d, c in enumerate(counts) if c), default=-1),
            "complete": self.user_bound is None,
        }


class _LevelBeads:
    """The beads of a Categorification's level slices by integer id, read
    from W alone.

    Bead s_w x is a W generator x (an object, for the point necklace) under
    a vertical degeneracy word w; it lives in the level-(k + len(w)) slice for
    x of vertical degree k, under the name bisset.level_id gives it there.
    The vertices of x, its transport along a vertical operator and its cuts
    are each read once, into tables this object owns for the
    Categorification's lifetime.  Ids are handed out under a lock, and an id
    is published only once its key is stored, so threads sharing the
    Categorification agree on them."""

    def __init__(self, W: BiSSet):
        self.W = W
        self._lock = threading.Lock()
        self.keys: list[tuple[str, delta.Word]] = []  # bead id -> (x, w)
        self._ids: dict[tuple[str, delta.Word], int] = {}
        self._verts: dict[str, tuple[str, ...]] = {}
        # per mu: its coface index (or None), and each bead's image
        self._moved: dict[delta.Monotone, tuple[Optional[int], dict[int, int]]] = {}
        self._cuts: dict[tuple[int, tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}
        self._pieces: dict[tuple[str, tuple[int, ...], tuple[int, ...]],
                           tuple[tuple[delta.Word, str], ...]] = {}

    def id(self, x: str, w: delta.Word) -> int:
        b = self._ids.get((x, w))
        if b is None:
            with self._lock:
                b = self._ids.get((x, w))
                if b is None:
                    self.keys.append((x, w))
                    b = self._ids[(x, w)] = len(self.keys) - 1
        return b

    def name(self, b: int) -> str:
        """The generator id of bead b in its level slice."""
        return level_id(self.W, *self.keys[b])

    def verts(self, x: str) -> tuple[str, ...]:
        """The row-0 vertices of W generator x, read from W's horizontal faces:
        row 0 is discrete, so each is a bidegree-(0, 0) generator, under the
        name it has in every level slice."""
        vs = self._verts.get(x)
        if vs is None:
            W = self.W
            vs = self._verts[x] = tuple([W._apply_mono(x, 0, (i,)).gen
                                         for i in range(W.bidegree(x)[0] + 1)])
        return vs

    def transport(self, beads: tuple[int, ...], mu: delta.Monotone) -> list[int]:
        """Each bead moved along mu vertically, memoized per (bead, mu): s_w x
        goes to s_w' y, y being x or a vertical face of x.  A coface d^r into
        the bead's level is read from W's vertical face table (GradedSet._face);
        any other operator, such as an epi of expand, goes through W's action.
        Whether mu is a coface is settled before its table is published."""
        moved = self._moved.get(mu)
        if moved is None:
            moved = self._moved.setdefault(mu, (delta.coface_index(mu), {}))
        r, moved = moved
        out = []
        for b in beads:
            hit = moved.get(b)
            if hit is None:
                x, w = self.keys[b]
                e = BiNF((), w, x)
                if r is not None and self.W._deg[x][1] + len(w) == len(mu):
                    binf = self.W._face(e, 1, r)
                else:
                    binf = self.W.act(e, mu_v=mu)
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
        the cut is that of x along W's horizontal faces, by necklace.cut_bead
        (the cut of each bead in sub_necklace) once per (x, joined, dropped),
        with s_w put on each piece."""
        hit = self._cuts.get((b, joined, dropped))
        if hit is None:
            x, w = self.keys[b]
            k = self.W.bidegree(x)[1]
            pieces = self._pieces.get((x, joined, dropped))
            if pieces is None:
                vs = self.verts(x)
                cut = cut_bead(self.W, x, vs, {vs[0], vs[-1], *(vs[1 + p] for p in joined)},
                               set(vs).difference(vs[1 + p] for p in dropped))
                if cut is None:
                    raise SSetError("saturation failed")
                pieces = self._pieces[(x, joined, dropped)] = tuple(f[1:] for f in cut)
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


class _Necklaces:
    """The necklace table of one hom build and the action on its elements.

    An element at level j is (n, ts): row n of the table, a necklace of the
    level-j slice, and the step in [1, j] at which each of the row's free
    vertices enters the saturated chain J = S_0 < ... < S_j = V.  A monotone
    mu sends an entry time t to min{r : t <= mu(r)}; a vertex that lands at 0
    joins the joints, one beyond mu's last value leaves the necklace.  The
    necklace side of mu is one lookup per (row, mu, vertices joined, vertices
    dropped), filled once from the beads' transport and cuts.  The table never
    points at the space materialized from it, so both are freed with their
    Categorification."""

    def __init__(self, beads: _LevelBeads, bound: int):
        self._lock = threading.Lock()  # rows are added as ids are: stored, then published
        self.beads = beads
        self.bound = bound
        self.rows: list[_Row] = []
        self._index: dict[tuple[int, ...], int] = {}
        # per (mu, level): each entry time's image, the necklace side of mu
        # per row (and vertices joined and dropped), and whether mu is outer
        self._by_mu: dict[tuple[delta.Monotone, int], tuple[tuple[int, ...], dict, bool]] = {}

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

    def materialize(self, levels, prefix: str) -> Materialized:
        """The hom space materialized from levels up to the bound, on the
        elements (n, ts); its to_nf refuses an element whose row is not of its
        level or whose entry times are not one per free vertex in [1, j]."""
        mat = materialize(levels, self.act, self.bound, prefix=prefix, degen=self.degen)
        rows, lookup = self.rows, mat.to_nf

        def to_nf(j: int, e: tuple[int, tuple[int, ...]]) -> NF:
            n, ts = e
            row = rows[n]
            if row.j != j or len(ts) != len(row.free) or not all(0 < t <= j for t in ts):
                raise SSetError("the entry times do not saturate the necklace")
            return lookup(j, e)

        return mat._replace(to_nf=to_nf)


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
    on_obj = {a: f(bnd(a)).gen for a in Csrc.objects}
    table: dict[tuple[str, str, str], tuple[NF, SSet]] = {}

    def on_gen(a: str, b: str, g: str) -> NF:
        """The image of generator g of Hom(a, b), read on its element: each
        bead (x, w) goes to the root of f(s_w x), which keeps f's vertical
        word merged with w, and drops out when that root is a vertex; each
        image vertex enters at the least entry time of its preimages, a
        joint's being 0.  With no bead left, the image is the point at a.  No
        bead needs a cut: image vertices run along the image path in the order
        of their preimages, the target's levels being 1-ordered, so a joint
        maps to the end of an image bead, and to_nf would refuse an inner
        vertex entering at 0."""
        src, space = Csrc._hom_build(a, b)
        n, ts = space.elem_of[g]
        row = src.rows[n]
        beads = []
        for x, w in map(src.beads.keys.__getitem__, row.beads):
            binf = f(BiNF((), w, x))
            if Cdst.W.bidegree(binf.gen)[0]:
                beads.append((binf.gen, binf.vword))
        enter = dict.fromkeys(map(on_obj.__getitem__, row.joints), 0)
        for v, t in zip(row.free, ts):
            u = on_obj[v]
            enter[u] = min(t, enter.get(u, t))
        if not beads:
            beads = [(on_obj[a], tuple(range(row.j - 1, -1, -1)))]
        return Cdst.element(on_obj[a], on_obj[b], row.j, beads, enter)

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
