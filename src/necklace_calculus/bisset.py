"""Finite bisimplicial sets: the n = 2 case of the engine in `sset`.

Axis 0 is horizontal (the categorical direction), axis 1 vertical (the space
direction).  Generators carry a bidegree (m, k), faces are stored per axis as
`hfaces` and `vfaces`, and a normal form is (hword, vword, gen); operators,
validation, maps, materialization, colimits, isomorphism search and map
enumeration are the shared n-fold code of `sset` and `ops`.  A Segal
precategory is a bisimplicial set whose row 0 is a discrete vertex set.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from . import delta
from .delta import Monotone, Word
from .ops import Diagram, _colimit, _span, pi0
from .shapes import simplex, simplex_operator, subset_id
from .sset import (NF, GradedSet, SSet, SSetError, SSetMap, _materialize, identity_map,
                   materialize, nd)


class BiNF(NamedTuple):
    hword: Word
    vword: Word
    gen: str


def bnd(gen: str) -> BiNF:
    return BiNF((), (), gen)


class BiMap(SSetMap):
    """A bisimplicial map, stored on generators."""


class BiSSet(GradedSet):
    """A finite bisimplicial set; immutable after construction."""

    nf_type = BiNF
    map_type = BiMap

    def __init__(self, gens: Iterable[tuple[str, tuple[int, int]]],
                 hfaces: Mapping[str, tuple[BiNF, ...]],
                 vfaces: Mapping[str, tuple[BiNF, ...]],
                 labels: Optional[Mapping[str, str]] = None, validate: bool = True):
        super().__init__(((g, tuple(mk)) for g, mk in gens), (hfaces, vfaces), labels, validate)

    def _index(self) -> None:
        self.hfaces, self.vfaces = self._faces
        self.h_bound = max((mk[0] for mk in self._by_deg), default=-1)
        self.v_bound = max((mk[1] for mk in self._by_deg), default=-1)
        self._order = [g for mk in sorted(self._by_deg) for g in sorted(self._by_deg[mk])]

    def gens(self) -> list[str]:
        return list(self._order)

    def bidegree(self, g: str) -> tuple[int, int]:
        return self._deg[g]

    def bidim(self, e: BiNF) -> tuple[int, int]:
        return self.degree(e)

    def gens_at(self, m: int, k: int) -> list[str]:
        return sorted(self._by_deg.get((m, k), ()))

    def nd_counts(self) -> dict[tuple[int, int], int]:
        return {mk: len(self._by_deg[mk]) for mk in sorted(self._by_deg)}

    def act(self, e: BiNF, mu_h: Optional[Monotone] = None,
            mu_v: Optional[Monotone] = None) -> BiNF:
        """e composed with mu_h horizontally, then with mu_v vertically (None: the
        identity); SSetError if one is not monotone into e's degree on its axis."""
        if mu_h is not None:
            e = self._act_axis(e, 0, mu_h)
        if mu_v is not None:
            e = self._act_axis(e, 1, mu_v)
        return e

    # -- derived structure -----------------------------------------------------

    def level(self, k: int) -> "LevelSSet":
        """The horizontal simplicial set W_{-,k}."""
        return LevelSSet(self, k)

    def row0(self) -> list[str]:
        """Vertex names of row 0 (requires discreteness)."""
        if not self.row0_discrete():
            raise SSetError("row 0 is not discrete")
        return self.gens_at(0, 0)

    def row0_discrete(self) -> bool:
        return all(k == 0 for m, k in self._by_deg if m == 0)

    def column0(self) -> SSet:
        """The vertical simplicial set W_0 = W_{0,-} on its own generators."""
        gens = [(g, self._deg[g][1]) for g in self._order if self._deg[g][0] == 0]
        faces = {}
        for g, k in gens:
            if k == 0:
                continue
            fs = []
            for f in self.vfaces[g]:
                if f.hword:
                    raise SSetError("column 0 is not closed under vertical faces")
                fs.append(NF(f.vword, f.gen))
            faces[g] = tuple(fs)
        return SSet(gens, faces, validate=False)

    def __repr__(self):
        return f"BiSSet(nd_counts={self.nd_counts()})"


BI_EMPTY = BiSSet([], {}, {})
bi_identity = identity_map


def level_id(W: BiSSet, g: str, vword: Word) -> str:
    """The name of s_vword g in a level slice of W: "g@vword", except that a
    bidegree-(0, 0) generator keeps its own name at every level (its vertical
    degeneracy word is determined by the level); this makes vertex names
    level-independent over a discrete row 0."""
    if not vword or W.bidegree(g) == (0, 0):
        return g
    return g + "@" + ".".join(map(str, vword))


class LevelSSet(SSet):
    """The horizontal simplicial set W_{-,k} of a bisimplicial set, its
    generators named by level_id."""

    def __init__(self, W: BiSSet, k: int):
        self.W = W
        self.k = k
        gens = []
        faces = {}
        origin = {}
        for g in W.gens():
            gm, gk = W.bidegree(g)
            if gk > k:
                continue
            for vw in delta.all_words(k - gk, k):
                gid = level_id(W, g, vw)
                origin[gid] = BiNF((), vw, g)
                gens.append((gid, gm))
        self.origin = origin
        named: dict[tuple[BiNF, Word], NF] = {}  # s_vw f in this level, per face f and word vw
        for gid, gm in gens:
            if gm == 0:
                continue
            # horizontal and vertical operators commute: d_i s_vw g = s_vw d_i g
            vw, g = origin[gid][1:]
            fs = []
            for f in W.hfaces[g]:
                nf = named.get((f, vw))
                if nf is None:
                    d = W._degenerate(((), vw), f)
                    nf = named[(f, vw)] = NF(d.hword, level_id(W, d.gen, d.vword))
                fs.append(nf)
            faces[gid] = tuple(fs)
        super().__init__(gens, faces, validate=False)


# -- materialization and colimits ----------------------------------------------


class BiMaterialized(NamedTuple):
    bisset: BiSSet
    to_nf: Callable[[int, int, object], BiNF]
    elem_of: dict[str, object]
    expand: Callable[[BiNF], object]


def materialize_bi(levels: Callable[[int, int], list],
                   act: Callable[[object, tuple[int, int], Optional[Monotone], Optional[Monotone]], object],
                   h_bound: int, v_bound: int, prefix: str = "x") -> BiMaterialized:
    """Bi-graded sset.materialize: levels(m, k), act(e, (m, k), mu_h, mu_v) with
    one of the two operators None, to_nf(m, k, e) and its inverse expand(e);
    ids are prefix + "m_k_n"."""
    return BiMaterialized(*_materialize(BiSSet, levels, act, (h_bound, v_bound), prefix))


def external(X: SSet, Y: SSet) -> BiSSet:
    """The external product X box Y: generators are pairs, faces act per direction."""
    gens = []
    hfaces = {}
    vfaces = {}
    for gx in X.gens():
        for gy in Y.gens():
            gid = f"{gx}|{gy}"
            m, k = X.gen_dim(gx), Y.gen_dim(gy)
            gens.append((gid, (m, k)))
            if m > 0:
                hfaces[gid] = tuple(BiNF(f.word, (), f"{f.gen}|{gy}") for f in X.faces[gx])
            if k > 0:
                vfaces[gid] = tuple(BiNF((), f.word, f"{gx}|{f.gen}") for f in Y.faces[gy])
    return BiSSet(gens, hfaces, vfaces, validate=False)


def horizontal(X: SSet) -> BiSSet:
    """X placed in the horizontal direction, vertically discrete."""
    gens = [(g, (X.gen_dim(g), 0)) for g in X.gens()]
    hfaces = {g: tuple(BiNF(f.word, (), f.gen) for f in X.faces[g])
              for g in X.gens() if X.gen_dim(g) > 0}
    return BiSSet(gens, hfaces, {}, labels=X.labels, validate=False)


def vertical(Y: SSet) -> BiSSet:
    """Y placed in the vertical direction, horizontally constant."""
    gens = [(g, (0, Y.gen_dim(g))) for g in Y.gens()]
    vfaces = {g: tuple(BiNF((), f.word, f.gen) for f in Y.faces[g])
              for g in Y.gens() if Y.gen_dim(g) > 0}
    return BiSSet(gens, {}, vfaces, labels=Y.labels, validate=False)


def diag(W: BiSSet) -> "Materialized":
    """The diagonal simplicial set, (diag W)_j = W_{j,j}."""
    bound = W.h_bound + W.v_bound

    def levels(d):
        return W.simplices(d, d)

    def act(e, d, mu):
        return W.act(e, mu_h=mu, mu_v=mu)

    return materialize(levels, act, max_dim=max(bound, -1) if not W.is_empty() else -1,
                       prefix="dg")


class BiColimit(NamedTuple):
    bisset: BiSSet
    cocone: dict[str, BiMap]
    reps: dict[str, tuple[str, BiNF]]


def bi_colimit(diag_: Diagram) -> BiColimit:
    """Colimit of a diagram of bisimplicial sets."""
    return BiColimit(*_colimit(diag_, BI_EMPTY))


def bi_pushout(f: BiMap, g: BiMap) -> BiColimit:
    return bi_colimit(_span(f, g))


def rename_gens(W: BiSSet, mapping: Mapping[str, str]) -> BiSSet:
    def r(g: str) -> str:
        return mapping.get(g, g)

    gens = [(r(g), W.bidegree(g)) for g in W.gens()]
    hfaces = {r(g): tuple(BiNF(f.hword, f.vword, r(f.gen)) for f in fs)
              for g, fs in W.hfaces.items()}
    vfaces = {r(g): tuple(BiNF(f.hword, f.vword, r(f.gen)) for f in fs)
              for g, fs in W.vfaces.items()}
    labels = {r(g): lab for g, lab in W.labels.items()}
    return BiSSet(gens, hfaces, vfaces, labels=labels, validate=False)


def external_map(fX: "SSetMap", fY: "SSetMap", src: BiSSet, dst: BiSSet) -> BiMap:
    """The map of external products induced by maps of the two factors."""
    assign = {}
    for gx in fX.src.gens():
        for gy in fY.src.gens():
            ix, iy = fX.assign[gx], fY.assign[gy]
            assign[f"{gx}|{gy}"] = BiNF(ix.word, iy.word, f"{ix.gen}|{iy.gen}")
    return BiMap(src, dst, assign, validate=False)


# -- discretization (the left adjoint L) ---------------------------------------


_PT = simplex(0)


def discretize(A: BiSSet) -> BiColimit:
    """Collapse column 0 to its path components: the reflection into precategories."""
    col0 = A.column0()
    comps, index = pi0(col0)
    c1 = external(_PT, col0)  # horizontally constant on W_0
    pi = SSet([(f"c{i}", 0) for i in range(len(comps))], {})
    c0 = external(_PT, pi)
    f = BiMap(c1, A, {f"0|{g}": BiNF((), (), g) for g in col0.gens()}, validate=False)
    g_assign = {}
    for g in col0.gens():
        k = col0.gen_dim(g)
        v = col0.vertices(nd(g))[0]
        word = tuple(range(k - 1, -1, -1))
        g_assign[f"0|{g}"] = BiNF((), word, f"0|c{index[v]}")
    g = BiMap(c1, c0, g_assign, validate=False)
    return bi_pushout(f, g)


class LF(NamedTuple):
    """The discretized product L(Delta[m] box X), with its quotient bookkeeping."""

    m: int
    X: "SSet"
    product: BiSSet
    W: BiSSet
    q: BiMap  # product -> W
    cls: Callable[[BiNF], BiNF]  # product elements -> W elements
    rep: dict[str, BiNF]  # W generators -> product representatives


def lf(m: int, X: "SSet") -> LF:
    """L F[m, X]: row 0 has (m+1) * |pi0 X| vertices named i or i.c."""
    A = external(simplex(m), X)
    quot = discretize(A).cocone["X"]
    comps, index = pi0(X)
    ren = {}
    for i in range(m + 1):
        for ci, comp in enumerate(comps):
            cl = quot(bnd(f"{subset_id([i])}|{comp[0]}"))
            ren[cl.gen] = str(i) if len(comps) == 1 else f"{i}.{ci}"
    W = rename_gens(quot.dst, ren)

    def cls(e: BiNF) -> BiNF:
        out = quot(e)
        return BiNF(out.hword, out.vword, ren.get(out.gen, out.gen))

    q = BiMap(A, W, {g: cls(bnd(g)) for g in A.gens()}, validate=False)
    # the least product generator sent to each generator of W: q keeps
    # degeneracy, so no degenerate simplex is sent to a generator
    rep = {}
    for x in A.gens():
        img = q.assign[x]
        if not img.hword and not img.vword:
            rep.setdefault(img.gen, bnd(x))
    for g in W.gens():
        if g not in rep:
            raise SSetError(f"no product representative for {g!r}")
    return LF(m, X, A, W, q, cls, rep)


def lf_map(src: LF, dst: LF, mu, f: "SSetMap") -> BiMap:
    """L[mu, f]: L F[m, X] -> L F[m', Y] for mu: [m] -> [m'] and f: X -> Y."""
    op = simplex_operator(mu, dst.m)
    pm = external_map(op, f, src.product, dst.product)
    return BiMap(src.W, dst.W, {g: dst.cls(pm(src.rep[g])) for g in src.W.gens()})


def lf_induced(src: LF, target: BiSSet, pm: BiMap) -> BiMap:
    """The map L F[m, X] -> target induced by a map on the underlying product."""
    return BiMap(src.W, target, {g: pm(src.rep[g]) for g in src.W.gens()})

