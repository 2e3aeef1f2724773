"""Straightening over a Segal precategory, its closed forms, and unstraightening.

A cell of W is straightened by left Kan extending the universal representable
case along its categorified classifying map; the classical route through the
one-point extension W_sigma is kept (w_sigma), and verify's `stvssigma` check
compares the two routes on the cells of horizontal(Delta[2]).  General objects
over W are straightened by gluing the cellwise results along the face
relations of the total object.  Every categorification is built through
`categorify`, which checks that its level slices are 1-ordered.

Each construction is built in one place:
- extension(m, Y): LF[m, Y] -> LF[m+1, Y] along the last coface (last_coface);
- cat_lf(j, Y): LF[j, Y] with its categorification;
- full_rep(lo, hi): the full representable, values Hom_{c LF[m+1, Y]}(-, m+1),
  from the categorified LF[m, Y] and LF[m+1, Y], behind Straightener.full and
  checked_full_rep (straighten_full, straighten_last_vertex, projection_pi);
- the universal cases over LF[m, Delta[k]], which depend on (m, k) alone: each
  LF[j, Delta[k]] with its categorification, each full(m, k) and each
  transport between universal extensions.  An entry on shapes with
  j + k <= 4 only is built once per process, in a process-wide table that
  never lets it go (universal_cache_info reports it); one on a larger shape
  is built by the Straightener that needs it and kept there.  Either way
  full(m, k) and full(m+1, k) share LF[m+1, Delta[k]], its categorification
  and its homs;
- glue_suspension(fr, Y): c LF[m, Y] glued at m to Sigma Y, behind
  straighten_last_vertex and projection_pi;
- one_point_pushout(ext, right): LF[m+1, Y] glued along LF[m, Y], behind w_sigma
  and cone;
- bead(L, alpha, y): the key (W generator, vertical word) of the bead of c L on
  a vertex subset of Delta[m], as Categorification.element reads it.
"""

from __future__ import annotations

import threading
from typing import Callable, NamedTuple, Optional

from . import delta
from .bisset import (BiColimit, BiMap, BiNF, BiSSet, LF, bi_pushout, bnd, external,
                     external_map, lf, lf_induced, lf_map, materialize_bi, rename_gens)
from .categorify import Categorification, categorify, cfunctor
from .cubes import weight_F, weighted_colim
from .kan import CoendTable, LanResult, enriched_lan
from .necklace import UnsupportedInput
from .ops import Colimit, Diagram, colimit, induced_map, is_connected
from .scat import (EnrichedFunctor, NatTrans, Presheaf, SCat, enumerate_nat_trans,
                   glue_end, suspension)
from .shapes import point, simplex, simplex_operator, subset_id
from .sset import NF, SSet, SSetError, SSetMap, constant_map, identity_map, nd


class Cell(NamedTuple):
    """A cell of W: a map F[m, k] -> W, named by its image element."""

    m: int
    k: int
    el: BiNF


def delta_precat(n: int) -> LF:
    """Delta[n] as a precategory with vertices named 0..n."""
    return lf(n, point())


class Extension(NamedTuple):
    """LF[m, Y] -> LF[m+1, Y] along the last coface d^{m+1}."""

    lfm: LF
    lfm1: LF
    face: BiMap


def last_coface(lfm: LF, lfm1: LF) -> BiMap:
    """L[d^{m+1}, id]: LF[m, Y] -> LF[m+1, Y]."""
    m = lfm.m
    return lf_map(lfm, lfm1, delta.coface(m + 1, m + 1), identity_map(lfm.X))


def extension(m: int, Y: SSet) -> Extension:
    lfm, lfm1 = lf(m, Y), lf(m + 1, Y)
    return Extension(lfm, lfm1, last_coface(lfm, lfm1))


def one_point_pushout(ext: Extension, right: BiMap) -> tuple[BiColimit, str]:
    """LF[m+1, Y] <- LF[m, Y] -> Z along the last coface and right, with the
    generator of the new vertex m+1 in the pushout."""
    po = bi_pushout(ext.face, right)
    return po, po.cocone["X"](bnd(str(ext.lfm.m + 1))).gen


def bead(L: LF, alpha, y: NF) -> tuple[str, delta.Word]:
    """The bead of c L on the vertex subset alpha of Delta[m], labelled by y, by
    its key (W generator, vertical word); it lives at y's level."""
    cls = L.cls(BiNF((), y.word, f"{subset_id(alpha)}|{y.gen}"))
    if cls.hword:
        raise SSetError(f"bead on {tuple(alpha)} unexpectedly degenerate")
    return cls.gen, cls.vword


class WSigma(NamedTuple):
    ext: BiSSet
    iota: BiMap  # W -> W_sigma
    top: str


def cell_product_map(W: BiSSet, cell: Cell, lfm: LF) -> BiMap:
    """F[m, k] -> W classifying the cell, read from face tables: the top
    generator goes to the cell, and each face of a generator, in F[m, k]'s
    table, to that face of its image, in W's (GradedSet._face)."""
    F = lfm.product
    gens = sorted(F.gens(), key=lambda g: -sum(F._deg[g]))
    assign = {gens[0]: cell.el}
    for g in gens:
        img = assign[g]
        for a, faces in enumerate(F._faces):
            for i, f in enumerate(faces.get(g, ())):
                if f[-1] not in assign:
                    assign[f[-1]] = W._face(img, a, i)
    return BiMap(F, W, assign, validate=False)


def w_sigma(W: BiSSet, cell: Cell) -> WSigma:
    ext = extension(cell.m, simplex(cell.k))
    po, top = one_point_pushout(ext, lf_induced(ext.lfm, W, cell_product_map(W, cell, ext.lfm)))
    return WSigma(po.bisset, po.cocone["Y"], top)


class FullRep(NamedTuple):
    """St of the identity of LF[m, Y]: values Hom_{c LF[m+1, Y]}(-, m+1).

    coends, its kan.CoendTable, depends on presheaf alone and lives with this
    FullRep, so for as long as whoever keeps it (the table of universal
    straightenings, or the Straightener that built it): each coend colimit by
    the exact key of its restricted representable (kan.coend_key, listing
    the action on the one-bead generators of C), and the components of
    Straightener.st_operator between two of them when both ends' shapes are
    kept, each kind up to its cap (kan.COEND_CAP, kan.OPERATOR_CAP).  Every
    lan of presheaf fills it on first use and publishes entry by entry (the
    first build wins).  Each value of presheaf keeps its own renamed copy,
    the product piece over a point (ops.product), for as long as it lives."""

    m: int
    lfm: LF
    lfm1: LF
    face: BiMap  # the last coface LF[m, Y] -> LF[m+1, Y]
    C: Categorification
    C1: Categorification
    iota: EnrichedFunctor  # c of the last coface
    base: SCat
    presheaf: Presheaf
    coends: CoendTable  # kan.enriched_lan's colimits, and st_operator's maps


class CatLF(NamedTuple):
    """LF[j, Y] with its categorification."""

    L: LF
    C: Categorification


def cat_lf(j: int, Y: SSet) -> CatLF:
    L = lf(j, Y)
    return CatLF(L, categorify(L.W))


def full_rep(lo: CatLF, hi: CatLF) -> FullRep:
    """The full representable over LF[m, Y], from lo = LF[m, Y] and hi = LF[m+1, Y]."""
    m = lo.L.m
    face = last_coface(lo.L, hi.L)
    C, C1 = lo.C, hi.C
    iota = cfunctor(face, C, C1)
    base = C.scat()
    top = str(m + 1)
    values = {a: C1.hom_sset(a, top) for a in C.objects}

    def action(a, b, h, x):
        return C1.comp_el(a, b, top, x, iota.on_hom(a, b, h))

    return FullRep(m, lo.L, hi.L, face, C, C1, iota, base, Presheaf(base, values, action),
                   CoendTable(C.one_bead))


def checked_full_rep(m: int, Y: SSet) -> FullRep:
    """full_rep over LF[m, Y]; categorify checks that every level slice of both
    categorifications is 1-ordered."""
    return full_rep(cat_lf(m, Y), cat_lf(m + 1, Y))


def glue_suspension(fr: FullRep, Y: SSet) -> SCat:
    """c LF[m, Y] u_{[0]} Sigma Y: the suspension glued on at the vertex m."""
    return glue_end(fr.base, suspension(Y), {"0": str(fr.m), "1": str(fr.m + 1)})


# -- the universal cases, shared by every Straightener in the process -------------

# The process-wide table keeps an entry exactly when every shape (j, k) it is
# built on has j + k <= _KEPT.  Those 15 shapes hold 548 hom generators; the
# 6 shapes with j + k = 5 hold 8,708, LF[3, Delta[2]] alone 4,870.
_KEPT = 4


class UniversalCacheInfo(NamedTuple):
    """What universal_cache_info reports; no canonical payload carries it."""

    hits: int
    misses: int
    shapes: int  # LF[j, Delta[k]] kept


class _Universal:
    """St(id) over LF[m, Delta[k]] and what it is built from, which depend on
    (m, k) alone and never on W, on the shapes (j, k) with j + k <= _KEPT:
    - the LF[j, Delta[k]] with their categorifications, by shape (j, k);
    - full(m, k), on the shapes (m, k) and (m + 1, k);
    - the transports c L[mu+1, nu] between universal extensions, keyed
      ("tr", src.m, src.k, dst.m, dst.k, mu_h, mu_v), on the shapes
      (src.m + 1, src.k) and (dst.m + 1, dst.k).
    Nothing is let go, so full(m, k).C1 is full(m + 1, k).C, and each kept
    full keeps its coends (FullRep.coends), which the lans of every
    Straightener fill and read.  Entries are built outside the lock and
    published with setdefault: the first build wins, so threads agree; a
    full's coends are published entry by entry under their table's lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._cats: dict[tuple[int, int], CatLF] = {}
        self._fulls: dict[tuple[int, int], FullRep] = {}
        self._transports: dict[tuple, EnrichedFunctor] = {}
        self._hits = self._misses = 0

    def get(self, table: dict, key, build: Callable[[], object]):
        """table[key], built by build() on a miss."""
        with self._lock:
            hit = table.get(key)
            if hit is not None:
                self._hits += 1
                return hit
            self._misses += 1
        built = build()
        with self._lock:
            return table.setdefault(key, built)

    def info(self) -> UniversalCacheInfo:
        with self._lock:
            return UniversalCacheInfo(self._hits, self._misses, len(self._cats))

    def clear(self) -> None:
        with self._lock:
            self._cats.clear()
            self._fulls.clear()
            self._transports.clear()
            self._hits = self._misses = 0


_UNIVERSAL = _Universal()


def universal_cache_info() -> UniversalCacheInfo:
    """Hits, misses and shapes kept of the table of universal straightenings,
    as lru_cache's cache_info() reports them."""
    return _UNIVERSAL.info()


def universal_cache_clear() -> None:
    """Empty the table of universal straightenings and zero its counts."""
    _UNIVERSAL.clear()


class Straightener:
    """Computes St_W cellwise by left Kan extension of the universal case.

    St_W(sigma) is the extension of St(id) along the categorified classifying
    map of sigma; this is defined for every cell of W, degenerate ones
    included, while the one-point extension of a degenerate cell has no
    1-ordered levels and admits no finite necklace computation.

    St(id) over LF[m, Delta[k]], the LF[j, Delta[k]] with their
    categorifications and the transports come from the process-wide table of
    universal straightenings when it keeps their shapes, and are built here
    otherwise.  A Straightener keeps every entry it used, by shape: _fulls
    (each with its coends, and its presheaf's values with their renamed
    copies, which go with it when the full is one it built), the "tr" keys
    of _ops, and in _cat_lfs the LF[j, Delta[k]] under each full it built,
    so full(m, k).C1 is full(m + 1, k).C on every shape.  _ops also keeps
    each st_operator component it used, and those between coends not both on
    kept shapes by the ends' serials ("op" keys).  Its classifying functors
    read the categorifications through handles of its own
    (Categorification.handle), so the hom spaces a W reads are counted per
    Straightener (perfbench's tracer counts a build per categorification
    object and arguments).
    """

    def __init__(self, W: BiSSet):
        self.W = W
        self.CW = categorify(W)
        self.base_cat = self.CW.scat()
        self._cat_lfs: dict[tuple[int, int], CatLF] = {}
        self._handles: dict[tuple[int, int], Categorification] = {}
        self._fulls: dict[tuple[int, int], FullRep] = {}
        self._lans: dict[Cell, "LanResult"] = {}
        # the product pieces of every lan, by their factors: a hom of base_cat
        # and a value of a universal presheaf in _fulls, both kept here; and
        # kan.coend_key's rows, by (d, Ga, Gb, G(k)) in base_cat
        self._pieces: dict[tuple, object] = {}
        self._ops: dict[tuple, object] = {}

    def _universal(self, own: dict, key, shapes, table: dict, build):
        """own[key], an entry on the given shapes: read from table, one of the
        process-wide table's, when that keeps every shape, else built here."""
        if key not in own:
            kept = all(j + k <= _KEPT for j, k in shapes)
            own[key] = _UNIVERSAL.get(table, key, build) if kept else build()
        return own[key]

    def _cat_lf(self, j: int, k: int) -> CatLF:
        return self._universal(self._cat_lfs, (j, k), ((j, k),), _UNIVERSAL._cats,
                               lambda: cat_lf(j, simplex(k)))

    def full(self, m: int, k: int) -> FullRep:
        """The universal case over LF[m, Delta[k]]."""
        return self._universal(self._fulls, (m, k), ((m, k), (m + 1, k)), _UNIVERSAL._fulls,
                               lambda: full_rep(self._cat_lf(m, k), self._cat_lf(m + 1, k)))

    def sigma_functor(self, cell: Cell):
        """The enriched functor from the categorified representable into c W,
        built anew on each call: lan, which is memoized, asks once per cell."""
        fr = self.full(cell.m, cell.k)
        sig = lf_induced(fr.lfm, self.W, cell_product_map(self.W, cell, fr.lfm))
        shape = (cell.m, cell.k)
        if shape not in self._handles:
            self._handles[shape] = fr.C.handle()
        raw = cfunctor(sig, self._handles[shape], self.CW)
        return EnrichedFunctor(fr.base, self.base_cat, raw.on_obj, raw.on_hom)

    def lan(self, cell: Cell) -> LanResult:
        if cell not in self._lans:
            fr = self.full(cell.m, cell.k)
            self._lans[cell] = enriched_lan(fr.presheaf, self.sigma_functor(cell),
                                            self.base_cat, self._pieces, fr.coends)
        return self._lans[cell]

    # -- representable straightening --------------------------------------------

    def value(self, cell: Cell, a: str) -> SSet:
        return self.lan(cell).colimits[a].sset

    def st_rep(self, cell: Cell) -> Presheaf:
        return self.lan(cell).presheaf

    def _transport(self, src: Cell, dst: Cell, mu_h: delta.Monotone,
                   mu_v: delta.Monotone):
        """c L[mu+1, nu]: the functor between the universal extensions, built
        on the fulls this Straightener holds."""

        def build():
            fs, fd = self.full(src.m, src.k), self.full(dst.m, dst.k)
            lmap = lf_map(fs.lfm1, fd.lfm1, tuple(mu_h) + (dst.m + 1,),
                          simplex_operator(mu_v, dst.k))
            return cfunctor(lmap, fs.C1, fd.C1)

        return self._universal(self._ops, ("tr", src.m, src.k, dst.m, dst.k, mu_h, mu_v),
                               ((src.m + 1, src.k), (dst.m + 1, dst.k)),
                               _UNIVERSAL._transports, build)

    def st_operator(self, src: Cell, dst: Cell, mu_h: delta.Monotone,
                    mu_v: delta.Monotone, a: str) -> SSetMap:
        """Component at a of St_W(dst . delta) -> St_W(dst), with src = dst . delta.

        sigma_src = sigma_dst . delta, so the product pieces p.j of src and
        p.mu_h(j) of dst share their hom factor D(a, Gj), and the component is
        id x the transport on them.  It is a function of the two coends and of
        (mu_h, mu_v), so when both are published CoendTable entries it is
        read by their serials: from the table of dst's FullRep when both
        shapes are kept (then that FullRep outlives both ends), else from this
        Straightener's own."""
        key = (src, dst, mu_h, mu_v, a)
        if key in self._ops:
            return self._ops[key]
        lan_s, lan_d = self.lan(src), self.lan(dst)
        tr = self._transport(src, dst, mu_h, mu_v)

        def build() -> SSetMap:
            col = lan_s.colimits[a]
            assign = {}
            for g in col.sset.gens():
                name, rep = col.reps[g]
                j_src = name.split(".", 1)[1]
                j_dst = str(mu_h[int(j_src)])
                pr = lan_s.products[a][j_src]
                h_el = pr.projections[0](rep)
                x_el = pr.projections[1](rep)
                x_img = tr.on_hom(j_src, str(src.m + 1), x_el)
                target = lan_d.products[a][j_dst].to_nf(col.sset.gen_dim(g), (h_el, x_img))
                assign[g] = lan_d.colimits[a].cocone[f"p.{j_dst}"](target)
            return SSetMap(col.sset, lan_d.colimits[a].sset, assign, validate=False)

        ends = (lan_s.entries[a], lan_d.entries[a])
        if None in ends:
            out = build()
        elif all(m + 1 + k <= _KEPT for m, k in ((src.m, src.k), (dst.m, dst.k))):
            out = self.full(dst.m, dst.k).coends.operator((*ends, mu_h, mu_v), build)
        else:
            out = self._ops.get(("op", *ends, mu_h, mu_v))
            if out is None:
                out = self._ops[("op", *ends, mu_h, mu_v)] = build()
        self._ops[key] = out
        return out

    # -- straightening of arbitrary objects over W ------------------------------

    def st_object(self, P: BiSSet, p: BiMap) -> "StObject":
        return StObject(self, P, p)


class StObject:
    """St_W of a map p: P -> W, computed as a colimit of representable pieces.

    One colimit piece per generator of P, plus one per degenerate face of a
    generator, which glues the generator to the non-degenerate root of that
    face.  A non-degenerate face is a generator with a piece of its own, glued
    to the generator by one edge; the face piece it would get is a copy of it,
    and the class representatives are least by piece name ("c." < "f."), so
    leaving it out changes no output.
    """

    def __init__(self, st: Straightener, P: BiSSet, p: BiMap):
        self.st = st
        self.P = P
        self.p = p
        self._diagrams: dict[str, Colimit] = {}
        self._presheaves: dict[str, Presheaf] = {}
        self._obj_cells: dict[str, Cell] = {}
        self._obj_elem: dict[str, BiNF] = {}
        self._relations: list[tuple[str, str, delta.Monotone, delta.Monotone]] = []
        for g in P.gens():
            self._add_piece(f"c.{g}", bnd(g))
        for g in P.gens():
            m, k = P.bidegree(g)
            for direction, n, faces in (("h", m, P.hfaces), ("v", k, P.vfaces)):
                for i, e in enumerate(faces[g]) if n else ():
                    mu_h = delta.coface(i, m) if direction == "h" else delta.identity(m)
                    mu_v = delta.coface(i, k) if direction == "v" else delta.identity(k)
                    if not (e.hword or e.vword):
                        self._relations.append((f"c.{e.gen}", f"c.{g}", mu_h, mu_v))
                        continue
                    name = f"f.{g}.{direction}{i}"
                    self._add_piece(name, e)
                    self._relations.append((name, f"c.{g}", mu_h, mu_v))
                    m2 = m - (1 if direction == "h" else 0)
                    k2 = k - (1 if direction == "v" else 0)
                    self._relations.append(
                        (name, f"c.{e.gen}", delta.word_to_epi(e.hword, m2),
                         delta.word_to_epi(e.vword, k2)))

    def _add_piece(self, name: str, e: BiNF) -> None:
        m, k = self.P.bidim(e)
        self._obj_cells[name] = Cell(m, k, self.p(e))
        self._obj_elem[name] = e

    def colim(self, a: str) -> Colimit:
        if a in self._diagrams:
            return self._diagrams[a]
        st = self.st
        objects = {name: st.value(cell, a) for name, cell in self._obj_cells.items()}
        diag = Diagram(objects)
        for idx, (src, dst, mu_h, mu_v) in enumerate(self._relations):
            f = st.st_operator(self._obj_cells[src], self._obj_cells[dst], mu_h, mu_v, a)
            diag.add(f"e{idx}", src, dst, f)
        col = colimit(diag)
        self._diagrams[a] = col
        return col

    def value(self, a: str) -> SSet:
        return self.colim(a).sset

    def into(self, a: str, e: BiNF, y: NF) -> NF:
        """Class in value(a) of a piece element y sitting over the P-element e."""
        m, k = self.P.bidim(e)
        cell = Cell(m, k, self.p(e))
        root = Cell(*self.P.bidegree(e.gen), self.p(bnd(e.gen)))
        f = self.st.st_operator(cell, root,
                                delta.word_to_epi(e.hword, m), delta.word_to_epi(e.vword, k), a)
        return self.colim(a).cocone[f"c.{e.gen}"](f(y))

    def presheaf(self) -> Presheaf:
        st = self.st
        values = {a: self.value(a) for a in st.CW.objects}
        for name, cell in self._obj_cells.items():
            if name not in self._presheaves:
                self._presheaves[name] = st.st_rep(cell)

        def action(a, b, h, x):
            # the class reps are generators, so s_w of the rep lies in the class s_w x
            name, y0 = self.colim(b).reps[x.gen]
            z = self._presheaves[name].action(a, b, h, NF(x.word, y0.gen))
            return self.colim(a).cocone[name](z)

        return Presheaf(st.base_cat, values, action)


def st_over_map(src: StObject, dst: StObject, g: BiMap, a: str) -> SSetMap:
    """Component at a of St_W applied to a map g: P -> P' over W."""
    col = src.colim(a)
    assign = {}
    for gen in col.sset.gens():
        name, y = col.reps[gen]
        assign[gen] = dst.into(a, g(src._obj_elem[name]), y)
    return SSetMap(col.sset, dst.value(a), assign)


# -- the Cone pushout and the dual-path straightening formulas -------------------


class Cone(NamedTuple):
    ext: BiSSet  # vertices renamed 0..m+1
    q: BiMap  # Cone -> Delta[m+1] as a precategory


def cone(mu: delta.Monotone, m: int, f: SSetMap) -> Cone:
    """The pushout LF[l+1, X] <- LF[l, X] -> LF[m, Y] with its vertex naming."""
    X, Y = f.src, f.dst
    if not (is_connected(X) and is_connected(Y)):
        raise UnsupportedInput("cone needs connected inputs; decompose first")
    ext, lfm = extension(len(mu) - 1, X), lf(m, Y)
    right = lf_map(ext.lfm, lfm, mu, f)
    po, top = one_point_pushout(ext, right)
    ren = {po.cocone["Y"](bnd(str(i))).gen: str(i) for i in range(m + 1)}
    ren[top] = str(m + 1)
    dp = delta_precat(m + 1)
    legs = {
        "Y": lf_map(lfm, dp, delta.coface(m + 1, m + 1), constant_map(Y, point(), "0")),
        "X": lf_map(ext.lfm1, dp, tuple(mu) + (m + 1,), constant_map(X, point(), "0")),
    }
    legs["A"] = right.then(legs["Y"])
    q_raw = induced_map(po, legs, dp.W, validate=False)
    q = BiMap(rename_gens(po.bisset, ren), dp.W,
              {ren.get(g, g): q_raw.assign[g] for g in q_raw.assign})
    return Cone(q.src, q)


def st_mono_formula(mu: delta.Monotone, m: int, f: SSetMap, i: int) -> SSet:
    """diag of the cube-weighted colimit of the mono weight; decomposes the source."""
    from .ops import component_maps, coproduct

    if is_connected(f.src):
        return weighted_colim(weight_F(mu, f, i, m)).sset
    parts = [weighted_colim(weight_F(mu, fj, i, m)).sset for fj in component_maps(f)]
    return coproduct(parts).sset


def cone_hom(mu: delta.Monotone, m: int, f: SSetMap, i: int,
             cache: Optional[dict] = None) -> SSet:
    """Hom in the categorified Cone from i to m+1, decomposing the source."""
    from .ops import component_maps, coproduct

    if is_connected(f.src):
        key = (tuple(mu),)
        if cache is not None and key in cache:
            C = cache[key]
        else:
            C = categorify(cone(mu, m, f).ext)
            if cache is not None:
                cache[key] = C
        return C.hom_sset(str(i), str(m + 1))
    parts = [cone_hom(mu, m, fj, i) for fj in component_maps(f)]
    return coproduct(parts).sset


# -- closed-form straightenings ---------------------------------------------------


class SpecialSt(NamedTuple):
    presheaf: Presheaf
    base: Categorification
    compare: Optional[dict[str, SSetMap]]  # components into the full straightening


def straighten_full(m: int, Y: SSet) -> SpecialSt:
    """St of [id, id_Y]: values Hom_{c LF[m+1, Y]}(i, m+1)."""
    fr = checked_full_rep(m, Y)
    return SpecialSt(fr.presheaf, fr.C, None)


def _edge_bead(fr: FullRep, y: NF):
    """The single-bead necklace of c LF[m+1, Y] on the edge (m, m+1) labelled by y."""
    return (bead(fr.lfm1, (fr.m, fr.m + 1), y),)


def straighten_last_vertex(m: int, X: SSet) -> SpecialSt:
    """St of [<m>, id_X]: values over the pushout category of LF[m, X] with a cone."""
    if not is_connected(X):
        raise UnsupportedInput("last-vertex straightening needs a connected input")
    fr = checked_full_rep(m, X)
    C, C1, F = fr.C, fr.C1, fr.iota
    glue = glue_suspension(fr, X)
    top = str(m + 1)
    values = {a: glue.hom[(a, top)] for a in C.objects}

    def action(a, b, h, x):
        return glue.comp(a, b, top, x, h)

    pre = Presheaf(fr.base, values, action)
    # the canonical comparison into the full straightening
    compare = {}
    for a in C.objects:
        src = values[a]
        assign = {}
        for g in src.gens():
            d = src.gen_dim(g)
            if a == str(m):
                # hom(m, m+1) = X itself
                assign[g] = C1.element(a, top, d, _edge_bead(fr, nd(g)), {})
            else:
                h1 = glue.cross[(a, top)].projections[0](nd(g))
                y = glue.cross[(a, top)].projections[1](nd(g))
                edge = C1.element(str(m), top, d, _edge_bead(fr, y), {})
                assign[g] = C1.comp_el(a, str(m), top, edge, F.on_hom(a, str(m), h1))
        compare[a] = SSetMap(src, fr.presheaf.value[a], assign)
    return SpecialSt(pre, C, compare)


def pushout_product_object(m: int, f: SSetMap) -> tuple[BiSSet, BiMap, BiMap, LF]:
    """The object bd F[m,Y] u_{bd F[m,X]} F[m,X] over LF[m,Y], with its inclusion
    into F[m,Y] -> LF[m,Y]."""
    from .shapes import boundary, sub_inclusion

    X, Y = f.src, f.dst
    bd = boundary(m)
    inc = sub_inclusion(bd, simplex(m))
    A = external(bd, X)
    left = external_map(identity_map(bd), f, A, external(bd, Y))
    right = external_map(inc, identity_map(X), A, external(simplex(m), X))
    po = bi_pushout(left, right)
    lfm = lf(m, Y)
    # the inclusion of the pushout product into F[m, Y] over LF[m, Y]
    j_legs = {
        "A": external_map(inc, f, A, lfm.product),
        "X": external_map(inc, identity_map(Y), left.dst, lfm.product),
        "Y": external_map(identity_map(simplex(m)), f, right.dst, lfm.product),
    }
    j = induced_map(po, j_legs, lfm.product)
    return po.bisset, j.then(lfm.q), j, lfm


def straighten_boundary_pp(m: int, f: SSetMap) -> tuple[StObject, StObject, dict]:
    """St of the pushout-product map, the full straightening of F[m,Y], and the
    comparison components, all over LF[m, Y] via the general engine."""
    P, p, j, lfm = pushout_product_object(m, f)
    st = Straightener(lfm.W)
    ob_pp = st.st_object(P, p)
    full = st.st_object(lfm.product, lfm.q)
    compare = {a: st_over_map(ob_pp, full, j, a) for a in st.CW.objects}
    return ob_pp, full, compare


# -- unstraightening ---------------------------------------------------------------


class Unstraightening(NamedTuple):
    bisset: BiSSet
    projection: BiMap
    to_nf: object
    elem_of: dict
    act: object
    decode: object  # (Cell, encoding) -> NatTrans


def unstraighten(st: Straightener, F: Presheaf, h_bound: int,
                 v_bound: int) -> Unstraightening:
    """The truncated total object over W whose cells over sigma are Nat(St sigma, F)."""
    W = st.W

    def encode(component: dict):
        return tuple((a, tuple(sorted(component[a].assign.items())))
                     for a in sorted(component))

    def decode(cell: Cell, enc) -> NatTrans:
        comp = {}
        src = st.st_rep(cell)
        for a, items in enc:
            comp[a] = SSetMap(src.value[a], F.value[a], dict(items), validate=False)
        return NatTrans(src, F, comp)

    def levels(m, k):
        out = []
        for e in W.simplices(m, k):
            cell = Cell(m, k, e)
            for eta in enumerate_nat_trans(st.st_rep(cell), F):
                out.append((e, encode(eta.component)))
        return sorted(out)

    def act(el, mk, mu_h, mu_v):
        e, enc = el
        m, k = mk
        if mu_h is None:
            mu_h = delta.identity(m)
        if mu_v is None:
            mu_v = delta.identity(k)
        e2 = W.act(e, mu_h=mu_h, mu_v=mu_v)
        src_cell = Cell(len(mu_h) - 1, len(mu_v) - 1, e2)
        dst_cell = Cell(m, k, e)
        eta = decode(dst_cell, enc)
        comp = {a: st.st_operator(src_cell, dst_cell, mu_h, mu_v, a).then(eta.component[a])
                for a in eta.component}
        return (e2, encode(comp))

    mat = materialize_bi(levels, act, h_bound, v_bound, prefix="un")
    proj = BiMap(mat.bisset, W, {g: mat.elem_of[g][0] for g in mat.bisset.gens()})
    return Unstraightening(mat.bisset, proj, mat.to_nf, mat.elem_of, act, decode)


# -- the projection Pi_{m,Y} --------------------------------------------------------


class PiFunctor(NamedTuple):
    src_cat: SCat
    dst_cat: SCat
    on_obj: dict[str, str]
    on_hom: Callable[[str, str, NF], NF]
    C1: Categorification
    C: Categorification
    iota: EnrichedFunctor  # the face inclusion c LF[m, Y] -> c LF[m+1, Y]


def projection_pi(m: int, Y: SSet) -> PiFunctor:
    """The enriched functor c LF[m+1, Y] -> c LF[m, Y] u_{[0]} Sigma Y."""
    if not is_connected(Y):
        raise UnsupportedInput("projection needs a connected input")
    fr = checked_full_rep(m, Y)
    lfm1, C, C1 = fr.lfm1, fr.C, fr.C1
    glue = glue_suspension(fr, Y)
    top = str(m + 1)
    inv_gen = {fr.face.assign[g].gen: g for g in fr.lfm.W.gens()}

    def bead_data(x: str, w: delta.Word):
        """(vertex subset, Y label) of the bead (x, w) of LF[m+1, Y]."""
        rep = lfm1.rep[x]
        s, yg = rep.gen.split("|")
        alpha = tuple(int(v) for v in s.split("."))
        yw = delta.merge_words(w, rep.vword, lfm1.X.gen_dim(yg) + len(rep.vword))
        return alpha, NF(yw, yg)

    def on_hom(a: str, b: str, x: NF) -> NF:
        table, space = C1._hom_build(a, b)
        n, ts = space.expand(x)
        row = table.rows[n]
        j, enter = row.j, dict(zip(row.free, ts))
        keys = [table.beads.keys[bd] for bd in row.beads]
        if b != top:  # the necklace lies in the d^{m+1} face
            return C.element(a, b, j, [(inv_gen[y], w) for y, w in keys], enter)
        # target m+1: add the vertex m as a joint and split off the last edge
        if a == top:
            return glue.id_el(a, j)
        joints = sorted({int(v) for v in row.joints if int(v) < m} | {m})
        verts = sorted({int(v) for v in row.joints + row.free if int(v) <= m} | {m})
        data = [bead_data(*key) for key in keys]
        y_last = data[-1][1]
        prefix = []
        for u, w in zip(joints, joints[1:]):
            seg = tuple(v for v in verts if u <= v <= w)
            # the bead holding the segment; the one ending at m sits inside the last bead
            y = next((y for alpha, y in data if alpha[0] <= u and w <= alpha[-1]), y_last)
            prefix.append(bead(fr.lfm, seg, y))
        if not prefix:
            # a = m: the element is just the Y label
            return y_last
        pre_el = C.element(a, str(m), j, prefix, enter)
        return glue.cross[(a, top)].to_nf(j, (pre_el, y_last))

    on_obj = {str(i): str(i) for i in range(m + 2)}
    return PiFunctor(C1.scat(), glue, on_obj, on_hom, C1, C, fr.iota)
