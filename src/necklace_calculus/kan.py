"""Enriched left Kan extension of presheaves along an enriched functor."""

from __future__ import annotations

import itertools
import threading
from typing import Callable, NamedTuple, Optional, Sequence

from .ops import (BarePiece, Colimit, Diagram, Product, _word_masks, colimit, induced_map,
                  product, shuffles)
from .scat import EnrichedFunctor, Presheaf, SCat
from .sset import NF, SSet, SSetMap, _new


class LanResult(NamedTuple):
    presheaf: Presheaf
    colimits: dict[str, Colimit]
    products: dict
    entries: dict[str, Optional[int]]  # the serial of each colimit's CoendTable entry, or None past its cap


# The entries a CoendTable keeps of each kind; a build beyond them is not kept.
# A benchmark round fills at most 11 coends and 30 maps of one table, the
# identity over Delta[5] 58 and 188; a coend there holds about 50 KB.
COEND_CAP = 64
OPERATOR_CAP = 256

_SERIALS = itertools.count()  # one per published coend, never reused


class CoendTable:
    """The coends of one presheaf F, by the exact key of their restricted
    representable, and maps between them.

    The coend of F along G at d is a function of F and of the presheaf
    D(d, G-) on C = F.base alone (Kelly, Basic Concepts of Enriched Category
    Theory, 3.10 and 4.1), and its generator ids, faces, cocone and reps are
    a function of F and of coend_key(F, G, D, d): ops.product numbers
    shuffles in id order, which the key's local numbering keeps.  So a
    caller that keeps F across calls (a FullRep) keeps a table with it:
    - colimits: key -> (serial, Colimit), the colimit of coend_diagram; the
      serial is unique in the process and names the entry for as long as it
      lives;
    - operators: maps between two published coends, by their serials and
      whatever else fixes the map (straighten.Straightener.st_operator).
    Both are published under the table's lock (the first build wins, so
    threads agree) and stop growing at COEND_CAP and OPERATOR_CAP entries,
    past which a build is returned and not kept.  spanning(a, b) lists
    generators of C(a, b) whose simplices, with their degeneracies, generate
    C under composition level by level; the key lists the action on those
    alone.  None lists every generator.
    """

    def __init__(self, spanning: Optional[Callable[[str, str], Sequence[str]]]):
        self.spanning = spanning
        self.colimits: dict[tuple, tuple[int, Colimit]] = {}
        self.operators: dict[tuple, SSetMap] = {}
        self._lock = threading.Lock()  # makes each cap check and publish one step

    def coend(self, key: tuple, build: Callable[[], Colimit]) -> tuple[Optional[int], Colimit]:
        """(serial, colimit) of the entry under key, built and published on a
        miss; (None, the build) when the table is full."""
        hit, col = self._publish(self.colimits, COEND_CAP, key, build,
                                 lambda col: (next(_SERIALS), col))
        return (None, col) if hit is None else hit

    def operator(self, key: tuple, build: Callable[[], SSetMap]) -> SSetMap:
        """The map under key, built and published on a miss unless the table is full."""
        hit, out = self._publish(self.operators, OPERATOR_CAP, key, build, lambda f: f)
        return out if hit is None else hit

    def _publish(self, table: dict, cap: int, key: tuple, build: Callable[[], object],
                 entry: Callable[[object], object]) -> tuple[object, object]:
        """(table[key], None), where a miss publishes entry(build()) unless
        another thread published first (the first build wins); (None, the
        build) when the miss finds cap entries in table."""
        hit = table.get(key)
        if hit is None:
            out = build()
            with self._lock:
                hit = table.get(key)
                if hit is None:
                    if len(table) >= cap:
                        return None, out
                    hit = table[key] = entry(out)
        return hit, None


def local_form(X: SSet) -> tuple[list[str], dict[str, int], tuple]:
    """X's generators in id order, their numbers in that order, and X in
    that numbering: each generator's dimension and faces (word, number).
    Memoized on X, which is immutable."""
    if X._local is None:
        ids = sorted(X._deg)
        number = {g: i for i, g in enumerate(ids)}
        faces = X.faces
        X._local = (ids, number, tuple(
            (X._deg[g][0], tuple([(f.word, number[f.gen]) for f in faces.get(g, ())]))
            for g in ids))
    return X._local


def coend_key(F: Presheaf, G: EnrichedFunctor, D: SCat, d: str,
              spanning: Optional[Callable[[str, str], Sequence[str]]] = None,
              rows: Optional[dict] = None, images: Optional[dict] = None) -> tuple:
    """An exact key of the presheaf D(d, G-) on C = F.base, in local numbering
    (local_form): per object a of C, D(d, Ga) in local_form; then, for
    each a with D(d, Ga) not empty, each b such that coend_diagram does not
    skip (a, b), and each generator k of C(a, b) that spanning(a, b) lists
    (every generator for None), the row of G(k): the composites
    D.comp(d, Ga, Gb, s_u G(k), s_v h), in D(d, Gb)'s numbering, over the
    generators h of D(d, Ga) in id order and the words u, v with no index in
    common.  Every simplex of C(a, b) is a composite of degeneracies of such
    k at its level, and the composite of a degenerate pair is a degeneracy
    of a listed one, so the key fixes the whole action: two presheaves with
    one key are isomorphic by their local numberings, and F's coend along
    either is the same.

    A row depends on (d, Ga, Gb, G(k)) alone: rows, when given, keeps each
    by that, across the calls that share D.  images, when given, keeps per a
    the pairs (b, G(k)) listed at a, across the calls that share G."""
    C, on_obj = F.base, G.on_obj
    rows = {} if rows is None else rows
    images = {} if images is None else images
    forms = {a: local_form(D.hom[(d, on_obj[a])]) for a in C.objects}
    out: list[tuple] = []
    for a in C.objects:
        if not forms[a][0]:
            continue
        at_a = images.get(a)
        if at_a is None:
            at_a = images[a] = _images(F, G, spanning, a)
        for b, g in at_a:
            key = (d, on_obj[a], on_obj[b], g)
            row = rows.get(key)
            if row is None:
                row = rows[key] = _row(D, key, forms[a], forms[b][1])
            out.append(row)
    return tuple(forms[a][2] for a in C.objects), tuple(out)


def _images(F: Presheaf, G: EnrichedFunctor,
            spanning: Optional[Callable[[str, str], Sequence[str]]], a: str) -> list:
    """(b, G(k)) for each b and k whose row coend_key lists at a, in its order."""
    C = F.base
    out = []
    for b in C.objects:
        K = C.hom[(a, b)]
        n_k = K.n_gens()
        if n_k == 0 or (a == b and n_k == 1):
            continue
        out.extend((b, G.on_hom(a, b, _new(NF, ((), k))))
                   for k in (spanning(a, b) if spanning is not None else K.gens()))
    return out


def _row(D: SCat, key: tuple, form_a: tuple, number_b: dict[str, int]) -> tuple:
    """coend_key's row of g in D(Ga, Gb), for key = (d, Ga, Gb, g), with
    D(d, Ga) in local_form and D(d, Gb)'s numbering."""
    d, Ga, Gb, g = key
    ids, _, form = form_a
    Hg = D.hom[(Ga, Gb)]
    p = (Hg.dim(g),)
    out = []
    for h, (q, _) in zip(ids, form):
        for n in range(max(p[0], q), p[0] + q + 1):
            for mk, (wk,) in _word_masks(p, (n,)):
                sg = Hg._degenerate((wk,), g)
                for mh, (wh,) in _word_masks((q,), (n,)):
                    if not mk & mh:
                        c = D.comp(d, Ga, Gb, sg, _new(NF, (wh, h)))
                        out.append((c.word, number_b[c.gen]))
    return tuple(out)


def coend_diagram(F: Presheaf, G: EnrichedFunctor, D: SCat, d: str,
                  pieces: dict) -> tuple[Diagram, dict[str, Product]]:
    """The coend coequalizer diagram at the object d of D, and its product pieces.

    The piece p.a is the product D(d, Ga) x F(a), one per object a of the
    source C, read from pieces: a table of products by the ids of their two
    factors, filled on first use, which its owner shares across calls and
    whose factors it keeps alive (each product also points at its factors).  The relation
    piece r.a.b of C(a, b) x D(d, Ga) x F(b) glues (b, Gk.h, x) with
    (a, h, k.x) for k in C(a, b), through its legs eb.a.b to p.b and ea.a.b
    to p.a.  It is left out when C(a, b) is empty, and when
    a == b and C(a, a) is the identity alone: the first piece is empty, and
    the second glues (a, h, x) with itself.

    A relation piece is a BarePiece: its generators are the shuffles of the
    three factors, listed by ops.shuffles under the ids p{d}_{i} that
    ops.product would give them, and both legs are read off each shuffle
    (k, h, x) directly.  It has no face table and no projections, and its
    legs are not checked for simpliciality (tests/test_straighten_shared.py
    checks them against the full product).  The colimit never reads its
    faces: every class holds a product piece, whose names sort first
    ("p." < "r."), so each class's least member has a face table.  When
    D(d, Ga) is a point, ops.product gives p.a as the renamed copy kept on
    F(a), the same for every point.
    """
    C = F.base
    prods = _LazyProducts(F, G, D, d, pieces)
    diag = Diagram({f"p.{a}": prods[a].sset for a in C.objects})
    for a in C.objects:
        Ga = G.on_obj[a]
        H = D.hom[(d, Ga)]
        for b in C.objects:
            K = C.hom[(a, b)]
            n_k = K.n_gens()
            if n_k == 0 or (a == b and n_k == 1):
                continue
            Gb = G.on_obj[b]
            piece, gens, ea = _relation(F, H, a, b, prods[a])
            eb = SSetMap(piece, prods[b].sset,
                         {g: prods[b].to_nf(dd, (D.comp(d, Ga, Gb, G.on_hom(a, b, k), h), x))
                          for g, dd, k, h, x in gens}, validate=False)
            name = f"r.{a}.{b}"
            diag.objects[name] = piece
            diag.add(f"eb.{a}.{b}", name, f"p.{b}", eb)
            diag.add(f"ea.{a}.{b}", name, f"p.{a}", ea)
    return diag, prods


class _LazyProducts(dict):
    """The product pieces D(d, Ga) x F(a) of the coend at d, by a, each read
    on first use from pieces, where ops.product builds it on the first read
    of its two factors: a lan whose colimits are read from a CoendTable
    reads its pieces only where its action, lan_into_representable or a map
    built out of it does.  It holds only the pieces read so far, so a
    reader of every piece iterates over the objects of C, not over it."""

    def __init__(self, F: Presheaf, G: EnrichedFunctor, D: SCat, d: str, pieces: dict):
        super().__init__()
        self._args = (F, G, D, d, pieces)

    def __missing__(self, a: str) -> Product:
        F, G, D, d, pieces = self._args
        X, Y = D.hom[(d, G.on_obj[a])], F.value[a]
        key = (id(X), id(Y))
        pr = pieces.get(key)
        if pr is None:
            pr = pieces.setdefault(key, product(X, Y))
        self[a] = pr
        return pr


def _relation(F: Presheaf, H: SSet, a: str, b: str, pa: Product) -> tuple:
    """The relation piece r.a.b of C(a, b) x H x F(b), its generators as
    (id, degree, k, h, x) and its leg ea.a.b into pa = H x F(a)."""
    by_deg: dict[tuple[int], list[str]] = {}
    gens: list[tuple[str, int, NF, NF, NF]] = []
    for deg, level in shuffles((F.base.hom[(a, b)], H, F.value[b])):
        (dd,) = deg
        ids = [f"p{dd}_{i}" for i in range(len(level))]
        if ids:
            by_deg[deg] = ids
        gens.extend((g, dd, *e) for g, e in zip(ids, level))
    piece = BarePiece(by_deg)
    to_a = {g: pa.to_nf(dd, (h, F.action(a, b, k, x))) for g, dd, k, h, x in gens}
    return piece, gens, SSetMap(piece, pa.sset, to_a, validate=False)


def enriched_lan(F: Presheaf, G: EnrichedFunctor, D: SCat, pieces: dict,
                 coends: CoendTable) -> LanResult:
    """G_! F computed by the coend coequalizer, one colimit per object of D.

    The colimit at d is that of coend_diagram(F, G, D, d, pieces), whose
    relation pieces are bare generator lists (see there); with the trivial
    relation pieces left out, no degree rises above the product pieces', so
    the colimit's degree bounds stay, and the generators and their
    representatives are those of the full coequalizer.  The result keeps the
    product pieces, which the action and lan_into_representable read, and no
    relation piece.  pieces is coend_diagram's table of product pieces.
    coends is F's CoendTable: each colimit is read from it by coend_key
    (whose rows pieces keeps too), and coend_diagram and the colimit are
    built only on a miss; entries[d] is the serial of the entry, None past
    the table's cap.  A hit's cocone starts at the product pieces of the lan
    that built it, whose ids and faces are this lan's.  A caller that keeps
    F across calls keeps coends with it; any other passes a fresh
    CoendTable(None).
    """
    colimits: dict[str, Colimit] = {}
    products: dict = {}
    entries: dict[str, Optional[int]] = {}
    images: dict[str, list] = {}  # coend_key's, shared by the objects d of this G
    for d_obj in D.objects:
        products[d_obj] = _LazyProducts(F, G, D, d_obj, pieces)
        entries[d_obj], colimits[d_obj] = coends.coend(
            coend_key(F, G, D, d_obj, coends.spanning, pieces, images),
            lambda: colimit(coend_diagram(F, G, D, d_obj, pieces)[0]))

    values = {d_obj: colimits[d_obj].sset for d_obj in D.objects}

    def action(d1: str, d2: str, h: NF, z: NF) -> NF:
        name, rep = colimits[d2].reps[z.gen]  # always a product piece: "p." sorts first
        a = name.split(".", 1)[1]
        rep = NF(z.word, rep.gen)  # reps are generators: s_w rep lies in the class s_w z
        pr = products[d2][a]
        h_el, x_el = pr.projections[0](rep), pr.projections[1](rep)
        moved = D.comp(d1, d2, G.on_obj[a], h_el, h)
        return colimits[d1].cocone[f"p.{a}"](
            products[d1][a].to_nf(values[d2].dim(z), (moved, x_el)))

    pre = Presheaf(D, values, action)
    return LanResult(pre, colimits, products, entries)


def lan_into_representable(lan: LanResult, G: EnrichedFunctor, D: SCat,
                           c: str) -> dict[str, SSetMap]:
    """For lan the extension G_!F of F = Hom_C(-, c): the canonical comparison
    G_!F -> Hom_D(-, Gc), out of each coend by the legs (h, x) -> G(x) . h on
    its product pieces."""

    def leg(d_obj: str, a: str, pr: Product) -> Callable[[NF], NF]:
        return lambda e: D.comp(d_obj, G.on_obj[a], G.on_obj[c],
                                G.on_hom(a, c, pr.projections[1](e)), pr.projections[0](e))

    return {d_obj: induced_map(lan.colimits[d_obj],
                               {f"p.{a}": leg(d_obj, a, lan.products[d_obj][a])
                                for a in G.src.objects},
                               D.hom[(d_obj, G.on_obj[c])])
            for d_obj in D.objects}
