"""Enriched left Kan extension of presheaves along an enriched functor."""

from __future__ import annotations

from typing import Callable, NamedTuple

from .ops import (BarePiece, Colimit, Diagram, Product, Renamed, colimit, induced_map,
                  is_point, over_points, product, renamed, shuffles)
from .scat import EnrichedFunctor, Presheaf, SCat
from .sset import NF, SSet, SSetMap, _new


class LanResult(NamedTuple):
    presheaf: Presheaf
    colimits: dict[str, Colimit]
    products: dict


class _RelationOverPoint(NamedTuple):
    """The relation piece r.a.b of a coend whose D(d, Ga) is a point, as far as
    it depends on F alone: its generators, each with its degree, k, the word
    of the point's simplex and x; its leg ea.a.b into the point piece p.a;
    and its leg eb.a.b into p.b for D(d, Gb) a point too."""

    piece: BarePiece
    gens: list[tuple[str, int, NF, tuple[int, ...], NF]]  # (id, degree, k, point word, x)
    to_a: SSetMap
    to_b: SSetMap


def coend_diagram(F: Presheaf, G: EnrichedFunctor, D: SCat, d: str, pieces: dict,
                  templates: dict) -> tuple[Diagram, dict[str, Product]]:
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
    ("p." < "r."), so each class's least member has a face table.

    When D(d, Ga) is a point, both pieces at a are templates, read from
    templates, a table of F's, filled on first use and published whole (the
    first build wins), which its owner keeps with F: p.a is F(a) renamed as
    ops.product names pt x F(a) (ops.renamed, whose ids and faces do not
    depend on the point), and r.a.b keeps the shuffles (k, h, x) of
    C(a, b) x pt x F(b) with h by its word, under their ids, which are the
    same for every point: at each degree the point has one simplex, so
    ops.shuffles orders them by (k, x).  The leg ea.a.b, (h, k.x) in p.a, is
    the template's too, and so is eb.a.b, (Gk.h, x) in p.b, when D(d, Gb) is
    a point as well: Gk.h is then its one simplex of h's degree.  What
    depends on the points and on G is made here: p.a's projection to the
    point and its to_nf (ops.over_points), and eb.a.b when D(d, Gb) is no
    point.
    """
    C = F.base
    over = {a: is_point(D.hom[(d, G.on_obj[a])]) for a in C.objects}
    prods = {a: _piece(D.hom[(d, G.on_obj[a])], F.value[a], pieces, templates, a)
             for a in C.objects}
    diag = Diagram({f"p.{a}": pr.sset for a, pr in prods.items()})
    for a in C.objects:
        Ga = G.on_obj[a]
        H = D.hom[(d, Ga)]
        for b in C.objects:
            K = C.hom[(a, b)]
            n_k = K.n_gens()
            if n_k == 0 or (a == b and n_k == 1):
                continue
            Gb = G.on_obj[b]
            eb = None
            if not over[a]:
                piece, gens, ea = _relation(F, H, a, b, prods[a])
            else:
                rel = _template(templates, (a, b), lambda: _over_point(
                    F, H, a, b, prods[a], _template(templates, b, lambda: renamed(F.value[b]))))
                piece, ea = rel.piece, rel.to_a
                if over[b]:  # Gk.h lies in the point D(d, Gb): the leg is the template's
                    eb = rel.to_b
                else:
                    pt = H.by_dim[0][0]
                    gens = [(g, dd, k, _new(NF, (w, pt)), x) for g, dd, k, w, x in rel.gens]
            if eb is None:
                eb = SSetMap(piece, prods[b].sset,
                             {g: prods[b].to_nf(dd, (D.comp(d, Ga, Gb, G.on_hom(a, b, k), h), x))
                              for g, dd, k, h, x in gens}, validate=False)
            name = f"r.{a}.{b}"
            diag.objects[name] = piece
            diag.add(f"eb.{a}.{b}", name, f"p.{b}", eb)
            diag.add(f"ea.{a}.{b}", name, f"p.{a}", ea)
    return diag, prods


def _template(templates: dict, key, build: Callable[[], object]):
    """templates[key], built by build() and published on a miss: the first build wins."""
    hit = templates.get(key)
    if hit is None:
        hit = templates.setdefault(key, build())
    return hit


def _piece(X: SSet, Y: SSet, pieces: dict, templates: dict, a: str) -> Product:
    """X x Y, from pieces, built and entered there on first use; for X a
    point, from the template of Y = F(a) in templates."""
    key = (id(X), id(Y))
    pr = pieces.get(key)
    if pr is None:
        if is_point(X):
            pr = over_points((X, Y), 1, _template(templates, a, lambda: renamed(Y)))
        else:
            pr = product(X, Y)
        pr = pieces.setdefault(key, pr)
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


def _over_point(F: Presheaf, H: SSet, a: str, b: str, pa: Product,
                ren_b: Renamed) -> _RelationOverPoint:
    """The template of r.a.b for the point H, with pa the product piece
    H x F(a) built on the template of F(a), and ren_b the template of F(b)."""
    piece, gens, to_a = _relation(F, H, a, b, pa)
    pb = over_points((H, F.value[b]), 1, ren_b)
    to_b = {g: pb.to_nf(dd, (h, x)) for g, dd, k, h, x in gens}
    return _RelationOverPoint(piece, [(g, dd, k, h.word, x) for g, dd, k, h, x in gens], to_a,
                              SSetMap(piece, pb.sset, to_b, validate=False))


def enriched_lan(F: Presheaf, G: EnrichedFunctor, D: SCat, pieces: dict,
                 templates: dict) -> LanResult:
    """G_! F computed by the coend coequalizer, one colimit per object of D.

    The colimit at d is that of coend_diagram(F, G, D, d, pieces, templates),
    whose relation pieces are bare generator lists (see there); with the trivial
    relation pieces left out, no degree rises above the product pieces', so the
    colimit's degree bounds stay, and the generators and their
    representatives are those of the full coequalizer.  The result keeps the
    product pieces, which the action and lan_into_representable read, and no
    relation piece.  pieces is coend_diagram's table of product pieces, and
    templates its table of F's pieces over a point: a template's ids are those
    ops.product gives the piece it stands for, so the colimit is the same
    whichever table it was read from.  A caller that keeps F across
    calls keeps templates with it; any other passes a fresh dict.
    """
    colimits: dict[str, Colimit] = {}
    products: dict = {}
    for d_obj in D.objects:
        diag, products[d_obj] = coend_diagram(F, G, D, d_obj, pieces, templates)
        colimits[d_obj] = colimit(diag)

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
    return LanResult(pre, colimits, products)


def lan_into_representable(lan: LanResult, G: EnrichedFunctor, D: SCat,
                           c: str) -> dict[str, SSetMap]:
    """For lan the extension G_!F of F = Hom_C(-, c): the canonical comparison
    G_!F -> Hom_D(-, Gc), out of each coend by the legs (h, x) -> G(x) . h on
    its product pieces."""

    def leg(d_obj: str, a: str, pr: Product) -> Callable[[NF], NF]:
        return lambda e: D.comp(d_obj, G.on_obj[a], G.on_obj[c],
                                G.on_hom(a, c, pr.projections[1](e)), pr.projections[0](e))

    return {d_obj: induced_map(lan.colimits[d_obj],
                               {f"p.{a}": leg(d_obj, a, pr)
                                for a, pr in lan.products[d_obj].items()},
                               D.hom[(d_obj, G.on_obj[c])])
            for d_obj in D.objects}
