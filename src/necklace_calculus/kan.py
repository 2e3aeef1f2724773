"""Enriched left Kan extension of presheaves along an enriched functor."""

from __future__ import annotations

from typing import Callable, NamedTuple

from .ops import BarePiece, Colimit, Diagram, Product, colimit, induced_map, product, shuffles
from .scat import EnrichedFunctor, Presheaf, SCat
from .sset import NF, SSet, SSetMap


class LanResult(NamedTuple):
    presheaf: Presheaf
    colimits: dict[str, Colimit]
    products: dict


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
    ("p." < "r."), so each class's least member has a face table.
    """
    C = F.base
    prods = {a: _piece(D.hom[(d, G.on_obj[a])], F.value[a], pieces) for a in C.objects}
    diag = Diagram({f"p.{a}": pr.sset for a, pr in prods.items()})
    for a in C.objects:
        Ga = G.on_obj[a]
        for b in C.objects:
            K = C.hom[(a, b)]
            n_k = K.n_gens()
            if n_k == 0 or (a == b and n_k == 1):
                continue
            Gb = G.on_obj[b]
            by_deg: dict[tuple[int], list[str]] = {}
            to_b: dict[str, NF] = {}
            to_a: dict[str, NF] = {}
            for deg, level in shuffles((K, D.hom[(d, Ga)], F.value[b])):
                (dd,) = deg
                ids = [f"p{dd}_{i}" for i in range(len(level))]
                if ids:
                    by_deg[deg] = ids
                for g, (k, h, x) in zip(ids, level):
                    to_b[g] = prods[b].to_nf(dd, (D.comp(d, Ga, Gb, G.on_hom(a, b, k), h), x))
                    to_a[g] = prods[a].to_nf(dd, (h, F.action(a, b, k, x)))
            name = f"r.{a}.{b}"
            piece = diag.objects[name] = BarePiece(by_deg)
            diag.add(f"eb.{a}.{b}", name, f"p.{b}",
                     SSetMap(piece, prods[b].sset, to_b, validate=False))
            diag.add(f"ea.{a}.{b}", name, f"p.{a}",
                     SSetMap(piece, prods[a].sset, to_a, validate=False))
    return diag, prods


def _piece(X: SSet, Y: SSet, pieces: dict) -> Product:
    """X x Y, from pieces, built and entered there on first use."""
    key = (id(X), id(Y))
    pr = pieces.get(key)
    if pr is None:
        pr = pieces.setdefault(key, product(X, Y))
    return pr


def enriched_lan(F: Presheaf, G: EnrichedFunctor, D: SCat, pieces: dict) -> LanResult:
    """G_! F computed by the coend coequalizer, one colimit per object of D.

    The colimit at d is that of coend_diagram(F, G, D, d, pieces), whose
    relation pieces are bare generator lists (see there); with the trivial
    relation pieces left out, no degree rises above the product pieces', so the
    colimit's degree bounds stay, and the generators and their
    representatives are those of the full coequalizer.  The result keeps the
    product pieces, which the action and lan_into_representable read, and no
    relation piece.  pieces is coend_diagram's table of product pieces.
    """
    colimits: dict[str, Colimit] = {}
    products: dict = {}
    for d_obj in D.objects:
        diag, products[d_obj] = coend_diagram(F, G, D, d_obj, pieces)
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
