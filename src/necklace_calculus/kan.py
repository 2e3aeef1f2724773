"""Enriched left Kan extension of presheaves along an enriched functor."""

from __future__ import annotations

from typing import NamedTuple

from .ops import Colimit, Diagram, colimit, product
from .scat import EnrichedFunctor, Presheaf, SCat
from .sset import NF, SSetError, SSetMap, nd


class LanResult(NamedTuple):
    presheaf: Presheaf
    colimits: dict[str, Colimit]
    products: dict


def enriched_lan(F: Presheaf, G: EnrichedFunctor, D: SCat) -> LanResult:
    """G_! F computed by the coend coequalizer, one colimit per object of D.

    Pieces are indexed by objects a of the source; the relation pieces glue
    (b, Gk.h, x) with (a, h, k.x) for k in hom(a, b).  The relation piece of
    (a, b) is left out when hom(a, b) is empty, and when a == b and hom(a, a)
    is the identity alone: the first piece is empty, and the second glues
    (a, h, x) with itself.  Neither has a degree above the product pieces', so
    the colimit's degree bounds stay; and every class holds a product piece,
    whose names sort first ("p." < "r."), so the generators and their
    representatives are those of the full coequalizer.
    """
    C = F.base
    colimits: dict[str, Colimit] = {}
    products: dict = {}

    for d_obj in D.objects:
        objects = {}
        prods = {}
        for a in C.objects:
            pr = product(D.hom[(d_obj, G.on_obj[a])], F.value[a])
            prods[a] = pr
            objects[f"p.{a}"] = pr.sset
        diag = Diagram(dict(objects))
        for a in C.objects:
            for b in C.objects:
                n_k = C.hom[(a, b)].n_gens()
                if n_k == 0 or (a == b and n_k == 1):
                    continue
                pr3 = product(C.hom[(a, b)], D.hom[(d_obj, G.on_obj[a])], F.value[b])
                name = f"r.{a}.{b}"
                diag.objects[name] = pr3.sset
                k_pr, h_pr, x_pr = pr3.projections
                # to the b piece: compose Gk with h
                to_b = {}
                to_a = {}
                for g in pr3.sset.gens():
                    dd = pr3.sset.gen_dim(g)
                    k_el, h_el, x_el = k_pr(nd(g)), h_pr(nd(g)), x_pr(nd(g))
                    gk = G.on_hom(a, b, k_el)
                    to_b[g] = prods[b].to_nf(
                        dd, (D.comp(d_obj, G.on_obj[a], G.on_obj[b], gk, h_el), x_el))
                    to_a[g] = prods[a].to_nf(dd, (h_el, F.action(a, b, k_el, x_el)))
                diag.add(f"eb.{a}.{b}", name, f"p.{b}", SSetMap(pr3.sset, objects[f"p.{b}"], to_b))
                diag.add(f"ea.{a}.{b}", name, f"p.{a}", SSetMap(pr3.sset, objects[f"p.{a}"], to_a))
        colimits[d_obj] = colimit(diag)
        products[d_obj] = prods

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


def lan_into_representable(lan: LanResult, F: Presheaf, G: EnrichedFunctor,
                           D: SCat, c: str) -> dict[str, SSetMap]:
    """For F = Hom_C(-, c): the canonical comparison G_!F -> Hom_D(-, Gc)."""
    C = F.base
    out = {}
    for d_obj in D.objects:
        col = lan.colimits[d_obj]
        assign = {}
        for g in col.sset.gens():
            name, rep = col.reps[g]
            a = name.split(".", 1)[1] if name.startswith("p.") else None
            if a is None:
                raise SSetError("representative escaped the pieces")
            pr = lan.products[d_obj][a]
            h_el, x_el = pr.projections[0](rep), pr.projections[1](rep)
            gx = G.on_hom(a, c, x_el)
            assign[g] = D.comp(d_obj, G.on_obj[a], G.on_obj[c], gx, h_el)
        out[d_obj] = SSetMap(col.sset, D.hom[(d_obj, G.on_obj[c])], assign)
    return out