"""Grothendieck constructions over strict and coherent nerves.

Level 0 of the total object is the coproduct of the presheaf values; higher
levels are strict pullbacks along the last-vertex map, with the extra top face
given by the evaluation of the presheaf action on the last edge.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import delta
from .bisset import BiMap, BiNF, BiSSet, materialize_bi, rename_gens, vertical
from .nerves import Nerve
from .ops import enumerate_maps, product
from .scat import NatTrans, Presheaf, representable
from .sset import NF, SSet, SSetError


class GrothTotal(NamedTuple):
    nerve: Nerve
    F: Presheaf
    bisset: BiSSet
    projection: BiMap
    to_nf: object
    elem_of: dict
    expand: object
    act: object


def groth(nerve: Nerve, F: Presheaf) -> GrothTotal:
    """The total object of F over the given nerve."""
    C = nerve.cat
    NB = nerve.bisset
    m_bound = NB.h_bound
    k_bound = max(NB.v_bound, 0) + max((V.dim_bound for V in F.value.values()), default=0)

    def last_object(ne, m, k) -> str:
        # both nerve flavors expose the object tuple first
        return nerve.act(ne, (m, k), (m,), None)[0][0]

    def levels(m, k):
        out = []
        for ne in sorted(set(map(nerve.expand, NB.simplices(m, k)))):
            b = last_object(ne, m, k)
            for x in F.value[b].simplices(k):
                out.append((ne, x))
        return sorted(out)

    def top_face(e, m, k):
        ne, x = e
        a, b, f = nerve.edge_hom(nerve.act(ne, (m, k), (m - 1, m), None), k)
        return (nerve.act(ne, (m, k), delta.coface(m, m), None), F.action(a, b, f, x))

    def act(e, mk, mu_h, mu_v):
        m, k = mk
        ne, x = e
        if mu_v is not None:
            b = last_object(ne, m, k)
            ne = nerve.act(ne, (m, k), None, mu_v)
            x = F.value[b].act(x, mu_v)
            k = len(mu_v) - 1
        if mu_h is not None:
            p = mu_h[-1]
            for cur in range(m, p, -1):
                ne, x = top_face((ne, x), cur, k)
            if tuple(mu_h) != delta.identity(p):
                ne = nerve.act(ne, (p, k), mu_h, None)
        return (ne, x)

    mat = materialize_bi(levels, act, m_bound, k_bound, prefix="g")
    proj = BiMap(mat.bisset, NB,
                 {g: nerve.to_nf(*mat.bisset.bidegree(g), mat.elem_of[g][0])
                  for g in mat.bisset.gens()}, validate=False)
    return GrothTotal(nerve, F, mat.bisset, proj, mat.to_nf, mat.elem_of, mat.expand, act)


def groth_map(G1: GrothTotal, G2: GrothTotal, eta: NatTrans) -> BiMap:
    """The map of total objects induced by a natural transformation."""
    assign = {}
    for g in G1.bisset.gens():
        m, k = G1.bisset.bidegree(g)
        ne, x = G1.elem_of[g]
        b = G1.nerve.act(ne, (m, k), (m,), None)[0][0]
        assign[g] = G2.to_nf(m, k, (ne, eta.component[b](x)))
    return BiMap(G1.bisset, G2.bisset, assign)


def eta_compare(Gn: GrothTotal, Gh: GrothTotal, phi: BiMap) -> BiMap:
    """phi_! of the strict total object into the coherent one, identity on level 0."""
    assign = {}
    for g in Gn.bisset.gens():
        m, k = Gn.bisset.bidegree(g)
        ne, x = Gn.elem_of[g]
        img = phi(Gn.nerve.to_nf(m, k, ne))
        assign[g] = Gh.to_nf(m, k, (Gh.nerve.expand(img), x))
    return BiMap(Gn.bisset, Gh.bisset, assign)


# -- the strict right-fibration check ------------------------------------------


class FibReport(NamedTuple):
    passed: bool
    per_level: dict[tuple[int, int], bool]
    homotopy_conditions: str


def rightfib_check(P: BiSSet, W: BiSSet, p: BiMap) -> FibReport:
    """Check P_m = W_m x_{W_0} P_0 along the last-vertex maps, levelwise."""
    if not W.row0_discrete():
        raise SSetError("rightfib_check needs a discrete row 0")
    m_bound = max(P.h_bound, W.h_bound, 0)
    k_bound = max(P.v_bound, W.v_bound, 0)
    per = {}
    for m in range(m_bound + 1):
        for k in range(k_bound + 1):
            seen = set()
            ok = True
            for e in P.simplices(m, k):
                key = (p(e), P.act(e, mu_h=(m,)))
                if key in seen:
                    ok = False
                    break
                seen.add(key)
            if ok:
                want = 0
                fibers: dict[BiNF, int] = {}
                for y in P.simplices(0, k):
                    fibers[p(y)] = fibers.get(p(y), 0) + 1
                for w in W.simplices(m, k):
                    want += fibers.get(W.act(w, mu_h=(m,)), 0)
                ok = want == len(P.simplices(m, k))
            per[(m, k)] = ok
    return FibReport(all(per.values()), per, "not checked")


# -- the right adjoint -----------------------------------------------------------


def vtensor(A: BiSSet, X: SSet) -> tuple[BiSSet, dict, object]:
    """The vertical tensor A (x) X, the product A x vertical(X), with element
    bookkeeping: generators t{m}_{k}_{i} (the product's p{m}_{k}_{i}),
    elem_of[g] = (a, x) with x a simplex of X as an NF, and to_nf(m, k, (a, x))
    the normal form of any such pair of bidegree (m, k)."""
    prod = product(A, vertical(X))
    ren = {g: "t" + g[1:] for g in prod.sset.gens()}
    on_a, on_x = (pr.assign for pr in prod.projections)
    elem_of = {ren[g]: (on_a[g], NF(on_x[g].vword, on_x[g].gen)) for g in prod.sset.gens()}

    def to_nf(m: int, k: int, e: tuple) -> BiNF:
        a, x = e
        out = prod.to_nf((m, k), (a, BiNF(tuple(range(m - 1, -1, -1)), x.word, x.gen)))
        return BiNF(out.hword, out.vword, ren[out.gen])

    return rename_gens(prod.sset, ren), elem_of, to_nf


def groth_right_adjoint(nerve: Nerve, P: BiSSet, p: BiMap, k_bound: int) -> Presheaf:
    """The presheaf of slice maps over the nerve out of tensored representables."""
    from .shapes import simplex
    from .sset import materialize

    C = nerve.cat
    reps = {a: groth(nerve, representable(C, a)) for a in C.objects}
    tensors: dict = {}

    def tensor(a: str, k: int):
        key = (a, k)
        if key not in tensors:
            T, elem_of, to_nf = vtensor(reps[a].bisset, simplex(k))
            over = BiMap(T, nerve.bisset,
                         {g: reps[a].projection(elem_of[g][0]) for g in T.gens()},
                         validate=False)
            tensors[key] = (T, elem_of, to_nf, over)
        return tensors[key]

    def levels_for(a: str):
        def levels(k: int):
            T, _, _, over = tensor(a, k)
            return sorted(tuple(sorted(f.assign.items()))
                          for f in enumerate_maps(T, P, over=(over, p)))

        return levels

    def precompose(a: str, enc, k: int, mu: delta.Monotone):
        """The slice map at level len(mu)-1 obtained by id (x) mu."""
        from .shapes import simplex_operator

        k2 = len(mu) - 1
        T, _, to_nf, _ = tensor(a, k)
        T2, elem2, _, _ = tensor(a, k2)
        phi = BiMap(T, P, dict(enc), validate=False)
        op = simplex_operator(mu, k)
        out = {}
        for g in T2.gens():
            ge, t = elem2[g]
            out[g] = phi(to_nf(*T2.bidegree(g), (ge, op(t))))
        return tuple(sorted(out.items()))

    data = {a: materialize(levels_for(a), functools.partial(precompose, a), k_bound,
                           prefix=f"H{a}_") for a in C.objects}
    values = {a: mat.sset for a, mat in data.items()}

    def action(a1: str, a2: str, h: NF, z: NF) -> NF:
        k = values[a2].dim(z)
        T2 = tensor(a2, k)
        phi = BiMap(T2[0], P, dict(data[a2].expand(z)), validate=False)
        T1, elem1, _, _ = tensor(a1, k)
        dk = simplex(k)
        out = {}
        for g in T1.gens():
            a_binf, t = elem1[g]
            m, kk = T1.bidegree(g)
            ne, y = reps[a1].expand(a_binf)
            last = nerve.act(ne, (m, kk), (m,), None)[0][0]
            tmono = tuple(int(v) for v in dk.vertices(t))
            h_moved = C.hom[(a1, a2)].act(h, tmono)
            y2 = C.comp(last, a1, a2, h_moved, y)
            inner2 = reps[a2].to_nf(m, kk, (ne, y2))
            out[g] = phi(T2[2](m, kk, (inner2, t)))
        return data[a1].to_nf(k, tuple(sorted(out.items())))

    return Presheaf(C, values, action)