"""Named verification suites: one check per structural invariant of the library."""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable

from . import delta
from .bisset import (bi_identity, bi_pushout, bnd, diag, discretize, external, horizontal,
                     lf, vertical)
from .categorify import categorify
from .cubes import (chains, cube_hom, cube_of_pair, pushforward, split_iso,
                    weight_F, weight_G0, weight_constant, weighted_colim)
from .kan import CoendTable, enriched_lan, lan_into_representable
from .necklace import PairObject, PairPoset, TndPoset, pair_poset_iso, plus_m
from .nerves import hc_nerve, nerve_comparison, strict_nerve
from .ops import (Diagram, coequalizer, colimit, component_maps, coproduct,
                  enumerate_maps, find_iso, induced_map, is_1_ordered, is_connected,
                  mediating_map, pairing, pi0, product, pushout, sub_sset)
from .groth import groth, groth_map, groth_right_adjoint, rightfib_check, vtensor
from .scat import (NatTrans, Presheaf, ch_simplex, enumerate_nat_trans, representable,
                   sigma_m, suspension, terminal_presheaf)
from .shapes import boundary, horn, point, simplex, simplex_operator, spine, sub_inclusion
from .sset import NF, SSet, SSetMap, constant_map, identity_map, nd
from .straighten import (Cell, Straightener, bead, cone, cone_hom, delta_precat,
                         projection_pi, st_mono_formula, st_over_map,
                         straighten_boundary_pp, unstraighten, w_sigma)

Check = Callable[[random.Random], str]


def _expect(ok, *witness) -> None:
    """Fail the running check unless ok, with the witness that an assert
    statement would give; unlike assert, this holds under python -O too."""
    if not ok:
        raise AssertionError(*witness)


def _mono_catalog() -> list[tuple[str, SSetMap]]:
    d0, d1, d2 = simplex(0), simplex(1), simplex(2)
    return [
        ("id_pt", identity_map(d0)),
        ("id_D1", identity_map(d1)),
        ("bd1_into_D1", sub_inclusion(boundary(1), d1)),
        ("pt0_into_D1", SSetMap(d0, d1, {"0": nd("0")})),
        ("sp2_into_D2", sub_inclusion(spine(2), d2)),
    ]


def _injections(m: int) -> list[delta.Monotone]:
    out = []
    for ell in range(m + 1):
        out.extend(itertools.combinations(range(m + 1), ell + 1))
    return out


# -- sset suite ------------------------------------------------------------------


def check_ez_roundtrip(rng) -> str:
    catalog = [simplex(3), boundary(3), spine(4), horn(2, 2)]
    n = 0
    for X in catalog:
        for d in range(X.dim_bound + 3):
            for x in X.simplices(d):
                _expect(X.act(x, delta.identity(d)) == x)
                for i in range(d):
                    s = X.degeneracy(x, i)
                    _expect(X.face(s, i) == x and X.face(s, i + 1) == x)
                    n += 1
    return f"{n} degeneracy round trips"


def check_simplicial_identities(rng) -> str:
    for X in [simplex(4), boundary(4)]:
        SSet([(g, X.gen_dim(g)) for g in X.gens()], X.faces)  # validates
    return "face identities hold on catalog generators"


def check_product_counts(rng) -> str:
    p = product(simplex(1), simplex(1))
    _expect(p.sset.nd_counts() == (4, 5, 2), p.sset.nd_counts())
    q = product(simplex(2), simplex(1))
    _expect(q.sset.nd_counts()[3] == 3)
    r = product(simplex(2), point())
    _expect(find_iso(r.sset, simplex(2)) is not None)
    return "shuffle counts (4,5,2) and (.,.,.,3); unit law"


def check_boundary_coequalizer(rng) -> str:
    for m in range(1, 5):
        diag_ = Diagram({})
        for s in range(m + 1):
            diag_.objects[f"c{s}"] = simplex(m - 1)
        pieces = {}
        bd = boundary(m)
        for s in range(m + 1):
            op = simplex_operator(delta.coface(s, m), m)
            pieces[f"c{s}"] = SSetMap(simplex(m - 1), bd,
                                      {g: NF(op.assign[g].word, op.assign[g].gen)
                                       for g in simplex(m - 1).gens()}, validate=False)
        test = dict(pieces)
        if m >= 2:
            for s in range(m + 1):
                for t in range(s + 1, m + 1):
                    name = f"r{s}.{t}"
                    diag_.objects[name] = simplex(m - 2)
                    a = simplex_operator(delta.coface(t - 1, m - 1), m - 1)
                    diag_.add(f"a{s}.{t}", name, f"c{s}", a)
                    diag_.add(f"b{s}.{t}", name, f"c{t}",
                              simplex_operator(delta.coface(s, m - 1), m - 1))
                    test[name] = a.then(pieces[f"c{s}"])
        col = colimit(diag_)
        u = mediating_map(col, diag_.objects, test)
        _expect(u.is_iso(), f"boundary {m} coequalizer mismatch")
    return "coequalizer presentation of boundaries, m <= 4"


def check_colimit_universal(rng) -> str:
    cases = []
    b1, d1 = boundary(1), simplex(1)
    cases.append((pushout(SSetMap(b1, simplex(0), {"0": nd("0"), "1": nd("0")}),
                          sub_inclusion(b1, d1)),
                  {"A": b1, "X": simplex(0), "Y": d1}))
    b2, d2 = boundary(2), simplex(2)
    cases.append((pushout(sub_inclusion(b2, d2), sub_inclusion(b2, d2)),
                  {"A": b2, "X": d2, "Y": d2}))
    checked = 0
    for col, objects in cases:
        for _ in range(10):
            # a random further quotient of the colimit provides the test cocone
            verts = col.sset.by_dim[0]
            v, w = rng.choice(verts), rng.choice(verts)
            q = coequalizer(SSetMap(point(), col.sset, {"0": nd(v)}),
                            SSetMap(point(), col.sset, {"0": nd(w)}))
            quo = q.cocone["X"]
            test = {n: col.cocone[n].then(quo) for n in col.cocone}
            u = mediating_map(col, objects, test)
            for g in col.sset.gens():
                _expect(u(nd(g)) == quo(nd(g)))  # uniqueness: determined on classes
            checked += 1
    return f"{checked} mediating maps exist and are unique"


def check_product_colimit_interchange(rng) -> str:
    b1, d1, d0 = boundary(1), simplex(1), simplex(0)
    f = sub_inclusion(b1, d1)
    g = SSetMap(b1, d0, {"0": nd("0"), "1": nd("0")})
    col = pushout(g, f)  # the circle-like quotient
    Y = simplex(1)
    lhs = product(col.sset, Y).sset
    pf = _factor_map(f, Y, flip=False)
    pg = _factor_map(g, Y, flip=False)
    col2 = pushout(pg, pf)
    iso = find_iso(lhs, col2.sset)
    _expect(iso is not None)
    return "product(colim, Y) == colim(product(-, Y))"


def check_1_ordered(rng) -> str:
    for m in range(6):
        ok, _ = is_1_ordered(simplex(m))
        _expect(ok)
    b1, d1, d0 = boundary(1), simplex(1), simplex(0)
    circ = pushout(SSetMap(b1, d0, {"0": nd("0"), "1": nd("0")}), sub_inclusion(b1, d1))
    ok, wit = is_1_ordered(circ.sset)
    _expect(not ok and wit.condition == "antisymmetry")
    return "simplices 1-ordered; directed cycles rejected"


def check_discretize_idempotent(rng) -> str:
    for m, Y in [(1, simplex(0)), (1, boundary(1)), (2, simplex(1))]:
        L = lf(m, Y).W
        again = discretize(L)
        _expect(find_iso(L, again.bisset) is not None)
        _expect(len(L.gens_at(0, 0)) == (m + 1) * len(pi0(Y)[0]))
    return "L is idempotent; row-0 counts match"


def check_diag(rng) -> str:
    W = external(simplex(1), simplex(1))
    _expect(find_iso(diag(W).sset, product(simplex(1), simplex(1)).sset) is not None)
    W2 = external(simplex(2), point())
    _expect(find_iso(diag(W2).sset, simplex(2)) is not None)
    W3 = vertical(boundary(2))
    _expect(find_iso(diag(W3).sset, boundary(2)) is not None)
    return "diagonals of external products and constants"


def check_lf_counts(rng) -> str:
    for m, Y in [(1, simplex(3)), (0, simplex(2)), (2, simplex(1))]:
        L = lf(m, Y)
        _expect(sorted(L.W.gens_at(0, 0), key=str) == sorted(
            (str(i) for i in range(m + 1)), key=str))
    X = boundary(2)
    _expect(is_connected(X))
    return "LF row-0 vertex sets"


# -- necklace suite ----------------------------------------------------------------


def check_pair_counts_and_iso(rng) -> str:
    for m in range(5):
        for i in range(m + 1):
            iso = pair_poset_iso(i, m)
            want = 3 ** (m - i)
            _expect(len(iso.pairs.objects) == want)
            tm = {(iso.fwd[u], iso.fwd[t]) for u, t in iso.tnd.morphisms()}
            pm = set(iso.pairs.morphisms())
            _expect(tm == pm)
    return "pair-poset counts 3^(m-i) and arrow-by-arrow isos, m <= 4"


def check_plus_m(rng) -> str:
    for m in range(5):
        pp = PairPoset(0, m)
        for p in pp.objects:
            q = plus_m(p, m)
            _expect(m in q.J)
            if m in p.J:
                _expect(q == p)
        for p in pp.objects:
            for q in pp.objects:
                if pp.leq(p, q):
                    _expect(pp.leq(plus_m(p, m), plus_m(q, m)))
    return "(-)^{+m} lands in the subposet, fixes it, and is monotone"


def check_bead_functoriality(rng) -> str:
    t = TndPoset(simplex(4), "0", "4")
    count = 0
    for u in t.objects:
        for v in t.objects:
            for w in t.objects:
                if u != v and v != w and t.leq(u, v) and t.leq(v, w):
                    bu_v = t.bead_map(u, v)
                    bv_w = t.bead_map(v, w)
                    direct = t.bead_map(u, w)
                    _expect(tuple(bv_w[i] for i in bu_v) == direct)
                    count += 1
    for u in t.objects:
        for v in t.objects:
            if t.leq(u, v):
                _expect(t.bead_map(u, v)[-1] == len(v.beads) - 1)
    return f"{count} composable pairs; last bead preserved"


def check_wedge_decomposition(rng) -> str:
    d2 = simplex(2)
    cop = coproduct([d2, d2])
    pt = point()
    m1 = SSetMap(pt, cop.sset, {"0": cop.cocone["i0"](nd("2"))})
    m2 = SSetMap(pt, cop.sset, {"0": cop.cocone["i1"](nd("0"))})
    wedge = coequalizer(m1, m2)
    K, quot = wedge.sset, wedge.cocone["X"]
    a = quot(cop.cocone["i0"](nd("0"))).gen
    b = quot(cop.cocone["i1"](nd("2"))).gen
    mid = quot(cop.cocone["i0"](nd("2"))).gen
    t = TndPoset(K, a, b)
    t1 = TndPoset(K, a, mid)
    t2 = TndPoset(K, mid, b)
    _expect(len(t.objects) == len(t1.objects) * len(t2.objects))
    return f"|nec(K1 v K2)| = {len(t.objects)} = {len(t1.objects)} * {len(t2.objects)}"


# -- cube / weighted colimit suite ----------------------------------------------


def check_cube_counts(rng) -> str:
    import math

    for pair in [PairObject.of((0, 3), (0, 1, 2, 3)), PairObject.of((0, 2), (0, 1, 2)),
                 PairObject.of((0, 4), (0, 1, 2, 3, 4))]:
        c = cube_of_pair(pair)
        free = len(pair.V) - len(pair.J)
        counts = c.space.nd_counts()
        _expect(counts[0] == 2 ** free)
        _expect(counts[-1] == math.factorial(free))
        for j, n in enumerate(counts):
            want = len([ch for ch in chains(pair.J, pair.V, j)
                        if all(ch[r] != ch[r + 1] for r in range(j))])
            _expect(n == want)
    return "strict chain counts and top-cell factorials"


def check_wedge_splitting(rng) -> str:
    checked = 0
    for dims in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        m1, m2 = dims
        whole = cube_hom((0, m1, m1 + m2), range(m1 + m2 + 1))
        left = cube_hom((0, m1), range(m1 + 1))
        right = cube_hom((m1, m1 + m2), range(m1, m1 + m2 + 1))
        _expect(split_iso(whole, left, right).is_iso())
        checked += 1
    # naturality: refine either bead to its spine and chase the square
    for side, (m1, m2) in [("left", (2, 1)), ("left", (2, 2)), ("right", (1, 2)),
                           ("right", (2, 2))]:
        whole = cube_hom((0, m1, m1 + m2), range(m1 + m2 + 1))
        left = cube_hom((0, m1), range(m1 + 1))
        right = cube_hom((m1, m1 + m2), range(m1, m1 + m2 + 1))
        if side == "left":
            sub_whole = cube_hom(tuple(range(m1 + 1)) + (m1 + m2,), range(m1 + m2 + 1))
            sub_left = cube_hom(range(m1 + 1), range(m1 + 1))
            s_small = split_iso(sub_whole, sub_left, right)
            pf_factor = pushforward(sub_left, left)
            pf_pair = _factor_map(pf_factor, right.space, flip=False)
        else:
            sub_whole = cube_hom((0,) + tuple(range(m1, m1 + m2 + 1)),
                                 range(m1 + m2 + 1))
            sub_right = cube_hom(range(m1, m1 + m2 + 1), range(m1, m1 + m2 + 1))
            s_small = split_iso(sub_whole, left, sub_right)
            pf_factor = pushforward(sub_right, right)
            pf_pair = _factor_map(pf_factor, left.space, flip=True)
        s_big = split_iso(whole, left, right)
        pf = pushforward(sub_whole, whole)
        _expect(s_small.then(pf_pair).assign == pf.then(s_big).assign, (side, m1, m2))
        checked += 1
    return f"{checked} wedge splittings are isomorphisms, natural in the factors"


def _factor_map(f, other: SSet, flip: bool) -> SSetMap:
    """(f x id) or (id x f) between binary products of cube spaces."""
    if flip:
        src = product(other, f.src)
        dst = product(other, f.dst)
        return pairing(dst, [src.projections[0], src.projections[1].then(f)])
    src = product(f.src, other)
    dst = product(f.dst, other)
    return pairing(dst, [src.projections[0].then(f), src.projections[1]])


def check_pushforward(rng) -> str:
    pp = PairPoset(0, 2)
    for p in pp.objects:
        for q in pp.objects:
            if pp.leq(p, q):
                f = pushforward(cube_of_pair(p), cube_of_pair(q))
                _expect(f.is_mono())
    for p in pp.objects:
        for q in pp.objects:
            for r in pp.objects:
                if pp.leq(p, q) and pp.leq(q, r) and p != q and q != r:
                    lhs = pushforward(cube_of_pair(p), cube_of_pair(q)).then(
                        pushforward(cube_of_pair(q), cube_of_pair(r)))
                    rhs = pushforward(cube_of_pair(p), cube_of_pair(r))
                    _expect(lhs.assign == rhs.assign)
    return "pushforwards are monic and functorial"


def check_constant_weight(rng) -> str:
    for m in range(1, 4):
        wc = weighted_colim(weight_constant(0, m, point()))
        ch = categorify(delta_precat(m + 1).W)
        direct = ch.hom_sset("0", str(m + 1))
        _expect(find_iso(wc.sset, direct) is not None)
    return "constant-weight colimit reproduces the coherent homs, m <= 3"


def _im_induced_map(A: SSet, B: SSet) -> SSetMap:
    """The evident component between two weight values: identity or out of empty."""
    if A.is_empty():
        return SSetMap(A, B, {}, validate=False)
    if A == B:
        return identity_map(A)
    raise AssertionError("unexpected weight component")


def check_Fcoeq(rng) -> str:
    d1 = simplex(1)
    f = identity_map(d1)
    for m in range(1, 4):
        for i in range(0, m + 1):
            target = (_f_boundary_weight(m, f) if i == 0
                      else weight_F(delta.identity(m), f, i, m))
            pieces = {s: weight_F(delta.coface(s, m), f, i, m) for s in range(m + 1)}
            rels = {(s, t): weight_F(delta.compose(delta.coface(t, m),
                                                   delta.coface(s, m - 1)), f, i, m)
                    for s in range(m + 1) for t in range(s + 1, m + 1)}
            for T in target.poset.objects:
                diag_ = Diagram({})
                test = {}
                for s, w in pieces.items():
                    diag_.objects[f"c{s}"] = w.value[T]
                for (s, t), w in rels.items():
                    name = f"r{s}.{t}"
                    diag_.objects[name] = w.value[T]
                    diag_.add(f"a{s}.{t}", name, f"c{s}",
                              _im_induced_map(w.value[T], pieces[s].value[T]))
                    diag_.add(f"b{s}.{t}", name, f"c{t}",
                              _im_induced_map(w.value[T], pieces[t].value[T]))
                col = colimit(diag_)
                for s, w in pieces.items():
                    test[f"c{s}"] = _im_induced_map(w.value[T], target.value[T])
                for (s, t), w in rels.items():
                    test[f"r{s}.{t}"] = _im_induced_map(w.value[T], target.value[T])
                u = mediating_map(col, diag_.objects, test)
                _expect(u.is_iso(), (m, i, T))
    return "coequalizer law for the boundary weights, m <= 3"


def check_pushout_law(rng) -> str:
    from .cubes import last_factor_postcompose

    d1 = simplex(1)
    f = sub_inclusion(boundary(1), d1)
    parts = component_maps(f)
    for m in range(1, 3):
        g0 = weight_G0(m, f)
        wtop = _f_boundary_weight(m, identity_map(d1))
        for T in g0.poset.objects:
            t = len(T.J) - 1
            diag_ = Diagram({"y": wtop.value[T]})
            for jx, fj in enumerate(parts):
                wdel = _f_boundary_weight(m, fj)
                wid = weight_F(delta.identity(m), fj, 0, m)
                diag_.objects[f"a{jx}"] = wdel.value[T]
                diag_.objects[f"x{jx}"] = wid.value[T]
                if wdel.value[T].is_empty():
                    to_y = SSetMap(wdel.value[T], wtop.value[T], {}, validate=False)
                    to_x = SSetMap(wdel.value[T], wid.value[T], {}, validate=False)
                else:
                    to_y = last_factor_postcompose(t, fj)
                    to_x = identity_map(wdel.value[T])
                diag_.add(f"fa{jx}", f"a{jx}", "y", to_y)
                diag_.add(f"ga{jx}", f"a{jx}", f"x{jx}", to_x)
            col = colimit(diag_)
            _expect(find_iso(col.sset, g0.value[T]) is not None, (m, T))
    return "pushout law for the pushout-product weight, m <= 2"


def _f_boundary_weight(m, f):
    """F^0_{boundary, m}: F^0_{id} away from the top cell, empty at the top."""
    from .cubes import Weight
    from .sset import EMPTY

    base = weight_F(delta.identity(m), f, 0, m)
    pp = base.poset
    top = pp.top()
    values = dict(base.value)
    values[top] = EMPTY

    def arrow(p, q):
        if values[q].is_empty():
            return SSetMap(EMPTY, values[p], {}, validate=False)
        return base.arrow(p, q)

    return Weight(pp, values, arrow)


# -- enriched suite ----------------------------------------------------------------


def check_categorify_ch(rng) -> str:
    for m in range(4):
        C = categorify(horizontal(simplex(m)))
        ch = ch_simplex(m)
        for i in range(m + 1):
            for j in range(m + 1):
                A = C.hom_sset(str(i), str(j))
                B = ch.hom[(str(i), str(j))]
                _expect(find_iso(A, B) is not None, (m, i, j))
        # composition compatibility via the explicit chain description
        cat = C.scat()
        cat.verify(bound=min(m, 2))
    return "categorified simplices match the coherent simplex category, m <= 3"


def check_sh1_sigma(rng) -> str:
    for X in [simplex(0), simplex(1), simplex(2), boundary(2), spine(2)]:
        C = categorify(lf(1, X).W)
        H = C.hom_sset("0", "1")
        _expect(find_iso(H, X) is not None)
    return "Hom_{cLF[1,X]}(0,1) = X on the catalog"


def check_composition_closure(rng) -> str:
    C = categorify(lf(2, simplex(1)).W)
    cat = C.scat()
    cat.verify(bound=2)
    return "category laws for cLF[2, D1] up to level 2"


def check_nerve_agreement(rng) -> str:
    for Ccat in [suspension(simplex(0)), suspension(simplex(1))]:
        N = strict_nerve(Ccat, 2, 2)
        HN = hc_nerve(Ccat, 2, 2)
        for mk in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]:
            _expect(len(N.bisset.simplices(*mk)) == len(HN.bisset.simplices(*mk)))
        phi = nerve_comparison(N, HN)
        _expect(phi.is_mono())
    return "strict and coherent nerves agree in rows 0 and 1; comparison is monic"


def check_lan_identity(rng) -> str:
    ch = ch_simplex(1)
    F = representable(ch, "1")
    from .scat import EnrichedFunctor

    G = EnrichedFunctor(ch, ch, {o: o for o in ch.objects}, lambda a, b, x: x)
    lan = enriched_lan(F, G, ch, {}, CoendTable(None))
    for a in ch.objects:
        _expect(find_iso(lan.presheaf.value[a], F.value[a]) is not None)
    cmp = lan_into_representable(lan, G, ch, "1")
    _expect(all(c.is_iso() for c in cmp.values()))
    return "lan along the identity is the identity; representables extend to representables"


def check_lan_tensors(rng) -> str:
    from .scat import EnrichedFunctor, point_cat

    pt = point_cat()
    arrow = suspension(simplex(0))

    def on_hom(a, b, x):
        return arrow.id_el("1", arrow.hom[("1", "1")].dim(x))

    G = EnrichedFunctor(pt, arrow, {"0": "1"}, on_hom)
    F = Presheaf(pt, {"0": simplex(1)}, lambda a, b, h, x: x)
    for X in [simplex(1), boundary(1)]:
        lhs = enriched_lan(F.tensor(X), G, arrow, {}, CoendTable(None))
        rhs = enriched_lan(F, G, arrow, {}, CoendTable(None))
        for dd in arrow.objects:
            want = product(rhs.presheaf.value[dd], X).sset
            _expect(find_iso(lhs.presheaf.value[dd], want) is not None, (dd,))
    return "extension commutes with tensors on the catalog"


def check_lan_sigma_m(rng) -> str:
    for m, X in [(1, simplex(1)), (2, simplex(0)), (2, simplex(1))]:
        S = sigma_m(X, m)
        L = lf(m, X)
        C = categorify(L.W)
        cat = C.scat()
        # the canonical functor Sigma_m X -> cLF[m,X]: spine necklaces
        def on_hom(a, b, x, C=C, S=S, cat=cat, m=m):
            ia, ib = int(a), int(b)
            j = S.hom[(a, b)].dim(x)
            if ia == ib:
                return cat.id_el(a, j)
            parts = [x] if ib - ia == 1 else [
                pr(x) for pr in S.cross[(a, b)].projections]
            return C.element(a, b, j, [bead(L, (ia + r, ia + r + 1), y)
                                       for r, y in enumerate(parts)], {})

        from .scat import EnrichedFunctor

        G = EnrichedFunctor(S, cat, {o: o for o in S.objects}, on_hom)
        G.verify(bound=1)
        F = representable(S, str(m))
        lan = enriched_lan(F, G, cat, {}, CoendTable(None))
        cmp = lan_into_representable(lan, G, cat, str(m))
        _expect(all(c.is_mono() for c in cmp.values()))
    return "lan of representables along Sigma_m -> cLF[m,X] embeds into the homs"


# -- straighten suite ----------------------------------------------------------------


def dual_path_battery() -> list[tuple[str, bool]]:
    """Exact dual-route checks: weighted-colimit formula vs categorified cone, m <= 2."""
    results = []
    for fname, f in _mono_catalog():
        for m in range(3):
            for mu in _injections(m):
                cones = {}
                for i in range(m + 1):
                    lhs = st_mono_formula(mu, m, f, i)
                    rhs = cone_hom(mu, m, f, i, cache=cones)
                    ok = find_iso(lhs, rhs) is not None
                    results.append((f"dual[{fname},m={m},mu={mu},i={i}]", ok))
    return results


def check_dual_path(rng) -> str:
    results = dual_path_battery()
    bad = [n for n, ok in results if not ok]
    _expect(not bad, bad)
    return f"{len(results)} dual-route isomorphisms"


def check_dual_path_randomized(rng) -> str:
    """Seeded extra samples: inclusions between connected subcomplexes of a triangle."""
    d2 = simplex(2)
    gens = {
        "edge01": ["0.1"], "edge02": ["0.2"], "spine": ["0.1", "1.2"],
        "horn0": ["0.1", "0.2"], "bd": ["0.1", "0.2", "1.2"], "full": ["0.1.2"],
    }
    subs = {}
    for name, gg in gens.items():
        subs[name] = sub_sset(d2, gg)
    contains = [(a, b) for a in subs for b in subs
                if set(subs[a][0].gens()) <= set(subs[b][0].gens())]
    checked = 0
    for _ in range(6):
        a, b = rng.choice(contains)
        Xs, _ = subs[a]
        Ys, _ = subs[b]
        f = SSetMap(Xs, Ys, {g: nd(g) for g in Xs.gens()})
        m = rng.choice([1, 2])
        mu = rng.choice(_injections(m))
        i = rng.choice(range(m + 1))
        lhs = st_mono_formula(mu, m, f, i)
        rhs = cone_hom(mu, m, f, i)
        _expect(find_iso(lhs, rhs) is not None, (a, b, m, mu, i))
        checked += 1
    return f"{checked} randomized dual-route isomorphisms"


def check_tensor_compat(rng) -> str:
    from .bisset import BiMap, bi_colimit

    cases = 0
    for Wname, Wlf in [("pt", delta_precat(0)), ("D1", delta_precat(1))]:
        W = Wlf.W
        pt_pre = delta_precat(0).W
        # three total objects over W: the identity, a vertex, their disjoint union
        ps: list[tuple[str, object, object]] = [("id", W, bi_identity(W))]
        v0 = constant_map(pt_pre, W, "0")
        ps.append(("vertex", pt_pre, v0))
        dj = bi_colimit(Diagram({"i0": W, "i1": pt_pre}))
        ps.append(("sum", dj.bisset, induced_map(dj, {"i0": bi_identity(W), "i1": v0}, W)))
        st = Straightener(W)
        for pname, P, p in ps:
            ob = st.st_object(P, p)
            for X in [simplex(1), boundary(2)]:
                TX, elem_of, to_nf = vtensor(P, X)
                pmap = BiMap(TX, W, {g: p(elem_of[g][0]) for g in TX.gens()},
                             validate=False)
                obX = st.st_object(TX, pmap)
                for a in st.CW.objects:
                    lhs = obX.value(a)
                    rhs = product(ob.value(a), X).sset
                    _expect(find_iso(lhs, rhs) is not None, (Wname, pname, a))
                cases += 1
    return f"St(p tensor X) = St(p) tensor X on {cases} cases"


def check_st_colimits(rng) -> str:
    W = delta_precat(1).W
    st = Straightener(W)
    rng2 = random.Random(7)
    for trial, v in enumerate([str(rng2.choice([0, 1])) for _ in range(3)]):
        # glue two copies of the identity object along a vertex
        A = delta_precat(0).W
        f1 = constant_map(A, W, v)
        f2 = constant_map(A, W, v)
        po = bi_pushout(f1, f2)
        pmap = induced_map(po, {"X": bi_identity(W), "Y": bi_identity(W), "A": f1}, W)
        ob = st.st_object(po.bisset, pmap)
        ob1x = st.st_object(W, bi_identity(W))
        obA = st.st_object(A, f1)
        for a in st.CW.objects:
            colD = Diagram({"a": obA.value(a), "x": ob1x.value(a), "y": ob1x.value(a)})
            colD.add("f", "a", "x", st_over_map(obA, ob1x, f1, a))
            colD.add("g", "a", "y", st_over_map(obA, ob1x, f2, a))
            col = colimit(colD)
            _expect(find_iso(col.sset, ob.value(a)) is not None, (trial, a))
    return "St of pushouts is the valuewise pushout (3 pushouts over D1)"


def check_cone_decomposition(rng) -> str:
    for m in range(3):
        for X in [simplex(0), simplex(1)]:
            cn = cone((m,), m, identity_map(X))
            lfm = lf(m, X)
            lf1 = lf(1, X)
            pt = delta_precat(0).W
            glue1 = constant_map(pt, lfm.W, str(m))
            glue2 = constant_map(pt, lf1.W, "0")
            po = bi_pushout(glue1, glue2)
            _expect(find_iso(cn.ext, po.bisset) is not None, (m,))
    return "Cone(<m>, id) decomposes as the endpoint gluing, m <= 2"


def check_cone_vertices(rng) -> str:
    n = 0
    for fname, f in _mono_catalog():
        if not is_connected(f.src):
            continue
        for m in range(3):
            for mu in _injections(m):
                cn = cone(mu, m, f)
                _expect(sorted(cn.ext.gens_at(0, 0), key=int) == [
                    str(i) for i in range(m + 2)])
                n += 1
    return f"{n} cone vertex sets are 0..m+1 on the connected catalog"


def check_stvssigma(rng) -> str:
    W = horizontal(simplex(2))
    st = Straightener(W)
    for g in W.gens():
        m, k = W.bidegree(g)
        cell = Cell(m, k, bnd(g))
        ws = w_sigma(W, cell)
        Cs = categorify(ws.ext)
        for a in st.CW.objects:
            ia = ws.iota(bnd(a)).gen
            lhs = Cs.hom_sset(ia, ws.top)
            rhs = st.value(cell, a)
            _expect(find_iso(lhs, rhs) is not None, (g, a))
    return "one-point extension route matches the Kan route on all cells of D2"


# (n, presheaf names): the catalog presheaves over Delta[n] of check_adjunction
ADJUNCTION_CASES = [(0, ("pt", "D1", "D2")), (1, ("terminal", "rep0", "rep1"))]


def check_adjunction(rng) -> str:
    cases = 0
    for n, Fs in ADJUNCTION_CASES:
        W = delta_precat(n).W
        st = Straightener(W)
        for fname in Fs:
            F = _catalog_presheaf(st, fname)
            un = unstraighten(st, F, W.h_bound, max(W.v_bound, 1))
            for g in W.gens():
                m, k = W.bidegree(g)
                cell = Cell(m, k, bnd(g))
                nats = list(enumerate_nat_trans(st.st_rep(cell), F))
                over = [e for e in un.bisset.simplices(m, k)
                        if un.projection(e) == bnd(g)]
                _expect(len(nats) == len(over), (fname, g, len(nats), len(over)))
                cases += 1
            _check_adjunction_naturality(st, F, un)
    return f"{cases} fiberwise adjunction bijections, natural in the cell"


def _catalog_presheaf(st, fname):
    base = st.base_cat
    if fname == "terminal":
        return terminal_presheaf(base)
    if fname.startswith("rep"):
        return representable(base, fname[3:])
    X = {"pt": simplex(0), "D1": simplex(1), "D2": simplex(2)}[fname]
    return Presheaf(base, {a: X for a in base.objects}, lambda a, b, h, x: x)


def _check_adjunction_naturality(st, F, un):
    """Operators on Un F agree with pre-composition by straightened operators."""
    W = st.W
    for g in un.bisset.gens():
        m, k = un.bisset.bidegree(g)
        e, enc = un.elem_of[g]
        for direction, n in (("h", m), ("v", k)):
            for i in range(n + 1) if n else ():
                mu_h = delta.coface(i, m) if direction == "h" else None
                mu_v = delta.coface(i, k) if direction == "v" else None
                e2, enc2 = un.act((e, enc), (m, k), mu_h, mu_v)
                cell2 = Cell(m - (direction == "h"), k - (direction == "v"), e2)
                eta2 = un.decode(cell2, enc2)
                eta2.verify(bound=1)
    from .bisset import BiSSet

    BiSSet([(g, un.bisset.bidegree(g)) for g in un.bisset.gens()],
           un.bisset.hfaces, un.bisset.vfaces)


def check_boundary_pp(rng) -> str:
    d1 = simplex(1)
    cases = [(1, sub_inclusion(boundary(1), d1)), (2, sub_inclusion(boundary(1), d1))]
    for m, f in cases:
        ob_pp, full, compare = straighten_boundary_pp(m, f)
        for a in sorted(compare):
            if a != "0":
                _expect(compare[a].is_iso(), (m, a))
        g0w = weight_G0(m, f)
        wc0 = weighted_colim(g0w)
        _expect(find_iso(wc0.sset, ob_pp.value("0")) is not None)
        idY = identity_map(d1)
        wcF = weighted_colim(weight_F(delta.identity(m), idY, 0, m))
        _expect(find_iso(wcF.sset, full.value("0")) is not None)
    return "pushout-product straightening: isos at i>0, G-weight value at 0"


def check_pi_projection(rng) -> str:
    for m in range(3):
        for Y in [simplex(0), simplex(1)]:
            pi = projection_pi(m, Y)
            for i in range(m + 1):
                for j in range(i, m + 1):
                    H = pi.C.hom_sset(str(i), str(j))
                    for g in H.gens():
                        img = pi.on_hom(str(i), str(j), pi.iota.on_hom(str(i), str(j), nd(g)))
                        _expect(img == nd(g), (m, i, j, g))
    return "Pi composed with the face inclusion is the coproduct inclusion, m <= 2"


# -- groth suite ----------------------------------------------------------------


def check_groth_levels(rng) -> str:
    arrow = suspension(simplex(0))
    sd1 = suspension(simplex(1))
    for C in [arrow, sd1]:
        N = strict_nerve(C)
        for F in [terminal_presheaf(C), representable(C, "1")]:
            G = groth(N, F)
            rep = rightfib_check(G.bisset, N.bisset, G.projection)
            _expect(rep.passed)
            from .bisset import BiSSet

            BiSSet([(g, G.bisset.bidegree(g)) for g in G.bisset.gens()],
                   G.bisset.hfaces, G.bisset.vfaces)
    return "strict pullback levels and simplicial identities on the catalog"


def check_groth_tensors(rng) -> str:
    arrow = suspension(simplex(0))
    N = strict_nerve(arrow)
    F = representable(arrow, "1")
    G = groth(N, F)
    for X in [simplex(1), boundary(2)]:
        GFX = groth(N, F.tensor(X))
        TX, _, _ = vtensor(G.bisset, X)
        _expect(find_iso(GFX.bisset, TX) is not None)
    return "the total object preserves tensors on the catalog"


def check_groth_colimits(rng) -> str:
    arrow = suspension(simplex(0))
    N = strict_nerve(arrow)
    T = terminal_presheaf(arrow)
    GT = groth(N, T)
    for top in ("1", "0"):
        F = representable(arrow, top)
        GF = groth(N, F)
        eta = NatTrans(F, T, {a: _to_terminal(F.value[a]) for a in arrow.objects})
        # the pushout of the totals of F <- F -> T against the total of the valuewise pushout
        po = bi_pushout(groth_map(GF, GT, eta), bi_identity(GF.bisset))
        GPO = groth(N, _pushout_presheaf(arrow, F, T))
        _expect(find_iso(po.bisset, GPO.bisset) is not None)
    return "the total object preserves pushouts (F <- F -> * for F = Hom(-, 1), Hom(-, 0))"


def _to_terminal(X):
    return constant_map(X, point(), "0")


def _pushout_presheaf(C, F, T):
    values = {}
    cocones = {}
    for a in C.objects:
        col = pushout(identity_map(F.value[a]), _to_terminal(F.value[a]))
        values[a] = col.sset
        cocones[a] = col

    def action(a, b, h, x):
        name, rep = cocones[b].reps[x.gen]
        y = NF(x.word, rep.gen)  # reps are generators: s_w rep lies in the class s_w x
        if name == "Y":
            return cocones[a].cocone["Y"](y)
        return cocones[a].cocone[name](F.action(a, b, h, y))

    return Presheaf(C, values, action)


def check_groth_adjunction(rng) -> str:
    arrow = suspension(simplex(0))
    N = strict_nerve(arrow)
    F = representable(arrow, "1")
    G = groth(N, F)
    for P, p in [(G.bisset, G.projection), (N.bisset, bi_identity(N.bisset))]:
        H = groth_right_adjoint(N, P, p, k_bound=1)
        H.verify(bound=1)
        nmaps = len(list(enumerate_maps(G.bisset, P, over=(G.projection, p))))
        nnats = len(list(enumerate_nat_trans(F, H)))
        _expect(nmaps == nnats, (nmaps, nnats))
    return "slice maps out of the total object biject with transformations"


# -- suite registry ----------------------------------------------------------------


SUITES: dict[str, list[tuple[str, Check]]] = {
    "sset": [
        ("ez_roundtrip", check_ez_roundtrip),
        ("simplicial_identities", check_simplicial_identities),
        ("product_counts", check_product_counts),
        ("boundary_coequalizer", check_boundary_coequalizer),
        ("colimit_universal", check_colimit_universal),
        ("product_colimit_interchange", check_product_colimit_interchange),
        ("one_ordered", check_1_ordered),
        ("discretize_idempotent", check_discretize_idempotent),
        ("diag", check_diag),
        ("lf_row0", check_lf_counts),
    ],
    "necklace": [
        ("pair_counts_and_iso", check_pair_counts_and_iso),
        ("plus_m", check_plus_m),
        ("bead_functoriality", check_bead_functoriality),
        ("wedge_decomposition", check_wedge_decomposition),
    ],
    "dshom": [
        ("cube_counts", check_cube_counts),
        ("wedge_splitting", check_wedge_splitting),
        ("pushforward", check_pushforward),
        ("constant_weight", check_constant_weight),
        ("coequalizer_law", check_Fcoeq),
        ("pushout_law", check_pushout_law),
    ],
    "enriched": [
        ("categorify_matches_coherent_simplex", check_categorify_ch),
        ("suspension_hom", check_sh1_sigma),
        ("composition_closure", check_composition_closure),
        ("nerve_agreement", check_nerve_agreement),
        ("lan_identity", check_lan_identity),
        ("lan_tensors", check_lan_tensors),
        ("lan_sigma_m", check_lan_sigma_m),
    ],
    "straighten": [
        ("dual_path", check_dual_path),
        ("dual_path_randomized", check_dual_path_randomized),
        ("tensor_compat", check_tensor_compat),
        ("st_colimits", check_st_colimits),
        ("cone_decomposition", check_cone_decomposition),
        ("cone_vertices", check_cone_vertices),
        ("stvssigma", check_stvssigma),
        ("adjunction", check_adjunction),
        ("boundary_pushout_product", check_boundary_pp),
        ("pi_inclusion", check_pi_projection),
    ],
    "groth": [
        ("pullback_levels", check_groth_levels),
        ("tensors", check_groth_tensors),
        ("colimits", check_groth_colimits),
        ("adjunction", check_groth_adjunction),
    ],
}


def run_suite(name: str, seed: int = 0) -> list[dict]:
    """Run one suite, or every suite for "all": one dict per check with its
    name, status, detail or witness, and the wall-clock seconds it took.  The
    seconds stay out of a check.v1 report's checks; `neckcalc verify
    --timings` reports them under timings."""
    if name == "all":
        names = [n for n in SUITES]
    else:
        names = [name]
    out = []
    for n in names:
        if n not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        for check_name, fn in SUITES[n]:
            rng = random.Random(seed)
            t0 = time.perf_counter()
            try:
                detail = fn(rng)
                res = {"name": f"{n}.{check_name}", "status": "pass", "detail": detail}
            except AssertionError as exc:
                res = {"name": f"{n}.{check_name}", "status": "fail",
                       "witness": str(exc) or "assertion failed"}
            except Exception as exc:  # pragma: no cover - defensive
                res = {"name": f"{n}.{check_name}", "status": "error",
                       "witness": f"{type(exc).__name__}: {exc}"}
            res["seconds"] = time.perf_counter() - t0
            out.append(res)
    return out
