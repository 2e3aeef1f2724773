import pytest

from necklace_calculus import shapes, ops
from necklace_calculus.bisset import bi_identity, horizontal
from necklace_calculus.groth import eta_compare, groth, groth_right_adjoint, rightfib_check
from necklace_calculus.kan import enriched_lan, lan_into_representable
from necklace_calculus.nerves import hc_functors, hc_nerve, nerve_comparison, strict_nerve
from necklace_calculus.scat import (EnrichedFunctor, ch_simplex, enumerate_nat_trans,
                                    representable, suspension, terminal_presheaf)

d = shapes.simplex


def test_strict_nerve_of_arrow():
    N = strict_nerve(suspension(d(0)))
    assert ops.find_iso(N.bisset, horizontal(d(1))) is not None


def test_strict_nerve_of_suspension():
    N = strict_nerve(suspension(d(1)))
    assert N.bisset.nd_counts() == {(0, 0): 2, (1, 0): 2, (1, 1): 1}


def test_strict_nerve_point_category():
    from necklace_calculus.scat import point_cat

    N = strict_nerve(point_cat())
    assert N.bisset.nd_counts() == {(0, 0): 1}


def test_hc_nerve_of_arrow_is_strict():
    arrow = suspension(d(0))
    HN = hc_nerve(arrow, 2, 2)
    N = strict_nerve(arrow, 2, 2)
    assert ops.find_iso(HN.bisset, N.bisset) is not None
    assert nerve_comparison(N, HN).is_iso()


def test_hc_nerve_row1_is_hom():
    SD = suspension(d(1))
    HN = hc_nerve(SD, 1, 2)
    # (1, k) cells: vertices of hom^(Delta[k]) = hom_k, over both object pairs
    for k in range(3):
        cells = HN.bisset.simplices(1, k)
        strings = strict_nerve(SD, 1, 2).bisset.simplices(1, k)
        assert len(cells) == len(strings)


def test_hc_nerve_coherence_cells():
    SD = suspension(d(1))
    HN = hc_nerve(SD, 2, 1)
    counts = HN.bisset.nd_counts()
    assert counts.get((2, 0), 0) > 0  # genuinely new coherence cells
    phi = nerve_comparison(strict_nerve(SD, 2, 1), HN)
    assert phi.is_mono()


def test_hc_functor_count():
    assert len(hc_functors(suspension(d(1)), 2, 0)) == 8


def test_hc_nerve_simplicial_identities():
    from necklace_calculus.bisset import BiSSet

    for C, mb, kb in [(suspension(d(0)), 2, 2), (suspension(d(1)), 2, 1)]:
        HN = hc_nerve(C, mb, kb)
        BiSSet([(g, HN.bisset.bidegree(g)) for g in HN.bisset.gens()],
               HN.bisset.hfaces, HN.bisset.vfaces)


def test_hc_nerve_cell_guard(monkeypatch):
    import pytest
    from necklace_calculus import nerves
    from necklace_calculus.sset import SSetError

    monkeypatch.setattr(nerves, "MAX_FUNCTORS", 3)
    with pytest.raises(SSetError):
        hc_nerve(suspension(d(1)), 2, 1)


def test_lan_identity_and_representable():
    ch = ch_simplex(1)
    F = representable(ch, "1")
    G = EnrichedFunctor(ch, ch, {o: o for o in ch.objects}, lambda a, b, x: x)
    lan = enriched_lan(F, G, ch, {}, {})
    for a in ch.objects:
        assert ops.find_iso(lan.presheaf.value[a], F.value[a]) is not None
    cmp = lan_into_representable(lan, G, ch, "1")
    assert all(c.is_iso() for c in cmp.values())
    lan.presheaf.verify(bound=1)


def test_lan_along_endpoint():
    # extend along [0] -> [1] picking 1: value(1) = X, value(0) = hom(0,1) x X = X
    from necklace_calculus.scat import point_cat, Presheaf

    pt = point_cat()
    arrow = suspension(d(0))
    X = d(1)
    F = Presheaf(pt, {"0": X}, lambda a, b, h, x: x)
    G = EnrichedFunctor(pt, arrow, {"0": "1"}, lambda a, b, x: arrow.id_el("1", 0) if False else x)

    def on_hom(a, b, x):
        return arrow.id_el("1", arrow.hom[("1", "1")].dim(x))

    G = EnrichedFunctor(pt, arrow, {"0": "1"}, on_hom)
    lan = enriched_lan(F, G, arrow, {}, {})
    assert ops.find_iso(lan.presheaf.value["1"], X) is not None
    assert ops.find_iso(lan.presheaf.value["0"], X) is not None


def test_groth_levels_and_fibration():
    arrow = suspension(d(0))
    N = strict_nerve(arrow)
    F = representable(arrow, "1")
    G = groth(N, F)
    assert G.bisset.nd_counts() == {(0, 0): 2, (1, 0): 1}
    assert rightfib_check(G.bisset, N.bisset, G.projection).passed
    # failing case: a free edge over a point
    from necklace_calculus.bisset import BiMap, bnd

    P = horizontal(d(1))
    W = horizontal(d(0))
    p = BiMap(P, W, {"0": bnd("0"), "1": bnd("0"),
                     "0.1": W.act(bnd("0"), mu_h=(0, 0))})
    rep = rightfib_check(P, W, p)
    assert not rep.passed and not rep.per_level[(1, 0)]
    assert rep.homotopy_conditions == "not checked"


def test_groth_terminal_is_nerve():
    C = suspension(d(1))
    N = strict_nerve(C)
    GT = groth(N, terminal_presheaf(C))
    assert ops.find_iso(GT.bisset, N.bisset) is not None


def test_groth_d1_is_evaluation():
    arrow = suspension(d(0))
    N = strict_nerve(arrow)
    F = representable(arrow, "1")
    G = groth(N, F)
    # the top face of the unique (1,0) cell lands in F(0) = Hom(0,1)
    g = [x for x in G.bisset.gens() if G.bisset.bidegree(x) == (1, 0)][0]
    ne, x = G.elem_of[g]
    res = G.act((ne, x), (1, 0), (0,), None)
    assert res[0][0] == ("0",)


def test_eta_compare():
    arrow = suspension(d(0))
    N = strict_nerve(arrow, 2, 2)
    HN = hc_nerve(arrow, 2, 2)
    F = representable(arrow, "1")
    phi = nerve_comparison(N, HN)
    GN, GH = groth(N, F), groth(HN, F)
    eta = eta_compare(GN, GH, phi)
    assert eta.is_iso()  # over [1] both nerves agree
    # level 0 is the identity decomposition
    for g in eta.src.gens():
        if eta.src.bidegree(g)[0] == 0:
            assert eta.assign[g].hword == ()
    # commutes with the projections to the nerves
    lhs = eta.then(GH.projection)
    rhs = GN.projection.then(phi)
    assert lhs.assign == rhs.assign


def test_groth_over_composable_strings():
    # a base category with genuine composites exercises the evaluation face
    from necklace_calculus.scat import ch_simplex
    from necklace_calculus.bisset import BiSSet

    ch2 = ch_simplex(2)
    N = strict_nerve(ch2, 2, 2)
    F = representable(ch2, "2")
    G = groth(N, F)
    assert any(G.bisset.bidegree(g)[0] == 2 for g in G.bisset.gens())
    BiSSet([(g, G.bisset.bidegree(g)) for g in G.bisset.gens()],
           G.bisset.hfaces, G.bisset.vfaces)  # identities encode the action laws
    assert rightfib_check(G.bisset, N.bisset, G.projection).passed


def test_groth_right_adjoint_values():
    arrow = suspension(d(0))
    N = strict_nerve(arrow)
    H = groth_right_adjoint(N, N.bisset, bi_identity(N.bisset), k_bound=1)
    for a in arrow.objects:
        assert H.value[a].nd_counts() == (1,)
    F = representable(arrow, "1")
    G = groth(N, F)
    H2 = groth_right_adjoint(N, G.bisset, G.projection, k_bound=1)
    H2.verify(bound=1)
    n_slice = len(list(ops.enumerate_maps(G.bisset, G.bisset,
                                            over=(G.projection, G.projection))))
    n_nat = len(list(enumerate_nat_trans(F, H2)))
    assert n_slice == n_nat == 1
