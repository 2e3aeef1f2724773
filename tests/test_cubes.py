import pytest

from necklace_calculus import delta, shapes, ops
from necklace_calculus.cubes import (chains, cube_hom, cube_of_pair, projection_phi,
                                     pushforward, split_iso, weight_F, weight_G0,
                                     weight_constant, weighted_colim, weight_inclusion_G0_F0)
from necklace_calculus.io_schemas import sset_dump
from necklace_calculus.necklace import PairObject, PairPoset, UnsupportedInput
from necklace_calculus.sset import SSetMap, identity_map

from oracles import cube_hom_by_listing, interval_nerve_counts, weight_G0_by_products

d = shapes.simplex


def test_cube_counts_match_chain_oracle():
    for J, V in [((0, 3), (0, 1, 2, 3)), ((0, 2), (0, 1, 2)), ((0, 2, 4), (0, 1, 2, 3, 4)),
                 ((0, 1), (0, 1))]:
        c = cube_hom(J, V)
        assert c.space.nd_counts() == interval_nerve_counts(J, V)


def test_cube_of_single_bead_is_cube():
    c = cube_hom((0, 3), (0, 1, 2, 3))
    assert ops.find_iso(c.space, ops.product(d(1), d(1)).sset) is not None


def test_triple_wedge_is_point():
    c = cube_hom((0, 1, 2, 3), (0, 1, 2, 3))
    assert c.space.nd_counts() == (1,)


def test_split_iso():
    whole = cube_hom((0, 2, 4), (0, 1, 2, 3, 4))
    left, right = cube_hom((0, 2), (0, 1, 2)), cube_hom((2, 4), (2, 3, 4))
    assert split_iso(whole, left, right).is_iso()


def test_pushforward_directions():
    src = cube_hom((0, 2), (0, 2))
    dst = cube_hom((0, 2), (0, 1, 2))
    pf = pushforward(src, dst)
    assert pf.is_mono()
    with pytest.raises(Exception):
        pushforward(dst, src)


def test_projection_phi():
    p = PairObject.of((0, 2), (0, 1, 2))
    q, phi = projection_phi(1, p)
    assert q == PairObject.of((0, 1, 2), (0, 1, 2))
    assert phi.dst.nd_counts() == (1,)
    p2 = PairObject.of((0, 1, 2), (0, 1, 2))
    q2, phi2 = projection_phi(1, p2)
    assert q2 == p2 and phi2.is_iso()


def test_projection_phi_naturality():
    # the square for edge <= full, m = 1, target 2
    pp = PairPoset(0, 1)
    edge = PairObject.of((0, 2), (0, 2))
    full = PairObject.of((0, 2), (0, 1, 2))
    _, phi_e = projection_phi(1, edge)
    _, phi_f = projection_phi(1, full)
    pf = pushforward(cube_of_pair(edge), cube_of_pair(full))
    pf_plus = pushforward(cube_of_pair(PairObject.of((0, 1, 2), (0, 1, 2))),
                          cube_of_pair(PairObject.of((0, 1, 2), (0, 1, 2))))
    lhs = phi_e.then(pf_plus)
    rhs = pf.then(phi_f)
    assert lhs.assign == rhs.assign


def test_weight_F_values():
    Y = d(1)
    w = weight_F(delta.identity(1), identity_map(Y), 1, 1)
    assert list(w.value.values())[0].nd_counts() == (2, 1)
    # last bead outside the image kills the value
    w2 = weight_F((1,), identity_map(d(0)), 0, 1)
    vals = {p: w2.value[p].nd_counts() for p in w2.poset.objects}
    nonzero = [p for p, v in vals.items() if v]
    assert nonzero == [PairObject.of((0, 1, 2), (0, 1, 2))]
    w.check_functorial()
    w2.check_functorial()


def test_weight_F_rejects_disconnected():
    f = shapes.sub_inclusion(shapes.boundary(1), d(1))
    with pytest.raises(UnsupportedInput):
        weight_F(delta.identity(1), f, 0, 1)


def test_weight_G0():
    f = shapes.sub_inclusion(shapes.boundary(1), d(1))
    g0 = weight_G0(1, f)
    g0.check_functorial()
    pp = g0.poset
    vals = {p: g0.value[p] for p in pp.objects}
    assert vals[pp.top()] == shapes.boundary(1)
    # f = id: G0 equals F0 objectwise
    g0id, f0, incl = weight_inclusion_G0_F0(1, identity_map(d(1)))
    for p in g0id.poset.objects:
        assert incl[p].is_iso()


@pytest.mark.parametrize("m", [0, 1, 2])
def test_weight_G0_matches_its_own_products(m):
    # G0 built from F0 has the values and arrows of G0 built from its own products
    from necklace_calculus.verify import _mono_catalog

    for fname, f in _mono_catalog():
        got, want = weight_G0(m, f), weight_G0_by_products(m, f)
        pp = got.poset
        assert pp.objects == want.poset.objects
        for p in pp.objects:
            assert got.value[p] == want.value[p], (fname, p)
            for q in pp.objects:
                if pp.leq(p, q):
                    assert got.arrow(p, q).assign == want.arrow(p, q).assign, (fname, p, q)


@pytest.mark.parametrize("J,V", [((0, 1), (0, 1)), ((0, 2), (0, 1, 2)), ((0, 3), range(4)),
                                 ((0, 2, 4), range(5)), ((1, 4), (1, 2, 3, 4))])
def test_cube_hom_matches_listing_oracle(J, V):
    # strict chains with the engine's normal forms give the generators, faces
    # and normal forms of the listing of every chain
    c = cube_hom(J, V)
    space, chain_of, to_nf = cube_hom_by_listing(J, V)
    assert sset_dump(c.space) == sset_dump(space)
    assert c.chain_of == chain_of
    for j in range(c.space.dim_bound + 2):
        for ch in chains(J, V, j):
            assert c.to_nf(j, ch) == to_nf(j, ch), (j, ch)


def test_weighted_colim_constant():
    for m in [1, 2]:
        wc = weighted_colim(weight_constant(0, m, d(0)))
        want = cube_hom((0, m + 1), tuple(range(m + 2)))
        assert ops.find_iso(wc.sset, want.space) is not None


def test_weighted_colim_empty():
    from necklace_calculus.cubes import Weight
    from necklace_calculus.sset import EMPTY

    pp = PairPoset(0, 1)
    w = Weight(pp, {p: EMPTY for p in pp.objects},
               lambda p, q: SSetMap(EMPTY, EMPTY, {}, validate=False))
    assert weighted_colim(w).sset.is_empty()


def test_weighted_colim_single_pair():
    # m=1, i=1: one necklace, weight Y: result is Y
    Y = d(1)
    w = weight_F(delta.identity(1), identity_map(Y), 1, 1)
    wc = weighted_colim(w)
    assert ops.find_iso(wc.sset, Y) is not None


@pytest.fixture(scope="module")
def battery_colims():
    """(levels, act, degen, max_dim, set) of every weighted colimit that the
    dual-route battery builds, its callbacks taken from a wrapped materialize."""
    from necklace_calculus import cubes
    from necklace_calculus.straighten import st_mono_formula
    from necklace_calculus.verify import _injections, _mono_catalog

    materialize, seen = cubes.materialize, []

    def recording(levels, act, max_dim, prefix, degen=None):
        mat = materialize(levels, act, max_dim, prefix=prefix, degen=degen)
        if prefix == "wc":  # weighted_colim's, not cube_hom's
            seen.append((levels, act, degen, max_dim, mat.sset))
        return mat

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubes, "materialize", recording)
        for _, f in _mono_catalog():
            for m in range(3):
                for mu in _injections(m):
                    for i in range(m + 1):
                        st_mono_formula(mu, m, f, i)
    return seen


def test_weighted_colim_keeps_every_element_it_lists(battery_colims):
    # on the weights of the dual-route battery, levels lists only the
    # non-degenerate elements: materialize keeps each element listed
    counts = [(sum(len(levels(j)) for j in range(max_dim + 1)), out.n_gens())
              for levels, _, _, max_dim, out in battery_colims]
    assert counts and all(listed == kept for listed, kept in counts), counts


def test_weighted_colim_undegeneracy_matches_the_operator_action(battery_colims):
    # degen(e, j, i) strips s_i exactly when the operator action says e is
    # s_i of its i-th face: on every listed element and each of its degeneracies
    checked = 0
    for levels, act, degen, max_dim, _ in battery_colims:
        for j in range(max_dim + 1):
            for e in levels(j):
                for x, dx in [(e, j)] + [(act(e, j, delta.codegeneracy(i, j)), j + 1)
                                         for i in range(j + 1)]:
                    for i in range(dx):
                        df = act(x, dx, delta.coface(i, dx))
                        back = act(df, dx - 1, delta.codegeneracy(i, dx - 1))
                        assert degen(x, dx, i) == (df if back == x else None), (x, dx, i)
                        checked += 1
    assert checked
