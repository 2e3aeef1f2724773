import pytest

from necklace_calculus import delta, shapes, ops
from necklace_calculus.bisset import LevelSSet, bnd, horizontal, lf, lf_map
from necklace_calculus.categorify import categorify, cfunctor, scat_functor
from necklace_calculus.necklace import TndPoset, UnsupportedInput, bead_paths
from necklace_calculus.scat import ch_simplex
from necklace_calculus.sset import identity_map, nd

from oracles import (act_hom_action, act_is_1_ordered, act_vertices, cube_chain_counts,
                     hom_bound_by_dfs, hom_levels_from_posets)

d = shapes.simplex

FOUR_BASES = [horizontal(d(4)), lf(3, d(1)).W, lf(2, d(2)).W, lf(2, shapes.boundary(2)).W]
FOUR_IDS = ["delta4", "lf3_delta1", "lf2_delta2", "lf2_bd2"]


def test_categorify_simplex_matches_coherent():
    for m in range(4):
        C = categorify(horizontal(d(m)))
        ch = ch_simplex(m)
        for i in range(m + 1):
            for j in range(m + 1):
                assert ops.find_iso(C.hom_sset(str(i), str(j)),
                                    ch.hom[(str(i), str(j))]) is not None


def test_categorify_homs_of_delta2():
    C = categorify(horizontal(d(2)))
    assert C.hom_sset("0", "2").nd_counts() == (2, 1)
    assert C.hom_sset("0", "1").nd_counts() == (1,)
    assert C.hom_sset("0", "0").nd_counts() == (1,)
    assert C.hom_sset("2", "0").is_empty()


@pytest.mark.parametrize("X", [d(0), d(1), d(2)])
def test_suspension_hom(X):
    C = categorify(lf(1, X).W)
    assert ops.find_iso(C.hom_sset("0", "1"), X) is not None


def test_category_laws():
    C = categorify(lf(2, d(1)).W)
    C.scat().verify(bound=2)


def test_categorify_rejects_loops():
    from necklace_calculus.ops import OrderWitness, pushout, SSetMap

    b1, d1, d0 = shapes.boundary(1), d(1), d(0)
    circ = pushout(SSetMap(b1, d0, {"0": nd("0"), "1": nd("0")}),
                   shapes.sub_inclusion(b1, d1))
    W = horizontal(circ.sset)
    wit = OrderWitness("antisymmetry", ("q1_0",))
    for _ in range(2):
        with pytest.raises(UnsupportedInput) as exc:
            categorify(W)
        assert exc.value.witness == (0, wit)
    # the level's verdict is memoized; a repeated query must raise the same way
    L = LevelSSet(W, 0)
    for _ in range(2):
        with pytest.raises(UnsupportedInput) as exc:
            TndPoset(L, "q0_0", "q0_0")
        assert exc.value.witness == wit
        assert str(exc.value) == "K is not 1-ordered (antisymmetry)"


def test_vertical_loop_above_the_bound():
    # a (1, 1) loop at a, with horizontally degenerate vertical faces: level 0
    # is a point and level 1 is not 1-ordered, so only a bound of 1 reaches the
    # loop, and the gate refuses it before any bead walk
    from necklace_calculus.bisset import BiNF, BiSSet

    W = BiSSet([("a", (0, 0)), ("g", (1, 1))],
               {"g": (BiNF((), (0,), "a"),) * 2}, {"g": (BiNF((0,), (), "a"),) * 2})
    assert categorify(W).hom_sset("a", "a").nd_counts() == (1,)
    with pytest.raises(UnsupportedInput) as exc:
        categorify(W, bound=1)
    assert exc.value.witness == (1, ops.OrderWitness("antisymmetry", ("g",)))


def test_categorify_rejects_two_cycles():
    from necklace_calculus.sset import SSet

    K = SSet([("a", 0), ("b", 0), ("e", 1), ("f", 1)],
             {"e": (nd("b"), nd("a")), "f": (nd("a"), nd("b"))})
    with pytest.raises(UnsupportedInput):
        categorify(horizontal(K))


def test_cfunctor_preserves_structure():
    lf1, lf2 = lf(1, d(1)), lf(2, d(1))
    face = lf_map(lf1, lf2, delta.coface(2, 2), identity_map(d(1)))
    C1, C2 = categorify(lf1.W), categorify(lf2.W)
    sf = scat_functor(face, C1, C2, C1.scat(), C2.scat())
    sf.verify(bound=2)


def test_cfunctor_collapse():
    # collapsing Delta[1] onto a point sends everything to identities
    from necklace_calculus.bisset import BiMap

    W1 = horizontal(d(1))
    W0 = horizontal(d(0))
    f = BiMap(W1, W0, {"0": bnd("0"), "1": bnd("0"),
                       "0.1": W0.act(bnd("0"), mu_h=(0, 0))})
    C1, C0 = categorify(W1), categorify(W0)
    F = cfunctor(f, C1, C0)
    x = nd(C1.hom_sset("0", "1").by_dim[0][0])
    img = F.on_hom("0", "1", x)
    assert img == nd(C0.id_element("0"))


def test_hom_bound_is_exact():
    # the bound is reached: each non-empty hom space has a generator in
    # degree hom_bound(a, b), and bound is the largest of them; a bound set
    # too low would cut the hom spaces at it, so each is also checked
    # against the recursive search
    for W in (lf(2, d(1)).W, lf(3, d(1)).W, lf(2, d(2)).W, lf(1, shapes.boundary(2)).W,
              horizontal(d(4)), horizontal(shapes.boundary(3)), horizontal(shapes.horn(3, 1)),
              horizontal(shapes.spine(3))):
        C = categorify(W)
        rep = C.stabilization_report()
        for (a, b), info in rep.items():
            assert info["complete"]
            assert C.hom_bound(a, b) == hom_bound_by_dfs(C, a, b), (W, a, b)
            if info["top_degree"] >= 0:
                assert info["top_degree"] == info["degree_bound"] == C.hom_bound(a, b), (W, a, b)
        assert C.bound == max(C.hom_bound(a, b) for a, b in rep), W


def test_hom_walks_for_its_bound_once(monkeypatch):
    # one hom build asks for hom_bound(a, b) once; the path listing reuses it
    C = categorify(lf(2, d(2)).W)
    walks = []
    longest = C._longest
    monkeypatch.setattr(C, "_longest", lambda *args: walks.append(args) or longest(*args))
    C.hom(C.objects[0], C.objects[-1])
    assert len(walks) == 1


def test_simplex_hom_is_cube_nerve():
    # Hom_{C[Delta^{k+1}]}(0, k+1) is the nerve of the cube {0,1}^k
    assert cube_chain_counts(5) == (32, 211, 570, 750, 480, 120)
    for k in range(6):
        C = categorify(horizontal(d(k + 1)))
        assert C.hom_sset("0", str(k + 1)).nd_counts() == cube_chain_counts(k)


def _hom_from_full_levels(C, a, b):
    """Hom(a, b) materialized from every element, degenerate ones included."""
    from necklace_calculus.cubes import chains
    from necklace_calculus.necklace import necklace_joint_ids, necklace_vertex_ids
    from necklace_calculus.sset import materialize

    def levels(j):
        poset = TndPoset(C.level(j), a, b)
        return sorted((t.beads, ch) for t in poset.objects
                      for ch in chains(necklace_joint_ids(poset.K, t),
                                       necklace_vertex_ids(poset.K, t), j, saturated=True))

    return materialize(levels, C._act, C.hom_bound(a, b), prefix=f"h{a}.{b}_",
                       degen=C._degen).sset


@pytest.mark.parametrize("W", FOUR_BASES, ids=FOUR_IDS)
def test_hom_matches_full_listing_route(W):
    from necklace_calculus.io_schemas import canonical_json, sset_dump

    C = categorify(W)
    for a in C.objects:
        for b in C.objects:
            want = canonical_json(sset_dump(_hom_from_full_levels(C, a, b)))
            assert canonical_json(sset_dump(C.hom_sset(a, b))) == want, (a, b)


@pytest.mark.parametrize("W", FOUR_BASES, ids=FOUR_IDS)
def test_face_tables_match_act_oracle(W):
    # both sides of each face are read as elements through the generic action,
    # so neither the hom's face table nor its degeneracy stripping is trusted
    C = categorify(W)
    for a in C.objects:
        for b in C.objects:
            hs = C.hom(a, b)
            X = hs.sset
            for x in X.gens():
                j = X.gen_dim(x)
                for i, f in enumerate(X.faces.get(x, ())):
                    want = act_hom_action(C, hs.elem_of[x], j, delta.coface(i, j))
                    got = act_hom_action(C, hs.elem_of[f.gen], X.gen_dim(f.gen),
                                         delta.word_to_epi(f.word, j - 1))
                    assert got == want, (a, b, x, i)


@pytest.mark.parametrize("W", FOUR_BASES, ids=FOUR_IDS)
def test_levels_match_act_oracle(W):
    # table-derived faces, vertices and 1-orderedness on every level slice of
    # the base, and the bead table's row-0 vertices
    C = categorify(W)
    beads = [b for bs in C._beads().values() for b in bs]
    assert sorted(b.gen for b in beads) == sorted(g for g in W.gens() if W.bidegree(g)[0])
    for g, k, verts in beads:
        m = W.bidegree(g)[0]
        assert (k, verts) == (W.bidegree(g)[1],
                              tuple(W.act(bnd(g), mu_h=(i,)).gen for i in range(m + 1))), g
    for j in range(C.bound + 1):
        L = C.level(j)
        for g in L.gens():
            m = L.gen_dim(g)
            for i, f in enumerate(L.faces.get(g, ())):
                want = W.act(L.origin[g], mu_h=delta.coface(i, m))
                assert f == (want.hword, L._id(want.gen, want.vword)), (j, g, i)
            assert L.vertices(nd(g)) == act_vertices(L, nd(g)), (j, g)
        assert ops.is_1_ordered(L) == act_is_1_ordered(L), j


def _straightening_categorifications(n, X):
    """Every categorification built by straightening id (x) X over Delta[n]."""
    from necklace_calculus.bisset import BiMap
    from necklace_calculus.groth import vtensor
    from necklace_calculus.straighten import Straightener, delta_precat

    W = delta_precat(n).W
    P, elem_of, _ = vtensor(W, X)
    st = Straightener(W)
    ob = st.st_object(P, BiMap(P, W, {g: elem_of[g][0] for g in P.gens()}, validate=False))
    for a in st.CW.objects:
        ob.value(a)
    return [st.CW] + [c.C for c in st._cat_lfs.values()]


HOM_LEVEL_CASES = {
    **{name: (lambda W=W: [categorify(W)]) for name, W in zip(FOUR_IDS, FOUR_BASES)},
    "id_x_bd2_over_d2": lambda: _straightening_categorifications(2, shapes.boundary(2)),
    "id_x_d2_over_d1": lambda: _straightening_categorifications(1, d(2)),
    "lf2_delta2_bound2": lambda: [categorify(lf(2, d(2)).W, bound=2)],
}


@pytest.mark.parametrize("name", sorted(HOM_LEVEL_CASES))
def test_hom_levels_match_poset_oracle(name):
    # bead paths give the same generators, in the same order, as the level
    # slices' necklace posets, at every level up to each pair's bound
    for C in HOM_LEVEL_CASES[name]():
        for a in C.objects:
            for b in C.objects:
                paths = list(bead_paths(C._beads(), a, b))
                for j in range(C.hom_bound(a, b) + 1):
                    got = C._hom_level(a, b, paths, j)
                    assert got == hom_levels_from_posets(C, a, b, j), (a, b, j)
