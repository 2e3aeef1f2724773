import pytest

from necklace_calculus import delta, shapes, ops
from necklace_calculus.bisset import bnd, horizontal, lf, lf_map
from necklace_calculus.categorify import Categorification, categorify, cfunctor, scat_functor
from necklace_calculus.necklace import UnsupportedInput
from necklace_calculus.scat import ch_simplex
from necklace_calculus.sset import identity_map, nd

from oracles import cube_chain_counts

d = shapes.simplex


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
    C = categorify(W, check=False)
    for _ in range(2):
        with pytest.raises(UnsupportedInput) as exc:
            C.poset(0, "q0_0", "q0_0")
        assert exc.value.witness == wit


def test_categorify_rejects_two_cycles():
    from necklace_calculus.sset import SSet, NF

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
    C = categorify(lf(2, d(1)).W)
    rep = C.stabilization_report()
    for (a, b), info in rep.items():
        assert info["top_degree"] <= info["degree_bound"]
        assert info["complete"]


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
        poset = C.poset(j, a, b)
        return sorted((t.beads, ch) for t in poset.objects
                      for ch in chains(necklace_joint_ids(poset.K, t),
                                       necklace_vertex_ids(poset.K, t), j, saturated=True))

    return materialize(levels, C._act, C.hom_bound(a, b), prefix=f"h{a}.{b}_",
                       degen=C._degen).sset


@pytest.mark.parametrize("W", [horizontal(d(4)), lf(3, d(1)).W, lf(2, d(2)).W,
                               lf(2, shapes.boundary(2)).W],
                         ids=["delta4", "lf3_delta1", "lf2_delta2", "lf2_bd2"])
def test_hom_matches_full_listing_route(W):
    from necklace_calculus.io_schemas import canonical_json, sset_dump

    C = categorify(W)
    for a in C.objects:
        for b in C.objects:
            want = canonical_json(sset_dump(_hom_from_full_levels(C, a, b)))
            assert canonical_json(sset_dump(C.hom_sset(a, b))) == want, (a, b)
