import pytest

from necklace_calculus import shapes, ops
from necklace_calculus.necklace import (Necklace, PairObject, PairPoset, TndPoset,
                                        UnsupportedInput, pair_poset_iso, plus_m,
                                        necklaces_dot)
from necklace_calculus.sset import SSetMap, nd

from oracles import pair_objects

d = shapes.simplex


def test_necklace_shape_normalization():
    T = Necklace.of([2, 0, 1])
    assert T.bead_dims == (2, 1)
    assert T.joints == (0, 2, 3)
    assert Necklace.of([0]).bead_dims == (0,)
    assert Necklace.of([1]).wedge(Necklace.of([0])).bead_dims == (1,)


def test_tnd_delta2():
    t = TndPoset(d(2), "0", "2")
    beads = sorted(o.beads for o in t.objects)
    assert beads == [("0.1", "1.2"), ("0.1.2",), ("0.2",)]
    rels = {(u.beads, v.beads) for u, v in t.morphisms()}
    assert rels == {(("0.1", "1.2"), ("0.1.2",)), (("0.2",), ("0.1.2",))}


def test_tnd_interval_and_point():
    assert [o.beads for o in TndPoset(d(1), "0", "1").objects] == [("0.1",)]
    assert [o.beads for o in TndPoset(d(1), "0", "0").objects] == [("0",)]


def test_tnd_requires_1_ordered():
    b1, d1, d0 = shapes.boundary(1), d(1), d(0)
    circ = ops.pushout(SSetMap(b1, d0, {"0": nd("0"), "1": nd("0")}),
                       shapes.sub_inclusion(b1, d1))
    v = circ.sset.by_dim[0][0]
    wit = ops.OrderWitness("antisymmetry", ("q1_0",))
    for _ in range(2):  # the second call reuses the memoized verdict
        with pytest.raises(UnsupportedInput) as exc:
            TndPoset(circ.sset, v, v)
        assert exc.value.witness == wit
    assert ops.is_1_ordered(circ.sset) == (False, wit)


@pytest.mark.parametrize("i,m", [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3)])
def test_pair_poset_matches_enumeration_oracle(i, m):
    pp = PairPoset(i, m)
    assert [(p.J, p.V) for p in pp.objects] == pair_objects(i, m)


def test_pair_counts():
    assert len(PairPoset(0, 2).objects) == 9
    assert len(PairPoset(0, 1).objects) == 3
    assert len(PairPoset(2, 2).objects) == 1


@pytest.mark.parametrize("m", range(5))
def test_pair_iso_arrow_by_arrow(m):
    for i in range(m + 1):
        iso = pair_poset_iso(i, m)
        tm = {(iso.fwd[u], iso.fwd[t]) for u, t in iso.tnd.morphisms()}
        assert tm == set(iso.pairs.morphisms())


def test_plus_m():
    assert plus_m(PairObject.of((0, 2), (0, 2)), 1) == PairObject.of((0, 1, 2), (0, 1, 2))
    assert plus_m(PairObject.of((0, 3), (0, 1, 3)), 2) == PairObject.of((0, 2, 3), (0, 1, 2, 3))
    pp = PairPoset(0, 2)
    for p in pp.sub_m():
        assert plus_m(p, 2) == p


def test_bead_map():
    t = TndPoset(d(2), "0", "2")
    spine = next(o for o in t.objects if len(o.beads) == 2)
    full = next(o for o in t.objects if o.beads == ("0.1.2",))
    assert t.bead_map(spine, full) == (0, 0)
    edge = next(o for o in t.objects if o.beads == ("0.2",))
    assert t.bead_map(edge, full) == (0,)
    with pytest.raises(Exception):
        t.bead_map(full, edge)


def test_bead_map_last_bead_delta3():
    t = TndPoset(d(3), "0", "3")
    for u in t.objects:
        for v in t.objects:
            if t.leq(u, v):
                assert t.bead_map(u, v)[-1] == len(v.beads) - 1


def test_dot_export():
    out = necklaces_dot(PairPoset(0, 1))
    assert out.startswith("digraph") and "->" in out
    assert "0.1.2|0.1.2" in out
