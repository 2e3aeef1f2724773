import pytest
from hypothesis import given, settings, strategies as strat

from necklace_calculus import delta, shapes, ops
from necklace_calculus.bisset import horizontal, vertical
from necklace_calculus.sset import NF, SSet, SSetError, SSetMap, nd

from oracles import act_is_1_ordered, act_vertices, product_nd_counts

d = shapes.simplex


def test_standard_objects():
    assert d(2).nd_counts() == (3, 3, 1)
    assert shapes.boundary(2).nd_counts() == (3, 3)
    assert shapes.boundary(1).nd_counts() == (2,)
    assert shapes.spine(3).nd_counts() == (4, 3)
    assert shapes.horn(2, 1).nd_counts() == (3, 2)
    with pytest.raises(Exception):
        shapes.horn(0, 0)


def test_vertices_and_faces():
    d3 = d(3)
    top = nd("0.1.2.3")
    assert d3.vertices(top) == ("0", "1", "2", "3")
    assert d3.face(top, 1) == nd("0.2.3")
    assert d3.face(d3.face(top, 3), 1) == d3.face(d3.face(top, 1), 2)


def test_ez_normalization_roundtrip():
    d3 = d(3)
    for dim in range(7):
        for x in d3.simplices(dim):
            assert d3.act(x, delta.identity(dim)) == x
            for i in range(dim):
                s = d3.degeneracy(x, i)
                assert d3.face(s, i) == x
                assert d3.face(s, i + 1) == x


@given(strat.integers(0, 3), strat.data())
@settings(max_examples=40, deadline=None)
def test_action_is_functorial(m, data):
    X = d(m)
    dim = data.draw(strat.integers(0, m + 2))
    x = data.draw(strat.sampled_from(X.simplices(dim)))
    d1 = data.draw(strat.integers(0, dim + 1))
    mu = tuple(sorted(data.draw(
        strat.lists(strat.integers(0, dim), min_size=d1 + 1, max_size=d1 + 1))))
    d2 = data.draw(strat.integers(0, d1 + 1))
    nu = tuple(sorted(data.draw(
        strat.lists(strat.integers(0, d1), min_size=d2 + 1, max_size=d2 + 1))))
    lhs = X.act(X.act(x, mu), nu)
    rhs = X.act(x, delta.compose(mu, nu))
    assert lhs == rhs


@given(strat.integers(0, 3), strat.data())
@settings(max_examples=40, deadline=None)
def test_vertices_match_act_oracle(m, data):
    X = d(m)
    dim = data.draw(strat.integers(0, m + 2))
    x = data.draw(strat.sampled_from(X.simplices(dim)))
    assert X.vertices(x) == act_vertices(X, x)


@given(strat.integers(0, 3), strat.data())
@settings(max_examples=40, deadline=None)
def test_face_table_matches_act(m, data):
    X = d(m)
    dim = data.draw(strat.integers(1, m + 2))
    x = data.draw(strat.sampled_from(X.simplices(dim)))
    i = data.draw(strat.integers(0, dim))
    assert X._face(x, 0, i) == X.act(x, delta.coface(i, dim))


def test_map_validation_makes_no_act_call():
    # faces of images are read from the target's face table
    inc = shapes.sub_inclusion(shapes.boundary(2), d(2))
    SSetMap(inc.src, inc.dst, inc.assign)
    assert not inc.dst._act_cache
    with pytest.raises(SSetError):
        SSetMap(inc.src, inc.dst, {**inc.assign, "0.1": nd("0.2")})


def test_product_counts_match_shuffle_oracle():
    for (p, q) in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        prod = ops.product(d(p), d(q)).sset
        want = product_nd_counts(d(p).nd_counts(), d(q).nd_counts())
        assert prod.nd_counts() == want


def test_product_unit_and_projections():
    prod = ops.product(d(2), shapes.point())
    assert ops.find_iso(prod.sset, d(2)) is not None
    p = ops.product(d(1), d(1))
    for pr in p.projections:
        SSetMap(pr.src, pr.dst, pr.assign)  # validates simpliciality


def test_colimit_wedge_and_circle():
    b1, d1, d0 = shapes.boundary(1), d(1), d(0)
    collapse = SSetMap(b1, d0, {"0": nd("0"), "1": nd("0")})
    circ = ops.pushout(collapse, shapes.sub_inclusion(b1, d1))
    assert circ.sset.nd_counts() == (1, 1)

    cop = ops.coproduct([d1, d1])
    pt = shapes.point()
    m1 = SSetMap(pt, cop.sset, {"0": cop.cocone["i0"](nd("1"))})
    m2 = SSetMap(pt, cop.sset, {"0": cop.cocone["i1"](nd("0"))})
    wedge = ops.coequalizer(m1, m2)
    assert wedge.sset.nd_counts() == (3, 2)


def test_mediating_map_uniqueness():
    b1, d1 = shapes.boundary(1), d(1)
    col = ops.pushout(shapes.sub_inclusion(b1, d1), shapes.sub_inclusion(b1, d1))
    test = {n: col.cocone[n] for n in col.cocone}
    u = ops.mediating_map(col, {"A": b1, "X": d1, "Y": d1}, test)
    assert u.is_iso()


def test_is_1_ordered():
    for m in range(6):
        ok, _ = ops.is_1_ordered(d(m))
        assert ok
    b1, d1, d0 = shapes.boundary(1), d(1), d(0)
    circ = ops.pushout(SSetMap(b1, d0, {"0": nd("0"), "1": nd("0")}),
                       shapes.sub_inclusion(b1, d1))
    ok, wit = ops.is_1_ordered(circ.sset)
    assert not ok and wit.condition == "antisymmetry"
    # wedge of two intervals stays 1-ordered
    cop = ops.coproduct([d1, d1])
    pt = shapes.point()
    wedge = ops.coequalizer(
        SSetMap(pt, cop.sset, {"0": cop.cocone["i0"](nd("1"))}),
        SSetMap(pt, cop.sset, {"0": cop.cocone["i1"](nd("0"))}))
    assert ops.is_1_ordered(wedge.sset)[0]


def _circle():
    b1, d1, d0 = shapes.boundary(1), d(1), d(0)
    return ops.pushout(SSetMap(b1, d0, {"0": nd("0"), "1": nd("0")}),
                       shapes.sub_inclusion(b1, d1)).sset


def _two_cycle():
    return SSet([("a", 0), ("b", 0), ("e", 1), ("f", 1)],
                {"e": (nd("b"), nd("a")), "f": (nd("a"), nd("b"))})


def _pinched_triangle():
    # vertices a, a, b: the last face is the degenerate edge at a
    return SSet([("a", 0), ("b", 0), ("e", 1), ("t", 2)],
                {"e": (nd("b"), nd("a")), "t": (nd("e"), nd("e"), NF((0,), "a"))})


def _two_triangles_one_spine():
    X = d(2)
    faces = {g: X.faces[g] for g in X.gens() if X.gen_dim(g)}
    faces["t"] = faces["0.1.2"]
    return SSet([(g, X.gen_dim(g)) for g in X.gens()] + [("t", 2)], faces)


def _two_tetrahedra_on_a_face():
    # they share all spine edges but the first, so a spine that drops it collides
    face = shapes.simplex_operator(delta.coface(0, 3), 3)
    return ops.pushout(face, face).sset


@pytest.mark.parametrize("make,condition", [
    (lambda: d(4), None), (_two_tetrahedra_on_a_face, None), (_circle, "antisymmetry"),
    (_two_cycle, "antisymmetry"), (_pinched_triangle, "spine-mono"),
    (_two_triangles_one_spine, "spine-injectivity")],
    ids=["delta4", "two_tetrahedra_on_a_face", "circle", "two_cycle", "pinched_triangle",
         "two_triangles_one_spine"])
def test_is_1_ordered_matches_act_oracle(make, condition):
    X = make()
    want = act_is_1_ordered(X)
    assert (want[1].condition if want[1] else None) == condition
    assert ops.is_1_ordered(X) == want
    for g in X.gens():
        assert X.vertices(nd(g)) == act_vertices(X, nd(g))


def test_pi0():
    comps, index = ops.pi0(shapes.boundary(1))
    assert len(comps) == 2
    assert ops.is_connected(shapes.boundary(2))


def test_iso_search_distinguishes():
    # the same verdicts for the sets themselves and their bisimplicial embeddings
    for embed in (lambda X: X, horizontal, vertical):
        assert ops.find_iso(embed(d(2)), embed(shapes.boundary(2))) is None
        # the middle horn is the spine; the outer horn is not (out-degrees differ)
        assert ops.find_iso(embed(shapes.spine(2)), embed(shapes.horn(2, 1))) is not None
        assert ops.find_iso(embed(shapes.spine(2)), embed(shapes.horn(2, 0))) is None
        got = ops.find_iso(embed(shapes.horn(2, 1)), embed(shapes.horn(2, 1)))
        assert got is not None and got.is_iso()
        # colours cannot tell two disjoint edges apart; the face checks keep the 2 true swaps
        two = embed(ops.coproduct([d(1), d(1)]).sset)
        assert len(list(ops.find_isos(two, two))) == 2


def test_mono_detection():
    inc = shapes.sub_inclusion(shapes.boundary(2), d(2))
    assert inc.is_mono()
    collapse = SSetMap(shapes.boundary(1), d(0), {"0": nd("0"), "1": nd("0")})
    assert not collapse.is_mono()
