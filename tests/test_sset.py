import pytest
from hypothesis import given, settings, strategies as strat

from necklace_calculus import delta, shapes, ops
from necklace_calculus.bisset import BiMap, bnd, external, horizontal, lf, vertical
from necklace_calculus.sset import NF, SSet, SSetError, SSetMap, constant_map, nd

from oracles import (act_is_1_ordered, act_vertices, enumerate_maps_by_recursion,
                     product_nd_counts)

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


def test_map_validation_makes_no_act_call(monkeypatch):
    # faces of images are read from the target's face table
    inc = shapes.sub_inclusion(shapes.boundary(2), d(2))

    def no_act(*args):
        raise AssertionError("SSet.act called")

    monkeypatch.setattr(SSet, "act", no_act)
    SSetMap(inc.src, inc.dst, inc.assign)
    with pytest.raises(SSetError):
        SSetMap(inc.src, inc.dst, {**inc.assign, "0.1": nd("0.2")})


CONSTANT_SOURCES = [d(0), d(3), shapes.boundary(2), shapes.spine(3), shapes.horn(2, 1)]


@pytest.mark.parametrize("X", CONSTANT_SOURCES, ids=["d0", "d3", "bd2", "sp3", "horn21"])
def test_constant_map_matches_act_route(X):
    # each generator goes to the vertex, degenerated by the constant monotone map
    for Y, v in [(d(2), "1"), (shapes.boundary(1), "0")]:
        want = {g: Y.act(nd(v), (0,) * (X.gen_dim(g) + 1)) for g in X.gens()}
        f = constant_map(X, Y, v)
        assert type(f) is SSetMap and f.assign == want
        SSetMap(X, Y, f.assign)  # validates simpliciality


@pytest.mark.parametrize("P", [vertical(d(2)), horizontal(d(2)), external(d(1), d(2)),
                               lf(1, d(1)).W, lf(2, shapes.boundary(2)).W],
                         ids=["vert_d2", "horiz_d2", "d1_box_d2", "lf1_d1", "lf2_bd2"])
def test_bi_constant_map_matches_act_route(P):
    W = lf(2, d(1)).W
    for v in ("0", "2"):
        want = {}
        for g in P.gens():
            m, k = P.bidegree(g)
            want[g] = W.act(bnd(v), mu_h=(0,) * (m + 1), mu_v=(0,) * (k + 1))
        f = constant_map(P, W, v)
        assert type(f) is BiMap and f.assign == want
        BiMap(P, W, f.assign)  # validates simpliciality


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


_MAP_SOURCES = [d(0), shapes.boundary(1), d(1), shapes.spine(2)]
_MAP_TARGETS = [d(0), d(1), d(2), shapes.boundary(2), shapes.horn(2, 1), shapes.spine(2)]


def _same_maps(got, want):
    assert [list(f.assign.items()) for f in got] == [list(f.assign.items()) for f in want]


def test_enumerate_maps_matches_recursive_oracle():
    # the same maps in the same order, plain and over Delta[1], and between
    # horizontal embeddings
    for A in _MAP_SOURCES:
        for B in _MAP_TARGETS:
            _same_maps(list(ops.enumerate_maps(A, B)), list(enumerate_maps_by_recursion(A, B)))
            for pA in ops.enumerate_maps(A, d(1)):
                for pB in list(ops.enumerate_maps(B, d(1)))[:3]:
                    _same_maps(list(ops.enumerate_maps(A, B, over=(pA, pB))),
                               list(enumerate_maps_by_recursion(A, B, over=(pA, pB))))
    A, B = horizontal(shapes.spine(2)), horizontal(d(2))
    _same_maps(list(ops.enumerate_maps(A, B)), list(enumerate_maps_by_recursion(A, B)))


def test_enumerate_maps_from_many_points():
    # 1,500 generators: backtracking that recursed once per generator would
    # pass the default recursion limit
    A = SSet([(f"p{i}", 0) for i in range(1500)], {})
    (f,) = ops.enumerate_maps(A, shapes.point())
    assert f.assign == {f"p{i}": nd("0") for i in range(1500)}


def test_mono_detection():
    inc = shapes.sub_inclusion(shapes.boundary(2), d(2))
    assert inc.is_mono()
    collapse = SSetMap(shapes.boundary(1), d(0), {"0": nd("0"), "1": nd("0")})
    assert not collapse.is_mono()
