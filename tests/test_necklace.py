import functools
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as strat

from necklace_calculus import shapes, ops
from necklace_calculus.bisset import horizontal, lf
from necklace_calculus.categorify import categorify
from necklace_calculus.necklace import (PairObject, PairPoset, RealizedNecklace, TndPoset,
                                        UnsupportedInput, containing_beads, necklace_count,
                                        necklace_joint_ids, necklace_vertex_ids,
                                        pair_of_necklace, pair_poset_iso, plus_m,
                                        necklaces_dot, sub_necklace)
from necklace_calculus.sset import SSet, SSetMap, nd

from oracles import (act_is_1_ordered, act_sub_necklace, bead_containment_by_scan,
                     hom_bound_by_dfs, hom_levels_from_posets, hom_names, pair_objects,
                     tnd_by_tails)

d = shapes.simplex


def test_necklace_shape_normalization():
    # every bead listed has dimension >= 1; the point necklace is one vertex
    t = TndPoset(d(3), "0", "3")
    for o in t.objects:
        dims = t.bead_dims(o)
        assert min(dims) >= 1 and sum(dims) == len(t.vertex_ids(o)) - 1
        assert dims == tuple(len(g.split(".")) - 1 for g in o.beads)
    assert t.bead_dims(RealizedNecklace(("0.1.2", "2.3"))) == (2, 1)
    point = TndPoset(d(3), "2", "2")
    assert [point.bead_dims(o) for o in point.objects] == [(0,)]


def test_tnd_delta2():
    t = TndPoset(d(2), "0", "2")
    beads = sorted(o.beads for o in t.objects)
    assert beads == [("0.1", "1.2"), ("0.1.2",), ("0.2",)]
    rels = {(u.beads, v.beads) for u, v in t.morphisms()}
    assert rels == {(("0.1", "1.2"), ("0.1.2",)), (("0.2",), ("0.1.2",))}


@pytest.mark.parametrize("K", [d(0), d(3), shapes.spine(4), shapes.boundary(3),
                               shapes.horn(3, 1), lf(2, d(1)).W.level(1)],
                         ids=["d0", "d3", "sp4", "bd3", "horn31", "lf2_d1_level1"])
def test_necklace_count_matches_listing(K):
    for a in K.by_dim[0]:
        for b in K.by_dim[0]:
            want = TndPoset(K, a, b).objects
            assert necklace_count(K, a, b) == (len(want), sum(len(t.beads) for t in want)), (a, b)


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


@functools.lru_cache(maxsize=None)
def _level_necklaces(base: str):
    """(level slice, necklace) for every tnd necklace of every level slice of
    the base's categorification, up to its degree bound."""
    W = {"delta4": lambda: horizontal(d(4)), "lf2_delta2": lambda: lf(2, d(2)).W,
         "lf2_bd2": lambda: lf(2, shapes.boundary(2)).W}[base]()
    C = categorify(W)
    return tuple((C.level(j), t) for j in range(C.bound + 1)
                 for a in C.objects for b in C.objects
                 for t in TndPoset(C.level(j), a, b).objects)


@given(strat.data())
@settings(max_examples=300, deadline=None)
def test_sub_necklace_matches_act_oracle(data):
    base = data.draw(strat.sampled_from(["delta4", "lf2_delta2", "lf2_bd2"]))
    slices = _level_necklaces(base)
    K, t = slices[data.draw(strat.integers(0, len(slices) - 1))]  # an SSet hashes slowly
    vt, tj = necklace_vertex_ids(K, t), necklace_joint_ids(K, t)
    flip = strat.lists(strat.sampled_from(K.by_dim[0]), max_size=2)
    # mostly a face of t: its joints, some vertices, some of them new joints;
    # the flips add vertices off t and drop joints, which gives no face
    V = set(tj) | {v for v in vt if data.draw(strat.booleans())}
    J = set(tj) | {v for v in V if data.draw(strat.booleans())}
    V ^= set(data.draw(flip))
    J ^= set(data.draw(flip))
    J, V = tuple(sorted(J)), tuple(sorted(V))
    assert sub_necklace(K, t, J, V) == act_sub_necklace(K, t, J, V)


@strat.composite
def _digraphs(draw):
    """A simplicial set on at most 8 vertices: forward edges i -> j, i < j, a
    few edges drawn anyhow (loops and 2-cycles among them), and triangles on
    some of the paths u -> v -> w with an edge u -> w, now and then one twice,
    which breaks spine-injectivity."""
    n = draw(strat.integers(1, 8))
    vertex = strat.integers(0, n - 1)
    pairs = [(i, j) for j in range(n) for i in range(j)]
    arcs = draw(strat.lists(strat.sampled_from(pairs), min_size=min(n - 1, 4), unique=True)
                if pairs else strat.just([]))
    arcs += [e for e in draw(strat.lists(strat.tuples(vertex, vertex), max_size=2, unique=True))
             if e not in arcs]
    gens = [(f"v{i}", 0) for i in range(n)] + [(f"e{s}.{t}", 1) for s, t in arcs]
    faces = {f"e{s}.{t}": (nd(f"v{t}"), nd(f"v{s}")) for s, t in arcs}
    tris = sorted((u, v, w) for u, v in arcs for v2, w in arcs
                  if v2 == v and (u, w) in arcs and len({u, v, w}) == 3)
    chosen = draw(strat.lists(strat.sampled_from(tris), unique=True)) if tris else []
    if chosen and draw(strat.integers(0, 3)) == 0:
        chosen.append(chosen[0])
    for i, (u, v, w) in enumerate(chosen):
        gens.append((f"t{i}", 2))
        faces[f"t{i}"] = (nd(f"e{v}.{w}"), nd(f"e{u}.{w}"), nd(f"e{u}.{v}"))
    return SSet(gens, faces)


@given(_digraphs())
@settings(max_examples=200, deadline=None)
def test_walks_match_recursive_oracles(K):
    # the fold and the path listing over ops.post_order against recursive
    # walks: verdict and witness, necklaces, their count, the hom bounds, and
    # every level of every hom against the level slices' necklace posets
    verdict = ops.is_1_ordered(K)
    assert verdict == act_is_1_ordered(K)
    if not verdict[0]:
        return
    C = categorify(horizontal(K))
    vs = K.by_dim[0]
    for a in vs:
        for b in vs:
            want = tnd_by_tails(K, a, b)
            assert list(TndPoset(K, a, b).objects) == want, (a, b)
            assert necklace_count(K, a, b) == (len(want), sum(len(t.beads) for t in want)), (a, b)
            assert C.hom_bound(a, b) == hom_bound_by_dfs(C, a, b), (a, b)
            hs = C.hom(a, b)
            for j in range(C.hom_bound(a, b) + 1):
                got = sorted(hom_names(C, a, b, hs.elem_of[g])
                             for g in hs.sset.gens() if hs.sset.gen_dim(g) == j)
                assert got == hom_levels_from_posets(C, a, b, j), (a, b, j)
    assert C.bound == max(hom_bound_by_dfs(C, a, b) for a in vs for b in vs)


def _path(n: int) -> SSet:
    """Vertices v0..vn and one edge v(i-1) -> vi for each i."""
    gens = [(f"v{i}", 0) for i in range(n + 1)] + [(f"e{i}", 1) for i in range(1, n + 1)]
    return SSet(gens, {f"e{i}": (nd(f"v{i}"), nd(f"v{i - 1}")) for i in range(1, n + 1)})


def test_long_path_is_one_necklace():
    # 3,000 edges: a walk that recursed on vertices would pass the default
    # recursion limit
    K = _path(3000)
    assert necklace_count(K, "v0", "v3000") == (1, 3000)
    (t,) = TndPoset(K, "v0", "v3000").objects
    assert t.beads == tuple(f"e{i}" for i in range(1, 3001))
    assert necklace_count(K, "v3000", "v0") == (0, 0)


def _peak(build):
    """build()'s result, its time in seconds and its traced peak in MB."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        out = build()
        return out, time.perf_counter() - start, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_long_path_memory_grows_with_the_paths_listed():
    # 6,000 edges, one necklace: a walk that kept every vertex's suffix paths
    # peaked at about 150 MB for the poset and 590 MB for the hom space
    K = _path(6000)
    t, secs, mb = _peak(lambda: TndPoset(K, "v0", "v6000"))
    assert len(t.objects) == 1
    assert secs < 5 and mb < 40, (secs, mb)
    C = categorify(horizontal(K))
    H, secs, mb = _peak(lambda: C.hom_sset("v0", "v6000"))
    assert H.nd_counts() == (1,)
    assert secs < 5 and mb < 40, (secs, mb)


def _comparable_pairs(poset):
    return [(u, t) for u in poset.objects for t in poset.objects if poset.leq(u, t)]


@pytest.mark.parametrize("m", range(5))
def test_containing_beads_match_scan(m):
    for i in range(m + 1):
        pp = PairPoset(i, m)
        for p, q in _comparable_pairs(pp):
            assert containing_beads(p.J, q.J) == bead_containment_by_scan(pp, p, q), (p, q)


def test_bead_map_matches_scan():
    # the necklaces of Delta[4] from 0 to 4 through their pairs (J, V) in PairPoset(0, 3)
    t, pp = TndPoset(d(4), "0", "4"), PairPoset(0, 3)
    ints = {str(v): v for v in range(5)}
    for u, v in _comparable_pairs(t):
        want = bead_containment_by_scan(pp, pair_of_necklace(t, u, ints),
                                        pair_of_necklace(t, v, ints))
        assert t.bead_map(u, v) == want, (u, v)
