"""Colimits and products built from non-degenerate simplices only.

ops.colimit (and bisset.bi_colimit) union-find generators and read each
degenerate image as a normal form; ops.product lists the shuffles of
simplicial or bisimplicial factors and gives normal forms in closed form (a
product of points and one factor is that factor renamed), and groth.vtensor
is the product A x vertical(X).  These tests hold them against
the oracles in tests/oracles.py that list every simplex and strip
degeneracies through the operator action: the same generators, faces,
representatives and cocones.
"""

import collections
import itertools
import time

import pytest
from hypothesis import assume, given, settings, strategies as strat

from necklace_calculus import bisset, kan, ops, shapes
from necklace_calculus.bisset import BI_EMPTY, lf, materialize_bi
from necklace_calculus.groth import vtensor
from necklace_calculus.io_schemas import bisset_dump, sset_dump
from necklace_calculus.sset import NF, SSet, SSetError, SSetMap, constant_map, nd
from necklace_calculus.straighten import Straightener, delta_precat, universal_cache_clear

from oracles import (colimit_all_simplices, product_all_tuples, product_nd_counts,
                     shuffle_count, vtensor_by_act, with_relation_products)

d = shapes.simplex


def _assert_same_colimit(got, diag, bi=False, bare=()):
    """got is the colimit of diag; the named bare pieces (replaced in diag by
    their full products) have no cocone leg in got."""
    want = (colimit_all_simplices(diag, materialize_bi, BI_EMPTY) if bi
            else colimit_all_simplices(diag))
    dump = bisset_dump if bi else sset_dump
    assert dump(got[0]) == dump(want[0])
    assert got.reps == want[2]
    assert sorted(got.cocone) == sorted(n for n in want[1] if n not in bare)
    for name, leg in got.cocone.items():
        assert leg.assign == want[1][name].assign, name
        assert list(leg.assign) == list(want[1][name].assign), name


def _span_diagram(f, g):
    diag = ops.Diagram({"A": f.src, "X": f.dst, "Y": g.dst})
    diag.add("f", "A", "X", f)
    diag.add("g", "A", "Y", g)
    return diag


def test_edge_collapsed_onto_a_degenerate_edge():
    # Delta[2] with its edge 01 collapsed to a point: the edge's class is s_0 of a vertex
    edge = shapes.simplex_operator((0, 1), 2)
    to_pt = SSetMap(d(1), d(0), {"0": nd("0"), "1": nd("0"), "0.1": NF((0,), "0")})
    diag = _span_diagram(edge, to_pt)
    got = ops.colimit(diag)
    assert got.sset.nd_counts() == (2, 2, 1)
    assert got.cocone["X"](nd("0.1")).word == (0,)
    _assert_same_colimit(got, diag)


def test_coequalizer_with_a_degenerate_leg():
    # edge 01 of Delta[2] identified with s_0 of vertex 0: the vertices merge one degree below
    f = shapes.simplex_operator((0, 1), 2)
    g = shapes.simplex_operator((0, 0), 2)
    diag = ops.Diagram({"A": d(1), "X": d(2)})
    diag.add("f", "A", "X", f)
    diag.add("g", "A", "X", g)
    got = ops.coequalizer(f, g)
    assert got.sset.nd_counts() == (2, 2, 1)
    _assert_same_colimit(got, diag)


def test_coequalizer_of_the_two_endpoints():
    b0, b1 = (shapes.simplex_operator((v,), 1) for v in (0, 1))
    diag = ops.Diagram({"A": d(0), "X": d(1)})
    diag.add("f", "A", "X", b0)
    diag.add("g", "A", "X", b1)
    got = ops.coequalizer(b0, b1)
    assert got.sset.nd_counts() == (1, 1)
    _assert_same_colimit(got, diag)


def test_disagreeing_marks_raise():
    # g is not simplicial: it sends the edge to s_0 of vertex 1 but both ends to vertex 0
    f = SSetMap(d(1), d(1), {"0": nd("0"), "1": nd("0"), "0.1": NF((0,), "0")})
    g = SSetMap(d(1), d(1), {"0": nd("0"), "1": nd("0"), "0.1": NF((0,), "1")},
                validate=False)
    diag = ops.Diagram({"A": d(1), "X": d(1)})
    diag.add("f", "A", "X", f)
    diag.add("g", "A", "X", g)
    with pytest.raises(SSetError):
        ops.colimit(diag)


def _recording(monkeypatch, module, name):
    """Replace module.name (a colimit function) by one that records (diagram, result)."""
    seen = []
    orig = getattr(module, name)

    def rec(diag):
        out = orig(diag)
        seen.append((diag, out))
        return out

    monkeypatch.setattr(module, name, rec)
    return seen


@pytest.mark.parametrize("m,X", [(1, d(1)), (2, d(1)), (1, d(2)), (2, shapes.boundary(1)),
                                 (1, shapes.horn(2, 1))],
                         ids=["lf1_d1", "lf2_d1", "lf1_d2", "lf2_bd1", "lf1_horn21"])
def test_discretize_pushouts_match_oracle(monkeypatch, m, X):
    seen = _recording(monkeypatch, bisset, "bi_colimit")
    lf(m, X)
    assert len(seen) == 1
    for diag, got in seen:
        _assert_same_colimit(got, diag, bi=True)


def test_edge_image_of_another_degree_raises():
    # the point onto the edge of Delta[1], or onto s_0 of a vertex: no map, in either grading
    for img in (nd("0.1"), NF((0,), "0")):
        diag = ops.Diagram({"A": d(0), "X": d(1)})
        diag.add("f", "A", "X", SSetMap(d(0), d(1), {"0": img}, validate=False))
        with pytest.raises(SSetError):
            ops.colimit(diag)
    h0, h1 = bisset.horizontal(d(0)), bisset.horizontal(d(1))
    diag = ops.Diagram({"A": h0, "X": h1})
    diag.add("f", "A", "X", bisset.BiMap(h0, h1, {"0": bisset.bnd("0.1")}, validate=False))
    with pytest.raises(SSetError):
        bisset.bi_colimit(diag)


def test_long_union_chain_is_one_class():
    # consecutive points identified, ids listed in descending order: each union
    # hangs the old root under the new one, so the classes form one long chain
    n = 3000
    Y = SSet([(f"y{i:04d}", 0) for i in reversed(range(n))], {})
    X = SSet([(f"x{i:04d}", 0) for i in reversed(range(n - 1))], {})
    f = SSetMap(X, Y, {f"x{i:04d}": nd(f"y{i:04d}") for i in range(n - 1)})
    g = SSetMap(X, Y, {f"x{i:04d}": nd(f"y{i + 1:04d}") for i in range(n - 1)})
    t0 = time.perf_counter()
    col = ops.coequalizer(f, g)
    assert col.sset.nd_counts() == (1,)
    assert col.reps[col.sset.gens()[0]] == ("A", nd("x0000"))
    path = SSet([(f"v{i:04d}", 0) for i in range(n)]
                + [(f"e{i:04d}", 1) for i in reversed(range(n - 1))],
                {f"e{i:04d}": (nd(f"v{i + 1:04d}"), nd(f"v{i:04d}")) for i in range(n - 1)})
    comps, index = ops.pi0(path)
    assert len(comps) == 1 and set(index.values()) == {0}
    assert time.perf_counter() - t0 < 1.0


def test_lan_colimits_of_the_identity_over_delta2(monkeypatch):
    # each bare relation piece is rebuilt as its full product for the oracle;
    # the coend tables of the kept FullReps are emptied first, so that every
    # coend is built here, not read from a table an earlier test filled
    universal_cache_clear()
    seen = _recording(monkeypatch, kan, "colimit")
    args_of = {}
    build = kan.coend_diagram

    def rec(F, G, D, d, pieces):  # the Straightener's table of pieces
        out = build(F, G, D, d, pieces)
        args_of[id(out[0])] = (F, G, D, d)
        return out

    monkeypatch.setattr(kan, "coend_diagram", rec)
    W = delta_precat(2).W
    st = Straightener(W)
    ob = st.st_object(W, bisset.bi_identity(W))
    for a in st.CW.objects:
        ob.value(a)
    assert seen
    assert any(any(f.assign[g][:-1] for _, _, _, f in diag.edges for g in f.assign)
               for diag, _ in seen), "no lan colimit has a degenerate image"
    assert any(isinstance(X, ops.BarePiece) for diag, _ in seen for X in diag.objects.values())
    # over Delta[n], D(d, Ga) is a point when Ga is d or d + 1: its product pieces are
    # renamed copies of F(a), and the relation pieces beside them lose no relation
    assert any(D.hom[(dd, G.on_obj[a])].nd_counts() == (1,)
               for F, G, D, dd in args_of.values() for a in F.base.objects)
    for diag, got in seen:
        bare = [n for n, X in diag.objects.items() if isinstance(X, ops.BarePiece)]
        _assert_same_colimit(got, with_relation_products(*args_of[id(diag)], diag), bare=bare)
    universal_cache_clear()


def test_bare_piece_holding_a_least_member_raises():
    # the class {("a", "v"), ("b", "0")} has its least member in the bare piece "a"
    diag = ops.Diagram({"a": ops.BarePiece({(0,): ["v"]}), "b": d(0)})
    diag.add("f", "a", "b", SSetMap(diag.objects["a"], d(0), {"v": nd("0")}, validate=False))
    with pytest.raises(SSetError):
        ops.colimit(diag)
    # named after the point, the piece only glues, and gets no cocone leg
    diag = ops.Diagram({"r": ops.BarePiece({(0,): ["v"]}), "b": d(0)})
    diag.add("f", "r", "b", SSetMap(diag.objects["r"], d(0), {"v": nd("0")}, validate=False))
    got = ops.colimit(diag)
    assert got.sset.nd_counts() == (1,)
    assert sorted(got.cocone) == ["b"]
    assert got.reps == {"q0_0": ("b", nd("0"))}


def test_mediating_map_out_of_a_bisimplicial_colimit():
    # one map out of a colimit for both gradings: two copies of Delta[1] glued
    # at a vertex fold onto one; and two points glued to one cannot go to the
    # two ends of Delta[1]
    W, A = delta_precat(1).W, delta_precat(0).W
    f = constant_map(A, W, "1")
    po = bisset.bi_pushout(f, f)
    objects = {"A": A, "X": W, "Y": W}
    fold = {"A": f, "X": bisset.bi_identity(W), "Y": bisset.bi_identity(W)}
    u = ops.mediating_map(po, objects, fold)
    assert u.assign == ops.induced_map(po, fold, W).assign
    assert type(u) is bisset.BiMap and u.src is po.bisset
    assert collections.Counter(u.assign.values()) == {bisset.bnd(g): 1 + (g != "1")
                                                      for g in W.gens()}
    pt = bisset.bi_pushout(bisset.bi_identity(A), bisset.bi_identity(A))
    ends = {"A": constant_map(A, W, "0"), "X": constant_map(A, W, "0"),
            "Y": constant_map(A, W, "1")}
    with pytest.raises(SSetError, match="does not commute"):
        ops.mediating_map(pt, {"A": A, "X": A, "Y": A}, ends)


def test_bare_piece_cannot_be_an_edge_target():
    diag = ops.Diagram({"a": d(0), "r": ops.BarePiece({(0,): ["v"]})})
    diag.add("f", "a", "r", SSetMap(d(0), d(0), {"0": nd("v")}, validate=False))
    with pytest.raises(ops.DiagramError):
        ops.colimit(diag)


_TARGETS = {"d0": lambda: d(0), "d1": lambda: d(1), "d2": lambda: d(2),
            "bd2": lambda: shapes.boundary(2), "horn21": lambda: shapes.horn(2, 1),
            "horn20": lambda: shapes.horn(2, 0), "spine2": lambda: shapes.spine(2)}
_SOURCES = {"d0": lambda: d(0), "bd1": lambda: shapes.boundary(1), "d1": lambda: d(1),
            "spine2": lambda: shapes.spine(2)}


@settings(max_examples=60, deadline=None)
@given(strat.data())
def test_random_spans_match_oracle(data):
    A = _SOURCES[data.draw(strat.sampled_from(sorted(_SOURCES)))]()
    X = _TARGETS[data.draw(strat.sampled_from(sorted(_TARGETS)))]()
    Y = _TARGETS[data.draw(strat.sampled_from(sorted(_TARGETS)))]()
    maps_x = list(ops.enumerate_maps(A, X))
    maps_y = list(ops.enumerate_maps(A, Y))
    f = maps_x[data.draw(strat.integers(0, len(maps_x) - 1))]
    g = maps_y[data.draw(strat.integers(0, len(maps_y) - 1))]
    diag = _span_diagram(f, g)
    _assert_same_colimit(ops.colimit(diag), diag)


_BI_SETS = {"h_d0": lambda: bisset.horizontal(d(0)), "h_d1": lambda: bisset.horizontal(d(1)),
            "v_d1": lambda: bisset.vertical(d(1)),
            "v_bd2": lambda: bisset.vertical(shapes.boundary(2)),
            "ext_d1_d1": lambda: bisset.external(d(1), d(1)), "lf1_d0": lambda: lf(1, d(0)).W,
            "empty": lambda: BI_EMPTY}
_SETS = {**_TARGETS, "bd1": lambda: shapes.boundary(1), "empty": lambda: ops.EMPTY}


@settings(max_examples=80, deadline=None)
@given(strat.data())
def test_random_diagrams_of_both_gradings_match_oracle(data):
    # pushouts, coequalizers, one object with no edge and the empty diagram
    bi = data.draw(strat.booleans())
    pool = _BI_SETS if bi else _SETS
    shape = data.draw(strat.sampled_from(["pushout", "coequalizer", "one", "empty"]))

    def draw_set():
        return pool[data.draw(strat.sampled_from(sorted(pool)))]()

    def draw_map(A, X):
        maps = list(ops.enumerate_maps(A, X))
        return maps[data.draw(strat.integers(0, len(maps) - 1))] if maps else None

    if shape in ("one", "empty"):
        diag = ops.Diagram({"X": draw_set()} if shape == "one" else {})
    else:
        A, X = draw_set(), draw_set()
        f, g = draw_map(A, X), draw_map(A, draw_set() if shape == "pushout" else X)
        assume(f is not None and g is not None)
        if shape == "pushout":
            diag = _span_diagram(f, g)
        else:
            diag = ops.Diagram({"A": A, "X": X})
            diag.add("f", "A", "X", f)
            diag.add("g", "A", "X", g)
    _assert_same_colimit((bisset.bi_colimit if bi else ops.colimit)(diag), diag, bi=bi)


# -- products -----------------------------------------------------------------------

PRODUCTS = {
    "d1xd1": lambda: (d(1), d(1)),
    "d2xd1": lambda: (d(2), d(1)),
    "bd2xd1": lambda: (shapes.boundary(2), d(1)),
    "horn21xd2": lambda: (shapes.horn(2, 1), d(2)),
    "d1xptxd1": lambda: (d(1), d(0), d(1)),
    "d1xd1xd1": lambda: (d(1), d(1), d(1)),
    "spine2xbd1xd1": lambda: (shapes.spine(2), shapes.boundary(1), d(1)),
    # bisimplicial factors
    "bi_lf1d1xv_d1": lambda: (lf(1, d(1)).W, bisset.vertical(d(1))),
    "bi_h_d1xv_bd2": lambda: (bisset.horizontal(d(1)), bisset.vertical(shapes.boundary(2))),
    "bi_h_d1xv_d1xlf1d0": lambda: (bisset.horizontal(d(1)), bisset.vertical(d(1)),
                                   lf(1, d(0)).W),
    "bi_lf1d1xemptyxv_d1": lambda: (lf(1, d(1)).W, BI_EMPTY, bisset.vertical(d(1))),
    # a terminal factor (one generator of degree 0 on every axis) beside one other
    "ptxd2": lambda: (d(0), d(2)),
    "bd2xpt": lambda: (shapes.boundary(2), d(0)),
    "ptxhorn21xpt": lambda: (d(0), shapes.horn(2, 1), d(0)),
    "ptxpt": lambda: (d(0), d(0)),
    # ids listed out of their sorted order: p1_10 before p1_2
    "ptxd2xd1_ids": lambda: (d(0), ops.product(d(2), d(1)).sset),
    "ptxempty": lambda: (d(0), ops.EMPTY),
    "bi_h_d0xlf1d1": lambda: (bisset.horizontal(d(0)), lf(1, d(1)).W),
    "bi_v_bd2xh_d0": lambda: (bisset.vertical(shapes.boundary(2)), bisset.horizontal(d(0))),
    "bi_h_d0xlf1d0xh_d0": lambda: (bisset.horizontal(d(0)), lf(1, d(0)).W,
                                   bisset.horizontal(d(0))),
    "bi_v_d0xempty": lambda: (bisset.vertical(d(0)), BI_EMPTY),
}
TERMINAL_PRODUCTS = ["bd2xpt", "bi_h_d0xlf1d1", "bi_h_d0xlf1d0xh_d0", "bi_v_bd2xh_d0",
                     "bi_v_d0xempty", "ptxd2", "ptxd2xd1_ids", "ptxempty", "ptxhorn21xpt", "ptxpt"]
SIMPLICIAL_PRODUCTS = sorted(name for name in PRODUCTS if not name.startswith("bi_"))


def _degrees(factors):
    """Every degree up to one above the product's top degree on each axis."""
    tops = [sum(max((deg[a] for deg in X._by_deg), default=0) for X in factors)
            for a in range(factors[0].n_axes)]
    return itertools.product(*(range(top + 2) for top in tops))


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_matches_every_tuple_oracle(name):
    factors = PRODUCTS[name]()
    got = ops.product(*factors)
    want, want_projs, want_nf = product_all_tuples(*factors)
    dump = sset_dump if factors[0].n_axes == 1 else bisset_dump
    assert dump(got.sset) == dump(want)
    for pr, want_pr in zip(got.projections, want_projs):
        assert pr.assign == want_pr.assign
    checked = 0
    for deg in _degrees(factors):  # one degree above the top: every tuple there is degenerate
        dd = deg[0] if len(deg) == 1 else deg
        for e in itertools.product(*(X.simplices(*deg) for X in factors)):
            assert got.to_nf(dd, e) == want_nf(dd, e), (dd, e)
            checked += 1
    assert checked or any(X.is_empty() for X in factors)


def test_product_of_one_factor_is_that_factor():
    for X in (shapes.boundary(2), lf(1, d(1)).W):
        got = ops.product(X)
        assert got.sset is X
        assert got.projections[0].assign == {g: X._nd(g) for g in X.gens()}
        f = SSetMap(d(1), d(1), {g: nd(g) for g in d(1).gens()})
        assert ops.pairing(ops.product(d(1)), [f]).assign == f.assign


@pytest.mark.parametrize("name", TERMINAL_PRODUCTS)
def test_terminal_factor_products_reject_what_is_no_simplex(name):
    # PRODUCTS holds these, so test_product_matches_every_tuple_oracle compares their
    # ids, faces, projections and to_nf; here: a tuple of simplices of different
    # degrees, or of a generator no factor has, is no simplex, for the oracle too
    factors = PRODUCTS[name]()
    assert ops._lone(factors) is not None
    got = ops.product(*factors)
    _, _, want_nf = product_all_tuples(*factors)
    n = factors[0].n_axes
    degrees = list(_degrees(factors))
    rejected = 0
    for deg, low in itertools.product(degrees, degrees):
        if deg == low:
            continue
        for first in factors[0].simplices(*deg):
            for rest in itertools.product(*(X.simplices(*low) for X in factors[1:])):
                e = (first, *rest)
                dd = deg[0] if n == 1 else deg
                with pytest.raises(SSetError):
                    got.to_nf(dd, e)
                with pytest.raises(SSetError):
                    want_nf(dd, e)
                rejected += 1
    assert rejected or any(X.is_empty() for X in factors)
    for deg in degrees:  # every word there, on a generator no factor has
        words = tuple(tuple(range(p - 1, -1, -1)) for p in deg)
        with pytest.raises(SSetError):
            got.to_nf(deg[0] if n == 1 else deg,
                      tuple(X.nf_type(*words, "no such generator") for X in factors))


def test_product_of_points_and_one_factor_reads_no_face(monkeypatch):
    from necklace_calculus import sset

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    factors = [PRODUCTS[name]() for name in TERMINAL_PRODUCTS]
    pt = d(0)
    monkeypatch.setattr(sset.GradedSet, "_face", refuse)
    for fs in factors:
        ops.product(*fs)
    assert ops.product(pt).sset is pt  # the point alone: the one-factor product


def test_product_of_no_factor_raises():
    with pytest.raises(SSetError):
        ops.product()


def test_product_factors_need_one_grading():
    with pytest.raises(SSetError):
        ops.product(d(1), bisset.vertical(d(1)))


@pytest.mark.parametrize("name", SIMPLICIAL_PRODUCTS)
def test_product_nd_counts_match_shuffle_oracle(name):
    factors = PRODUCTS[name]()
    want = factors[0].nd_counts()
    for X in factors[1:]:
        want = product_nd_counts(want, X.nd_counts())
    assert ops.product(*factors).sset.nd_counts() == want


# vertical tensors A (x) X: bases, and fibres
VTENSOR_BASES = {"delta0": lambda: delta_precat(0).W, "delta1": lambda: delta_precat(1).W,
                 "delta2": lambda: delta_precat(2).W, "lf1_d1": lambda: lf(1, d(1)).W,
                 "lf2_bd1": lambda: lf(2, shapes.boundary(1)).W}
VTENSOR_FIBRES = {"pt": lambda: d(0), "d1": lambda: d(1), "d2": lambda: d(2),
                  "bd2": lambda: shapes.boundary(2), "horn21": lambda: shapes.horn(2, 1)}


@pytest.mark.parametrize("base", sorted(VTENSOR_BASES))
def test_vtensor_matches_the_act_based_listing(base):
    A = VTENSOR_BASES[base]()
    for fibre in sorted(VTENSOR_FIBRES):
        X = VTENSOR_FIBRES[fibre]()
        T, elem_of, to_nf = vtensor(A, X)
        want_T, want_elem_of, want_nf = vtensor_by_act(A, X)
        assert bisset_dump(T) == bisset_dump(want_T), fibre
        assert elem_of == want_elem_of, fibre
        # every simplex of bidegree (m, k), one past the top on each axis
        for m in range(T.h_bound + 2):
            for k in range(T.v_bound + 2):
                for e in itertools.product(A.simplices(m, k), X.simplices(k)):
                    assert to_nf(m, k, e) == want_nf(m, k, e), (fibre, m, k, e)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_product_top_cells_are_the_shuffles(p, q):
    prod = ops.product(d(p), d(q))
    tops = (shapes.subset_id(range(p + 1)), shapes.subset_id(range(q + 1)))
    px, py = prod.projections
    for n in range(max(p, q), p + q + 1):
        over_tops = [g for g in prod.sset.by_dim[n]
                     if (px.assign[g].gen, py.assign[g].gen) == tops]
        assert len(over_tops) == shuffle_count(p, q, n)


def test_product_to_nf_rejects_what_is_not_a_simplex():
    prod = ops.product(d(1), d(1))
    with pytest.raises(SSetError):
        prod.to_nf(1, (nd("0.1"), nd("0")))  # a 1-simplex with a 0-simplex
    with pytest.raises(SSetError):
        prod.to_nf(3, (NF((2, 1), "0.1"), NF((2, 0), "x")))  # no generator "x"


def test_no_operator_action_and_no_materialize(monkeypatch):
    # every input is built first; then the operator actions and the engine must go unused
    from necklace_calculus import sset

    spans = [_span_diagram(shapes.simplex_operator((0, 1), 2),
                           SSetMap(d(1), d(0), {"0": nd("0"), "1": nd("0"),
                                                "0.1": NF((0,), "0")}))]
    bi_seen = _recording(monkeypatch, bisset, "bi_colimit")
    lf(2, d(1))
    factors = [PRODUCTS[name]() for name in sorted(PRODUCTS)]
    tensors = [(VTENSOR_BASES[b](), VTENSOR_FIBRES[x]()) for b in sorted(VTENSOR_BASES)
               for x in sorted(VTENSOR_FIBRES)]

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for holder, name in [(sset.SSet, "act"), (bisset.BiSSet, "act"), (sset, "materialize"),
                         (sset, "_materialize"), (bisset, "materialize_bi"),
                         (bisset, "_materialize")]:
        monkeypatch.setattr(holder, name, refuse)
    for diag in spans:
        ops.colimit(diag)
    for diag, _ in bi_seen:
        ops._colimit(diag, BI_EMPTY)
    for fs in factors:
        prod = ops.product(*fs)
        for g in prod.sset.gens():
            e = tuple(pr.assign[g] for pr in prod.projections)
            for a in range(fs[0].n_axes):
                assert not set(e[0][a]).intersection(*(x[a] for x in e[1:])), (g, e)
    for A, X in tensors:
        vtensor(A, X)
