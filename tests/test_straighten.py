import pytest

from necklace_calculus import delta, shapes, ops
from necklace_calculus.bisset import BiMap, bi_identity, bnd, lf, vertical
from necklace_calculus.scat import Presheaf, terminal_presheaf
from necklace_calculus.sset import SSetMap, identity_map, nd
from necklace_calculus.straighten import (Cell, Straightener, cone, cone_hom,
                                          delta_precat, projection_pi,
                                          st_mono_formula, st_over_map,
                                          straighten_boundary_pp, straighten_full,
                                          straighten_last_vertex, unstraighten)

d = shapes.simplex


def point_map(P, W, v="0"):
    assign = {}
    for g in P.gens():
        m, k = P.bidegree(g)
        assign[g] = W.act(bnd(v), mu_h=(0,) * (m + 1), mu_v=(0,) * (k + 1))
    return BiMap(P, W, assign, validate=False)


def test_st_identity_over_interval():
    W = delta_precat(1).W
    st = Straightener(W)
    ob = st.st_object(W, bi_identity(W))
    assert ob.value("0").nd_counts() == (2, 1)
    assert ob.value("1").nd_counts() == (1,)
    ob.presheaf().verify(bound=1)


def test_st_vertex_cell():
    W = delta_precat(1).W
    st = Straightener(W)
    pre = st.st_rep(Cell(0, 0, bnd("1")))
    assert pre.value["0"].nd_counts() == (1,)
    assert pre.value["1"].nd_counts() == (1,)


@pytest.mark.parametrize("X", [d(0), d(1), shapes.spine(3)])
def test_st_over_point_recovers_fiber(X):
    W = delta_precat(0).W
    st = Straightener(W)
    ob = st.st_object(vertical(X), point_map(vertical(X), W))
    assert ops.find_iso(ob.value("0"), X) is not None


def test_st_of_empty_object():
    from necklace_calculus.bisset import BI_EMPTY

    W = delta_precat(1).W
    st = Straightener(W)
    ob = st.st_object(BI_EMPTY, BiMap(BI_EMPTY, W, {}, validate=False))
    for a in st.CW.objects:
        assert ob.value(a).is_empty()


def test_dual_path_small():
    cases = [
        ((0,), 0, identity_map(d(0)), 0),
        ((0, 1), 1, identity_map(d(1)), 0),
        ((1,), 1, identity_map(d(0)), 0),
        ((0,), 1, SSetMap(d(0), d(1), {"0": nd("0")}), 1),
    ]
    for mu, m, f, i in cases:
        lhs = st_mono_formula(mu, m, f, i)
        rhs = cone_hom(mu, m, f, i)
        assert ops.find_iso(lhs, rhs) is not None


def test_dual_path_disconnected_source():
    f = shapes.sub_inclusion(shapes.boundary(1), d(1))
    lhs = st_mono_formula((0, 1), 1, f, 0)
    rhs = cone_hom((0, 1), 1, f, 0)
    assert ops.find_iso(lhs, rhs) is not None


def test_cone_vertices_and_q():
    cn = cone((0, 1), 1, identity_map(d(1)))
    assert sorted(cn.ext.gens_at(0, 0), key=int) == ["0", "1", "2"]
    # Q collapses the labels onto the simplex
    assert cn.q.dst.gens_at(0, 0) == sorted(cn.q.dst.gens_at(0, 0))


def test_cone_identity_case():
    cn = cone((0, 1), 1, identity_map(d(1)))
    assert ops.find_iso(cn.ext, lf(2, d(1)).W) is not None


def test_cone_q_reflects_nondegeneracy():
    cn = cone((0, 1), 1, shapes.sub_inclusion(shapes.spine(2), d(2)))
    for g in cn.ext.gens():
        img = cn.q(bnd(g))
        assert not img.hword and not img.vword or cn.ext.bidegree(g)[1] > 0
    # horizontally non-degenerate cells map to horizontally non-degenerate cells
    for g in cn.ext.gens():
        assert not cn.q(bnd(g)).hword


@pytest.mark.parametrize("m", [1, 2])
def test_full_engine_matches_closed_forms(m):
    # three routes to the same values: the general engine over LF[m, D1],
    # the hom description, and the weighted-colimit formula
    L = lf(m, d(1))
    st = Straightener(L.W)
    engine = st.st_object(L.product, L.q)
    full = straighten_full(m, d(1))
    for i in range(m + 1):
        a = engine.value(str(i))
        b = full.presheaf.value[str(i)]
        c = st_mono_formula(delta.identity(m), m, identity_map(d(1)), i)
        assert ops.find_iso(a, b) is not None
        assert ops.find_iso(a, c) is not None


def test_full_equals_mono_formula():
    for m, Y in [(0, d(1)), (1, d(0)), (1, d(1))]:
        sf = straighten_full(m, Y)
        for i in range(m + 1):
            formula = st_mono_formula(delta.identity(m), m, identity_map(Y), i)
            assert ops.find_iso(sf.presheaf.value[str(i)], formula) is not None
        sf.presheaf.verify(bound=1)


def test_full_at_last_vertex_is_fiber():
    for m, Y in [(1, d(1)), (2, d(0))]:
        sf = straighten_full(m, Y)
        assert ops.find_iso(sf.presheaf.value[str(m)], Y) is not None


def test_last_vertex_values_and_comparison():
    lv = straighten_last_vertex(1, d(0))
    assert [lv.presheaf.value[a].nd_counts() for a in ("0", "1")] == [(1,), (1,)]
    full = straighten_full(1, d(0))
    assert full.presheaf.value["0"].nd_counts() == (2, 1)
    assert lv.compare["0"].is_mono() and not lv.compare["0"].is_iso()
    assert lv.compare["1"].is_iso()


def test_last_vertex_rejects_disconnected():
    from necklace_calculus.necklace import UnsupportedInput

    with pytest.raises(UnsupportedInput):
        straighten_last_vertex(1, shapes.boundary(1))


def test_boundary_pp_components():
    f = shapes.sub_inclusion(shapes.boundary(1), d(1))
    ob_pp, full, compare = straighten_boundary_pp(1, f)
    assert compare["1"].is_iso()
    assert not compare["0"].is_iso()
    from necklace_calculus.cubes import weight_G0, weighted_colim

    wc0 = weighted_colim(weight_G0(1, f))
    assert ops.find_iso(wc0.sset, ob_pp.value("0")) is not None


def test_unstraighten_terminal():
    W = delta_precat(1).W
    st = Straightener(W)
    un = unstraighten(st, terminal_presheaf(st.base_cat), 1, 1)
    assert ops.find_iso(un.bisset, W) is not None


def test_unstraighten_terminal_thick_base():
    # vertical operators on the cells of the base are exercised here
    W = lf(1, d(1)).W
    st = Straightener(W)
    un = unstraighten(st, terminal_presheaf(st.base_cat), W.h_bound, W.v_bound)
    assert ops.find_iso(un.bisset, W) is not None


def test_unstraighten_fiberwise_counts():
    W = delta_precat(1).W
    st = Straightener(W)
    from necklace_calculus.scat import representable, enumerate_nat_trans

    F = representable(st.base_cat, "1")
    un = unstraighten(st, F, 1, 1)
    for g in W.gens():
        m, k = W.bidegree(g)
        nats = list(enumerate_nat_trans(st.st_rep(Cell(m, k, bnd(g))), F))
        over = [e for e in un.bisset.simplices(m, k) if un.projection(e) == bnd(g)]
        assert len(nats) == len(over)


def test_unstraighten_empty_fibers():
    W = delta_precat(1).W
    st = Straightener(W)
    from necklace_calculus.sset import EMPTY

    F = Presheaf(st.base_cat, {"0": EMPTY, "1": d(0)},
                 lambda a, b, h, x: (_ for _ in ()).throw(AssertionError))
    un = unstraighten(st, F, 1, 0)
    fibers0 = [e for e in un.bisset.simplices(0, 0) if un.projection(e) == bnd("0")]
    assert fibers0 == []


def test_st_over_map_functorial():
    W = delta_precat(1).W
    st = Straightener(W)
    A = delta_precat(0).W
    f = point_map(A, W, "0")
    obA = st.st_object(A, f)
    obW = st.st_object(W, bi_identity(W))
    for a in st.CW.objects:
        m = st_over_map(obA, obW, f, a)
        assert m.src == obA.value(a)


def test_projection_pi_iso_below_top():
    pi = projection_pi(1, d(1))
    for (i, j) in [("0", "1"), ("0", "0")]:
        H = pi.C1.hom_sset(i, j)
        target = pi.dst_cat.hom[(i, j)]
        imgs = {pi.on_hom(i, j, nd(g)) for g in H.gens()}
        assert len(imgs) == len(H.gens())


def test_projection_pi_functorial():
    for Y in [d(0), d(1)]:
        pi = projection_pi(1, Y)
        C1, glue = pi.C1, pi.dst_cat
        for dim in range(2):
            for (a, b, c) in [("0", "1", "2"), ("0", "0", "2"), ("1", "2", "2")]:
                for g in C1.hom_sset(b, c).simplices(dim):
                    for f in C1.hom_sset(a, b).simplices(dim):
                        lhs = pi.on_hom(a, c, C1.comp_el(a, b, c, g, f))
                        rhs = glue.comp(a, b, c, pi.on_hom(b, c, g), pi.on_hom(a, b, f))
                        assert lhs == rhs, (Y.nd_counts(), a, b, c, dim)


def test_projection_pi_collapse_at_top():
    # m=1, Y=pt: hom(0,2) of cLF[2,pt] is an interval; the target hom is a point
    pi = projection_pi(1, d(0))
    H = pi.C1.hom_sset("0", "2")
    assert H.nd_counts() == (2, 1)
    assert pi.dst_cat.hom[("0", "2")].nd_counts() == (1,)
    verts = {pi.on_hom("0", "2", nd(g)) for g in H.by_dim[0]}
    assert len(verts) == 1
    (edge,) = H.by_dim[1]
    assert pi.on_hom("0", "2", nd(edge)).word  # the interval collapses
