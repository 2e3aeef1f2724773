import random

import pytest
from hypothesis import given, settings, strategies as strat

from necklace_calculus import delta, shapes, ops
from necklace_calculus.bisset import (BiMap, BiNF, bnd, diag, discretize, external,
                                      horizontal, lf, lf_map, bi_pushout, rename_gens, vertical)
from necklace_calculus.ops import pi0
from necklace_calculus.sset import SSetError, identity_map, nd

from oracles import lf_rep_by_listing

d = shapes.simplex


def test_external_product_bidegrees():
    W = external(d(1), d(2))
    assert W.nd_counts() == {(0, 0): 6, (0, 1): 6, (0, 2): 2,
                             (1, 0): 3, (1, 1): 3, (1, 2): 1}


def test_diag_of_external_is_product():
    W = external(d(1), d(1))
    assert ops.find_iso(diag(W).sset, ops.product(d(1), d(1)).sset) is not None
    assert ops.find_iso(diag(external(d(2), d(0))).sset, d(2)) is not None
    assert ops.find_iso(diag(vertical(shapes.spine(2))).sset, shapes.spine(2)) is not None


@pytest.mark.parametrize("mu", [(1, 0), (2, 0, 1), (-1, 0), (0, 5)])
def test_act_refuses_an_operator_that_does_not_fit(mu):
    # both gradings, along either axis, refuse what SSet.act refuses, with its message
    with pytest.raises(SSetError, match=r"is not monotone into \[2\]"):
        d(2).act(nd("0.1.2"), mu)
    for W, axis in ((horizontal(d(2)), "mu_h"), (vertical(d(2)), "mu_v")):
        with pytest.raises(SSetError, match=r"is not monotone into \[2\]"):
            W.act(bnd("0.1.2"), **{axis: mu})
    assert horizontal(d(2)).act(bnd("0.1.2"), mu_h=(0, 2)) == bnd("0.2")


@pytest.mark.parametrize("m,Y", [(1, d(0)), (1, shapes.boundary(1)), (2, d(1)),
                                 (0, d(2))])
def test_discretize_row0(m, Y):
    L = lf(m, Y)
    assert L.W.row0_discrete()
    assert len(L.W.gens_at(0, 0)) == (m + 1) * len(pi0(Y)[0])


def test_discretize_point_target():
    # L(Delta[0] box X) is a point for connected X
    L = lf(0, d(2))
    assert L.W.nd_counts() == {(0, 0): 1}


def test_discretize_idempotent():
    L = lf(1, d(1)).W
    again = discretize(L)
    assert ops.find_iso(L, again.bisset) is not None


def test_levels_are_1_ordered():
    L = lf(2, d(1)).W
    for k in range(3):
        ok, _ = ops.is_1_ordered(L.level(k))
        assert ok


def test_lf_map_and_cone_identity():
    lf1, lf2 = lf(1, d(1)), lf(2, d(1))
    face = lf_map(lf1, lf2, delta.coface(2, 2), identity_map(d(1)))
    assert face.is_mono()
    po = bi_pushout(face, BiMap(lf1.W, lf1.W, {g: bnd(g) for g in lf1.W.gens()},
                                validate=False))
    assert ops.find_iso(po.bisset, lf2.W) is not None


def _two_points():
    return ops.coproduct([d(0), d(0)]).sset


@pytest.mark.parametrize("X", [d(0), d(1), d(2), shapes.boundary(2), _two_points()],
                         ids=["point", "d1", "d2", "bd2", "two_points"])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_lf_reps_match_listing_oracle(m, X):
    L = lf(m, X)
    assert L.rep == lf_rep_by_listing(L)


def test_row0_discreteness_check():
    W = vertical(d(1))
    assert not W.row0_discrete()
    assert horizontal(d(1)).row0_discrete()


FACTORS = [d(0), d(1), d(2), shapes.boundary(2), shapes.spine(2)]


def _operator(data, top: int):
    """None (the identity) or a monotone map into [top]."""
    if data.draw(strat.booleans()):
        return None
    n = data.draw(strat.integers(0, top + 1))
    return tuple(sorted(data.draw(
        strat.lists(strat.integers(0, top), min_size=n + 1, max_size=n + 1))))


@given(strat.data())
@settings(max_examples=80, deadline=None)
def test_external_action_is_factorwise(data):
    X, Y = data.draw(strat.sampled_from(FACTORS)), data.draw(strat.sampled_from(FACTORS))
    x = data.draw(strat.sampled_from(X.simplices(data.draw(strat.integers(0, 3)))))
    y = data.draw(strat.sampled_from(Y.simplices(data.draw(strat.integers(0, 3)))))
    mu_h, mu_v = _operator(data, X.dim(x)), _operator(data, Y.dim(y))
    x2 = x if mu_h is None else X.act(x, mu_h)
    y2 = y if mu_v is None else Y.act(y, mu_v)
    got = external(X, Y).act(BiNF(x.word, y.word, f"{x.gen}|{y.gen}"), mu_h, mu_v)
    assert got == BiNF(x2.word, y2.word, f"{x2.gen}|{y2.gen}")


@given(strat.data())
@settings(max_examples=80, deadline=None)
def test_face_table_matches_act(data):
    X, Y = data.draw(strat.sampled_from(FACTORS)), data.draw(strat.sampled_from(FACTORS))
    W = external(X, Y)
    a = data.draw(strat.integers(0, 1))
    dims = [data.draw(strat.integers(0, 3)) for _ in range(2)]
    dims[a] = max(dims[a], 1)
    e = data.draw(strat.sampled_from(W.simplices(*dims)))
    i = data.draw(strat.integers(0, dims[a]))
    mu = delta.coface(i, dims[a])
    assert W._face(e, a, i) == (W.act(e, mu_h=mu) if a == 0 else W.act(e, mu_v=mu))


@pytest.mark.parametrize("W", [lf(2, d(1)).W, lf(1, shapes.boundary(2)).W,
                               external(shapes.spine(2), d(1))],
                         ids=["lf2_d1", "lf1_bd2", "spine2_box_d1"])
def test_find_iso_on_permuted_ids(W):
    gens = W.gens()
    shuffled = list(gens)
    random.Random(0).shuffle(shuffled)
    R = rename_gens(W, dict(zip(gens, shuffled)))
    iso = ops.find_iso(W, R)
    assert iso is not None and iso.is_iso()
    BiMap(W, R, iso.assign)  # validates bisimpliciality
