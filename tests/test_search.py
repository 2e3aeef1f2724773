"""The one backtracking search behind ops.find_isos, ops.enumerate_maps,
nerves.hc_functors and scat.enumerate_nat_trans, against the references in
oracles.py: isomorphisms against a search pruned by degree only, on drawn
small sets, their relabelled copies and pairs that are not isomorphic;
coherent functors against generate-and-test; natural transformations against
every tuple of componentwise maps, on the presheaves of verify's adjunction
check.
"""

import pytest
from hypothesis import given, settings, strategies as strat

from necklace_calculus import nerves, ops, shapes
from necklace_calculus.bisset import bnd, horizontal, vertical
from necklace_calculus.nerves import hc_functors, hc_nerve
from necklace_calculus.scat import enumerate_nat_trans, suspension
from necklace_calculus.sset import NF, SSet, SSetError, nd
from necklace_calculus.straighten import Cell, Straightener, delta_precat
from necklace_calculus.verify import ADJUNCTION_CASES, _catalog_presheaf

from oracles import hc_functors_by_generate_and_test, isos_by_degree, nat_trans_by_products

d = shapes.simplex


def test_backtrack_assigns_in_order_and_tries_candidates_in_order():
    seen = []

    def candidates(item, partial):
        seen.append((item, dict(partial)))
        return (v for v in "abc" if v not in partial.values() and partial.get(item - 1, "") < v)

    # increasing words over "abc": candidates see exactly the items before theirs
    got = [dict(a) for a in ops.backtrack([1, 2], candidates)]
    assert got == [{1: "a", 2: "b"}, {1: "a", 2: "c"}, {1: "b", 2: "c"}]
    assert seen == [(1, {}), (2, {1: "a"}), (2, {1: "b"}), (2, {1: "c"})]
    assert [dict(a) for a in ops.backtrack([1, 2, 3, 4], candidates)] == []
    assert [dict(a) for a in ops.backtrack([], candidates)] == [{}]


# -- isomorphisms ---------------------------------------------------------------


def _triangles(edges):
    """Every (d0, d1, d2) of edges that bounds a triangle x0 x1 x2: x1 -> x2,
    x0 -> x2, x0 -> x1; edges are (normal form, source, target)."""
    return [(e0[0], e1[0], e2[0]) for e0 in edges for e1 in edges for e2 in edges
            if e2[1] == e1[1] and e2[2] == e0[1] and e0[2] == e1[2]]


@strat.composite
def small_sets(draw):
    """A simplicial set of at most 4 vertices, 5 edges (loops and parallel
    edges allowed) and 3 triangles, whose faces may be degenerate edges."""
    n = draw(strat.integers(1, 4))
    arcs = draw(strat.lists(strat.tuples(strat.integers(0, n - 1), strat.integers(0, n - 1)),
                            max_size=5))
    faces = {f"e{k}": (nd(f"v{t}"), nd(f"v{s}")) for k, (s, t) in enumerate(arcs)}
    edges = ([(nd(f"e{k}"), s, t) for k, (s, t) in enumerate(arcs)]
             + [(NF((0,), f"v{v}"), v, v) for v in range(n)])
    bounds = _triangles(edges)
    tris = draw(strat.lists(strat.sampled_from(bounds), max_size=3)) if bounds else []
    faces.update({f"t{k}": fs for k, fs in enumerate(tris)})
    return SSet([(f"v{v}", 0) for v in range(n)] + [(f"e{k}", 1) for k in range(len(arcs))]
                + [(f"t{k}", 2) for k in range(len(tris))], faces)


def _relabelled(X, perm):
    """X with generator i (in gens() order) renamed to x{perm[i]}, listed in that order."""
    name = {g: f"x{p}" for g, p in zip(X.gens(), perm)}
    gens = sorted(((name[g], X.gen_dim(g)) for g in X.gens()), key=lambda it: it[0])
    return SSet(gens, {name[g]: tuple(NF(f.word, name[f.gen]) for f in fs)
                       for g, fs in X.faces.items()})


def _reversed_edge(X):
    """X with its first edge that bounds no triangle turned round, or None."""
    bounding = {f.gen for g in (X.by_dim[2] if X.dim_bound >= 2 else ()) for f in X.faces[g]}
    free = [e for e in (X.by_dim[1] if X.dim_bound >= 1 else ()) if e not in bounding]
    if not free:
        return None
    faces = dict(X.faces)
    faces[free[0]] = faces[free[0]][::-1]
    return SSet([(g, X.gen_dim(g)) for g in X.gens()], faces)


@settings(max_examples=150, deadline=None)
@given(small_sets(), strat.data())
def test_find_isos_match_degree_only_oracle(A, data):
    kind = data.draw(strat.sampled_from(["copy", "reversed", "other"]))
    B = {"copy": lambda: A, "reversed": lambda: _reversed_edge(A) or A,
         "other": lambda: data.draw(small_sets())}[kind]()
    B = _relabelled(B, data.draw(strat.permutations(range(B.n_gens()))))
    embed = data.draw(strat.sampled_from([lambda X: X, horizontal, vertical]))
    A, B = embed(A), embed(B)
    got = [list(f.assign.items()) for f in ops.find_isos(A, B)]
    want = [list(f.assign.items()) for f in isos_by_degree(A, B)]
    assert got == want
    first = ops.find_iso(A, B)
    assert (first is None) == (not want)
    assert first is None or list(first.assign.items()) == want[0]
    if kind == "copy":
        assert want


# -- coherent functors ----------------------------------------------------------


@pytest.mark.parametrize("m", range(3))
@pytest.mark.parametrize("k", range(2))
@pytest.mark.parametrize("X", [d(0), d(1)], ids=["d0", "d1"])
def test_hc_functors_match_generate_and_test(X, m, k):
    C = suspension(X)
    assert hc_functors(C, m, k) == hc_functors_by_generate_and_test(C, m, k)


def test_hc_nerve_budget_is_checked_as_functors_are_found(monkeypatch):
    # one level alone, (2, 1) of suspension(Delta[1]) with 14 functors: the
    # search stops at the first functor over the budget, not at the level's end
    built = []
    real = nerves.CoherentFunctor
    monkeypatch.setattr(nerves, "CoherentFunctor", lambda *a: built.append(a) or real(*a))
    monkeypatch.setattr(nerves, "materialize_bi", lambda levels, *_, **__: levels(2, 1))
    monkeypatch.setattr(nerves, "MAX_FUNCTORS", 5)
    with pytest.raises(SSetError, match="more than 5 functors"):
        hc_nerve(suspension(d(1)), 2, 1)
    assert len(built) == 6
    assert len(hc_functors(suspension(d(1)), 2, 1)) == 14


# -- natural transformations ----------------------------------------------------


def test_nat_trans_match_product_oracle_on_adjunction_cases():
    compared = 0
    for n, names in ADJUNCTION_CASES:
        W = delta_precat(n).W
        st = Straightener(W)
        for name in names:
            G = _catalog_presheaf(st, name)
            for g in W.gens():
                F = st.st_rep(Cell(*W.bidegree(g), bnd(g)))
                for src, dst in ((F, G), (G, F)):
                    got = [[(a, f.assign) for a, f in eta.component.items()]
                           for eta in enumerate_nat_trans(src, dst)]
                    want = [[(a, f.assign) for a, f in eta.component.items()]
                            for eta in nat_trans_by_products(src, dst)]
                    assert got == want, (n, name, g)
                    compared += bool(got)
    assert compared > 10  # not all empty
