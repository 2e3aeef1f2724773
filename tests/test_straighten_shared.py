"""The Straightener's shared universal levels, pruned coends and face pieces.

Straightening a total object builds one categorification per LF[j, Delta[k]],
left Kan extends along coends with their trivial relation pieces left out and
the rest as bare generator lists, and glues generators along their
non-degenerate faces without copies; it reads each cell's classifying map
from W's face tables and builds it unvalidated.  These tests hold each
against the construction it replaces, and validate the classifying maps.
"""

import pytest

from necklace_calculus import kan, ops, shapes
from necklace_calculus.bisset import BiMap, bi_identity, lf, lf_induced
from necklace_calculus.groth import vtensor
from necklace_calculus.io_schemas import (bisset_dump, canonical_json, presheaf_dump, scat_dump,
                                          sset_dump)
from necklace_calculus.straighten import (Straightener, cell_product_map, delta_precat,
                                         universal_cache_clear)

from oracles import (cell_product_map_by_act, coend_all_relations, presheaf_actions_all_pairs,
                     scat_comp_all_pairs, with_relation_products)

d = shapes.simplex

TOTALS = {
    # (base precategory, tensor factor X of the total object id (x) X, None for id)
    "id_d3": (lambda: delta_precat(3).W, None),
    "id_x_d1_over_d2": (lambda: delta_precat(2).W, d(1)),
    "id_x_bd2_over_d2": (lambda: delta_precat(2).W, shapes.boundary(2)),
    "id_x_d2_over_d1": (lambda: delta_precat(1).W, d(2)),
    # the identity of LF[m, Delta[k]] has degenerate faces
    "id_lf2_d1": (lambda: lf(2, d(1)).W, None),
    "id_lf1_d2": (lambda: lf(1, d(2)).W, None),
}


def _straightened(precat, X):
    """A Straightener over precat() that has straightened id (x) X (the identity
    for X None) at every object, and the straightened object."""
    W = precat()
    if X is None:
        P, p = W, bi_identity(W)
    else:
        P, elem_of, _ = vtensor(W, X)
        p = BiMap(P, W, {g: elem_of[g][0] for g in P.gens()}, validate=False)
    st = Straightener(W)
    ob = st.st_object(P, p)
    for a in st.CW.objects:
        ob.value(a)
    return st, ob


def _base(name) -> str:
    return canonical_json(bisset_dump(TOTALS[name][0]()))


def _prepared(name, warmth):
    """_straightened(*TOTALS[name]) after the table of universal straightenings
    is emptied ("cold"), or emptied and then filled by straightening every
    total over another base ("warm"), so that the coends and renamed copies
    that each FullRep it keeps holds were built by a Straightener over
    another W."""
    universal_cache_clear()
    if warmth == "warm":
        for other in sorted(TOTALS):
            if _base(other) != _base(name):
                _straightened(*TOTALS[other])
    return _straightened(*TOTALS[name])


def _assert_same_diagram(got, want):
    """Object by object: generators by degree and face tables; edge by edge:
    names, ends and the leg as a dict."""
    assert sorted(got.objects) == sorted(want.objects)
    for name, X in got.objects.items():
        Y = want.objects[name]
        assert type(X) is type(Y), name
        assert X._by_deg == Y._by_deg, name
        if not isinstance(X, ops.BarePiece):
            assert X._faces == Y._faces, name
    assert [e[:3] for e in got.edges] == [e[:3] for e in want.edges]
    for (name, _, _, f), (_, _, _, g) in zip(got.edges, want.edges):
        assert f.assign == g.assign, name


# each total cold, under its own name, and warm
WARMTH = pytest.mark.parametrize(
    "name,warmth", [(n, "cold") for n in sorted(TOTALS)] + [(n, "warm") for n in sorted(TOTALS)],
    ids=sorted(TOTALS) + [f"{n}-warm" for n in sorted(TOTALS)])


@WARMTH
def test_pruned_coend_matches_all_relations(name, warmth):
    st, _ = _prepared(name, warmth)
    assert st._lans
    for cell, lan in st._lans.items():
        F = st.full(cell.m, cell.k).presheaf
        G = st.sigma_functor(cell)
        for a in st.base_cat.objects:
            want = coend_all_relations(F, G, st.base_cat, a)
            got = lan.colimits[a]
            assert sset_dump(got.sset) == sset_dump(want.sset), (cell, a)
            assert got.reps == want.reps, (cell, a)
    universal_cache_clear()


@WARMTH
def test_relation_legs_are_simplicial_maps_out_of_the_full_product(name, warmth):
    # with_relation_products asserts the ids and validates both legs of each piece;
    # the diagram read from the Straightener's pieces is the one built from none
    st, _ = _prepared(name, warmth)
    pieces = copies = 0
    for cell in st._lans:
        fr = st.full(cell.m, cell.k)
        F, G = fr.presheaf, st.sigma_functor(cell)
        copies += sum(X._renamed is not None for X in F.value.values())
        for a in st.base_cat.objects:
            diag, _ = kan.coend_diagram(F, G, st.base_cat, a, st._pieces)
            _assert_same_diagram(diag, kan.coend_diagram(F, G, st.base_cat, a, {})[0])
            with_relation_products(F, G, st.base_cat, a, diag)
            pieces += sum(isinstance(X, ops.BarePiece) and X.n_gens() > 0
                          for X in diag.objects.values())
    assert pieces and copies
    universal_cache_clear()


# (pairs (h, x) listed, pairs whose degeneracy words share an index) per total
ACTION_PAIRS = {"id_d3": (248, 148), "id_x_d1_over_d2": (84, 24),
                "id_x_bd2_over_d2": (156, 36), "id_x_d2_over_d1": (12, 0),
                "id_lf2_d1": (306, 168), "id_lf1_d2": (70, 40)}


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_presheaf_dump_actions_match_all_pairs(name):
    # presheaf_dump reads the image of a pair whose words share an index from a lower pair
    pre = _straightened(*TOTALS[name])[1].presheaf()
    actions = presheaf_dump(pre)["actions"]
    assert actions == presheaf_actions_all_pairs(pre)
    entries = [e for es in actions.values() for e in es]
    shared = sum(bool(set(e["h"]["word"]) & set(e["x"]["word"])) for e in entries)
    assert (len(entries), shared) == ACTION_PAIRS[name]


# (pairs (g, f) listed, pairs whose degeneracy words share an index) per base
COMP_PAIRS = {"id_d3": (148, 96), "id_x_d1_over_d2": (26, 12),
              "id_x_bd2_over_d2": (26, 12), "id_x_d2_over_d1": (4, 0),
              "id_lf2_d1": (172, 108), "id_lf1_d2": (44, 28)}


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_scat_dump_composites_match_all_pairs(name):
    # scat_dump reads the composite of a pair whose words share an index from a lower pair
    base = _straightened(*TOTALS[name])[0].base_cat
    comp = scat_dump(base)["comp"]
    assert comp == scat_comp_all_pairs(base)
    entries = [e for es in comp.values() for e in es]
    shared = sum(bool(set(e["g"]["word"]) & set(e["f"]["word"])) for e in entries)
    assert (len(entries), shared) == COMP_PAIRS[name]


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_face_pieces_only_for_degenerate_faces(name):
    _, ob = _straightened(*TOTALS[name])
    faces = [n for n in ob._obj_elem if n.startswith("f.")]
    assert all(ob._obj_elem[n].hword or ob._obj_elem[n].vword for n in faces)
    assert len(ob._obj_elem) == len(ob.P.gens()) + len(faces)
    # a total built by vtensor over Delta[n] has no degenerate faces
    assert bool(faces) == name.startswith("id_lf")


def test_levels_are_shared():
    st = Straightener(delta_precat(2).W)
    for k in range(2):
        for m in range(2):
            lo, hi = st.full(m, k), st.full(m + 1, k)
            assert lo.C1 is hi.C
            assert lo.lfm1 is hi.lfm
            assert st.full(m, k) is lo


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_cell_product_map_reads_the_face_tables_as_act_does(name):
    st, _ = _straightened(*TOTALS[name])
    for cell in st._lans:
        lfm = st.full(cell.m, cell.k).lfm
        got = cell_product_map(st.W, cell, lfm)
        assert got.assign == cell_product_map_by_act(st.W, cell, lfm), cell


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_classifying_maps_are_simplicial(name):
    # lf_induced builds its BiMap unvalidated: validate the same maps here
    st, _ = _straightened(*TOTALS[name])
    assert st._lans
    for cell in st._lans:
        lfm = st.full(cell.m, cell.k).lfm
        pm = cell_product_map(st.W, cell, lfm)
        BiMap(lfm.product, st.W, pm.assign)  # validate=True raises unless simplicial
        BiMap(lfm.W, st.W, lf_induced(lfm, st.W, pm).assign)
