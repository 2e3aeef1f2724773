"""The coend pieces over a point and the coend colimits that a FullRep keeps.

When D(d, Ga) is a point, the product piece p.a of a coend is F(a) renamed
(ops.product), and one renamed copy is kept on F(a) itself, for as long as
F(a) lives.  The whole colimit depends on F and on the restricted
representable D(d, G-) alone, so kan.enriched_lan reads it from the FullRep's
CoendTable by kan.coend_key, and Straightener.st_operator reads its maps
between two entries from there too.  These tests hold both to their promises
(tests/test_straighten_shared.py checks the diagrams read from pieces that a
Straightener over another W built): Straighteners over different W read one
renamed copy of each value of a kept FullRep; a set keeps its renamed copy in
no reference cycle; every colimit read from a table equals one built afresh,
on the bases of test_straighten_shared.TOTALS and on copies of them
relabelled in reverse id order; a copy relabelled in the same order reads
only what the original published; equal keys give equal coends, also over
homs whose id order is reversed; the key sees the composites, not the homs
alone, and listing the action on one-bead generators tells apart what
listing it on all does; a FullRep the process-wide table does not keep takes
its table and its renamed copies with it; threads that share a FullRep agree
on its entries and copies; a full table stops growing and still answers; and
a point piece's to_nf refuses what is no simplex, as ops.product's does.
"""

import gc
import itertools
import sys
import threading
import weakref

import pytest

from necklace_calculus import kan, ops, straighten
from necklace_calculus.bisset import rename_gens
from necklace_calculus.io_schemas import canonical_json, presheaf_dump, sset_dump
from necklace_calculus.scat import EnrichedFunctor, SCat
from necklace_calculus.shapes import simplex
from necklace_calculus.sset import NF, SSet, SSetError
from necklace_calculus.straighten import universal_cache_clear

from test_straighten_shared import TOTALS, _straightened


def _point_pieces(st):
    """(FullRep, lan, d, a) for each product piece of st's lans over a point D(d, Ga)."""
    for cell, lan in st._lans.items():
        fr = st.full(cell.m, cell.k)
        G = st.sigma_functor(cell)
        for d in st.base_cat.objects:
            for a in fr.base.objects:
                if ops.is_point(st.base_cat.hom[(d, G.on_obj[a])]):
                    yield fr, lan, d, a


def test_straighteners_over_different_bases_share_one_renamed_copy():
    universal_cache_clear()
    read, legs = [], 0
    for name in ("id_d3", "id_x_d1_over_d2"):
        st, _ = _straightened(*TOTALS[name])
        seen = {}
        for fr, lan, d, a in _point_pieces(st):
            X = fr.presheaf.value[a]
            assert lan.products[d][a].sset is X._renamed.sset
            assert lan.products[d][a].projections[1].dst is X
            seen[(id(fr), a)] = X._renamed.sset
        for cell in st._lans:
            fr = st.full(cell.m, cell.k)
            G = st.sigma_functor(cell)
            for d in st.base_cat.objects:
                diag, _ = kan.coend_diagram(fr.presheaf, G, st.base_cat, d, {})
                for _, _, dst, f in diag.edges:  # every leg into a point piece
                    b = dst.split(".")[1]
                    X = fr.presheaf.value[b]
                    if ops.is_point(st.base_cat.hom[(d, G.on_obj[b])]):
                        assert f.dst is X._renamed.sset
                        legs += 1
        read.append(seen)
    kept = {id(fr) for fr in straighten._UNIVERSAL._fulls.values()}
    shared = read[0].keys() & read[1].keys()
    assert shared and {fr for fr, _ in shared} <= kept and legs
    assert all(read[0][key] is read[1][key] for key in shared)
    universal_cache_clear()


def test_a_set_keeps_its_renamed_copy_in_no_cycle():
    X = SSet([("v", 0), ("w", 0), ("e", 1)], {"e": (NF((), "w"), NF((), "v"))})
    ren = ops._renamed(X)
    assert ops._renamed(X) is ren and X._renamed is ren
    assert ops.product(simplex(0), X).sset is ren.sset
    ref, copy = weakref.ref(X), weakref.ref(ren.sset)
    gc.collect()
    gc.disable()
    try:
        del X, ren
        assert ref() is None and copy() is None  # freed by reference counting alone
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_renamed_copies_of_an_unkept_shape_go_with_their_straightener():
    universal_cache_clear()
    gc.disable()  # freed by reference counting alone
    try:
        st, ob = _straightened(lambda: straighten.delta_precat(4).W, None)
        owned = st.full(4, 0)  # built on LF[5, Delta[0]], which the table does not keep
        kept = st.full(3, 0)
        assert (4, 0) not in straighten._UNIVERSAL._fulls
        assert kept is straighten._UNIVERSAL._fulls[3, 0]
        gone = [weakref.ref(X._renamed.sset) for X in owned.presheaf.value.values()
                if X._renamed is not None]
        stay = [weakref.ref(X._renamed.sset) for X in kept.presheaf.value.values()
                if X._renamed is not None]
        assert gone and stay
        del st, ob, owned, kept
        assert all(ref() is None for ref in gone)
        assert all(ref() is not None for ref in stay)
        universal_cache_clear()
        assert all(ref() is None for ref in stay)
    finally:
        gc.enable()


def _in_threads(names):
    """(Straightener, payload) of each total named, each straightened in a
    thread of its own under a 10 us switch interval, all at once; asserts
    that every payload is the one a single thread gives."""
    universal_cache_clear()
    want = {name: canonical_json(presheaf_dump(_straightened(*TOTALS[name])[1].presheaf()))
            for name in set(names)}
    universal_cache_clear()
    got, errors = [None] * len(names), []

    def work(i):
        try:
            st, ob = _straightened(*TOTALS[names[i]])
            got[i] = (st, canonical_json(presheaf_dump(ob.presheaf())))
        except Exception as exc:  # reported below, with the thread's index
            errors.append((i, exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(names))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert all(payload == want[names[i]] for i, (_, payload) in enumerate(got))
    return got


def test_threads_agree_on_the_renamed_copies():
    got = _in_threads(["id_x_bd2_over_d2", "id_d3", "id_lf2_d1"] * 2)
    # every point piece a thread built is on the one copy kept on its factor
    readers = {}
    for i, (st, _) in enumerate(got):
        for pr in st._pieces.values():
            if isinstance(pr, ops.Product) and ops.is_point(pr.projections[0].dst):
                X = pr.projections[1].dst
                assert pr.sset is X._renamed.sset
                readers.setdefault(id(X), set()).add(i)
    assert any(len(threads) > 1 for threads in readers.values())
    universal_cache_clear()


def test_point_pieces_reject_what_is_no_simplex():
    # a point piece is ops.product's pt x F(a), built on F(a)'s renamed copy; its
    # to_nf agrees with the product's on every pair of one degree, and refuses
    # tuples of mixed degrees, an unknown generator and a point word that is not full
    universal_cache_clear()
    st, _ = _straightened(*TOTALS["id_x_d1_over_d2"])
    checked = 0
    for fr, lan, d, a in _point_pieces(st):
        got = lan.products[d][a]
        H = got.projections[0].dst
        X = fr.presheaf.value[a]
        want = ops.product(H, X)
        assert got.sset._by_deg == want.sset._by_deg and got.sset._faces == want.sset._faces
        assert [p.assign for p in got.projections] == [p.assign for p in want.projections]
        pt = H.by_dim[0][0]
        top = X.dim_bound + 1
        for dh, dx in itertools.product(range(top + 1), repeat=2):
            for h, x in itertools.product(H.simplices(dh), X.simplices(dx)):
                if dh == dx:
                    assert got.to_nf(dx, (h, x)) == want.to_nf(dx, (h, x))
                    continue
                for pr in (got, want):
                    with pytest.raises(SSetError):
                        pr.to_nf(dx, (h, x))
        for dim in range(top + 1):
            full = tuple(range(dim - 1, -1, -1))
            bad = [(NF(full, pt), NF(full, "no such generator"))]
            if dim:  # a strictly decreasing point word of the right length, not full
                bad += [(NF((dim,) + full[1:], pt), x) for x in X.simplices(dim)]
            for e in bad:
                for pr in (got, want):
                    with pytest.raises(SSetError):
                        pr.to_nf(dim, e)
        checked += 1
    assert checked
    universal_cache_clear()


def _relabelled(precat, order_kept: bool):
    """precat, with every generator id of its base renamed, objects included:
    each id g to "z" + g, which keeps their order, or else in the reverse of
    their order."""
    def build():
        W = precat()
        ids = sorted(W.gens())
        if order_kept:
            return rename_gens(W, {g: "z" + g for g in ids})
        return rename_gens(W, {g: f"z{len(ids) - i:03d}" for i, g in enumerate(ids)})

    return build


# ops.product numbers shuffles in id order, so reversing the ids of W, and
# with them those of its homs, names a coend's generators in another order
RELABELLED = {f"{name}-reversed": (_relabelled(precat, False), X)
              for name, (precat, X) in TOTALS.items()}


def _coends(st):
    """(FullRep, G, lan, d, key) for each coend of st's lans."""
    for cell, lan in st._lans.items():
        fr = st.full(cell.m, cell.k)
        G = st.sigma_functor(cell)
        for d in st.base_cat.objects:
            key = kan.coend_key(fr.presheaf, G, st.base_cat, d, fr.coends.spanning)
            yield fr, G, lan, d, key


@pytest.mark.parametrize("name", sorted(TOTALS) + sorted(RELABELLED))
def test_table_colimits_equal_fresh_ones(name):
    # the table filled by every total first, so that most coends are read from it
    universal_cache_clear()
    for other in sorted(TOTALS):
        _straightened(*TOTALS[other])
    st, _ = _straightened(*{**TOTALS, **RELABELLED}[name])
    for fr, G, lan, d, key in _coends(st):
        got = lan.colimits[d]
        assert fr.coends.colimits[key][0] == lan.entries[d]
        assert fr.coends.colimits[key][1] is got
        want = ops.colimit(kan.coend_diagram(fr.presheaf, G, st.base_cat, d, {})[0])
        assert sset_dump(got.sset) == sset_dump(want.sset)  # ids and faces
        assert got.reps == want.reps
        assert sorted(got.cocone) == sorted(want.cocone)
        for n, leg in got.cocone.items():
            assert leg.src == want.cocone[n].src and leg.assign == want.cocone[n].assign, n
    universal_cache_clear()


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_a_relabelled_base_hits_the_table(name):
    universal_cache_clear()
    st, _ = _straightened(*TOTALS[name])
    tables = {shape: fr.coends for shape, fr in straighten._UNIVERSAL._fulls.items()}
    sizes = {shape: (len(t.colimits), len(t.operators)) for shape, t in tables.items()}
    published = {e for lan in st._lans.values() for e in lan.entries.values()}
    assert None not in published  # every shape of these totals is kept
    precat, X = TOTALS[name]
    again, _ = _straightened(_relabelled(precat, True), X)
    assert straighten._UNIVERSAL._fulls.keys() == tables.keys()
    assert {shape: (len(t.colimits), len(t.operators)) for shape, t in tables.items()} == sizes
    assert {e for lan in again._lans.values() for e in lan.entries.values()} == published
    universal_cache_clear()


def test_the_key_sees_the_composites_not_the_homs_alone():
    universal_cache_clear()
    st, _ = _straightened(*TOTALS["id_lf2_d1"])
    D = st.base_cat

    def shifted(a, b, c, g, f):
        """D's composite, moved to the next simplex of its dimension."""
        h = D.comp(a, b, c, g, f)
        same = D.hom[(a, c)].simplices(D.hom[(a, c)].dim(h))
        return same[(same.index(h) + 1) % len(same)]

    twin = SCat(D.objects, D.hom, D.comp, D.ids, D.hom_bound)
    other = SCat(D.objects, D.hom, shifted, D.ids, D.hom_bound)
    moved = 0
    for fr, G, lan, d, key in _coends(st):
        assert kan.coend_key(fr.presheaf, G, twin, d, fr.coends.spanning) == key
        if kan.coend_key(fr.presheaf, G, other, d, fr.coends.spanning) != key:
            moved += 1
            assert key[0] == kan.coend_key(fr.presheaf, G, other, d, fr.coends.spanning)[0]
    assert moved
    universal_cache_clear()


def _reversed_homs(D):
    """D with the generators of each hom renamed in the reverse of their id
    order, their listing order kept, and the renaming of each hom."""
    ren, homs = {}, {}
    for pair, H in D.hom.items():
        ids = sorted(H._deg)
        r = ren[pair] = {g: f"{pair[0]}~{pair[1]}~{len(ids) - i:04d}" for i, g in enumerate(ids)}
        homs[pair] = SSet([(r[g], H.gen_dim(g)) for g in H.gens()],
                          {r[g]: tuple(NF(f.word, r[f.gen]) for f in fs)
                           for g, fs in H.faces.items()}, validate=False)
    back = {pair: {v: g for g, v in r.items()} for pair, r in ren.items()}

    def comp(a, b, c, g, f):
        h = D.comp(a, b, c, NF(g.word, back[(b, c)][g.gen]), NF(f.word, back[(a, b)][f.gen]))
        return NF(h.word, ren[(a, c)][h.gen])

    ids = {a: ren[(a, a)][D.ids[a]] for a in D.objects}
    return SCat(D.objects, homs, comp, ids, D.hom_bound), ren


def test_equal_keys_give_equal_coends():
    # over D and over D with every hom's ids reversed (which keeps each hom's
    # listing order but not its id order, by which ops.product numbers shuffles)
    told = 0
    for name in sorted(TOTALS):
        universal_cache_clear()
        st, _ = _straightened(*TOTALS[name])
        D = st.base_cat
        D2, ren = _reversed_homs(D)
        seen = {}
        for fr, G, lan, d, key in _coends(st):
            def on_hom(a, b, k, G=G):
                x = G.on_hom(a, b, k)
                return NF(x.word, ren[(G.on_obj[a], G.on_obj[b])][x.gen])

            G2 = EnrichedFunctor(G.src, D2, G.on_obj, on_hom)
            keys = []
            for D_, G_ in ((D, G), (D2, G2)):
                keys.append(kan.coend_key(fr.presheaf, G_, D_, d, fr.coends.spanning))
                col = ops.colimit(kan.coend_diagram(fr.presheaf, G_, D_, d, {})[0])
                form = (sset_dump(col.sset), col.reps,
                        {n: leg.assign for n, leg in col.cocone.items()})
                assert seen.setdefault((id(fr), keys[-1]), form) == form, (name, d)
            told += keys[0] != keys[1]
    assert told  # some hom's id order is not its listing order
    universal_cache_clear()


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_the_one_bead_key_tells_apart_what_the_full_key_does(name):
    # listing the action on the one-bead generators of C only loses no coend
    universal_cache_clear()
    st, _ = _straightened(*TOTALS[name])
    classes = {}
    for fr, G, lan, d, key in _coends(st):
        full = kan.coend_key(fr.presheaf, G, st.base_cat, d)
        assert classes.setdefault((id(fr), key), full) == full
    assert len({(fr, full) for (fr, _), full in classes.items()}) == len(classes)
    universal_cache_clear()


def test_threads_sharing_a_full_rep_agree_on_its_entries():
    got = _in_threads(["id_x_bd2_over_d2", "id_d3", "id_lf2_d1"] * 2)
    for st, _ in got:
        for fr, G, lan, d, key in _coends(st):
            assert fr.coends.colimits[key] == (lan.entries[d], lan.colimits[d])
            assert fr.coends.colimits[key][1] is lan.colimits[d]
        for key, out in st._ops.items():
            if isinstance(key[0], straighten.Cell):
                src, dst, mu_h, mu_v, a = key
                ends = (st.lan(src).entries[a], st.lan(dst).entries[a])
                assert st.full(dst.m, dst.k).coends.operators[(*ends, mu_h, mu_v)] is out
    universal_cache_clear()


def test_a_full_table_stops_growing_and_still_answers(monkeypatch):
    universal_cache_clear()
    want = {name: canonical_json(presheaf_dump(_straightened(*TOTALS[name])[1].presheaf()))
            for name in sorted(TOTALS)}
    universal_cache_clear()
    monkeypatch.setattr(kan, "COEND_CAP", 1)
    monkeypatch.setattr(kan, "OPERATOR_CAP", 1)
    table, built = kan.CoendTable(None), []

    def build(x):
        return lambda: built.append(x) or x

    first = table.coend("k1", build("c1"))
    assert first[0] is not None and first[1] == "c1"
    assert table.coend("k2", build("c2")) == (None, "c2")
    assert table.coend("k1", build("c3")) == first and built == ["c1", "c2"]
    assert table.operator("m1", build("f1")) == "f1" and table.operator("m2", build("f2")) == "f2"
    assert table.operators == {"m1": "f1"} and list(table.colimits) == ["k1"]

    monkeypatch.setattr(kan, "COEND_CAP", 3)
    monkeypatch.setattr(kan, "OPERATOR_CAP", 5)
    for _ in range(2):  # cold, then with every table full
        got = {name: canonical_json(presheaf_dump(_straightened(*TOTALS[name])[1].presheaf()))
               for name in sorted(TOTALS)}
        assert got == want
    tables = [fr.coends for fr in straighten._UNIVERSAL._fulls.values()]
    assert all(len(t.colimits) <= 3 and len(t.operators) <= 5 for t in tables)
    assert any(len(t.colimits) == 3 for t in tables)
    assert any(len(t.operators) == 5 for t in tables)
    universal_cache_clear()


def test_coends_of_an_unkept_shape_go_with_their_straightener():
    universal_cache_clear()
    gc.disable()  # freed by reference counting alone
    try:
        st, ob = _straightened(lambda: straighten.delta_precat(4).W, None)
        owned = st.full(4, 0)  # built on LF[5, Delta[0]], which the table does not keep
        kept = st.full(3, 0)
        assert kept is straighten._UNIVERSAL._fulls[3, 0]
        assert owned.coends.colimits and kept.coends.colimits and kept.coends.operators
        gone = [weakref.ref(col.sset) for _, col in owned.coends.colimits.values()]
        gone += [weakref.ref(f) for key, f in st._ops.items() if key[0] == "op"]
        stay = [weakref.ref(col.sset) for _, col in kept.coends.colimits.values()]
        stay += [weakref.ref(f) for f in kept.coends.operators.values()]
        assert len(gone) > len(owned.coends.colimits)
        del st, ob, owned, kept
        assert all(ref() is None for ref in gone)
        assert all(ref() is not None for ref in stay)
        universal_cache_clear()
        assert all(ref() is None for ref in stay)
    finally:
        gc.enable()
