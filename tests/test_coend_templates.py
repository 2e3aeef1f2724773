"""The coend pieces over a point that a FullRep keeps.

When D(d, Ga) is a point, the product piece p.a of a coend is F(a) renamed and
the relation piece r.a.b keeps the shuffles of C(a, b) x pt x F(b) with their
leg into p.a, and into p.b when D(d, Gb) is a point too: all depend on the
universal case F alone, so kan.coend_diagram reads them from a table the
FullRep of F owns.  These tests hold the table to
its promises (tests/test_straighten_shared.py checks the diagrams read from a
table that a Straightener over another W filled): Straighteners over
different W read the same objects from a kept FullRep; a FullRep the
process-wide table does not keep takes its templates with it; threads that
share a table agree on it; and a point piece's to_nf refuses what is no
simplex, as ops.product's does.
"""

import itertools
import sys
import threading
import weakref

import pytest

from necklace_calculus import kan, ops, straighten
from necklace_calculus.io_schemas import canonical_json, presheaf_dump
from necklace_calculus.sset import NF, SSetError
from necklace_calculus.straighten import universal_cache_clear

from test_straighten_shared import TOTALS, _straightened


def _point_pieces(st):
    """(FullRep, lan, d, a) for each product piece of st's lans over a point D(d, Ga)."""
    for cell, lan in st._lans.items():
        fr = st.full(cell.m, cell.k)
        G = st.sigma_functor(cell)
        for d in st.base_cat.objects:
            for a in lan.products[d]:
                if ops.is_point(st.base_cat.hom[(d, G.on_obj[a])]):
                    yield fr, lan, d, a


def test_straighteners_over_different_bases_read_the_same_templates():
    universal_cache_clear()
    read, both = [], 0
    for name in ("id_d3", "id_x_d1_over_d2"):
        st, _ = _straightened(*TOTALS[name])
        seen = set()
        for fr, lan, d, a in _point_pieces(st):
            assert lan.products[d][a].sset is fr.templates[a].sset
            assert lan.products[d][a].projections[1] is fr.templates[a].projection
            seen.add((id(fr), a))
        for cell in st._lans:
            fr = st.full(cell.m, cell.k)
            G = st.sigma_functor(cell)
            for d in st.base_cat.objects:
                diag, _ = kan.coend_diagram(fr.presheaf, G, st.base_cat, d, st._pieces,
                                            fr.templates)
                over = {a: ops.is_point(st.base_cat.hom[(d, G.on_obj[a])])
                        for a in fr.presheaf.base.objects}
                for edge, src, _, f in diag.edges:
                    a, b = src.split(".")[1:]
                    if over[a]:
                        rel = fr.templates[(a, b)]
                        assert diag.objects[src] is rel.piece
                        if edge.startswith("ea."):
                            assert f is rel.to_a and f.dst is fr.templates[a].sset
                        elif over[b]:
                            assert f is rel.to_b and f.dst is fr.templates[b].sset
                            both += 1
        read.append(seen)
    kept = {id(fr) for fr in straighten._UNIVERSAL._fulls.values()}
    shared = read[0] & read[1]
    assert shared and {fr for fr, _ in shared} <= kept and both
    universal_cache_clear()


def test_templates_of_an_unkept_shape_go_with_their_straightener():
    universal_cache_clear()
    st, ob = _straightened(lambda: straighten.delta_precat(4).W, None)
    owned = st.full(4, 0)  # built on LF[5, Delta[0]], which the table does not keep
    kept = st.full(3, 0)
    assert (4, 0) not in straighten._UNIVERSAL._fulls
    assert kept is straighten._UNIVERSAL._fulls[3, 0]
    assert owned.templates and kept.templates
    gone = [weakref.ref(t.sset if hasattr(t, "sset") else t.piece)
            for t in owned.templates.values()]
    stay = [weakref.ref(t.sset if hasattr(t, "sset") else t.piece)
            for t in kept.templates.values()]
    del st, ob, owned, kept
    assert all(ref() is None for ref in gone)  # freed by reference counting, no gc.collect()
    assert all(ref() is not None for ref in stay)
    universal_cache_clear()
    assert all(ref() is None for ref in stay)


def test_threads_agree_on_the_templates():
    universal_cache_clear()
    names = ["id_x_bd2_over_d2", "id_d3", "id_lf2_d1"] * 2
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
    # every thread read the published entry, and each relation leg targets the
    # published point piece
    for st, _ in got:
        for fr, lan, d, a in _point_pieces(st):
            assert lan.products[d][a].sset is fr.templates[a].sset
        for fr in st._fulls.values():
            for key, t in fr.templates.items():
                if isinstance(key, tuple):
                    assert t.to_a.dst is fr.templates[key[0]].sset
                    assert t.to_b.dst is fr.templates[key[1]].sset
    universal_cache_clear()


def test_point_pieces_reject_what_is_no_simplex():
    # a point piece is ops.product's pt x F(a), built on F(a)'s template; its
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
