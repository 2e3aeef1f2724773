"""Enriched functors, composition and faces from tables, against the routes
that compute them element by element.

cfunctor's on_hom reads the image of each generator from a table its closure
owns and degenerates it in the target; Categorification.comp_el memoizes each
composite; GradedSet._face reads delta's bounded face lookup.  Each is held
against its per-element route in oracles.py.
"""

import itertools

import pytest

from necklace_calculus import delta, shapes
from necklace_calculus.bisset import horizontal, lf, vertical
from necklace_calculus.categorify import categorify
from necklace_calculus.shapes import simplex_operator
from necklace_calculus.sset import nd
from necklace_calculus.straighten import cell_product_map, lf_induced, lf_map

from oracles import (cfunctor_on_hom_by_element, comp_el_by_element, face_by_composing,
                     face_of_word_by_composing)
from test_straighten_shared import TOTALS, _straightened

d = shapes.simplex


def _functors(st):
    """(functor, precategory map, source, target) for every enriched functor
    the Straightener st has used, those it read from the table of universal
    straightenings included: the last cofaces of its universal levels, the
    classifying functors of its cells and its transports."""
    out = [(fr.iota, fr.face, fr.C, fr.C1) for fr in st._fulls.values()]
    for cell, G in st._sig.items():
        fr = st.full(cell.m, cell.k)
        sig = lf_induced(fr.lfm, st.W, cell_product_map(st.W, cell, fr.lfm))
        out.append((G, sig, fr.C, st.CW))
    for key, tr in st._ops.items():
        if key[0] == "tr":
            _, sm, sk, dm, dk, mu_h, mu_v = key
            fs, fd = st.full(sm, sk), st.full(dm, dk)
            lmap = lf_map(fs.lfm1, fd.lfm1, tuple(mu_h) + (dm + 1,),
                          simplex_operator(mu_v, dk))
            out.append((tr, lmap, fs.C1, fd.C1))
    return out


def _simplices(C, a, b):
    H = C.hom_sset(a, b)
    return [x for j in range(C.hom_bound(a, b) + 1) for x in H.simplices(j)]


# how many functors each straightening builds: the last cofaces of its
# universal levels, one classifying functor per cell, and its transports
FUNCTOR_COUNTS = {"id_d3": 28, "id_lf1_d2": 32, "id_lf2_d1": 39, "id_x_bd2_over_d2": 36,
                  "id_x_d1_over_d2": 36, "id_x_d2_over_d1": 31}


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_functor_tables_match_per_element_route(name):
    st, _ = _straightened(*TOTALS[name])
    functors = _functors(st)
    assert len({id(F) for F, *_ in functors}) == FUNCTOR_COUNTS[name]
    assert any(F is G for F, *_ in functors for G in st._sig.values())
    checked = 0
    for F, f, Csrc, Cdst in functors:
        for a, b in itertools.product(Csrc.objects, repeat=2):
            for x in _simplices(Csrc, a, b):
                want = cfunctor_on_hom_by_element(f, Csrc, Cdst, a, b, x)
                assert F.on_hom(a, b, x) == want, (name, a, b, x)
                checked += 1
    assert checked


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_comp_el_matches_per_element_route(name):
    st, _ = _straightened(*TOTALS[name])
    cats = {id(C): C for _, _, Csrc, Cdst in _functors(st) for C in (Csrc, Cdst)}
    for C in cats.values():
        # the composites the straightening asked for
        for (a, b, c, g, f), gf in C._comp_cache.items():
            assert gf == comp_el_by_element(C, a, b, c, g, f), (a, b, c, g, f)
        # and every composite up to the hom bounds, asked twice
        for a, b, c in itertools.product(C.objects, repeat=3):
            fs, gs = _simplices(C, a, b), _simplices(C, b, c)
            H = C.hom_sset(a, b)
            for g, f in itertools.product(gs, fs):
                if H.dim(f) == C.hom_sset(b, c).dim(g):
                    want = comp_el_by_element(C, a, b, c, g, f)
                    assert C.comp_el(a, b, c, g, f) == want
                    assert C.comp_el(a, b, c, g, f) == want


def test_comp_el_table_belongs_to_its_categorification():
    C1, C2 = categorify(horizontal(d(2))), categorify(horizontal(d(2)))
    g, f = nd(C1.hom_sset("1", "2").by_dim[0][0]), nd(C1.hom_sset("0", "1").by_dim[0][0])
    C1.comp_el("0", "1", "2", g, f)
    assert len(C1._comp_cache) == 1 and not C2._comp_cache


@pytest.mark.parametrize("m", range(8))
def test_face_lookup_matches_composing(m):
    for p in range(m + 1):
        for word in delta.all_words(p, m):
            for r in range(m + 1):
                assert delta.face_of_word(word, m, r) == face_of_word_by_composing(word, m, r)


def test_face_lookup_is_bounded():
    assert delta.face_of_word.cache_info().maxsize is not None


@pytest.mark.parametrize("X", [d(3), shapes.boundary(3), shapes.horn(3, 1),
                               horizontal(d(2)), vertical(d(2)), lf(2, d(1)).W],
                         ids=["d3", "bd3", "horn31", "h_d2", "v_d2", "lf2_d1"])
def test_face_matches_composing(X):
    """Every face of every simplex, up to one degree above the top generators on each axis."""
    n = X.n_axes
    tops = [max(deg[a] for deg in X._by_deg) + 1 for a in range(n)]
    for dims in itertools.product(*(range(t + 1) for t in tops)):
        for e in X.simplices(*dims):
            for a in range(n):
                for r in range(dims[a] + 1) if dims[a] else ():
                    assert X._face(e, a, r) == face_by_composing(X, e, a, r), (e, a, r)
