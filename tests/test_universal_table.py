"""The process-wide table of universal straightenings.

St(id) over LF[m, Delta[k]], the categorifications it is built from and the
transports between universal extensions depend on (m, k) alone, so every
Straightener in a process reads them from one table, which keeps an entry
exactly when every shape (j, k) it is built on has j + k <= 4; a Straightener
builds and keeps an entry on a larger shape itself.  These tests hold the
table to three promises: a warm table straightens exactly as a cold one, it
keeps no larger shape and nothing a Straightener built once that is gone, and
threads that share the table agree on it.
"""

import gc
import sys
import threading
import weakref

from necklace_calculus import straighten
from necklace_calculus.categorify import Categorification
from necklace_calculus.io_schemas import canonical_json, presheaf_dump
from necklace_calculus.straighten import universal_cache_clear, universal_cache_info

from test_straighten_shared import TOTALS, _straightened


def _payload(name) -> str:
    _, ob = _straightened(*TOTALS[name])
    return canonical_json(presheaf_dump(ob.presheaf()))


def test_warm_table_straightens_as_a_cold_one():
    universal_cache_clear()
    cold = {name: _payload(name) for name in sorted(TOTALS)}
    misses = universal_cache_info().misses
    warm = {name: _payload(name) for name in sorted(TOTALS, reverse=True)}
    info = universal_cache_info()
    assert info.misses == misses and info.hits > 0  # the second pass built nothing
    assert warm == cold


def test_warm_straightening_reads_kept_categorifications_through_handles(monkeypatch):
    # a warm table is only read: no hom space of a kept categorification is
    # asked for by name, so counts per categorification object stay per job
    universal_cache_clear()
    _payload("id_x_bd2_over_d2")
    kept = {id(c.C) for c in straighten._UNIVERSAL._cats.values()}
    asked = []
    hom = Categorification.hom
    monkeypatch.setattr(Categorification, "hom",
                        lambda self, a, b: asked.append(id(self)) or hom(self, a, b))
    _payload("id_x_bd2_over_d2")
    assert asked and not kept & set(asked)
    universal_cache_clear()


def test_table_keeps_only_small_shapes_and_a_straightener_owns_the_rest():
    universal_cache_clear()
    for name in sorted(TOTALS):
        _straightened(*TOTALS[name])
    W = straighten.delta_precat(4).W
    st = _straightened(lambda: W, None)[0]
    table = straighten._UNIVERSAL
    assert all(j + k <= 4 for j, k in table._cats)
    assert all(m + 1 + k <= 4 for m, k in table._fulls)
    assert all(sm + 1 + sk <= 4 and dm + 1 + dk <= 4
               for _, sm, sk, dm, dk, _, _ in table._transports)
    # full(4, 0) is built on LF[5, Delta[0]], which the Straightener keeps
    assert (4, 0) not in table._fulls and (5, 0) in st._cat_lfs
    assert st.full(3, 0) is table._fulls[3, 0]
    assert st.full(3, 0).C1 is st.full(4, 0).C
    owned = weakref.ref(st.full(4, 0).C1)
    del st
    assert owned() is None  # freed by reference counting, no gc.collect()
    universal_cache_clear()


def test_only_the_table_holds_categorifications_once_straighteners_are_gone():
    universal_cache_clear()
    refs = []
    for name in sorted(TOTALS):
        st, ob = _straightened(*TOTALS[name])
        refs += [weakref.ref(C) for fr in st._fulls.values() for C in (fr.C, fr.C1)]
        del st, ob
    gc.collect()
    kept = {id(c.C) for c in straighten._UNIVERSAL._cats.values()}
    alive = {id(ref()) for ref in refs if ref() is not None}
    assert alive == kept
    universal_cache_clear()


def test_cache_info_counts_hits_and_misses():
    universal_cache_clear()
    assert universal_cache_info() == (0, 0, 0)
    st, _ = _straightened(*TOTALS["id_x_d1_over_d2"])
    first = universal_cache_info()
    assert first.misses > 0
    assert first.shapes == len({shape for m, k in st._fulls for shape in ((m, k), (m + 1, k))})
    _straightened(*TOTALS["id_x_d1_over_d2"])
    second = universal_cache_info()
    assert second.misses == first.misses
    # one miss per shape, full and transport, then one hit per full and transport
    assert second.hits - first.hits == first.misses - first.shapes
    assert second.shapes == first.shapes


def test_threads_share_one_entry_per_key():
    universal_cache_clear()
    names = ["id_x_bd2_over_d2", "id_lf2_d1"] * 3
    want = {name: _payload(name) for name in set(names)}
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
    # the first build of each entry wins, so every thread holds the same one
    for attr in ("_fulls", "_ops"):
        held = {}
        for st, _ in got:
            for key, value in getattr(st, attr).items():
                if attr == "_fulls" or key[0] == "tr":
                    assert held.setdefault(key, value) is value, key
    universal_cache_clear()
