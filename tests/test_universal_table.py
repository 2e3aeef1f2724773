"""The process-wide table of universal straightenings.

St(id) over LF[m, Delta[k]], the categorifications it is built from and the
transports between universal extensions depend on (m, k) alone, so every
Straightener in a process reads them from one table, bounded by a budget on
what its categorifications hold.  These tests hold the table to three
promises: a warm table straightens exactly as a cold one, a shape the budget
does not admit is let go, and threads that share the table agree on it.
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
    kept = {id(c.C) for c, _ in straighten._UNIVERSAL._cats.values()}
    asked = []
    hom = Categorification.hom
    monkeypatch.setattr(Categorification, "hom",
                        lambda self, a, b: asked.append(id(self)) or hom(self, a, b))
    _payload("id_x_bd2_over_d2")
    assert asked and not kept & set(asked)
    universal_cache_clear()


def test_table_stays_within_its_budget(monkeypatch):
    universal_cache_clear()
    want = {name: _payload(name) for name in sorted(TOTALS)}
    # below the weights of LF[2, Delta[2]] (244) and LF[3, Delta[1]] (423) after
    # their straightenings, above that of LF[4, Delta[0]] (127)
    budget = 150
    monkeypatch.setattr(straighten, "_UNIVERSAL_BUDGET", budget)
    universal_cache_clear()
    refs = {}
    for name in sorted(TOTALS):
        st, ob = _straightened(*TOTALS[name])
        assert canonical_json(presheaf_dump(ob.presheaf())) == want[name]
        refs.update({(name, key): weakref.ref(c.C) for key, c in st._cat_lfs.items()})
        del st, ob
        info = universal_cache_info()
        assert info.budget == budget and 0 < info.weight <= budget
    gc.collect()
    kept = {id(c.C) for c, _ in straighten._UNIVERSAL._cats.values()}
    alive = [ref() for ref in refs.values() if ref() is not None]
    # nothing but the table holds a categorification once its Straightener is gone
    assert {id(C) for C in alive} == kept
    assert len(alive) < len(refs)
    universal_cache_clear()


def test_shape_grown_after_the_last_call_is_trimmed_when_let_go(monkeypatch):
    # id (x) Delta[1] over Delta[2] keeps 488 after its straightening; checking
    # the presheaf of full(2, 1) memoizes composites in LF[3, Delta[1]] (403
    # before) and takes it past the whole budget without a call to the table
    budget = 600
    monkeypatch.setattr(straighten, "_UNIVERSAL_BUDGET", budget)
    universal_cache_clear()
    st, ob = _straightened(*TOTALS["id_x_d1_over_d2"])
    assert universal_cache_info().weight <= budget
    fr = st.full(2, 1)
    fr.presheaf.verify()
    assert universal_cache_info().weight > budget
    grown = weakref.ref(fr.C1)
    del st, ob, fr
    gc.collect()
    assert grown() is None and (3, 1) not in straighten._UNIVERSAL._cats
    assert 0 < universal_cache_info().weight <= budget
    universal_cache_clear()


def test_straightener_enumerates_every_build_it_used(monkeypatch):
    # under a budget of 0 every shape goes once its homs are built, so
    # full(1, 0) builds LF[1, Delta[0]] again after full(0, 0) built it
    monkeypatch.setattr(straighten, "_UNIVERSAL_BUDGET", 0)
    universal_cache_clear()
    st = straighten.Straightener(straighten.delta_precat(1).W)
    lo, hi = st.full(0, 0), st.full(1, 0)
    assert lo.C1 is not hi.C
    assert {id(c.C) for c in st._cat_lfs.values()} == {id(lo.C), id(lo.C1), id(hi.C), id(hi.C1)}
    universal_cache_clear()


def test_heavy_shapes_then_least_recently_used_go_first(monkeypatch):
    table = straighten._Universal()
    table.full(0, 0)  # on the shapes (0, 0) and (1, 0)
    table.full(0, 1)  # on (0, 1) and (1, 1)
    table.full(0, 0)
    assert list(table._cats) == [(0, 1), (1, 1), (0, 0), (1, 0)]
    weight = table.info().weight
    assert table._cats[0, 1][0].C.held() == 1
    monkeypatch.setattr(straighten, "_UNIVERSAL_BUDGET", weight - 1)
    table.full(0, 0)
    assert list(table._cats) == [(1, 1), (0, 0), (1, 0)]
    assert list(table._fulls) == [(0, 0)]  # full(0, 1) went with its shape
    # LF[2, Delta[0]] holds 4, more than the whole budget: it goes first, though
    # just used, and full(1, 0) on it is built for this call alone
    monkeypatch.setattr(straighten, "_UNIVERSAL_BUDGET", 3)
    fr = table.full(1, 0)
    assert fr.C1.held() == 4
    assert list(table._cats) == [(1, 0)] and not table._fulls


def test_cache_info_counts_hits_and_misses():
    universal_cache_clear()
    assert universal_cache_info() == (0, 0, straighten._UNIVERSAL_BUDGET, 0, 0)
    st, _ = _straightened(*TOTALS["id_x_d1_over_d2"])
    first = universal_cache_info()
    assert first.misses > 0
    assert first.shapes == len(st._cat_lfs)
    assert first.weight == sum(c.C.held() for c in st._cat_lfs.values())
    _straightened(*TOTALS["id_x_d1_over_d2"])
    second = universal_cache_info()
    assert second.misses == first.misses
    # one miss per shape, full and transport, then one hit per full and transport
    assert second.hits - first.hits == first.misses - first.shapes
    assert second.weight == first.weight


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
