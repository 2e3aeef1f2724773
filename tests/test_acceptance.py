"""The acceptance gate: every release criterion, run at its stated budget.

Each test prints one pass/fail line; all comparisons are exact isomorphism
checks with explicit certificates (the witnessing maps).
"""

import hashlib
import time

import pytest

from necklace_calculus import delta, shapes, ops
from necklace_calculus.bisset import lf, vertical
from necklace_calculus.categorify import categorify
from necklace_calculus.cubes import (weight_F, weight_G0, weighted_colim_map,
                                     weight_inclusion_G0_F0)
from necklace_calculus.groth import groth, rightfib_check
from necklace_calculus.io_schemas import canonical_json
from necklace_calculus.scat import representable, suspension
from necklace_calculus.sset import SSetMap, constant_map, identity_map
from necklace_calculus.straighten import Straightener, delta_precat, straighten_boundary_pp
from necklace_calculus.verify import (ADJUNCTION_CASES, check_adjunction,
                                      check_cone_decomposition, check_cone_vertices,
                                      check_groth_levels, check_groth_tensors,
                                      check_pair_counts_and_iso, check_pi_projection,
                                      check_stvssigma, run_suite)

d = shapes.simplex


def report(num, name, ok, elapsed=None):
    suffix = f"  [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="session")
def suite_all():
    """verify --suite all, run once for every criterion that reads it:
    its checks by name and its total seconds."""
    t0 = time.monotonic()
    checks = run_suite("all", seed=0)
    return {c["name"]: c for c in checks}, time.monotonic() - t0


def passed(checks, name):
    """The check's result, which must be a pass."""
    c = checks[name]
    assert c["status"] == "pass", f"{name}: {c.get('witness')}"
    return c


def test_criterion_01_dual_path_oracle(suite_all):
    dual = passed(suite_all[0], "straighten.dual_path")
    certificates = int(dual["detail"].split()[0])  # "N dual-route isomorphisms"
    elapsed = dual["seconds"]
    report(1, f"dual-path straightening oracle ({certificates} certificates)",
           elapsed < 60.0, elapsed)


def test_criterion_02_st_over_point():
    t0 = time.monotonic()
    W = delta_precat(0).W
    st = Straightener(W)
    for X in [d(0), d(1), d(2), shapes.spine(3)]:
        P = vertical(X)
        ob = st.st_object(P, constant_map(P, W, "0"))
        assert ops.find_iso(ob.value("0"), X) is not None
    report(2, "St over the point recovers the fiber", True, time.monotonic() - t0)


def test_criterion_03_suspension_homs():
    t0 = time.monotonic()
    for X in [d(0), d(1), d(2), shapes.spine(3)]:
        C = categorify(lf(1, X).W)
        assert ops.find_iso(C.hom_sset("0", "1"), X) is not None
    report(3, "Hom of the one-step extension is the fiber", True, time.monotonic() - t0)


def test_criterion_04_pair_poset_iso():
    t0 = time.monotonic()
    check_pair_counts_and_iso(None)
    elapsed = time.monotonic() - t0
    report(4, "pair posets match necklace posets arrow-by-arrow", elapsed < 5.0, elapsed)


def test_criterion_05_coequalizer_and_pushout_laws(suite_all):
    laws = [passed(suite_all[0], name) for name in ("dshom.coequalizer_law",
                                                   "dshom.pushout_law")]
    t0 = time.monotonic()
    # the pushout law again at m = 3 for the catalog map
    from necklace_calculus.verify import _f_boundary_weight
    from necklace_calculus.cubes import last_factor_postcompose
    from necklace_calculus.ops import Diagram, colimit, component_maps, find_iso

    f = shapes.sub_inclusion(shapes.boundary(1), d(1))
    m = 3
    g0 = weight_G0(m, f)
    wtop = _f_boundary_weight(m, identity_map(d(1)))
    for T in g0.poset.objects:
        t = len(T.J) - 1
        diag_ = Diagram({"y": wtop.value[T]})
        for jx, fj in enumerate(component_maps(f)):
            wdel = _f_boundary_weight(m, fj)
            wid = weight_F(delta.identity(m), fj, 0, m)
            diag_.objects[f"a{jx}"] = wdel.value[T]
            diag_.objects[f"x{jx}"] = wid.value[T]
            if wdel.value[T].is_empty():
                to_y = SSetMap(wdel.value[T], wtop.value[T], {}, validate=False)
                to_x = SSetMap(wdel.value[T], wid.value[T], {}, validate=False)
            else:
                to_y = last_factor_postcompose(t, fj)
                to_x = identity_map(wdel.value[T])
            diag_.add(f"fa{jx}", f"a{jx}", "y", to_y)
            diag_.add(f"ga{jx}", f"a{jx}", f"x{jx}", to_x)
        assert find_iso(colimit(diag_).sset, g0.value[T]) is not None, (m, T)
    # the elapsed time counts the two laws' run in the suite
    report(5, "coequalizer and pushout weight laws", True,
           sum(c["seconds"] for c in laws) + time.monotonic() - t0)


def test_criterion_06_boundary_pushout_product():
    t0 = time.monotonic()
    f = shapes.sub_inclusion(shapes.boundary(1), d(1))
    for m in (1, 2):
        ob_pp, full, compare = straighten_boundary_pp(m, f)
        for a in sorted(compare):
            if a != "0":
                assert compare[a].is_iso(), (m, a)
        g0w, f0w, incl = weight_inclusion_G0_F0(m, f)
        wc_map = weighted_colim_map(g0w, f0w, incl)
        pair = ops.find_arrow_iso(compare["0"], wc_map)
        assert pair is not None, m
    report(6, "pushout-product comparison is the weight inclusion", True,
           time.monotonic() - t0)


def test_criterion_07_cone_decomposition_and_vertices():
    t0 = time.monotonic()
    check_cone_decomposition(None)
    check_cone_vertices(None)
    report(7, "cone decompositions and vertex counts", True, time.monotonic() - t0)


def test_criterion_08_pi_after_face_is_inclusion():
    t0 = time.monotonic()
    check_pi_projection(None)
    report(8, "projection after the face inclusion is the identity inclusion",
           True, time.monotonic() - t0)


def test_criterion_09_grothendieck_structure():
    t0 = time.monotonic()
    # strict nerves: levels, simplicial identities, fibration checks, tensors
    check_groth_levels(None)
    check_groth_tensors(None)
    # the coherent variant: pullback levels and the fibration check again
    from necklace_calculus.nerves import hc_nerve

    HN = hc_nerve(suspension(d(1)), 2, 1)
    GH = groth(HN, representable(suspension(d(1)), "1"))
    assert rightfib_check(GH.bisset, HN.bisset, GH.projection).passed
    elapsed = time.monotonic() - t0
    report(9, "grothendieck levels, identities, fibration checks, tensors",
           elapsed < 30.0, elapsed)


def test_criterion_10_adjunction():
    t0 = time.monotonic()
    check_adjunction(None)
    cases = sum(len(presheaves) for _, presheaves in ADJUNCTION_CASES)
    report(10, f"straightening adjunction on {cases} cases, natural in the cell",
           cases == 6, time.monotonic() - t0)


def test_criterion_11_kan_route_matches_extension_route():
    t0 = time.monotonic()
    check_stvssigma(None)
    report(11, "left Kan route equals the one-point extension route on the triangle",
           True, time.monotonic() - t0)


def test_criterion_12_infrastructure():
    t0 = time.monotonic()
    from necklace_calculus.verify import (check_boundary_coequalizer,
                                          check_colimit_universal, check_ez_roundtrip,
                                          check_product_counts)
    import random

    rng = random.Random(0)
    check_ez_roundtrip(rng)
    check_product_counts(rng)
    check_colimit_universal(rng)
    check_boundary_coequalizer(rng)
    report(12, "infrastructure round trips and counts", True, time.monotonic() - t0)


# sha256 of the canonical JSON of verify --suite all's checks at seed 0, seconds
# removed: every verdict, detail and witness, in order
VERIFY_ALL_SHA256 = "30f17fd30b6f546b6bbdd480024836144c900547d0be546d6cdce35e3c79251d"


def test_verify_all_verdicts_pinned(suite_all):
    checks = [{k: v for k, v in c.items() if k != "seconds"} for c in suite_all[0].values()]
    assert hashlib.sha256(canonical_json(checks).encode()).hexdigest() == VERIFY_ALL_SHA256


def test_criterion_12b_verify_all_under_budget(suite_all):
    checks, elapsed = suite_all
    bad = [c for c in checks.values() if c["status"] != "pass"]
    report(12, f"verify --suite all ({len(checks)} checks, {len(bad)} failing)",
           not bad and elapsed < 600.0, elapsed)
