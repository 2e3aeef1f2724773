"""The streaming writer, io_schemas.write_canonical, against the reference form.

The writer must give exactly canonical_json(<reference dump>) + "\n": on the
payloads of the golden corpus, on the hom and straighten payloads of the
benchmark inputs at two seeds, and on drawn sets whose ids and labels need
escaping.  The composition and action walks skip the pairs that hold an
identity (unit law); an oracle checks each skipped pair against C.comp or
F.action.
"""

import io
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as strat

import test_golden_reports as golden
from necklace_calculus import cli, io_schemas, shapes
from necklace_calculus.bisset import BiSSet, horizontal
from necklace_calculus.io_schemas import (bisset_dump, canonical_json, digest, presheaf_dump,
                                          scat_dump, sset_dump, write_canonical)
from necklace_calculus.scat import Presheaf, SCat, representable, suspension
from necklace_calculus.sset import EMPTY, NF, SSet, nd

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py)

_DUMPS = ((Presheaf, presheaf_dump), (SCat, scat_dump), (SSet, sset_dump),
          (BiSSet, bisset_dump))


def reference(payload):
    """The payload with every library object replaced by its reference dump."""
    for cls, dump in _DUMPS:
        if isinstance(payload, cls):
            return dump(payload)
    if isinstance(payload, dict):
        return {k: reference(v) for k, v in payload.items()}
    return payload


def written(payload) -> str:
    fh = io.StringIO()
    write_canonical(fh, payload)
    return fh.getvalue()


def assert_written_as_reference(payload) -> None:
    assert written(payload) == canonical_json(reference(payload)) + "\n"


# -- the golden corpus ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(golden.GOLDEN))
def test_writer_on_golden_payloads(tmp_path, monkeypatch, name):
    # every object the golden case dumps is written again by the writer; the
    # command-line cases write through it, and their hashes are pinned there
    seen = []
    for attr in ("sset_dump", "bisset_dump", "presheaf_dump"):
        dump = getattr(golden, attr)
        monkeypatch.setattr(golden, attr, lambda obj, dump=dump: seen.append(obj) or dump(obj))
    make, want = golden.GOLDEN[name]
    assert golden._sha(make(tmp_path)) == want
    monkeypatch.undo()
    for obj in seen:
        assert_written_as_reference(obj)
        assert_written_as_reference({"payload": obj, "list": [1, "é"]})


# -- the benchmark inputs ---------------------------------------------------------------


def _captured(run) -> dict:
    """The payload that run(), a neckcalc call, emits, with its library objects."""
    got = []
    real = cli._emit
    cli._emit = lambda payload, out: got.append(payload) or real(payload, out)
    try:
        assert run() == 0
    finally:
        cli._emit = real
    (payload,) = got
    return payload


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


@pytest.fixture(scope="module", params=[5, 6])
def bench_payloads(request):
    """name -> (payload, the text written to --out), for the hom and straighten
    payloads of the benchmark inputs at a seed, as perfbench/workloads.py
    builds and relabels them."""
    seed = request.param
    with tempfile.TemporaryDirectory() as work:
        payloads = {}
        for job in workloads.build_hom(seed, work).jobs:
            payload = _captured(job.run)
            payloads[f"hom_{job.name}"] = payload, _read(os.path.join(work, "hom_out.json"))
        out = os.path.join(work, "straighten_out.json")
        for job in workloads.build_straighten(seed, work).jobs:
            payloads[f"{job.name}_full"] = _captured(job.run), _read(out)
            base, total, mp = (os.path.join(work, f"{job.name}_{part}.json")
                               for part in ("base", "total", "map"))
            W = io_schemas.bisset_load(cli._load_json(base))
            argv = ["straighten", "--base", base, "--total", total, "--map", mp, "--out", out]
            for flags in (["--at", W.gens_at(0, 0)[-1]], ["--certify"]):
                payload = _captured(lambda: cli.main(argv + flags))
                payloads[f"{job.name}_{flags[0][2:]}"] = payload, _read(out)
        yield payloads


def test_writer_on_benchmark_payloads(bench_payloads):
    assert len(bench_payloads) == len(workloads.HOM_CASES) + 3 * len(workloads.STRAIGHTEN_CASES)
    for name, (payload, text) in bench_payloads.items():
        assert text == canonical_json(reference(payload)) + "\n", name
        assert written(payload) == text, name


def test_unit_law_oracle(bench_payloads):
    skipped = 0
    for name, (payload, _) in bench_payloads.items():
        if not name.endswith("_full"):
            continue
        F = payload["presheaf"]
        C = F.base
        listed = io_schemas._lister(C.hom_bound)
        for key, walk in io_schemas._action_walks(F, listed).items():
            a, b = key.split("|")
            for dim, h, x, to in walk:
                if a == b and h == C.id_el(a, dim):
                    assert F.action(a, b, h, x) == to == x, (name, key, dim)
                    skipped += 1
        for key, walk in io_schemas._comp_walks(C, listed).items():
            a, b, c = key.split("|")
            for dim, g, f, to in walk:
                if b == c and g == C.id_el(b, dim) or a == b and f == C.id_el(a, dim):
                    assert C.comp(a, b, c, g, f) == to, (name, key, dim)
                    skipped += 1
    assert skipped > 0


def test_walk_calls_no_operation_on_identity_pairs():
    F = representable(suspension(shapes.simplex(1)), "1")
    C = F.base
    calls = []
    counted = Presheaf(C, F.value, lambda *args: calls.append(args) or F.action(*args))
    assert presheaf_dump(counted) == presheaf_dump(F)
    assert calls and not any(a == b and h == C.id_el(a, len(h.word)) for a, b, h, _ in calls)


# -- drawn sets -------------------------------------------------------------------------

_AWKWARD = strat.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", " ",
                               "€", "\U0001F600", "/", "|", "@"])
_TEXT = strat.text(strat.one_of(_AWKWARD, strat.characters()), max_size=5)


@strat.composite
def _awkward_sets(draw):
    """A 1-dimensional simplicial set whose ids and labels need escaping."""
    ids = draw(strat.lists(_TEXT, min_size=0, max_size=8, unique=True))
    n_vertices = draw(strat.integers(min_value=min(1, len(ids)), max_value=len(ids)))
    vertices, edges = ids[:n_vertices], ids[n_vertices:]
    faces = {e: (nd(draw(strat.sampled_from(vertices))), nd(draw(strat.sampled_from(vertices))))
             for e in edges}
    labels = draw(strat.dictionaries(strat.sampled_from(ids), _TEXT, max_size=3)) if ids else {}
    return SSet([(v, 0) for v in vertices] + [(e, 1) for e in edges], faces, labels=labels)


@settings(max_examples=60, deadline=None)
@given(_awkward_sets(), _TEXT)
def test_writer_on_drawn_sets(X, key):
    assert_written_as_reference(X)
    assert_written_as_reference({key: X, "x" + key: {"inner": X}, "plain": [key]})
    assert_written_as_reference(horizontal(X))
    if X.by_dim and X.by_dim[0]:
        C = suspension(X)
        assert_written_as_reference(C)
        assert_written_as_reference(representable(C, "1"))
    assert digest([X, horizontal(X)]) == golden._hashlib_digest(
        [sset_dump(X), bisset_dump(horizontal(X))])


def test_writer_on_the_empty_set():
    assert_written_as_reference(EMPTY)
    assert_written_as_reference({})
    assert_written_as_reference({"hom": EMPTY, "report": {}})
    assert written(EMPTY) == '{"dim_bound":-1,"generators":[],"labels":{},"schema":"sset.v1"}\n'


def test_writer_text_of_a_degenerate_face():
    X = SSet([("a", 0), ("e", 1), ("t", 2)],
             {"e": (nd("a"), nd("a")), "t": (nd("e"), NF((0,), "a"), nd("e"))})
    assert_written_as_reference(X)
    assert '{"target":"a","word":[0]}' in written(X)


def test_writer_on_ids_that_are_not_strings():
    # a loaded set keeps the JSON ids it was given, numbers included
    X = io_schemas.sset_load({"generators": [{"id": 1, "dim": 0, "faces": []},
                                             {"id": 2.5, "dim": 0, "faces": []},
                                             {"id": None, "dim": 1, "faces": [
                                                 {"word": [], "target": 1},
                                                 {"word": [], "target": 2.5}]}]})
    assert_written_as_reference(X)
    assert_written_as_reference(horizontal(X))
