import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as strat

from necklace_calculus import cli, shapes, ops
from necklace_calculus.bisset import horizontal, lf, rename_gens, vertical
from necklace_calculus.io_schemas import (SchemaError, bimap_load, bisset_dump, bisset_load,
                                          canonical_json, run_report, scat_dump,
                                          scat_load, sset_dump, sset_load,
                                          presheaf_dump)
from necklace_calculus.scat import ch_simplex
from necklace_calculus.sset import SSet, SSetMap, nd

d = shapes.simplex


def test_sset_roundtrip():
    for X in [d(2), shapes.boundary(2), shapes.spine(3), shapes.horn(2, 0)]:
        assert sset_load(sset_dump(X)) == X


def test_sset_schema_errors():
    with pytest.raises(SchemaError):
        sset_load({"schema": "bogus"})
    with pytest.raises(SchemaError):
        sset_load({"schema": "sset.v1", "generators": [{"id": "x"}]})


def test_bisset_roundtrip():
    for W in [horizontal(d(2)), lf(1, d(1)).W, vertical(shapes.spine(2))]:
        assert bisset_load(bisset_dump(W)) == W


def test_scat_roundtrip_composition():
    ch = ch_simplex(2)
    loaded = scat_load(scat_dump(ch))
    g = nd(ch.hom[("1", "2")].by_dim[0][0])
    f = nd(ch.hom[("0", "1")].by_dim[0][0])
    assert loaded.comp("0", "1", "2", g, f) == ch.comp("0", "1", "2", g, f)


def test_report_determinism():
    r1 = run_report("verify", [{"seed": 0}], [{"name": "a", "status": "pass"}])
    r2 = run_report("verify", [{"seed": 0}], [{"name": "a", "status": "pass"}])
    assert canonical_json(r1) == canonical_json(r2)
    assert r1["timings"] is None


def _run_cli(args, files):
    cmd = [sys.executable, "-m", "necklace_calculus.cli"] + args
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300)


def test_cli_hom(tmp_path):
    W = horizontal(d(2))
    p = tmp_path / "w.json"
    p.write_text(json.dumps(bisset_dump(W)))
    res = _run_cli(["hom", "--base", str(p), "--from", "0", "--to", "2"], [p])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert [g["dim"] for g in out["hom"]["generators"]] == [0, 0, 1]


def test_cli_hom_unreachable(tmp_path):
    W = horizontal(d(1))
    p = tmp_path / "w.json"
    p.write_text(json.dumps(bisset_dump(W)))
    res = _run_cli(["hom", "--base", str(p), "--from", "1", "--to", "0"], [p])
    assert res.returncode == 0
    assert json.loads(res.stdout)["hom"]["generators"] == []


def test_cli_loop_exits_3(tmp_path):
    b1, d1, d0 = shapes.boundary(1), d(1), d(0)
    circ = ops.pushout(SSetMap(b1, d0, {"0": nd("0"), "1": nd("0")}),
                       shapes.sub_inclusion(b1, d1))
    p = tmp_path / "loop.json"
    p.write_text(json.dumps(bisset_dump(horizontal(circ.sset))))
    res = _run_cli(["hom", "--base", str(p), "--from", "q0_0", "--to", "q0_0"], [p])
    assert res.returncode == 3
    assert "witness" in res.stderr


def test_cli_schema_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"schema\": \"nope\"}")
    res = _run_cli(["hom", "--base", str(p), "--from", "0", "--to", "1"], [p])
    assert res.returncode == 2


_EDGE_WITH_BAD_FACES = {"schema": "sset.v1", "generators": [
    {"id": "a", "dim": 0, "faces": []},
    {"id": "e", "dim": 1, "faces": [{"word": [], "target": "a"}]}]}

BAD_FILES = {
    "list": [1, 2],
    "dim_minus_1": {"schema": "sset.v1", "generators": [{"id": "x", "dim": -1, "faces": []}]},
    "bidegree_negative": {"schema": "bisset.v1", "generators": [
        {"id": "x", "bidegree": [0, -1], "hfaces": [], "vfaces": []}]},
    "bidegree_fraction": {"schema": "bisset.v1", "generators": [
        {"id": "x", "bidegree": [0.5, 0], "hfaces": [], "vfaces": []}]},
    "bad_faces": _EDGE_WITH_BAD_FACES,
    "d1": sset_dump(d(1)),
    "h_d0": bisset_dump(horizontal(d(0))),
    "h_d1": bisset_dump(horizontal(d(1))),
    "h_d2": bisset_dump(horizontal(d(2))),
    "v_d1": bisset_dump(vertical(d(1))),
    "map_no_target": {"0": {"hword": [], "vword": []}},
    "map_bad_target": {"0": {"hword": [], "vword": [], "target": "zz"}},
}


@pytest.mark.parametrize("args", [
    ["dot"], ["dot", "--pairs", "x"],
    ["hom", "--base", "{list}", "--from", "0", "--to", "1"],
    ["dot", "--sset", "{dim_minus_1}", "--from", "x", "--to", "x"],
    ["hom", "--base", "{bidegree_negative}", "--from", "x", "--to", "x"],
    ["hom", "--base", "{bidegree_fraction}", "--from", "x", "--to", "x"],
    ["dot", "--sset", "{bad_faces}", "--from", "a", "--to", "a"],
    ["hom", "--base", "{h_d1}", "--from", "0", "--to", "zz"],
    ["dot", "--sset", "{d1}", "--from", "0", "--to", "zz"],
    ["straighten", "--base", "{h_d0}", "--total", "{v_d1}", "--at", "zz"],
    ["hom", "--base", "{h_d2}", "--from", "0", "--to", "2", "--degree", "-1"],
    ["dot", "--pairs", "3,1"], ["dot", "--pairs", "0,-1"],
    ["--max-cells", "-1", "hom", "--base", "{h_d1}", "--from", "0", "--to", "1"],
    ["straighten", "--base", "{h_d0}", "--total", "{v_d1}", "--map", "{map_no_target}"],
    ["straighten", "--base", "{h_d0}", "--total", "{v_d1}", "--map", "{list}"],
    ["straighten", "--base", "{h_d0}", "--total", "{v_d1}", "--map", "{map_bad_target}"],
], ids=["bare_dot", "dot_bad_pairs", "hom_non_object_base", "sset_dim_minus_1",
        "bisset_negative_bidegree", "bisset_fractional_bidegree", "sset_invalid_faces",
        "hom_endpoint_not_a_vertex", "dot_endpoint_not_a_vertex", "straighten_at_not_a_vertex",
        "hom_negative_degree", "dot_pairs_i_above_m", "dot_pairs_negative_m",
        "negative_max_cells", "map_entry_without_target", "map_not_an_object",
        "map_target_not_a_base_generator"])
def test_cli_usage_errors_exit_2(tmp_path, args):
    paths = {}
    for name, payload in BAD_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    res = _run_cli([a.format(**paths) for a in args], [])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def arrow_files(tmp_path_factory):
    """The arrow Delta[1] as a precategory, as base and as total object."""
    p = tmp_path_factory.mktemp("arrow") / "h_d1.json"
    p.write_text(json.dumps(bisset_dump(horizontal(d(1)))))
    return p


_TARGETS = strat.sampled_from(["0", "1", "0.1", "zz"])
_WORD = strat.lists(strat.integers(-1, 2), max_size=2)
_JUNK = strat.one_of(strat.none(), strat.booleans(), strat.integers(-2, 2),
                     strat.text(max_size=2), strat.lists(strat.integers(0, 1), max_size=2))
_IMAGE = strat.one_of(
    strat.fixed_dictionaries({"hword": _WORD, "vword": _WORD, "target": _TARGETS}),
    strat.fixed_dictionaries({"hword": _WORD | _JUNK, "vword": _WORD | _JUNK,
                              "target": _TARGETS | _JUNK}),
    strat.dictionaries(strat.sampled_from(["hword", "vword", "target"]), _JUNK | _WORD),
    _JUNK)
_VERTEX_IMAGES = [{"hword": [], "vword": [], "target": v} for v in ("0", "1")]
_EDGE_IMAGES = [{"hword": [], "vword": [], "target": "0.1"},
                {"hword": [0], "vword": [], "target": "0"},
                {"hword": [0], "vword": [], "target": "1"}]


_SHORT_WORD = strat.lists(strat.integers(-1, 2) | strat.sampled_from(["0", True]), max_size=1)
_NEAR_IMAGE = strat.fixed_dictionaries({"hword": _SHORT_WORD, "vword": _SHORT_WORD,
                                        "target": strat.sampled_from(["0", "1", "0.1"])})


@strat.composite
def _maps_into_the_arrow(draw):
    """Maps from the arrow to itself, simplicial or not, with at most one
    image replaced by a near miss or by junk."""
    out = {"0": draw(strat.sampled_from(_VERTEX_IMAGES)),
           "1": draw(strat.sampled_from(_VERTEX_IMAGES)),
           "0.1": draw(strat.sampled_from(_EDGE_IMAGES))}
    g = draw(strat.sampled_from(["0", "1", "0.1", None]))
    if g is not None:
        out[g] = draw(_NEAR_IMAGE | _IMAGE)
    return out


_MAP = strat.one_of(
    _maps_into_the_arrow(),
    strat.dictionaries(strat.sampled_from(["0", "1", "0.1", "zz"]), _IMAGE, max_size=4),
    _JUNK)


def _arrow_map(**images):
    return {"0": _VERTEX_IMAGES[0], "1": _VERTEX_IMAGES[0], "0.1": _EDGE_IMAGES[1], **images}


@settings(max_examples=80, deadline=None)
@given(_MAP)
@example([1, 2])
@example(_arrow_map(**{"0": {"hword": [], "vword": []}}))
@example(_arrow_map(**{"0": {"hword": [], "vword": [], "target": "zz"}}))
@example(_arrow_map(**{"0.1": {"hword": [1], "vword": [], "target": "0"}}))
@example(_arrow_map(**{"0.1": {"hword": [-1], "vword": [], "target": "0"}}))
@example(_arrow_map(**{"0.1": {"hword": "0", "vword": [], "target": "0"}}))
def test_cli_straighten_map_payloads(arrow_files, payload):
    """Any --map payload gives a documented exit code, one line on a usage or
    schema error, and no traceback."""
    p = arrow_files.with_name("map.json")
    p.write_text(json.dumps(payload))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["straighten", "--base", str(arrow_files), "--total", str(arrow_files),
                         "--map", str(p)])
    assert code in {0, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1


@pytest.mark.parametrize("word", [[0, 0], [0, 1], [2, 1], [1, -1], [1.0], [False]])
def test_bimap_load_rejects_malformed_words(word):
    W = horizontal(d(2))
    with pytest.raises(SchemaError):
        bimap_load({"x": {"hword": word, "vword": [], "target": "0"}}, W)
    assert bimap_load({"x": {"hword": [1, 0], "vword": [], "target": "0"}}, W)["x"].hword == (1, 0)


def test_cli_straighten_identity_map(arrow_files):
    """The identity of the arrow as a --map payload straightens."""
    p = arrow_files.with_name("id_map.json")
    p.write_text(json.dumps({g: {"hword": [], "vword": [], "target": g}
                             for g in ["0", "1", "0.1"]}))
    res = _run_cli(["straighten", "--base", str(arrow_files), "--total", str(arrow_files),
                    "--map", str(p)], [])
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("W", [lf(3, d(1)).W, lf(2, shapes.boundary(2)).W, lf(2, d(2)).W],
                         ids=["lf3_d1", "lf2_bd2", "lf2_d2"])
def test_cell_guard_counts_every_bisimplex(W):
    n = sum(len(W.simplices(m, k)) for m in range(W.h_bound + 1) for k in range(W.v_bound + 1))
    cli._cell_guard(W, n)
    with pytest.raises(cli.ResourceLimit):
        cli._cell_guard(W, n - 1)


def test_cli_max_cells_exits_5(tmp_path):
    W = lf(1, d(1)).W
    p = tmp_path / "w.json"
    p.write_text(json.dumps(bisset_dump(W)))
    n = sum(len(W.simplices(m, k)) for m in range(W.h_bound + 1) for k in range(W.v_bound + 1))
    argv = ["hom", "--base", str(p), "--from", "0", "--to", "1"]
    assert _run_cli(["--max-cells", str(n)] + argv, [p]).returncode == 0
    res = _run_cli(["--max-cells", str(n - 1)] + argv, [p])
    assert res.returncode == 5
    assert "Traceback" not in res.stderr and "max-cells" in res.stderr


@pytest.mark.parametrize("top", ["e@0", "g"])
def test_cli_hom_rejects_level_slice_ids(tmp_path, top):
    # level 1 names s_0 of the (1, 0) generator e as e@0, so a (1, 1) generator
    # called e@0 would collide with it
    W = lf(1, d(1)).W
    W = rename_gens(W, {W.gens_at(1, 0)[0]: "e", W.gens_at(1, 1)[0]: top})
    p = tmp_path / "w.json"
    p.write_text(json.dumps(bisset_dump(W)))
    res = _run_cli(["hom", "--base", str(p), "--from", "0", "--to", "1"], [p])
    if top == "e@0":
        assert res.returncode == 2
        assert res.stderr.strip().splitlines() == [
            "schema error: generator id 'e@0' contains '@', which level-slice ids reserve"]
    else:
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["report"]["checks"][0]["detail"]["nd_counts"] == [2, 1]


def _cli(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the CLI, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _dot_exit(argv) -> int:
    return _cli(argv)[0]


def _parallel_edges(n: int) -> SSet:
    """Vertices 0, 1, 2 with n edges 0 -> 1 and n edges 1 -> 2: n * n necklaces from 0 to 2."""
    gens = [(v, 0) for v in "012"] + [(f"{e}{i}", 1) for e in "ab" for i in range(n)]
    faces = {f"{e}{i}": (nd(t), nd(s)) for e, s, t in (("a", "0", "1"), ("b", "1", "2"))
             for i in range(n)}
    return SSet(gens, faces)


def _diamonds(n: int) -> SSet:
    """Vertices v0..vn; each step v(i-1) -> vi is a direct edge d(i) or a detour
    through m(i): 2^n necklaces from v0 to vn, from 5n + 1 generators."""
    gens = [(f"v{i}", 0) for i in range(n + 1)] + [(f"m{i}", 0) for i in range(1, n + 1)]
    faces = {}
    for i in range(1, n + 1):
        for e, s, t in ((f"d{i}", f"v{i - 1}", f"v{i}"), (f"a{i}", f"v{i - 1}", f"m{i}"),
                        (f"b{i}", f"m{i}", f"v{i}")):
            gens.append((e, 1))
            faces[e] = (nd(t), nd(s))
    return SSet(gens, faces)


def test_cli_dot_guard_exits_5(tmp_path):
    # --pairs 0,3 lists 3^3 = 27 pairs (J, V); DOT compares 27^2 = 729 of them
    assert _dot_exit(["--max-cells", "729", "dot", "--pairs", "0,3"]) == 0
    assert _dot_exit(["--max-cells", "728", "dot", "--pairs", "0,3"]) == 5
    # 3^7 pairs: refused before any is listed, where the export took minutes
    t0 = time.perf_counter()
    assert _dot_exit(["dot", "--pairs", "0,7"]) == 5
    assert time.perf_counter() - t0 < 1.0
    # 25 necklaces from 0 to 2, in the simplicial set and in level 0 of its
    # horizontal precategory, which has only 16 cells
    X = _parallel_edges(5)
    sp, bp = tmp_path / "x.json", tmp_path / "w.json"
    sp.write_text(json.dumps(sset_dump(X)))
    bp.write_text(json.dumps(bisset_dump(horizontal(X))))
    dot = ["dot", "--sset", str(sp), "--from", "0", "--to", "2"]
    hom = ["hom", "--base", str(bp), "--from", "0", "--to", "2", "--emit", "dot"]
    for argv in (dot, hom):
        assert _dot_exit(["--max-cells", "625"] + argv) == 0
        assert _dot_exit(["--max-cells", "624"] + argv) == 5
    assert _dot_exit(["--max-cells", "624"] + hom[:-2]) == 0
    # the JSON listing is refused when the beads of its necklaces exceed the
    # limit: 25 necklaces of 2 beads each
    assert _dot_exit(["--max-cells", "50"] + dot + ["--emit", "json"]) == 0
    assert _dot_exit(["--max-cells", "49"] + dot + ["--emit", "json"]) == 5
    # 2^21 necklaces, counted before any is listed: more than the default
    # --max-cells, and their square more still
    sp.write_text(json.dumps(sset_dump(_diamonds(21))))
    for emit in ("dot", "json"):
        t0 = time.perf_counter()
        assert _dot_exit(["dot", "--sset", str(sp), "--from", "v0", "--to", "v21",
                          "--emit", emit]) == 5
        assert time.perf_counter() - t0 < 1.0
    # 2^17 necklaces, under the default --max-cells, but 3,342,336 beads over it
    sp.write_text(json.dumps(sset_dump(_diamonds(17))))
    t0 = time.perf_counter()
    assert _dot_exit(["dot", "--sset", str(sp), "--from", "v0", "--to", "v17",
                      "--emit", "json"]) == 5
    assert time.perf_counter() - t0 < 1.0


def _line(n: int, cycle: bool) -> SSet:
    """n edges vi -> v(i+1) from v0: a path to vn, or a directed cycle back to v0."""
    nv = n if cycle else n + 1
    gens = [(f"v{i}", 0) for i in range(nv)] + [(f"e{i}", 1) for i in range(n)]
    return SSet(gens, {f"e{i}": (nd(f"v{(i + 1) % nv}"), nd(f"v{i}")) for i in range(n)})


def test_cli_long_path_and_cycle(tmp_path):
    # 1,200 edges, more than the default recursion limit: no walk over the
    # vertex order recurses on vertices
    sp, bp = tmp_path / "x.json", tmp_path / "w.json"

    def write(X):
        sp.write_text(json.dumps(sset_dump(X)))
        bp.write_text(json.dumps(bisset_dump(horizontal(X))))

    def run(argv, code):
        t0 = time.perf_counter()
        got = _cli(argv)
        assert got[0] == code, got[2]
        assert time.perf_counter() - t0 < 5.0
        return got

    write(_line(1200, cycle=False))
    dot = ["dot", "--sset", str(sp), "--from", "v0"]
    hom = ["hom", "--base", str(bp), "--from", "v0"]
    # one necklace, and one degree-0 generator in the hom space
    assert len(run(dot + ["--to", "v1200"], 0)[1].splitlines()) == 3  # digraph {, a node, }
    assert len(json.loads(run(dot + ["--to", "v1200", "--emit", "json"], 0)[1])["necklaces"]) == 1
    gens = json.loads(run(hom + ["--to", "v1200"], 0)[1])["hom"]["generators"]
    assert [g["dim"] for g in gens] == [0]
    write(_line(1200, cycle=True))
    for argv in (dot, dot + ["--emit", "json"], hom):
        run(argv + ["--to", "v1"], 3)
    # the witnesses of a directed 3-cycle: the cycle met walking from v0, and
    # for hom its first vertex
    write(_line(3, cycle=True))
    wit = ops.OrderWitness("antisymmetry", ("v0", "v1", "v2"))
    assert run(dot + ["--to", "v1"], 3)[2].endswith(f"witness: {wit}\n")
    assert run(hom + ["--to", "v1"], 3)[2].endswith("witness: v0\n")


def test_cli_straighten(tmp_path):
    base = tmp_path / "pt.json"
    base.write_text(json.dumps(bisset_dump(horizontal(d(0)))))
    total = tmp_path / "x.json"
    total.write_text(json.dumps(bisset_dump(vertical(d(1)))))
    res = _run_cli(["straighten", "--base", str(base), "--total", str(total)],
                   [base, total])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert [g["dim"] for g in out["presheaf"]["0"]["generators"]] == [0, 0, 1]


def test_cli_main_called_again_in_one_process(tmp_path, capsys):
    # the parser is built once per process: no call may see another's arguments
    base, pt, total = (tmp_path / f"{n}.json" for n in ("h_d2", "h_d0", "v_d1"))
    for path, W in ((base, horizontal(d(2))), (pt, horizontal(d(0))), (total, vertical(d(1)))):
        path.write_text(json.dumps(bisset_dump(W)))
    hom = ["hom", "--base", str(base), "--from", "0", "--to", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["hom", "--from", "0", "--to", "2"])
    assert exc.value.code == 2
    assert "the following arguments are required: --base" in capsys.readouterr().err
    assert cli.main(["--max-cells", "-1"] + hom) == 2
    assert capsys.readouterr().err == "usage error: --max-cells must be at least 0; got -1\n"
    for _ in range(2):
        assert cli.main(hom) == 0
        out = json.loads(capsys.readouterr().out)
        assert [g["dim"] for g in out["hom"]["generators"]] == [0, 0, 1]
        assert cli.main(["straighten", "--base", str(pt), "--total", str(total)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [g["dim"] for g in out["presheaf"]["0"]["generators"]] == [0, 0, 1]


def test_cli_verify_deterministic(tmp_path):
    a = _run_cli(["verify", "--suite", "necklace", "--seed", "3"], [])
    b = _run_cli(["verify", "--suite", "necklace", "--seed", "3"], [])
    assert a.returncode == 0 and a.stdout == b.stdout


def test_cli_verify_timings_per_check():
    plain = _run_cli(["verify", "--suite", "necklace"], [])
    timed = _run_cli(["verify", "--suite", "necklace", "--timings"], [])
    assert plain.returncode == 0 and timed.returncode == 0
    r_plain, r_timed = json.loads(plain.stdout), json.loads(timed.stdout)
    assert r_plain["timings"] is None
    names = [c["name"] for c in r_plain["checks"]]
    assert sorted(r_timed["timings"]) == ["checks_s", "total_s"]
    assert sorted(r_timed["timings"]["checks_s"]) == sorted(names)
    assert all(s >= 0 for s in r_timed["timings"]["checks_s"].values())
    # the seconds stay out of the checks themselves
    assert r_timed["checks"] == r_plain["checks"]


def test_cli_dot():
    res = _run_cli(["dot", "--pairs", "0,2"], [])
    assert res.returncode == 0
    assert res.stdout.startswith("digraph")


def test_presheaf_dump_shape():
    from necklace_calculus.scat import representable, suspension

    F = representable(suspension(d(0)), "1")
    payload = presheaf_dump(F)
    assert payload["schema"] == "presheaf.v1"
    assert set(payload["values"]) == {"0", "1"}
