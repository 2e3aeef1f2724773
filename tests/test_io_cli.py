import json
import subprocess
import sys

import pytest

from necklace_calculus import shapes, ops
from necklace_calculus.bisset import find_bi_iso, horizontal, lf, vertical
from necklace_calculus.io_schemas import (SchemaError, bisset_dump, bisset_load,
                                          canonical_json, run_report, scat_dump,
                                          scat_load, sset_dump, sset_load,
                                          presheaf_dump)
from necklace_calculus.scat import ch_simplex
from necklace_calculus.sset import SSetMap, nd

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


@pytest.mark.parametrize("args", [["dot"], ["dot", "--pairs", "x"],
                                  ["hom", "--base", "{list}", "--from", "0", "--to", "1"]],
                         ids=["bare_dot", "dot_bad_pairs", "hom_non_object_base"])
def test_cli_usage_errors_exit_2(tmp_path, args):
    p = tmp_path / "list.json"
    p.write_text("[1,2]")
    res = _run_cli([a.format(list=p) for a in args], [p])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1


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


def test_cli_verify_deterministic(tmp_path):
    a = _run_cli(["verify", "--suite", "necklace", "--seed", "3"], [])
    b = _run_cli(["verify", "--suite", "necklace", "--seed", "3"], [])
    assert a.returncode == 0 and a.stdout == b.stdout


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
