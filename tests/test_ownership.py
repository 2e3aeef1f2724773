"""Every structure a command builds is freed by reference counting when the
command returns: after one warm-up call, a second call made with the cyclic
garbage collector off leaves nothing for gc.collect() to find.  A closure that
calls back into its owner, or a table that points at the object that holds it,
makes a reference cycle and fails this.  The table of universal
straightenings is emptied before the second call and again after it, so what
it builds cold (categorifications, St(id), transports) is built in the
measured call and must be freed by reference counting when it is dropped."""

import contextlib
import gc
import io
import json

import pytest

from necklace_calculus import cli
from necklace_calculus.bisset import bi_identity, horizontal
from necklace_calculus.io_schemas import bisset_dump, sset_dump
from necklace_calculus.shapes import simplex
from necklace_calculus.straighten import delta_precat, universal_cache_clear
from necklace_calculus.verify import SUITES

d = simplex


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ownership")

    def write(name, payload):
        path = tmp / name
        path.write_text(json.dumps(payload))
        return str(path)

    W = delta_precat(2).W
    ident = {g: {"hword": list(e.hword), "vword": list(e.vword), "target": e.gen}
             for g, e in bi_identity(W).assign.items()}
    return {"d5": write("d5.json", bisset_dump(horizontal(d(5)))),
            "base": write("base.json", bisset_dump(W)),
            "map": write("map.json", ident),
            "s3": write("s3.json", sset_dump(d(3))),
            "out": str(tmp / "out.json")}


def _hom(f, *extra):
    return ["hom", "--base", f["d5"], "--from", "0", "--to", "5", *extra, "--out", f["out"]]


def _straighten(f, flag):
    return ["straighten", "--base", f["base"], "--total", f["base"], "--map", f["map"], flag,
            "--out", f["out"]]


COMMANDS = {
    "hom": (lambda f: _hom(f), 0),
    "hom_emit_dot": (lambda f: _hom(f, "--emit", "dot"), 0),
    "straighten_full": (lambda f: _straighten(f, "--full"), 0),
    "straighten_certify": (lambda f: _straighten(f, "--certify"), 0),
    "dot_sset": (lambda f: ["dot", "--sset", f["s3"], "--from", "0", "--to", "3"], 0),
    "dot_pairs": (lambda f: ["dot", "--pairs", "0,3"], 0),
    "hom_endpoint_not_a_vertex": (lambda f: ["hom", "--base", f["d5"], "--from", "0",
                                             "--to", "nowhere"], 2),
    **{f"verify_{s}": (lambda f, s=s: ["verify", "--suite", s, "--out", f["out"]], 0)
       for s in SUITES},
}


def _quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_leaves_no_cyclic_garbage(inputs, name):
    build, code = COMMANDS[name]
    argv = build(inputs)
    assert _quiet(argv) == code  # warm-up: process-wide tables fill here
    gc.collect()
    gc.disable()
    try:
        universal_cache_clear()
        assert _quiet(argv) == code
        universal_cache_clear()
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0, f"{name} left {left} objects in reference cycles"
