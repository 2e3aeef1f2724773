"""Golden corpus: sha256 of canonical outputs on a fixed set of inputs.

The hashes pin byte-identical reports and dumps, generator ids and generator
order included, so a refactor of the engine that changes any of them fails
here.  They do not depend on PYTHONHASHSEED.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from necklace_calculus import cli, delta, ops, shapes
from necklace_calculus.bisset import (BiMap, bnd, diag, discretize, external, horizontal, lf,
                                      lf_map, bi_pushout, vertical)
from necklace_calculus.groth import groth, vtensor
from necklace_calculus.io_schemas import (bisset_dump, canonical_json, digest, presheaf_dump,
                                          sset_dump)
from necklace_calculus.nerves import hc_nerve, strict_nerve
from necklace_calculus.scat import ch_simplex, representable, suspension, terminal_presheaf
from necklace_calculus.sset import SSetMap, identity_map, nd
from necklace_calculus.straighten import (Cell, Straightener, cone, delta_precat,
                                          projection_pi, straighten_boundary_pp,
                                          straighten_full, straighten_last_vertex,
                                          unstraighten, w_sigma)

d = shapes.simplex


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write(tmp_path, name: str, payload) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _cli(argv) -> str:
    """Run neckcalc in-process; its stdout, which must end a zero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0
    return buf.getvalue()


def _cli_out(tmp_path, argv) -> str:
    out = tmp_path / "out.json"
    _cli(argv + ["--out", str(out)])
    return out.read_text()


# -- the command line ---------------------------------------------------------------


def _hom_dot(tmp_path):
    base = _write(tmp_path, "w.json", bisset_dump(lf(3, d(1)).W))
    return _cli_out(tmp_path, ["hom", "--base", base, "--from", "0", "--to", "3",
                               "--emit", "dot"])


def _straighten_full(tmp_path):
    W = delta_precat(2).W
    base = _write(tmp_path, "w.json", bisset_dump(W))
    ident = {g: {"hword": [], "vword": [], "target": g} for g in W.gens()}
    mp = _write(tmp_path, "map.json", ident)
    return _cli_out(tmp_path, ["straighten", "--base", base, "--total", base, "--map", mp,
                               "--full"])


def _straighten_total(precat, X):
    """straighten --full of id (x) X over the precategory precat(), the total object
    built by vtensor; with X None, of the identity of precat()."""

    def make(tmp_path):
        W = precat()
        if X is None:
            T, assign = W, {g: bnd(g) for g in W.gens()}
        else:
            T, elem_of, _ = vtensor(W, X)
            assign = {g: elem_of[g][0] for g in T.gens()}
        base = _write(tmp_path, "w.json", bisset_dump(W))
        total = _write(tmp_path, "t.json", bisset_dump(T))
        mp = _write(tmp_path, "map.json",
                    {g: {"hword": list(e.hword), "vword": list(e.vword), "target": e.gen}
                     for g, e in assign.items()})
        return _cli_out(tmp_path, ["straighten", "--base", base, "--total", total,
                                   "--map", mp, "--full"])

    return make


def _straighten_certify(tmp_path):
    base = _write(tmp_path, "pt.json", bisset_dump(horizontal(d(0))))
    total = _write(tmp_path, "x.json", bisset_dump(vertical(shapes.boundary(2))))
    return _cli_out(tmp_path, ["straighten", "--base", base, "--total", total, "--certify"])


def _dot_pairs(tmp_path):
    return _cli(["dot", "--pairs", "1,3"])


def _dot_sset_json(tmp_path):
    X = sset_dump(ops.pushout(shapes.sub_inclusion(shapes.spine(2), d(2)),
                              shapes.sub_inclusion(shapes.spine(2), shapes.horn(2, 1))).sset)
    p = _write(tmp_path, "k.json", X)
    return _cli(["dot", "--sset", p, "--from", "q0_0", "--to", "q0_2", "--emit", "json"])


# -- library dumps ------------------------------------------------------------------


def _bi(W):
    return canonical_json(bisset_dump(W))


def _s(X):
    return canonical_json(sset_dump(X))


def _lf(tmp_path):
    return _bi(lf(2, shapes.boundary(2)).W)


def _discretize(tmp_path):
    return _bi(discretize(external(d(1), shapes.spine(2))).bisset)


def _strict_nerve(tmp_path):
    return _bi(strict_nerve(ch_simplex(2), 2, 2).bisset)


def _hc_nerve(tmp_path):
    return _bi(hc_nerve(suspension(d(1)), 2, 1).bisset)


def _vtensor(tmp_path):
    return _bi(vtensor(lf(1, d(1)).W, shapes.boundary(1))[0])


def _groth(tmp_path):
    ch2 = ch_simplex(2)
    return _bi(groth(strict_nerve(ch2, 2, 2), representable(ch2, "2")).bisset)


def _unstraighten(tmp_path):
    W = lf(1, d(1)).W
    st = Straightener(W)
    return _bi(unstraighten(st, terminal_presheaf(st.base_cat), W.h_bound, W.v_bound).bisset)


def _bi_pushout(tmp_path):
    lf1, lf2 = lf(1, d(1)), lf(2, d(1))
    face = lf_map(lf1, lf2, delta.coface(2, 2), identity_map(d(1)))
    back = BiMap(lf1.W, lf1.W, {g: bnd(g) for g in lf1.W.gens()}, validate=False)
    return _bi(bi_pushout(face, back).bisset)


def _product(tmp_path):
    return _s(ops.product(d(1), shapes.boundary(2)).sset)


def _colimit(tmp_path):
    b1 = shapes.boundary(1)
    circle = ops.pushout(SSetMap(b1, d(0), {"0": nd("0"), "1": nd("0")}),
                         shapes.sub_inclusion(b1, d(1)))
    return _s(ops.product(circle.sset, d(1)).sset) + _s(circle.sset)


def _diag(tmp_path):
    return _s(diag(external(d(1), shapes.spine(2))).sset)


# -- straightening constructions and closed forms -------------------------------------


def _map(f):
    """A map by its generator images, as canonical JSON."""
    return canonical_json(f.assign)


def _pre(F):
    return canonical_json(presheaf_dump(F))


def _full_closed_form(tmp_path):
    return "".join(_pre(straighten_full(m, Y).presheaf)
                   for m, Y in [(0, d(1)), (1, d(1)), (2, d(0)), (1, shapes.spine(2))])


def _last_vertex(tmp_path):
    out = []
    for m, X in [(1, d(0)), (1, d(1)), (2, d(0))]:
        lv = straighten_last_vertex(m, X)
        out.append(_pre(lv.presheaf))
        out.extend(_map(lv.compare[a]) for a in sorted(lv.compare))
    return "".join(out)


def _projection_pi(tmp_path):
    out = []
    for m, Y in [(0, d(1)), (1, d(0)), (1, d(1)), (2, d(0)), (2, d(1))]:
        pi = projection_pi(m, Y)
        table = []
        for a in pi.C1.objects:
            for b in pi.C1.objects:
                H = pi.C1.hom_sset(a, b)
                table.extend([a, b, g, pi.on_hom(a, b, nd(g))] for g in H.gens())
        out.append(canonical_json(table))
    return "".join(out)


def _w_sigma(tmp_path):
    W = horizontal(d(2))
    out = []
    for g in W.gens():
        ws = w_sigma(W, Cell(*W.bidegree(g), bnd(g)))
        out += [_bi(ws.ext), _map(ws.iota), ws.top]
    return "".join(out)


def _cone(tmp_path):
    out = []
    for mu, m, f in [((0,), 0, identity_map(d(0))), ((0, 1), 1, identity_map(d(1))),
                     ((1,), 2, identity_map(d(1))),
                     ((0, 2), 2, shapes.sub_inclusion(shapes.spine(2), d(2)))]:
        cn = cone(mu, m, f)
        out += [_bi(cn.ext), _map(cn.q)]
    return "".join(out)


def _boundary_pp(tmp_path):
    f = shapes.sub_inclusion(shapes.boundary(1), d(1))
    out = []
    for m in (1, 2):
        ob_pp, full, compare = straighten_boundary_pp(m, f)
        for a in sorted(compare):
            out += [_s(ob_pp.value(a)), _s(full.value(a)), _map(compare[a])]
    return "".join(out)


def _st_rep(tmp_path):
    W = delta_precat(2).W
    st = Straightener(W)
    return "".join(_pre(st.st_rep(Cell(*W.bidegree(g), bnd(g)))) for g in W.gens())


GOLDEN = {
    "hom_emit_dot_lf3_d1": (_hom_dot,
        "459b1e290c52106e60f1bb2fe4dc079c93cbce687bcc8d588ee6adb6da619691"),
    "straighten_full_id_d2": (_straighten_full,
        "f51c59701ae8762717e2574cc5b2fa17b5b720b8fe9287f6e4c6c191dfacf5ab"),
    "straighten_full_id_d3": (_straighten_total(lambda: delta_precat(3).W, None),
        "b384a87ad94e53165f6ceb1d3a0c6e7e9bb77456a4a76e49b0cb0f6a6bd436ba"),
    "straighten_full_id_x_d1_over_d2": (_straighten_total(lambda: delta_precat(2).W, d(1)),
        "4517e2461451b3224e4882e0d417e99cc5a4c4130f4c017670ad14a9d7272a2d"),
    "straighten_full_id_x_bd2_over_d2": (
        _straighten_total(lambda: delta_precat(2).W, shapes.boundary(2)),
        "da743103b1e5bb3fa17c37d4e19cf42430a8f7d4c8df3124015bd63e547fcef7"),
    "straighten_full_id_x_d2_over_d1": (_straighten_total(lambda: delta_precat(1).W, d(2)),
        "1f45fd791b6871bbde850b925e76f1c5dbbb0d585d2ccabf848ab21e5670d7b3"),
    # the identity of LF[m, Delta[k]] has degenerate faces, which keep face pieces
    "straighten_full_id_lf2_d1": (_straighten_total(lambda: lf(2, d(1)).W, None),
        "e6968db084f955ddd13f7c3975953724e4dfeb2cf99af2621edca1b10a350871"),
    "straighten_full_id_lf1_d2": (_straighten_total(lambda: lf(1, d(2)).W, None),
        "1a71272654a2e06375a08a1dcec841fa14745e4f583196ce123a9a4a557ec054"),
    "straighten_certify_point": (_straighten_certify,
        "2a566873c683906671f9702f2058098458440681dc1a862dd4f42a44f84088b5"),
    "dot_pairs_1_3": (_dot_pairs,
        "75f4a3424f42277be48a43539c0b6030fe026c01b36daa8b6f87608c9848be99"),
    "dot_sset_json": (_dot_sset_json,
        "612846b264d3aa794c80417fc99ee39b02707e513d491db4be533b97fe88515e"),
    "lf": (_lf,
        "65eccb2106fc79395cb7d269809db205e0cb023db796466fb8e3f0d4b4525df5"),
    "discretize": (_discretize,
        "8cb4bcfdaa32fe4c1a9459cb65e6785f74a09854ff36ec72573f821bb56fd436"),
    "strict_nerve": (_strict_nerve,
        "ff5a2de5dfaaf8fbbc934a4d1ee2a4fc5220cee94f7cbec505a8d519824336b3"),
    "hc_nerve": (_hc_nerve,
        "8826feb95970de12679158c5cbb7209cfdaf1c07a5f80bbf83b30d74907e5008"),
    "vtensor": (_vtensor,
        "1d7067416d9465af82bc9abb9fdf164d2f517f7d3b3ab37fb5158350533f0243"),
    "groth": (_groth,
        "64519cc44454557ded06e97051fa5dc2ca6320e5b8fd2b79ee20d4d39daccde9"),
    "unstraighten": (_unstraighten,
        "5bc9324bf609cfcbbae7bf4cce56a3f5055602e5005718464a7dba86b4587fa8"),
    "bi_pushout": (_bi_pushout,
        "98e12eae00cea4269533b7eb5344de1210a7308b1e0f264a399e105abe0f745f"),
    "product": (_product,
        "8380787b679b58a87cde767b22bffa114549bae1e2b113533afd8308b59021aa"),
    "colimit": (_colimit,
        "130605068262683406272b6f9e9741b98d3aef89b988c78dc3c3b09348f43610"),
    "diag": (_diag,
        "a87ef67090ef707f3a55890454ae228b404f0b46a23f850aeaeaf04f61afa642"),
    "straighten_full_closed_form": (_full_closed_form,
        "50b657b469c9ddf9d2926d018a11514d04c144508b65efa119f789c11079d9e0"),
    "straighten_last_vertex": (_last_vertex,
        "7e29e52bad4f328a9467ee3ed26be4632261db0ef82cada078fd37a19e1641a3"),
    "projection_pi_on_hom": (_projection_pi,
        "7471c19a03328f838a66516cb94396da7b8f1924ac0e49da937b8f07dd72577d"),
    "w_sigma_d2": (_w_sigma,
        "5ae56515000f9b641d9fa3855a578c7d88ee5d19af855be716c65287c597e634"),
    "cone_ext_q": (_cone,
        "eca445461bb6d3352344b20aa29d7ddceb770f1e3c4f695858c0061ceac2e3cc"),
    "straighten_boundary_pp": (_boundary_pp,
        "046813944d743f6741c75500792c03df4f4bd755c3f5041c537036d581ce920d"),
    "st_rep_d2": (_st_rep,
        "0a9b00cbdcd72c8f4665fce364674f0fd3606511c3a53f17d99170ae144a07bf"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden(tmp_path, name):
    make, want = GOLDEN[name]
    assert _sha(make(tmp_path)) == want


# -- the inputs digest of a report ------------------------------------------------------

# the inputs that the command-line cases above digest into their reports
DIGESTED = {
    "hom_lf3_d1": lambda: [bisset_dump(lf(3, d(1)).W)],
    "straighten_id_d2": lambda: [bisset_dump(delta_precat(2).W)] * 2,
    "straighten_point": lambda: [bisset_dump(horizontal(d(0))),
                                 bisset_dump(vertical(shapes.boundary(2)))],
    "verify": lambda: [{"seed": 0}],
    "none": lambda: [],
}


def _hashlib_digest(payloads) -> str:
    return hashlib.sha256("".join(map(canonical_json, payloads)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(DIGESTED))
def test_digest_is_sha256(name):
    payloads = DIGESTED[name]()
    assert digest(payloads) == _hashlib_digest(payloads)


def test_digest_through_hashlib_when_no_builtin_sha256(tmp_path):
    # blocking both built-in modules forces the hashlib fallback of io_schemas
    payloads = {name: make() for name, make in DIGESTED.items()}
    p = tmp_path / "payloads.json"
    p.write_text(json.dumps(payloads))
    code = ("import hashlib, json, sys\n"
            "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
            "from necklace_calculus import io_schemas\n"
            "assert io_schemas.sha256 is hashlib.sha256\n"
            f"payloads = json.load(open({str(p)!r}))\n"
            "print(json.dumps({n: io_schemas.digest(ps) for n, ps in payloads.items()}))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {n: _hashlib_digest(ps) for n, ps in payloads.items()}
