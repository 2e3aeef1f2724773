"""Command-line entry points: hom, straighten, verify.

Exit codes: 0 pass, 2 schema error, 3 unsupported input (with witness),
4 check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bisset import BiMap, bnd
from .categorify import categorify
from .io_schemas import (SchemaError, bisset_dump, bisset_load, canonical_json,
                         presheaf_dump, run_report, sset_dump, sset_load)
from .necklace import PairPoset, TndPoset, UnsupportedInput, necklaces_dot
from .ops import find_iso
from .sset import SSetError
from .straighten import Straightener
from .verify import SUITES, run_suite

MAX_CELLS_DEFAULT = 2_000_000


class UsageError(ValueError):
    """Arguments missing or malformed in a way argparse cannot see (exit 2)."""


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _emit(args, payload: dict) -> None:
    text = canonical_json(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cell_guard(W, max_cells: int) -> None:
    total = 0
    for m in range(W.h_bound + 1):
        for k in range(W.v_bound + 1):
            total += len(W.simplices(m, k))
            if total > max_cells:
                raise SSetError(f"expanded cell count exceeds --max-cells={max_cells}")


def cmd_hom(args) -> int:
    W = bisset_load(_load_json(args.base))
    if not W.row0_discrete():
        print("error: row 0 is not discrete", file=sys.stderr)
        return 2
    _cell_guard(W, args.max_cells)
    C = categorify(W, bound=args.degree)
    a, b = getattr(args, "from"), args.to
    H = C.hom_sset(a, b)
    report = C.hom_report(a, b)
    payload = {
        "hom": sset_dump(H),
        "report": run_report("hom", [bisset_dump(W)], [
            {"name": "stabilization", "status": "pass",
             "detail": {"nd_counts": list(report["nd_counts"]),
                        "degree_bound": report["degree_bound"],
                        "complete": report["complete"]}}]),
    }
    if args.emit == "dot":
        payload["dot"] = necklaces_dot(C.poset(0, a, b), name="tnd_level0")
    _emit(args, payload)
    return 0


def cmd_straighten(args) -> int:
    W = bisset_load(_load_json(args.base))
    P = bisset_load(_load_json(args.total))
    _cell_guard(W, args.max_cells)
    _cell_guard(P, args.max_cells)
    try:
        p = BiMap(P, W, {g: _parse_binf(e) for g, e in _load_json(args.map).items()}
                  if args.map else _over_terminal(P, W))
    except SSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    st = Straightener(W)
    ob = st.st_object(P, p)
    pre = ob.presheaf()
    objects = [args.at] if args.at is not None else list(st.CW.objects)
    checks = []
    if args.certify:
        checks.extend(_closed_form_certificates(st, P, pre, objects))
    payload = {
        "presheaf": presheaf_dump(pre) if args.full else
        {a: sset_dump(pre.value[a]) for a in objects},
        "report": run_report("straighten", [bisset_dump(W), bisset_dump(P)], checks),
    }
    _emit(args, payload)
    return 0


def _closed_form_certificates(st, P, pre, objects) -> list:
    """Where a closed form applies, attach the certifying isomorphism."""
    from .bisset import diag

    checks = []
    base_is_point = len(st.W.gens()) == 1
    fiber_like = all(P.bidegree(g)[0] == 0 for g in P.gens())
    if base_is_point and fiber_like:
        target = diag(P).sset
        for a in objects:
            iso = find_iso(pre.value[a], target)
            status = "pass" if iso is not None else "fail"
            checks.append({"name": f"closed_form_fiber[{a}]", "status": status,
                           "certificate": {g: [list(nf.word), nf.gen]
                                           for g, nf in (iso.assign if iso else {}).items()}})
    else:
        checks.append({"name": "closed_form", "status": "pass",
                       "detail": "no closed form applies to this input"})
    return checks


def _parse_binf(e):
    from .bisset import BiNF

    return BiNF(tuple(e["hword"]), tuple(e["vword"]), e["target"])


def _over_terminal(P, W):
    """Default structure map for a total object over a point."""
    if len(W.gens_at(0, 0)) != 1 or len(W.gens()) != 1:
        raise SSetError("--map is required unless the base is a point")
    v = W.gens_at(0, 0)[0]
    out = {}
    for g in P.gens():
        m, k = P.bidegree(g)
        out[g] = W.act(bnd(v), mu_h=tuple(0 for _ in range(m + 1)),
                       mu_v=tuple(0 for _ in range(k + 1)))
    return out


def cmd_verify(args) -> int:
    t0 = time.time()
    checks = run_suite(args.suite, seed=args.seed)
    timings = {"total_s": round(time.time() - t0, 3)} if args.timings else None
    payload = run_report(f"verify --suite {args.suite}", [{"seed": args.seed}],
                         checks, timings=timings)
    _emit(args, payload)
    for c in checks:
        mark = "pass" if c["status"] == "pass" else "FAIL"
        print(f"[{mark}] {c['name']}", file=sys.stderr)
    return 0 if payload["passed"] else 4


def cmd_dot(args) -> int:
    if args.pairs is not None:
        try:
            i, m = map(int, args.pairs.split(","))
        except ValueError:
            raise UsageError(f"--pairs takes i,m; got {args.pairs!r}") from None
        print(necklaces_dot(PairPoset(i, m), name="pairs"))
        return 0
    if args.sset is None or getattr(args, "from") is None or args.to is None:
        raise UsageError("dot needs --pairs i,m, or --sset with --from and --to")
    X = sset_load(_load_json(args.sset))
    t = TndPoset(X, getattr(args, "from"), args.to)
    if args.emit == "json":
        from .io_schemas import necklace_dump

        entries = [necklace_dump(t.shape(o).bead_dims, o.beads,
                                 (getattr(args, "from"), args.to))
                   for o in t.objects]
        print(canonical_json({"schema": "necklace.v1", "necklaces": entries}))
        return 0
    print(necklaces_dot(t, name="tnd"))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="neckcalc",
                                 description="necklace calculus and straightening")
    ap.add_argument("--max-cells", type=int, default=MAX_CELLS_DEFAULT)
    sub = ap.add_subparsers(dest="cmd", required=True)

    hom = sub.add_parser("hom", help="hom space of the categorification")
    hom.add_argument("--base", required=True)
    hom.add_argument("--from", required=True)
    hom.add_argument("--to", required=True)
    hom.add_argument("--degree", type=int, default=None)
    hom.add_argument("--emit", choices=["dot"], default=None)
    hom.add_argument("--out", default=None)
    hom.set_defaults(fn=cmd_hom)

    stc = sub.add_parser("straighten", help="straighten a total object over a base")
    stc.add_argument("--base", required=True)
    stc.add_argument("--total", required=True)
    stc.add_argument("--map", default=None, help="JSON of generator images in the base")
    stc.add_argument("--at", default=None, help="emit only this object's value")
    stc.add_argument("--certify", action="store_true")
    stc.add_argument("--full", action="store_true", help="emit presheaf.v1 with actions")
    stc.add_argument("--out", default=None)
    stc.set_defaults(fn=cmd_straighten)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"])
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--timings", action="store_true")
    ver.add_argument("--out", default=None)
    ver.set_defaults(fn=cmd_verify)

    dot = sub.add_parser("dot", help="emit necklace or pair posets")
    dot.add_argument("--pairs", default=None, help="i,m for the pair poset")
    dot.add_argument("--sset", default=None)
    dot.add_argument("--from", default=None)
    dot.add_argument("--to", default=None)
    dot.add_argument("--emit", choices=["dot", "json"], default="dot")
    dot.set_defaults(fn=cmd_dot)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedInput as exc:
        print(f"unsupported input: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {exc.witness}", file=sys.stderr)
        return 3
    except SSetError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
