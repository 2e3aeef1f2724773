"""Command-line entry points: hom, straighten, verify, dot.

Exit codes: 0 pass, 2 schema or usage error (a malformed or invalid input
file, or arguments such as an endpoint that is not a vertex), 3 unsupported
input (with witness), 4 check failure, 5 resource limit (an input whose cells
exceed --max-cells, a DOT export whose squared object count does, or a
`dot --sset --emit json` listing whose necklaces have more beads in all).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from math import comb

from .bisset import BiMap
from .categorify import categorify
from .io_schemas import (SchemaError, bimap_load, bisset_dump, bisset_load, canonical_json,
                         necklace_dump, presheaf_dump, run_report, sset_dump, sset_load)
from .necklace import PairPoset, TndPoset, UnsupportedInput, necklace_count, necklaces_dot
from .ops import find_iso
from .sset import SSetError, constant_map

MAX_CELLS_DEFAULT = 2_000_000


class UsageError(ValueError):
    """Arguments missing or malformed in a way argparse cannot see (exit 2)."""


class ResourceLimit(ValueError):
    """An input larger than a resource guard allows (exit 5)."""


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
    """Refuse W if it has more than max_cells (m, k)-bisimplices up to its bounds.

    A generator of bidegree (p, q) gives C(m, p) * C(k, q) of them, one per pair
    of degeneracy words, so the cells are counted without being listed.
    """
    counts = W.nd_counts()
    total = sum(n * comb(m, p) * comb(k, q) for (p, q), n in counts.items()
                for m in range(W.h_bound + 1) for k in range(W.v_bound + 1))
    if total > max_cells:
        raise ResourceLimit(f"expanded cell count {total} exceeds --max-cells={max_cells}")


def _dot_guard(n_objects: int, max_cells: int) -> None:
    """Refuse a DOT export of n_objects: it compares every pair of them and
    tests each comparable pair against every third object."""
    if n_objects ** 2 > max_cells:
        raise ResourceLimit(f"dot of {n_objects} objects compares {n_objects ** 2} pairs, "
                            f"more than --max-cells={max_cells}")


def _endpoints(args, vertices) -> tuple[str, str]:
    """--from and --to, which must name vertices."""
    ends = getattr(args, "from"), args.to
    for flag, v in zip(("--from", "--to"), ends):
        if v not in vertices:
            raise UsageError(f"{flag} {v!r} is not a vertex")
    return ends


def cmd_hom(args) -> int:
    if args.degree is not None and args.degree < 0:
        raise UsageError(f"--degree must be at least 0; got {args.degree}")
    W = bisset_load(_load_json(args.base))
    if not W.row0_discrete():
        print("error: row 0 is not discrete", file=sys.stderr)
        return 2
    a, b = _endpoints(args, W.row0())
    _cell_guard(W, args.max_cells)
    C = categorify(W, bound=args.degree)
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
        poset = TndPoset(C.level(0), a, b)
        _dot_guard(len(poset.objects), args.max_cells)
        payload["dot"] = necklaces_dot(poset, name="tnd_level0")
    _emit(args, payload)
    return 0


def cmd_straighten(args) -> int:
    from .straighten import Straightener

    W = bisset_load(_load_json(args.base))
    P = bisset_load(_load_json(args.total))
    _cell_guard(W, args.max_cells)
    _cell_guard(P, args.max_cells)
    try:
        images = bimap_load(_load_json(args.map), W) if args.map else _over_terminal(P, W)
        extra = sorted(set(images).difference(P.gens()))
        if extra:  # BiMap reads the images of P's generators only
            raise SchemaError(f"--map has an image for {extra[0]!r}, "
                              "not a generator of the total object")
        p = BiMap(P, W, images)
    except SSetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    st = Straightener(W)
    if args.at is not None and args.at not in st.CW.objects:
        raise UsageError(f"--at {args.at!r} is not a vertex")
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


def _over_terminal(P, W):
    """Default structure map for a total object over a point."""
    if len(W.gens_at(0, 0)) != 1 or len(W.gens()) != 1:
        raise SSetError("--map is required unless the base is a point")
    return constant_map(P, W, W.gens_at(0, 0)[0]).assign


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suite

    if args.suite != "all" and args.suite not in SUITES:
        raise UsageError(f"--suite {args.suite!r} is not one of {', '.join(sorted(SUITES))}, all")
    t0 = time.time()
    checks = run_suite(args.suite, seed=args.seed)
    seconds = {c["name"]: round(c.pop("seconds"), 3) for c in checks}
    timings = ({"total_s": round(time.time() - t0, 3), "checks_s": seconds}
               if args.timings else None)
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
        if not 0 <= i <= m:
            raise UsageError(f"--pairs i,m needs 0 <= i <= m; got {args.pairs!r}")
        _dot_guard(3 ** (m - i), args.max_cells)  # the pairs (J, V): 3 choices per inner vertex
        print(necklaces_dot(PairPoset(i, m), name="pairs"))
        return 0
    if args.sset is None or getattr(args, "from") is None or args.to is None:
        raise UsageError("dot needs --pairs i,m, or --sset with --from and --to")
    X = sset_load(_load_json(args.sset))
    a, b = _endpoints(args, X.by_dim[0] if X.dim_bound >= 0 else ())
    n, beads = necklace_count(X, a, b)
    if args.emit == "json":
        if beads > args.max_cells:
            raise ResourceLimit(f"{n} necklaces from {a} to {b} have {beads} beads, more than "
                                f"--max-cells={args.max_cells}")
        t = TndPoset(X, a, b)
        entries = [necklace_dump(t.bead_dims(o), o.beads, (a, b)) for o in t.objects]
        print(canonical_json({"schema": "necklace.v1", "necklaces": entries}))
        return 0
    _dot_guard(n, args.max_cells)
    print(necklaces_dot(TndPoset(X, a, b), name="tnd"))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The neckcalc argument parser, built once per process: parse_args reads
    it and changes nothing in it."""
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
    ver.add_argument("--suite", default="all", help="a suite name, or all (the default)")
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
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.max_cells < 0:
            raise UsageError(f"--max-cells must be at least 0; got {args.max_cells}")
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
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
