"""The three benchmark workloads: inputs, jobs and exact output checks.

Each workload is a list of jobs run in rounds; one round runs every job once.
The workload seed drives a random relabelling of every generator id (object
and vertex names included) and the job order inside each round.  It never
changes what is computed, so the expected counts below hold for every seed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import string

# nd_counts at the commit that added this benchmark.
HOM_CASES = [
    # (name, m, fibre, source vertex, target vertex, expected nd_counts)
    ("delta5", 5, None, "0", "5", (16, 65, 110, 84, 24)),
    ("lf3_delta1", 3, 1, "0", "3", (18, 57, 64, 24)),
    ("lf2_delta2", 2, 2, "0", "2", (12, 36, 46, 27, 6)),
]

STRAIGHTEN_CASES = [
    # (name, n of the base Delta[n], tensor factor, expected nd_counts per object 0..n)
    ("id_delta3", 3, None, [(8, 19, 18, 6), (4, 5, 2), (2, 1), (1,)]),
    ("id_x_delta1_over_delta2", 2, "simplex1", [(8, 19, 18, 6), (4, 5, 2), (2, 1)]),
    ("id_x_bd2_over_delta2", 2, "boundary2", [(12, 42, 48, 18), (6, 12, 6), (3, 3)]),
    ("id_x_delta2_over_delta1", 1, "simplex2", [(6, 12, 10, 3), (3, 3, 1)]),
]

DUAL_EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "dual_expected.json")

_ID_ALPHABET = string.ascii_lowercase + string.digits
_ID_LEN = 8  # fixed, so that string costs do not vary with the seed


def fresh_ids(old_ids, rng: random.Random) -> dict[str, str]:
    """Random distinct ids of one length, with none of the separators the
    library builds compound ids from ('|', '@', '.')."""
    out: dict[str, str] = {}
    used: set[str] = set()
    for g in old_ids:
        while True:
            new = rng.choice(string.ascii_lowercase) + "".join(
                rng.choices(_ID_ALPHABET, k=_ID_LEN - 1))
            if new not in used:
                break
        used.add(new)
        out[g] = new
    return out


def nd_counts_of(sset_json: dict) -> tuple[int, ...]:
    """Generator counts by dimension of an sset.v1 payload."""
    dims = [g["dim"] for g in sset_json["generators"]]
    if not dims:
        return ()
    return tuple(dims.count(d) for d in range(max(dims) + 1))


def _relabel_bisset_json(d: dict, ren: dict[str, str]) -> dict:
    def face(f):
        return {"hword": f["hword"], "vword": f["vword"], "target": ren[f["target"]]}

    return {
        "schema": d["schema"],
        "dim_bounds": d["dim_bounds"],
        "generators": [
            {"id": ren[g["id"]], "bidegree": g["bidegree"],
             "hfaces": [face(f) for f in g["hfaces"]],
             "vfaces": [face(f) for f in g["vfaces"]]}
            for g in d["generators"]],
        "labels": {ren[k]: v for k, v in d["labels"].items()},
    }


def _write(path: str, payload) -> str:
    from necklace_calculus.io_schemas import canonical_json

    with open(path, "w") as fh:
        fh.write(canonical_json(payload))
    return path


class Job:
    """One unit of work: run() is timed, check() is not."""

    def __init__(self, name: str, run, check):
        self.name = name
        self.run = run
        self.check = check  # returns (ok, observed nd_counts)


class Workload:
    def __init__(self, name: str, jobs: list[Job], rng: random.Random, ids: set[str],
                 warmup: Job):
        self.name = name
        self.jobs = jobs
        self.rng = rng
        self.ids = ids  # every relabelled generator id in the inputs
        self.warmup = warmup

    def round(self) -> list[Job]:
        """The jobs of the next round, in seeded order."""
        order = list(self.jobs)
        self.rng.shuffle(order)
        return order


def _cli_job(name: str, argv: list[str], out: str, counts_of, expected) -> Job:
    """One in-process neckcalc call; check() reads its --out file."""
    from necklace_calculus import cli

    argv = argv + ["--out", out]

    def run():
        return cli.main(argv)

    def check(rc):
        if rc != 0:
            return False, f"exit code {rc}"
        with open(out) as fh:
            got = counts_of(json.load(fh))
        return got == expected, got

    return Job(name, run, check)


# -- hom ------------------------------------------------------------------------


def _hom_counts(payload: dict):
    """nd_counts of the emitted hom space, if its report states the same."""
    got = nd_counts_of(payload["hom"])
    reported = tuple(payload["report"]["checks"][0]["detail"]["nd_counts"])
    return got if reported == got else {"emitted": got, "reported": reported}


def build_hom(seed: int, workdir: str, expected=None) -> Workload:
    from necklace_calculus.bisset import lf
    from necklace_calculus.io_schemas import bisset_dump
    from necklace_calculus.shapes import point, simplex

    rng = random.Random(seed)
    out = os.path.join(workdir, "hom_out.json")
    jobs, ids = [], set()
    for name, m, fibre, a, b, want in HOM_CASES:
        W = lf(m, point() if fibre is None else simplex(fibre)).W
        raw = bisset_dump(W)
        ren = fresh_ids([g["id"] for g in raw["generators"]], rng)
        ids.update(ren.values())
        base = _write(os.path.join(workdir, f"{name}.json"), _relabel_bisset_json(raw, ren))
        want = tuple(expected[name]) if expected is not None else want
        argv = ["hom", "--base", base, "--from", ren[a], "--to", ren[b]]
        jobs.append(_cli_job(name, argv, out, _hom_counts, want))
    return Workload("hom", jobs, rng, ids, warmup=jobs[0])


# -- straighten -----------------------------------------------------------------


def _total_object(n: int, factor: str | None):
    from necklace_calculus.bisset import BiMap, bi_identity
    from necklace_calculus.groth import vtensor
    from necklace_calculus.shapes import boundary, simplex
    from necklace_calculus.straighten import delta_precat

    W = delta_precat(n).W
    if factor is None:
        return W, W, bi_identity(W)
    X = {"simplex1": simplex(1), "simplex2": simplex(2), "boundary2": boundary(2)}[factor]
    T, elem_of, _ = vtensor(W, X)
    p = BiMap(T, W, {g: elem_of[g][0] for g in T.gens()}, validate=False)
    return W, T, p


def build_straighten(seed: int, workdir: str, expected=None) -> Workload:
    from necklace_calculus.io_schemas import bisset_dump

    rng = random.Random(seed)
    out = os.path.join(workdir, "straighten_out.json")
    jobs, ids = [], set()
    for name, n, factor, want in STRAIGHTEN_CASES:
        W, P, p = _total_object(n, factor)
        rw, rp = bisset_dump(W), bisset_dump(P)
        ren_w = fresh_ids([g["id"] for g in rw["generators"]], rng)
        ren_p = fresh_ids([g["id"] for g in rp["generators"]], rng)
        ids.update(ren_w.values(), ren_p.values())
        base = _write(os.path.join(workdir, f"{name}_base.json"), _relabel_bisset_json(rw, ren_w))
        total = _write(os.path.join(workdir, f"{name}_total.json"),
                       _relabel_bisset_json(rp, ren_p))
        mp = _write(os.path.join(workdir, f"{name}_map.json"),
                    {ren_p[g]: {"hword": list(e.hword), "vword": list(e.vword),
                                "target": ren_w[e.gen]}
                     for g, e in p.assign.items()})
        objects = [ren_w[str(i)] for i in range(n + 1)]
        want = [tuple(c) for c in expected[name]] if expected is not None else want
        argv = ["straighten", "--base", base, "--total", total, "--map", mp, "--full"]

        def counts_of(payload, objects=objects):
            return [nd_counts_of(payload["presheaf"]["values"][a]) for a in objects]

        jobs.append(_cli_job(name, argv, out, counts_of, want))
    return Workload("straighten", jobs, rng, ids, warmup=jobs[0])


# -- dual -------------------------------------------------------------------------


def _catalog():
    """The monomorphisms of the dual-route battery in verify."""
    from necklace_calculus.shapes import boundary, simplex, spine, sub_inclusion
    from necklace_calculus.sset import SSetMap, identity_map, nd

    d0, d1, d2 = simplex(0), simplex(1), simplex(2)
    return [
        ("id_pt", identity_map(d0)),
        ("id_D1", identity_map(d1)),
        ("bd1_into_D1", sub_inclusion(boundary(1), d1)),
        ("pt0_into_D1", SSetMap(d0, d1, {"0": nd("0")})),
        ("sp2_into_D2", sub_inclusion(spine(2), d2)),
    ]


def injections(m: int) -> list[tuple[int, ...]]:
    return [mu for ell in range(m + 1) for mu in itertools.combinations(range(m + 1), ell + 1)]


def dual_case_name(fname: str, m: int, mu, i: int) -> str:
    return f"{fname},m={m},mu={'.'.join(map(str, mu))},i={i}"


def _relabel_sset(X, ren):
    from necklace_calculus.sset import NF, SSet

    return SSet([(ren[g], X.gen_dim(g)) for g in X.gens()],
                {ren[g]: tuple(NF(f.word, ren[f.gen]) for f in fs)
                 for g, fs in X.faces.items()}, validate=False)


def _relabel_map(f, rng):
    from necklace_calculus.sset import NF, SSetMap

    ren_src = fresh_ids(f.src.gens(), rng)
    src = _relabel_sset(f.src, ren_src)
    if f.dst is f.src:
        ren_dst, dst = ren_src, src
    else:
        ren_dst = fresh_ids(f.dst.gens(), rng)
        dst = _relabel_sset(f.dst, ren_dst)
    assign = {ren_src[g]: NF(nf.word, ren_dst[nf.gen]) for g, nf in f.assign.items()}
    return SSetMap(src, dst, assign), set(ren_src.values()) | set(ren_dst.values())


class DualGroup:
    """The cases of one (map, m, mu): they share the cone categorification."""

    def __init__(self, fname, f, m, mu, expected):
        self.cache: dict = {}
        self.jobs = [self._case(fname, f, m, mu, i, expected) for i in range(m + 1)]

    def _case(self, fname, f, m, mu, i, expected) -> Job:
        # entry points are looked up through their modules at call time, so a
        # traced run calls the wrapped ones
        from necklace_calculus import ops, straighten

        name = dual_case_name(fname, m, mu, i)
        want = tuple(expected[name])

        def run():
            lhs = straighten.st_mono_formula(mu, m, f, i)
            rhs = straighten.cone_hom(mu, m, f, i, cache=self.cache)
            if i == m:
                self.cache = {}  # as in the battery, the cone lives for one group
            return lhs, rhs, ops.find_iso(lhs, rhs)

        def check(res):
            lhs, rhs, iso = res
            got = lhs.nd_counts()
            return iso is not None and got == want and rhs.nd_counts() == want, got

        return Job(name, run, check)


class DualWorkload(Workload):
    def __init__(self, groups, rng, ids, warmup):
        super().__init__("dual", [j for g in groups for j in g.jobs], rng, ids, warmup)
        self.groups = groups

    def round(self) -> list[Job]:
        """One pass of the battery; groups shuffled, cases in order inside a group."""
        order = list(self.groups)
        self.rng.shuffle(order)
        return [j for g in order for j in g.jobs]


def load_dual_expected() -> dict:
    with open(DUAL_EXPECTED_FILE) as fh:
        return json.load(fh)


def build_dual(seed: int, workdir: str, expected=None) -> Workload:
    rng = random.Random(seed)
    if expected is None:
        expected = load_dual_expected()
    groups, ids = [], set()
    for fname, f in _catalog():
        f, f_ids = _relabel_map(f, rng)
        ids |= f_ids
        for m in range(3):
            for mu in injections(m):
                groups.append(DualGroup(fname, f, m, mu, expected))
    # the warm-up case has a group of its own, so no timed case finds its cone cached
    fname, f = _catalog()[1]
    warm = DualGroup(fname, _relabel_map(f, random.Random(seed + 1))[0], 1, (0, 1), expected)
    return DualWorkload(groups, rng, ids, warm.jobs[0])


BUILDERS = {"hom": build_hom, "straighten": build_straighten, "dual": build_dual}
