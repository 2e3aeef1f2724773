"""JSON schemas (sset.v1, bisset.v1, scat.v1, presheaf.v1, necklace.v1, check.v1)
and DOT emission."""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from .bisset import BiNF, BiSSet
from .scat import SCat, Presheaf
from .sset import NF, SSet, SSetError


class SchemaError(ValueError):
    pass


def _check_schema(d, name: str, default: Optional[str] = None) -> None:
    """d must be a JSON object whose "schema" (default: default) is name."""
    if not isinstance(d, dict):
        raise SchemaError(f"expected a {name} object, got {type(d).__name__}")
    if d.get("schema", default) != name:
        raise SchemaError(f"expected {name}, got {d.get('schema')!r}")


def _nf_json(nf: NF) -> dict:
    return {"word": list(nf.word), "target": nf.gen}


def _nf_load(d) -> NF:
    return NF(tuple(d["word"]), d["target"])


def sset_dump(X: SSet) -> dict:
    return {
        "schema": "sset.v1",
        "dim_bound": X.dim_bound,
        "generators": [
            {"id": g, "dim": X.gen_dim(g),
             "faces": [_nf_json(f) for f in X.faces.get(g, ())]}
            for g in X.gens()
        ],
        "labels": dict(X.labels),
    }


def sset_load(d: dict) -> SSet:
    try:
        _check_schema(d, "sset.v1", default="sset.v1")
        gens = [(g["id"], g["dim"]) for g in d["generators"]]
        faces = {g["id"]: tuple(_nf_load(f) for f in g["faces"])
                 for g in d["generators"] if g["dim"] > 0}
        return SSet(gens, faces, labels=d.get("labels"))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed sset.v1: {exc}") from exc


def _binf_json(e: BiNF) -> dict:
    return {"hword": list(e.hword), "vword": list(e.vword), "target": e.gen}


def _binf_load(d) -> BiNF:
    return BiNF(tuple(d["hword"]), tuple(d["vword"]), d["target"])


def bisset_dump(W: BiSSet) -> dict:
    return {
        "schema": "bisset.v1",
        "dim_bounds": [W.h_bound, W.v_bound],
        "generators": [
            {"id": g, "bidegree": list(W.bidegree(g)),
             "hfaces": [_binf_json(f) for f in W.hfaces.get(g, ())],
             "vfaces": [_binf_json(f) for f in W.vfaces.get(g, ())]}
            for g in W.gens()
        ],
        "labels": dict(W.labels),
    }


def bisset_load(d: dict) -> BiSSet:
    try:
        _check_schema(d, "bisset.v1", default="bisset.v1")
        gens = [(g["id"], tuple(g["bidegree"])) for g in d["generators"]]
        hfaces = {g["id"]: tuple(_binf_load(f) for f in g["hfaces"])
                  for g in d["generators"] if g["bidegree"][0] > 0}
        vfaces = {g["id"]: tuple(_binf_load(f) for f in g["vfaces"])
                  for g in d["generators"] if g["bidegree"][1] > 0}
        return BiSSet(gens, hfaces, vfaces, labels=d.get("labels"))
    except (KeyError, TypeError, IndexError) as exc:
        raise SchemaError(f"malformed bisset.v1: {exc}") from exc


def scat_dump(C: SCat) -> dict:
    comp = {}
    for a in C.objects:
        for b in C.objects:
            for c in C.objects:
                entries = []
                for dim in range(C.hom_bound + 1):
                    for g in C.hom[(b, c)].simplices(dim):
                        for f in C.hom[(a, b)].simplices(dim):
                            entries.append({"dim": dim, "g": _nf_json(g), "f": _nf_json(f),
                                            "to": _nf_json(C.comp(a, b, c, g, f))})
                if entries:
                    comp[f"{a}|{b}|{c}"] = entries
    return {
        "schema": "scat.v1",
        "objects": list(C.objects),
        "homs": {f"{a}|{b}": sset_dump(C.hom[(a, b)])
                 for a in C.objects for b in C.objects},
        "ids": dict(C.ids),
        "hom_bound": C.hom_bound,
        "comp": comp,
    }


def scat_load(d: dict) -> SCat:
    try:
        _check_schema(d, "scat.v1")
        objects = tuple(d["objects"])
        homs = {}
        for key, sub in d["homs"].items():
            a, b = key.split("|")
            homs[(a, b)] = sset_load(sub)
        table = {}
        for key, entries in d["comp"].items():
            a, b, c = key.split("|")
            for e in entries:
                table[(a, b, c, _nf_load(e["g"]), _nf_load(e["f"]))] = _nf_load(e["to"])

        def comp(a, b, c, g, f):
            key = (a, b, c, g, f)
            if key in table:
                return table[key]
            raise SSetError("composition outside the tabulated bound")

        return SCat(objects, homs, comp, d["ids"], hom_bound=d["hom_bound"])
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed scat.v1: {exc}") from exc


def presheaf_dump(F: Presheaf) -> dict:
    base = F.base
    actions = {}
    for a in base.objects:
        for b in base.objects:
            entries = []
            for dim in range(base.hom_bound + 1):
                for h in base.hom[(a, b)].simplices(dim):
                    for x in F.value[b].simplices(dim):
                        entries.append({"dim": dim, "h": _nf_json(h), "x": _nf_json(x),
                                        "to": _nf_json(F.action(a, b, h, x))})
            if entries:
                actions[f"{a}|{b}"] = entries
    return {
        "schema": "presheaf.v1",
        "base": scat_dump(base),
        "values": {a: sset_dump(F.value[a]) for a in base.objects},
        "actions": actions,
    }


def necklace_dump(bead_dims, beads, endpoints) -> dict:
    return {"schema": "necklace.v1", "bead_dims": list(bead_dims),
            "beads": list(beads), "endpoints": list(endpoints)}


def canonical_json(d) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def digest(payloads) -> str:
    h = hashlib.sha256()
    for p in payloads:
        h.update(canonical_json(p).encode())
    return h.hexdigest()[:16]


def run_report(command: str, inputs, checks: list[dict],
               timings: Optional[dict] = None) -> dict:
    """check.v1; timings stay null by default so reports are byte-identical."""
    return {
        "schema": "check.v1",
        "command": command,
        "inputs_digest": digest(inputs),
        "checks": checks,
        "passed": all(c["status"] == "pass" for c in checks),
        "timings": timings,
    }
