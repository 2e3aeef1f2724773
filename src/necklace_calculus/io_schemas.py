"""JSON schemas (sset.v1, bisset.v1, scat.v1, presheaf.v1, necklace.v1, check.v1).

A loader raises SchemaError on an object not of its schema, which the CLI
reports with exit code 2.  scat_dump composes and presheaf_dump acts only on
the pairs whose words share no index, and read each other pair off a lower one
by delta.strip_word.
"""

from __future__ import annotations

import itertools
import json
from typing import Optional

# SHA-256 from the interpreter's built-in module: importing hashlib maps OpenSSL,
# which costs a short job more than it computes
try:
    from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 on
    except ImportError:
        from hashlib import sha256

from .bisset import BiNF, BiSSet
from .delta import strip_word
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


def _labels(d) -> dict:
    """The "labels" of a set object, {} when absent: a JSON object of strings."""
    labels = d.get("labels", {})
    if not isinstance(labels, dict) or not all(isinstance(v, str) for v in labels.values()):
        raise SchemaError("labels must be a JSON object of strings")
    return labels


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
        return SSet(gens, faces, labels=_labels(d))
    except (KeyError, TypeError, SSetError) as exc:
        raise SchemaError(f"malformed sset.v1: {exc}") from exc


def _binf_json(e: BiNF) -> dict:
    return {"hword": list(e.hword), "vword": list(e.vword), "target": e.gen}


def _binf_load(d) -> BiNF:
    return BiNF(tuple(d["hword"]), tuple(d["vword"]), d["target"])


def bimap_load(d, W: BiSSet) -> dict[str, BiNF]:
    """Generator images of a map into W, from a JSON object mapping generator
    ids of the source to {"hword", "vword", "target"}.

    The target must be a generator of W, and each word a strictly decreasing
    list of integers in [0, d) for the image's dimension d along its axis.
    Whether the images form a simplicial map is BiMap's check.
    """
    if not isinstance(d, dict):
        raise SchemaError(f"expected a JSON object of generator images, got {type(d).__name__}")
    gens = set(W.gens())
    out = {}
    for g, e in d.items():
        try:
            img = _binf_load(e)
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed image of {g!r}: {exc!r}") from exc
        if not isinstance(img.gen, str) or img.gen not in gens:
            raise SchemaError(f"image of {g!r} targets {img.gen!r}, not a generator of the base")
        for word, low in zip(img[:2], W.bidegree(img.gen)):
            top = low + len(word)
            if (any(type(i) is not int for i in word) or any(map(int.__le__, word, word[1:]))
                    or (word and not (0 <= word[-1] and word[0] < top))):
                raise SchemaError(f"image of {g!r} has word {list(word)}; need a strictly "
                                  f"decreasing list of integers in [0, {top})")
        out[g] = img
    return out


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
    """A bisset.v1 object.  Generator ids may not contain "@": a level slice of
    the categorification names the vertical degeneracy s_w g as g@w."""
    try:
        _check_schema(d, "bisset.v1", default="bisset.v1")
        gens = [(g["id"], tuple(g["bidegree"])) for g in d["generators"]]
        bad = next((g for g, _ in gens if isinstance(g, str) and "@" in g), None)
        if bad is not None:
            raise SchemaError(f"generator id {bad!r} contains '@', which level-slice ids reserve")
        hfaces = {g["id"]: tuple(_binf_load(f) for f in g["hfaces"])
                  for g in d["generators"] if g["bidegree"][0] > 0}
        vfaces = {g["id"]: tuple(_binf_load(f) for f in g["vfaces"])
                  for g in d["generators"] if g["bidegree"][1] > 0}
        return BiSSet(gens, hfaces, vfaces, labels=_labels(d))
    except (KeyError, TypeError, IndexError, SSetError) as exc:
        raise SchemaError(f"malformed bisset.v1: {exc}") from exc


def _ez_entries(dims, firsts, seconds, op, target, names: tuple[str, str]) -> list[dict]:
    """The entries {"dim", names[0]: u, names[1]: v, "to": op(u, v)} for u in
    firsts[dim] and v in seconds[dim], dim by dim, for op simplicial into the
    simplicial set target.  A pair whose degeneracy words share the indices C
    is s_C of a lower pair (Eilenberg-Zilber), and its image is s_C of the
    lower pair's image: op is called only on the pairs sharing no index."""
    first, second = names
    entries = []
    done = {}  # (u, v) -> op(u, v), for the pairs sharing no index
    for dim in dims:
        for u in firsts[dim]:
            for v in seconds[dim]:
                common = tuple(i for i in u.word if i in v.word)
                if common:
                    lower = tuple(NF(strip_word(y.word, common), y.gen) for y in (u, v))
                    to = target._degenerate((common,), done[lower])
                else:
                    to = done[u, v] = op(u, v)
                entries.append({"dim": dim, first: _nf_json(u), second: _nf_json(v),
                                "to": _nf_json(to)})
    return entries


def scat_dump(C: SCat) -> dict:
    """scat.v1 of C.  Composition is simplicial, so only the pairs (g, f)
    whose words share no index call C.comp (_ez_entries)."""
    dims = range(C.hom_bound + 1)
    listed = {ab: [C.hom[ab].simplices(dim) for dim in dims]
              for ab in itertools.product(C.objects, repeat=2)}
    comp = {}
    for a, b, c in itertools.product(C.objects, repeat=3):
        entries = _ez_entries(dims, listed[b, c], listed[a, b],
                              lambda g, f: C.comp(a, b, c, g, f), C.hom[(a, c)], ("g", "f"))
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
    """presheaf.v1 of F.  The action is simplicial, so only the pairs (h, x)
    whose words share no index call F.action (_ez_entries)."""
    base = F.base
    dims = range(base.hom_bound + 1)
    listed = {b: [F.value[b].simplices(dim) for dim in dims] for b in base.objects}
    actions = {}
    for a, b in itertools.product(base.objects, repeat=2):
        homs = [base.hom[(a, b)].simplices(dim) for dim in dims]
        entries = _ez_entries(dims, homs, listed[b], lambda h, x: F.action(a, b, h, x),
                              F.value[a], ("h", "x"))
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
    h = sha256()
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
