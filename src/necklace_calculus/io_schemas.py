"""JSON schemas (sset.v1, bisset.v1, scat.v1, presheaf.v1, necklace.v1, check.v1).

A loader raises SchemaError on an object not of its schema, which the CLI
reports with exit code 2.

A payload has two forms with the same bytes.  The reference form is a tree of
dicts, which sset_dump, bisset_dump, scat_dump and presheaf_dump build from
the library's objects and canonical_json encodes (json.dumps with sorted keys
and no spaces).  write_canonical writes canonical_json(payload) + "\n" to a
file object in chunks, and takes the objects themselves where the reference
form holds their dumps: an SSet or BiSSet is written generator by generator
from its face tables, an SCat or Presheaf as its homs, values and tables, and
each simplex's {"target", "word"} text is made once per payload.  digest feeds
the same chunks to SHA-256.  The command line writes every payload this way.

The composition table of an SCat and the action table of a Presheaf come, in
both forms, from one Eilenberg-Zilber walk (_ez_walk).  A pair whose
morphism is an identity is the other factor by the unit law, and a pair whose
words share an index is read off a lower pair by delta.strip_word; only the
other pairs call C.comp or F.action.
"""

from __future__ import annotations

import functools
import itertools
import json
from json.encoder import encode_basestring_ascii
from typing import Iterator, NamedTuple, Optional

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


def _ez_walk(firsts, seconds, op, target, first_unit=None, second_unit=None):
    """(dim, u, v, op(u, v)) for u in firsts[dim] and v in seconds[dim], dim by
    dim, for op simplicial into the simplicial set target.

    first_unit(dim), if given, is an identity of op on the left at level dim,
    and second_unit(dim) one on the right: by the unit law a pair with an
    identity maps to the other factor.  A pair whose degeneracy words share the
    indices C is s_C of a lower pair (Eilenberg-Zilber), and its image is s_C
    of the lower pair's image.  op is called only on the remaining pairs.  The
    identities are all the simplices on an identity vertex, so a pair holding
    none has a lower pair holding none."""
    done = {}  # (u, v) -> op(u, v), for the pairs op is called on
    for dim, (us, vs) in enumerate(zip(firsts, seconds)):
        u_id = first_unit(dim) if first_unit else None
        v_id = second_unit(dim) if second_unit else None
        for u in us:
            if u == u_id:
                for v in vs:
                    yield dim, u, v, v
                continue
            uw = u.word
            for v in vs:
                if v == v_id:
                    yield dim, u, v, u
                    continue
                vw = v.word
                common = tuple(i for i in uw if i in vw) if uw and vw else ()
                if common:
                    lower = (NF(strip_word(uw, common), u.gen), NF(strip_word(vw, common), v.gen))
                    to = target._degenerate((common,), done[lower])
                else:
                    to = done[u, v] = op(u, v)
                yield dim, u, v, to


def _lister(bound: int):
    """listed(X): the simplices of X at levels 0..bound, listed once per X."""
    dims = range(bound + 1)
    memo = {}  # id(X) -> (X, its listing); X is kept, so its id is not reused

    def listed(X: SSet) -> list:
        hit = memo.get(id(X))
        if hit is None:
            hit = memo[id(X)] = (X, [X.simplices(dim) for dim in dims])
        return hit[1]

    return listed


def _comp_walks(C: SCat, listed) -> dict:
    """The composition walk of each "a|b|c" with a pair to compose, listed
    by listed = _lister(C.hom_bound)."""
    walks = {}
    for a, b, c in itertools.product(C.objects, repeat=3):
        gs, fs = listed(C.hom[b, c]), listed(C.hom[a, b])
        if any(g and f for g, f in zip(gs, fs)):
            walks[f"{a}|{b}|{c}"] = _ez_walk(
                gs, fs, functools.partial(C.comp, a, b, c), C.hom[a, c],
                functools.partial(C.id_el, b) if b == c else None,
                functools.partial(C.id_el, a) if a == b else None)
    return walks


def _action_walks(F: Presheaf, listed) -> dict:
    """The action walk of each "a|b" with a pair to act on, listed by
    listed = _lister(F.base.hom_bound)."""
    base = F.base
    walks = {}
    for a, b in itertools.product(base.objects, repeat=2):
        hs, xs = listed(base.hom[a, b]), listed(F.value[b])
        if any(h and x for h, x in zip(hs, xs)):
            walks[f"{a}|{b}"] = _ez_walk(hs, xs, functools.partial(F.action, a, b),
                                         F.value[a],
                                         functools.partial(base.id_el, a) if a == b else None)
    return walks


def _ez_entries(walk, names: tuple[str, str]) -> list[dict]:
    """The entries {"dim", names[0]: u, names[1]: v, "to": op(u, v)} of a walk."""
    first, second = names
    return [{"dim": dim, first: _nf_json(u), second: _nf_json(v), "to": _nf_json(to)}
            for dim, u, v, to in walk]


def scat_dump(C: SCat) -> dict:
    """scat.v1 of C; its composition table from _comp_walks."""
    walks = _comp_walks(C, _lister(C.hom_bound))
    return {
        "schema": "scat.v1",
        "objects": list(C.objects),
        "homs": {f"{a}|{b}": sset_dump(C.hom[(a, b)])
                 for a in C.objects for b in C.objects},
        "ids": dict(C.ids),
        "hom_bound": C.hom_bound,
        "comp": {key: _ez_entries(walk, ("g", "f")) for key, walk in walks.items()},
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
    """presheaf.v1 of F; its action table from _action_walks."""
    walks = _action_walks(F, _lister(F.base.hom_bound))
    return {
        "schema": "presheaf.v1",
        "base": scat_dump(F.base),
        "values": {a: sset_dump(F.value[a]) for a in F.base.objects},
        "actions": {key: _ez_entries(walk, ("h", "x")) for key, walk in walks.items()},
    }


def necklace_dump(bead_dims, beads, endpoints) -> dict:
    return {"schema": "necklace.v1", "bead_dims": list(bead_dims),
            "beads": list(beads), "endpoints": list(endpoints)}


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def canonical_json(d) -> str:
    """json.dumps(d, sort_keys=True, separators=(",", ":")); a payload is a
    fresh tree, so the encoder checks no cycles."""
    return _encode(d)


# -- the writer -----------------------------------------------------------------

_OBJECTS = (SSet, BiSSet, SCat, Presheaf)
_BLOCK = 512  # generators per chunk of a generator list
_CHUNK = 1 << 16  # characters held before they go to the sink


def _name(s) -> str:
    """The JSON text of a generator id or object name."""
    return encode_basestring_ascii(s) if type(s) is str else _encode(s)


def _ints(word) -> str:
    return "[" + ",".join(map(str, word)) + "]"


class _NFText(dict):
    """NF -> its {"target", "word"} text, made once."""

    def __missing__(self, nf):
        text = self[nf] = '{"target":' + _name(nf[1]) + ',"word":' + _ints(nf[0]) + "}"
        return text


class _BiNFText(dict):
    """BiNF -> its {"hword", "target", "vword"} text, made once."""

    def __missing__(self, e):
        text = self[e] = ('{"hword":' + _ints(e[0]) + ',"target":' + _name(e[2])
                          + ',"vword":' + _ints(e[1]) + "}")
        return text


class _Table(NamedTuple):
    """A composition ("comp") or action table, written as its walk runs."""

    kind: str
    walk: Iterator


def _holds_objects(d: dict) -> bool:
    return any(isinstance(v, (_OBJECTS, _Table)) or (type(v) is dict and _holds_objects(v))
               for v in d.values())


class _Writer:
    """The text of canonical_json(payload), in chunks of about _CHUNK
    characters to sink.  A dict that holds library objects is written key by
    key (its keys are strings); any other value is encoded whole by
    canonical_json's encoder."""

    def __init__(self, sink):
        self.sink = sink
        self.parts: list[str] = []
        self.size = 0
        self.nf = _NFText()
        self.binf = _BiNFText()
        self.listers: dict = {}  # hom_bound -> _lister(hom_bound)

    def put(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)
        if self.size >= _CHUNK:
            self.flush()

    def flush(self) -> None:
        if self.parts:
            self.sink("".join(self.parts))
            self.parts.clear()
            self.size = 0

    def listed(self, bound: int):
        hit = self.listers.get(bound)
        if hit is None:
            hit = self.listers[bound] = _lister(bound)
        return hit

    def value(self, v) -> None:
        if isinstance(v, SSet):
            self.sset(v)
        elif isinstance(v, BiSSet):
            self.bisset(v)
        elif isinstance(v, SCat):
            walks = _comp_walks(v, self.listed(v.hom_bound))
            self.dict({
                "comp": {key: _Table("comp", walk) for key, walk in walks.items()},
                "hom_bound": v.hom_bound,
                "homs": {f"{a}|{b}": v.hom[(a, b)] for a in v.objects for b in v.objects},
                "ids": dict(v.ids), "objects": list(v.objects), "schema": "scat.v1"})
        elif isinstance(v, Presheaf):
            walks = _action_walks(v, self.listed(v.base.hom_bound))
            self.dict({
                "actions": {key: _Table("action", walk) for key, walk in walks.items()},
                "base": v.base, "schema": "presheaf.v1",
                "values": {a: v.value[a] for a in v.base.objects}})
        elif isinstance(v, _Table):
            self.table(v)
        elif type(v) is dict and _holds_objects(v):
            self.dict(v)
        else:
            self.put(_encode(v))

    def dict(self, d: dict) -> None:
        sep = "{"
        for key in sorted(d):
            self.put(sep + encode_basestring_ascii(key) + ":")
            self.value(d[key])
            sep = ","
        self.put("}" if d else "{}")

    def sset(self, X: SSet) -> None:
        """sset_dump(X)'s text, generator by generator from X's face tables."""
        text, faces = self.nf.__getitem__, X.faces
        self.put('{"dim_bound":' + str(X.dim_bound) + ',"generators":[')
        sep = ""
        for dim, level in enumerate(X.by_dim):
            head = '{"dim":' + str(dim) + ',"faces":['
            for i in range(0, len(level), _BLOCK):
                self.put(sep + ",".join([
                    head + ",".join(map(text, faces.get(g, ()))) + '],"id":' + _name(g) + "}"
                    for g in level[i:i + _BLOCK]]))
                sep = ","
        self.put('],"labels":' + _encode(X.labels) + ',"schema":"sset.v1"}')

    def bisset(self, W: BiSSet) -> None:
        """bisset_dump(W)'s text, generator by generator from W's face tables."""
        text, hfaces, vfaces = self.binf.__getitem__, W.hfaces, W.vfaces
        self.put('{"dim_bounds":' + _ints((W.h_bound, W.v_bound)) + ',"generators":[')
        gens = W.gens()
        for i in range(0, len(gens), _BLOCK):
            self.put(("," if i else "") + ",".join([
                '{"bidegree":' + _ints(W.bidegree(g)) + ',"hfaces":['
                + ",".join(map(text, hfaces.get(g, ()))) + '],"id":' + _name(g)
                + ',"vfaces":[' + ",".join(map(text, vfaces.get(g, ()))) + "]}"
                for g in gens[i:i + _BLOCK]]))
        self.put('],"labels":' + _encode(W.labels) + ',"schema":"bisset.v1"}')

    def table(self, t: _Table) -> None:
        nf = self.nf
        if t.kind == "action":  # keys in order: dim, h, to, x
            entries = ['{"dim":' + str(dim) + ',"h":' + nf[h] + ',"to":' + nf[to]
                       + ',"x":' + nf[x] + "}" for dim, h, x, to in t.walk]
        else:  # keys in order: dim, f, g, to
            entries = ['{"dim":' + str(dim) + ',"f":' + nf[f] + ',"g":' + nf[g]
                       + ',"to":' + nf[to] + "}" for dim, g, f, to in t.walk]
        self.put("[" + ",".join(entries) + "]")


def write_canonical(fh, payload) -> None:
    """Write canonical_json(payload) + "\\n" to the text file fh, in chunks.
    payload may hold an SSet, BiSSet, SCat or Presheaf where its reference
    form holds sset_dump, bisset_dump, scat_dump or presheaf_dump of it."""
    w = _Writer(fh.write)
    w.value(payload)
    w.put("\n")
    w.flush()


def digest(payloads) -> str:
    """The first 16 hex digits of SHA-256 over the canonical JSON of each
    payload in turn, as written by write_canonical without its newline."""
    h = sha256()
    for p in payloads:
        w = _Writer(lambda text: h.update(text.encode()))
        w.value(p)
        w.flush()
    return h.hexdigest()[:16]


def run_report(command: str, inputs, checks: list[dict],
               timings: Optional[dict] = None) -> dict:
    """check.v1; timings stay null by default so reports are byte-identical.
    The inputs are digested, and may be library objects as write_canonical
    takes them."""
    return {
        "schema": "check.v1",
        "command": command,
        "inputs_digest": digest(inputs),
        "checks": checks,
        "passed": all(c["status"] == "pass" for c in checks),
        "timings": timings,
    }
