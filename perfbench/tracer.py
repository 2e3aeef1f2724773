"""Spans around the library's public entry points, recorded from outside.

install() rebinds every module attribute and class attribute that holds a
traced entry point, including the names bound by `from .x import y`, so the
library itself stays unchanged.  Each call of an entry point opens a span; a
span's self time is its duration minus the durations of its direct children.
The callbacks a caller passes to `materialize` / `materialize_bi` run as child
spans of their own, so the engine's self time excludes enumeration and
operator action.  Callback spans and the count-only entry points (the
simplicial actions and `sub_necklace`, called millions of times) are
aggregated on the fly rather than stored; every other span is kept in memory
and written out at the end by write_spans().
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import weakref
from collections import defaultdict

PKG = "necklace_calculus"

# The per-layer metrics, in the order BENCHMARK.json lists them.  Counts and
# self times are reported per round of the workload's jobs.
LAYER_METRICS = [
    ("sset.materialize.calls", "count"),
    ("sset.materialize.self_s", "s"),
    ("sset.materialize.scanned", "count"),
    ("sset.materialize.kept", "count"),
    ("sset.materialize.keep_ratio", "ratio"),
    ("sset.materialize.levels_s", "s"),
    ("sset.materialize.act_s", "s"),
    ("sset.materialize.degen_s", "s"),
    ("sset.SSet.act.calls", "count"),
    ("bisset.materialize_bi.calls", "count"),
    ("bisset.materialize_bi.self_s", "s"),
    ("bisset.materialize_bi.scanned", "count"),
    ("bisset.materialize_bi.kept", "count"),
    ("bisset.materialize_bi.keep_ratio", "ratio"),
    ("bisset.lf.calls", "count"),
    ("bisset.lf.self_s", "s"),
    ("bisset.bi_colimit.calls", "count"),
    ("bisset.bi_colimit.self_s", "s"),
    ("bisset.BiSSet.act.calls", "count"),
    ("necklace.TndPoset.calls", "count"),
    ("necklace.TndPoset.self_s", "s"),
    ("necklace.TndPoset.necklaces", "count"),
    ("necklace.sub_necklace.calls", "count"),
    ("cubes.chains.calls", "count"),
    ("cubes.chains.self_s", "s"),
    ("cubes.chains.out", "count"),
    ("cubes.weighted_colim.calls", "count"),
    ("cubes.weighted_colim.self_s", "s"),
    ("cubes.weighted_colim.gens_out", "count"),
    ("categorify.hom.calls", "count"),
    ("categorify.hom.builds", "count"),
    ("categorify.hom.self_s", "s"),
    ("ops.product.calls", "count"),
    ("ops.product.self_s", "s"),
    ("ops.product.gens_out", "count"),
    ("ops.colimit.calls", "count"),
    ("ops.colimit.self_s", "s"),
    ("ops.colimit.gens_in", "count"),
    ("ops.colimit.gens_out", "count"),
    ("ops.find_iso.calls", "count"),
    ("ops.find_iso.self_s", "s"),
    ("ops.find_iso.found", "count"),
    ("kan.enriched_lan.calls", "count"),
    ("kan.enriched_lan.self_s", "s"),
    ("kan.enriched_lan.gens_out", "count"),
    ("straighten.StObject.colim.calls", "count"),
    ("straighten.StObject.colim.self_s", "s"),
    ("straighten.Straightener.lan.calls", "count"),
    ("straighten.Straightener.lan.builds", "count"),
    ("straighten.Straightener.full.calls", "count"),
    ("straighten.Straightener.full.builds", "count"),
    ("straighten.Straightener.st_operator.calls", "count"),
    ("straighten.Straightener.st_operator.self_s", "s"),
    ("straighten.cone.calls", "count"),
    ("straighten.cone.self_s", "s"),
    ("straighten.cone_hom.calls", "count"),
    ("straighten.cone_hom.self_s", "s"),
    ("io_schemas.bisset_load.self_s", "s"),
    ("io_schemas.sset_dump.self_s", "s"),
    ("io_schemas.presheaf_dump.self_s", "s"),
    ("io_schemas.canonical_json.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


# (module, attribute, span name, extra counts taken from (args, result)).
SPANNED = [
    ("sset", "materialize", "sset.materialize", None),
    ("bisset", "materialize_bi", "bisset.materialize_bi", None),
    ("bisset", "lf", "bisset.lf", None),
    ("bisset", "bi_colimit", "bisset.bi_colimit", None),
    ("necklace", "TndPoset.__init__", "necklace.TndPoset",
     lambda a, r: {"necklaces": len(a[0].objects)}),
    ("cubes", "chains", "cubes.chains", lambda a, r: {"out": len(r)}),
    ("cubes", "weighted_colim", "cubes.weighted_colim",
     lambda a, r: {"gens_out": r.sset.n_gens()}),
    ("categorify", "Categorification.hom", "categorify.hom", None),
    ("ops", "product", "ops.product", lambda a, r: {"gens_out": r.sset.n_gens()}),
    ("ops", "colimit", "ops.colimit",
     lambda a, r: {"gens_in": sum(X.n_gens() for X in a[0].objects.values()),
                   "gens_out": r.sset.n_gens()}),
    ("ops", "find_iso", "ops.find_iso", lambda a, r: {"found": int(r is not None)}),
    ("kan", "enriched_lan", "kan.enriched_lan",
     lambda a, r: {"gens_out": sum(c.sset.n_gens() for c in r.colimits.values())}),
    ("straighten", "StObject.colim", "straighten.StObject.colim", None),
    ("straighten", "Straightener.lan", "straighten.Straightener.lan", None),
    ("straighten", "Straightener.full", "straighten.Straightener.full", None),
    ("straighten", "Straightener.st_operator", "straighten.Straightener.st_operator", None),
    ("straighten", "cone", "straighten.cone", None),
    ("straighten", "cone_hom", "straighten.cone_hom", None),
    ("io_schemas", "bisset_load", "io_schemas.bisset_load", None),
    ("io_schemas", "sset_dump", "io_schemas.sset_dump", None),
    ("io_schemas", "presheaf_dump", "io_schemas.presheaf_dump", None),
    ("io_schemas", "canonical_json", "io_schemas.canonical_json", None),
    ("cli", "main", "cli.main", None),
]

COUNTED = [
    ("sset", "SSet.act", "sset.SSet.act"),
    ("bisset", "BiSSet.act", "bisset.BiSSet.act"),
    ("necklace", "sub_necklace", "necklace.sub_necklace"),
]

# Memoizing methods: a "build" is the first call per (instance, arguments).
BUILDS = {"categorify.hom", "straighten.Straightener.lan", "straighten.Straightener.full"}

# Engines whose callbacks are traced as child spans: span name -> callback parameters.
CALLBACKS = {"sset.materialize": ("levels", "act", "degen"),
             "bisset.materialize_bi": ("levels", "act")}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # [child seconds, id of the nearest kept span]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self._seen: dict[str, weakref.WeakKeyDictionary] = {
            n: weakref.WeakKeyDictionary() for n in BUILDS}

    # -- spans ---------------------------------------------------------------

    def _call(self, name: str, keep: bool, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        parent_id = parent[1] if parent else -1
        span_id = len(self.spans) if keep else parent_id
        frame = [0.0, span_id]
        if keep:
            self.spans.append(None)  # reserve the id; filled in when the span ends
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            dur = end - start
            self.self_s[name] += dur - frame[0]
            self.incl_s[name] += dur
            self.counts[name + ".calls"] += 1
            if parent is not None:
                parent[0] += dur
            if keep:
                self.spans[span_id] = (span_id, parent_id, name, start, end)

    def _callback(self, name: str, fn, count_len: bool = False):
        @functools.wraps(fn)
        def cb(*args, **kwargs):
            out = self._call(name, False, fn, args, kwargs)
            if count_len:
                self.counts[name.rsplit(".", 1)[0] + ".scanned"] += len(out)
            return out

        return cb

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, name: str, fn, extra):
        tr = self
        seen = self._seen.get(name)
        callbacks = CALLBACKS.get(name)
        sig = inspect.signature(fn) if callbacks else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            if seen is not None:
                keys = seen.setdefault(args[0], set())
                key = (args[1:], tuple(sorted(kwargs.items())))
                if key not in keys:
                    keys.add(key)
                    tr.counts[name + ".builds"] += 1
            if callbacks:
                bound = sig.bind(*args, **kwargs)
                for p in callbacks:
                    if bound.arguments.get(p) is not None:
                        bound.arguments[p] = tr._callback(f"{name}.{p}", bound.arguments[p],
                                                          count_len=(p == "levels"))
                args, kwargs = bound.args, bound.kwargs
            out = tr._call(name, True, fn, args, kwargs)
            if callbacks:
                made = out.sset if hasattr(out, "sset") else out.bisset
                tr.counts[name + ".kept"] += len(made.gens())
            if extra is not None:
                for k, v in extra(args, out).items():
                    tr.counts[f"{name}.{k}"] += v
            return out

        return wrapper

    def _counted(self, name: str, fn):
        tr = self
        key = name + ".calls"
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.enabled:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every holder of a traced entry point to its wrapper."""
        for mod, attr, name, extra in SPANNED:
            self._rebind(mod, attr, lambda fn, n=name, x=extra: self._spanned(n, fn, x))
        for mod, attr, name in COUNTED:
            self._rebind(mod, attr, lambda fn, n=name: self._counted(n, fn))

    @staticmethod
    def _rebind(mod: str, attr: str, make) -> None:
        module = importlib.import_module(f"{PKG}.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        orig = getattr(module, attr)
        wrapper = make(orig)
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PKG or n.startswith(PKG + "."))]
        for m in holders:
            for k, v in list(vars(m).items()):
                if v is orig:
                    setattr(m, k, wrapper)

    # -- results ---------------------------------------------------------------

    def per_round(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, per round of jobs."""
        out = {}
        for metric, unit in LAYER_METRICS:
            base, stat = metric.rsplit(".", 1)
            if metric == "trace.overhead_ratio":
                continue
            if stat == "self_s":
                out[metric] = self.self_s.get(base, 0.0) / rounds
            elif stat in ("levels_s", "act_s", "degen_s"):
                out[metric] = self.incl_s.get(f"{base}.{stat[:-2]}", 0.0) / rounds
            elif stat == "keep_ratio":
                scanned = self.counts.get(base + ".scanned", 0)
                out[metric] = self.counts.get(base + ".kept", 0) / scanned if scanned else 0.0
            else:
                out[metric] = self.counts.get(metric, 0) / rounds
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: [id, parent id (-1 at the top), name, start, end]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")
