"""Finite simplicial sets in Eilenberg-Zilber normal form.

A simplicial set is stored by its non-degenerate generators and, for each
generator of dimension d, its d+1 faces as normal forms.  Every simplex of
the set is a unique pair (degeneracy word, generator); the simplicial
operators act through epi-mono factorization in the simplex category.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from . import delta
from .delta import Monotone, Word


class NF(NamedTuple):
    """Normal form s_{word} applied to a non-degenerate generator."""

    word: Word
    gen: str

    def degenerate(self) -> bool:
        return bool(self.word)


def nd(gen: str) -> NF:
    return NF((), gen)


class SSetError(ValueError):
    pass


class SSet:
    """A finite simplicial set; immutable after construction."""

    def __init__(self, gens: Iterable[tuple[str, int]], faces: Mapping[str, tuple[NF, ...]],
                 labels: Optional[Mapping[str, str]] = None, validate: bool = True):
        self._dims: dict[str, int] = {}
        by_dim: dict[int, list[str]] = {}
        for g, d in gens:
            if g in self._dims:
                raise SSetError(f"duplicate generator id {g!r}")
            self._dims[g] = d
            by_dim.setdefault(d, []).append(g)
        self.dim_bound = max(by_dim) if by_dim else -1
        self.by_dim: tuple[tuple[str, ...], ...] = tuple(
            tuple(by_dim.get(d, ())) for d in range(self.dim_bound + 1))
        self.faces = {g: tuple(fs) for g, fs in faces.items()}
        self.labels = dict(labels or {})
        self._act_cache: dict = {}
        self._vert_cache: dict = {}
        self._order_check: Optional[tuple] = None  # memo of ops.is_1_ordered
        if validate:
            self._validate()

    # -- structure ---------------------------------------------------------

    def gen_dim(self, g: str) -> int:
        return self._dims[g]

    def gens(self) -> list[str]:
        return [g for level in self.by_dim for g in level]

    def n_gens(self, d: Optional[int] = None) -> int:
        if d is None:
            return len(self._dims)
        return len(self.by_dim[d]) if 0 <= d <= self.dim_bound else 0

    def nd_counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.by_dim)

    def dim(self, nf: NF) -> int:
        return len(nf.word) + self._dims[nf.gen]

    def is_empty(self) -> bool:
        return not self._dims

    # -- simplicial operators ----------------------------------------------

    def act(self, nf: NF, mu: Monotone) -> NF:
        """Presheaf action: nf at dim m composed with mu: [m'] -> [m]."""
        key = (nf, mu)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        m = self.dim(nf)
        if not delta.is_monotone(mu, m):
            raise SSetError(f"{mu} is not monotone into [{m}]")
        epi = delta.word_to_epi(nf.word, m)
        word, mono = delta.factor(delta.compose(epi, mu))
        base = self._apply_mono(nf.gen, mono)
        out = NF(delta.merge_words(word, base.word, self.dim(base)), base.gen)
        self._act_cache[key] = out
        return out

    def _apply_mono(self, g: str, mono: Monotone) -> NF:
        key = (g, mono)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        d = self._dims[g]
        cur = nd(g)
        missing = sorted(set(range(d + 1)) - set(mono), reverse=True)
        for r in missing:
            cur = self._face_step(cur, r)
        self._act_cache[key] = cur
        return cur

    def _face_step(self, nf: NF, r: int) -> NF:
        m = self.dim(nf)
        epi = delta.word_to_epi(nf.word, m)
        word, mono = delta.factor(delta.compose(epi, delta.coface(r, m)))
        if len(mono) == self._dims[nf.gen] + 1:
            return NF(word, nf.gen)
        # mono skips exactly one index
        (j,) = sorted(set(range(self._dims[nf.gen] + 1)) - set(mono))
        fj = self.faces[nf.gen][j]
        return NF(delta.merge_words(word, fj.word, self.dim(fj)), fj.gen)

    def face(self, nf: NF, i: int) -> NF:
        return self.act(nf, delta.coface(i, self.dim(nf)))

    def degeneracy(self, nf: NF, i: int) -> NF:
        return self.act(nf, delta.codegeneracy(i, self.dim(nf)))

    def vertices(self, nf: NF) -> tuple[str, ...]:
        """Ordered vertex generators of nf."""
        hit = self._vert_cache.get(nf)
        if hit is not None:
            return hit
        m = self.dim(nf)
        if nf.word:
            epi = delta.word_to_epi(nf.word, m)
            base = self.vertices(NF((), nf.gen))
            out = tuple(base[epi[v]] for v in range(m + 1))
        else:
            out = tuple(self.act(nf, delta.vertex_map(v)).gen for v in range(m + 1))
        self._vert_cache[nf] = out
        return out

    def simplices(self, d: int) -> list[NF]:
        """All d-simplices (degenerate ones included), canonically ordered."""
        out = []
        for p in range(min(d, self.dim_bound) + 1):
            for w in delta.all_words(d - p, d):
                for g in self.by_dim[p]:
                    out.append(NF(w, g))
        out.sort()
        return out

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        for g, d in self._dims.items():
            if d == 0:
                if g in self.faces and self.faces[g]:
                    raise SSetError(f"vertex {g!r} with faces")
                continue
            fs = self.faces.get(g)
            if fs is None or len(fs) != d + 1:
                raise SSetError(f"generator {g!r} of dim {d} needs {d + 1} faces")
            for nf in fs:
                if nf.gen not in self._dims:
                    raise SSetError(f"face of {g!r} targets unknown {nf.gen!r}")
                if self.dim(nf) != d - 1:
                    raise SSetError(f"face of {g!r} has wrong dimension")
                if any(nf.word[i] <= nf.word[i + 1] for i in range(len(nf.word) - 1)):
                    raise SSetError(f"face word of {g!r} not strictly decreasing")
        for g, d in self._dims.items():
            if d < 2:
                continue
            for j in range(d + 1):
                for i in range(j):
                    if self.face(self.face(nd(g), j), i) != self.face(self.face(nd(g), i), j - 1):
                        raise SSetError(f"d_{i} d_{j} identity fails on {g!r}")

    # -- equality -------------------------------------------------------------

    def _key(self):
        return (self.by_dim, tuple(sorted(self.faces.items())))

    def __eq__(self, other):
        return isinstance(other, SSet) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"SSet(nd_counts={self.nd_counts()})"


EMPTY = SSet([], {})


class SSetMap:
    """A simplicial map, stored on generators."""

    def __init__(self, src: SSet, dst: SSet, assign: Mapping[str, NF], validate: bool = True):
        self.src = src
        self.dst = dst
        self.assign = dict(assign)
        if validate:
            self._validate()

    def _validate(self) -> None:
        for g in self.src.gens():
            if g not in self.assign:
                raise SSetError(f"no assignment for generator {g!r}")
            img = self.assign[g]
            d = self.src.gen_dim(g)
            if self.dst.dim(img) != d:
                raise SSetError(f"image of {g!r} has wrong dimension")
            for i in range(d + 1) if d else ():
                if self.dst.face(img, i) != self(self.src.faces[g][i]):
                    raise SSetError(f"map not simplicial at d_{i} of {g!r}")

    def __call__(self, nf: NF) -> NF:
        img = self.assign[nf.gen]
        word = delta.merge_words(nf.word, img.word, self.dst.dim(img))
        return NF(word, img.gen)

    def then(self, other: "SSetMap") -> "SSetMap":
        if other.src is not self.dst and other.src != self.dst:
            raise SSetError("maps not composable")
        return SSetMap(self.src, other.dst,
                       {g: other(self.assign[g]) for g in self.assign}, validate=False)

    def is_mono(self) -> bool:
        seen: dict[int, set[NF]] = {}
        for g in self.src.gens():
            img = self.assign[g]
            if img.degenerate():
                return False
            d = self.src.gen_dim(g)
            if img in seen.setdefault(d, set()):
                return False
            seen[d].add(img)
        return True

    def is_iso(self) -> bool:
        if self.src.nd_counts() != self.dst.nd_counts():
            return False
        return self.is_mono()

    def inverse(self) -> "SSetMap":
        if not self.is_iso():
            raise SSetError("not an isomorphism")
        inv = {self.assign[g].gen: nd(g) for g in self.src.gens()}
        return SSetMap(self.dst, self.src, inv, validate=False)

    def __eq__(self, other):
        return (isinstance(other, SSetMap) and self.src == other.src
                and self.dst == other.dst and self.assign == other.assign)

    def __hash__(self):
        return hash((self.src, self.dst, tuple(sorted(self.assign.items()))))


def identity_map(X: SSet) -> SSetMap:
    return SSetMap(X, X, {g: nd(g) for g in X.gens()}, validate=False)


def constant_map(X: SSet, Y: SSet, vertex: str) -> SSetMap:
    """Collapse X to a vertex of Y."""
    assign = {}
    for g in X.gens():
        d = X.gen_dim(g)
        assign[g] = Y.act(nd(vertex), tuple(0 for _ in range(d + 1)))
    return SSetMap(X, Y, assign, validate=False)


# -- the materialize engine ---------------------------------------------------


class Materialized(NamedTuple):
    sset: SSet
    to_nf: Callable[[int, object], NF]
    elem_of: dict[str, object]


def materialize(levels: Callable[[int], list], act: Callable[[object, int, Monotone], object],
                max_dim: int, prefix: str = "x",
                label: Optional[Callable[[object], str]] = None,
                degen: Optional[Callable[[object, int, int], object]] = None) -> Materialized:
    """Build an SSet in EZ normal form from an abstract element space.

    levels(d) lists d-simplices (canonically ordered, hashable); it must list
    every non-degenerate one and may list only those.  act is the presheaf
    action.  degen(e, d, i) returns df with s_i(df) == e, or None; without it,
    the test is made through act.  Listed elements that degen strips are
    degenerate, the rest become generators, numbered in listing order.  The
    returned lookup gives the normal form of any element, listed or not
    (faces, elements above max_dim), by stripping degeneracies with degen.
    Elements above max_dim are never listed, so the caller must pick max_dim
    at least the top non-degenerate dimension.
    """
    to_nf: dict[tuple[int, object], NF] = {}
    gens: list[tuple[str, int]] = []
    faces: dict[str, tuple[NF, ...]] = {}
    elem_of: dict[str, object] = {}
    labels: dict[str, str] = {}
    if degen is None:
        def degen(e, d, i):
            df = act(e, d, delta.coface(i, d))
            if act(df, d - 1, delta.codegeneracy(i, d - 1)) == e:
                return df
            return None

    def strip(d: int, e) -> Optional[NF]:
        """Normal form of e if degenerate, else None."""
        for i in range(d - 1, -1, -1):
            df = degen(e, d, i)
            if df is not None:
                base = lookup(d - 1, df)
                return NF(delta.merge_words((i,), base.word, d - 1), base.gen)
        return None

    def lookup(d: int, e) -> NF:
        """Normal form of any element."""
        hit = to_nf.get((d, e))
        if hit is not None:
            return hit
        out = strip(d, e)
        if out is None:
            raise SSetError(f"element at dim {d} has no recorded normal form")
        to_nf[(d, e)] = out
        return out

    for d in range(max_dim + 1):
        elems = levels(d)
        if len(set(elems)) != len(elems):
            raise SSetError("duplicate elements in a level")
        fresh = 0
        for e in elems:
            out = strip(d, e)
            if out is None:
                gid = f"{prefix}{d}_{fresh}"
                fresh += 1
                gens.append((gid, d))
                elem_of[gid] = e
                out = nd(gid)
                if label is not None:
                    labels[gid] = label(e)
            to_nf[(d, e)] = out
    for gid, d in gens:
        if d == 0:
            continue
        e = elem_of[gid]
        faces[gid] = tuple(lookup(d - 1, act(e, d, delta.coface(i, d))) for i in range(d + 1))
    out = SSet(gens, faces, labels=labels, validate=False)
    return Materialized(out, lookup, elem_of)
