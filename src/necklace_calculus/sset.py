"""Finite n-fold simplicial sets in Eilenberg-Zilber normal form.

One engine serves simplicial sets (n = 1, `SSet`) and bisimplicial sets
(n = 2, `bisset.BiSSet`).  Each simplicial direction is an axis.  A set is
stored by its non-degenerate generators, each with a degree tuple (one entry
per axis), and, per axis a, the d[a] + 1 faces along a of every generator of
degree d with d[a] > 0, as normal forms.  A normal form is a tuple
(*words, gen): one degeneracy word per axis applied to a generator; every
simplex is exactly one of them.  The operators of each axis act through
epi-mono factorization in the simplex category; operators on different axes
commute.
"""

from __future__ import annotations

import itertools
from operator import add, sub
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from . import delta
from .delta import Monotone, Word


class NF(NamedTuple):
    """Normal form s_{word} applied to a non-degenerate generator."""

    word: Word
    gen: str

    def degenerate(self) -> bool:
        return bool(self.word)


_new = tuple.__new__  # _new(nf_type, items) builds a normal form without re-checking its length


def nd(gen: str) -> NF:
    return _new(NF, ((), gen))


class SSetError(ValueError):
    pass


def _on_axis(n: int, a: int, mu: Monotone) -> tuple:
    """The operators of act(e, *ops): mu along axis a, the identity (None) elsewhere."""
    return (None,) * a + (mu,) + (None,) * (n - a - 1)


class GradedSet:
    """A finite n-fold simplicial set; immutable after construction.

    A subclass fixes n by its normal-form type and implements act(e, *mus),
    one monotone map (or None, for the identity) per axis.
    """

    nf_type: type = NF
    map_type: type
    n_axes: int = 1

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.n_axes = len(cls.nf_type._fields) - 1

    def __init__(self, gens: Iterable[tuple[str, tuple[int, ...]]],
                 faces: tuple[Mapping[str, tuple], ...],
                 labels: Optional[Mapping[str, str]], validate: bool):
        self._deg: dict[str, tuple[int, ...]] = {}
        self._by_deg: dict[tuple[int, ...], list[str]] = {}
        n = self.n_axes
        for g, deg in gens:
            if g in self._deg:
                raise SSetError(f"duplicate generator id {g!r}")
            if validate and (len(deg) != n or any(type(p) is not int or p < 0 for p in deg)):
                raise SSetError(f"generator {g!r} has degree {list(deg)}; "
                                f"need {n} non-negative integers")
            level = self._by_deg.setdefault(deg, [])
            if level:
                deg = self._deg[level[0]]  # share one tuple per degree
            self._deg[g] = deg
            level.append(g)
        self._faces = tuple({g: tuple(fs) for g, fs in f.items()} for f in faces)
        self.labels = dict(labels or {})
        self._face_cache: dict = {}
        self._renamed: Optional[tuple] = None  # memo of ops._renamed
        self._index()
        if validate:
            self._validate()

    def _index(self) -> None:
        """Subclass hook: derive the generator order and the named views."""

    def gens(self) -> list[str]:
        raise NotImplementedError

    def is_empty(self) -> bool:
        return not self._deg

    def n_gens(self) -> int:
        return len(self._deg)

    def degree(self, e: tuple) -> tuple[int, ...]:
        """Per-axis dimensions of a normal form."""
        return tuple(map(add, self._deg[e[-1]], map(len, e)))

    def _nd(self, g: str) -> tuple:
        return _new(self.nf_type, ((),) * self.n_axes + (g,))

    def simplices(self, *dims: int) -> list:
        """All simplices of the given degree (degenerate ones included), canonically ordered."""
        nf_type = self.nf_type
        out = []
        for deg, level in self._by_deg.items():
            if all(p <= d for p, d in zip(deg, dims)):
                for words in itertools.product(*map(delta.all_words, map(sub, dims, deg), dims)):
                    out.extend(_new(nf_type, words + (g,)) for g in level)
        out.sort()
        return out

    # -- the operators ------------------------------------------------------------

    def _act_axis(self, e: tuple, a: int, mu: Monotone) -> tuple:
        """The normal form of e composed with mu along axis a; SSetError if mu
        is not monotone into e's dimension along a."""
        g = e[-1]
        top = self._deg[g][a] + len(e[a])
        if not delta.is_monotone(mu, top):
            raise SSetError(f"{mu} is not monotone into [{top}]")
        word, mono = delta.factor(delta.compose(delta.word_to_epi(e[a], top), mu))
        return self._degenerate(e[:a] + (word,) + e[a + 1:-1], self._apply_mono(g, a, mono))

    def _apply_mono(self, g: str, a: int, mono: Monotone) -> tuple:
        """The face of generator g along axis a picked by a mono, memoized."""
        key = (g, a, mono)
        hit = self._face_cache.get(key)
        if hit is None:
            hit = self._nd(g)
            for r in sorted(set(range(self._deg[g][a] + 1)).difference(mono), reverse=True):
                hit = self._face(hit, a, r)
            self._face_cache[key] = hit
        return hit

    def _face(self, e: tuple, a: int, r: int) -> tuple:
        """d_r along axis a of the normal form e, read from the face table and
        delta's bounded face lookup."""
        g = e[-1]
        word, i = delta.face_of_word(e[a], self._deg[g][a] + len(e[a]), r)
        f = self._nd(g) if i is None else self._faces[a][g][i]
        return self._degenerate(e[:a] + (word,) + e[a + 1:-1], f)

    def _degenerate(self, words: tuple, f: tuple) -> tuple:
        """The normal form of s_words f: words[a] acts along axis a, after f's own word."""
        if not any(words):
            return f
        dims = map(add, self._deg[f[-1]], map(len, f))
        return _new(self.nf_type, (*map(delta.merge_words, words, f, dims), f[-1]))

    # -- validation ---------------------------------------------------------------

    def _validate(self) -> None:
        n = self.n_axes
        for g, deg in self._deg.items():
            for a, top in enumerate(deg):
                fs = self._faces[a].get(g)
                if top == 0:
                    if fs:
                        raise SSetError(f"generator {g!r} of degree {list(deg)} has faces "
                                        f"along axis {a}")
                    continue
                if fs is None or len(fs) != top + 1:
                    raise SSetError(f"generator {g!r} of degree {list(deg)} needs {top + 1} "
                                    f"faces along axis {a}")
                want = deg[:a] + (top - 1,) + deg[a + 1:]
                for f in fs:
                    if f[-1] not in self._deg:
                        raise SSetError(f"face of {g!r} targets unknown {f[-1]!r}")
                    if any(w[i] <= w[i + 1] for w in f[:-1] for i in range(len(w) - 1)):
                        raise SSetError(f"face word of {g!r} not strictly decreasing")
                    if self.degree(f) != want:
                        raise SSetError(f"face of {g!r} has wrong degree")
        face = self._face
        for g, deg in self._deg.items():
            if sum(deg) < 2:  # no face of a face to compare
                continue
            e = self._nd(g)
            first = [[face(e, a, r) for r in range(top + 1)] if top else []
                     for a, top in enumerate(deg)]
            for a, top in enumerate(deg):
                fa = first[a]
                for j in range(top + 1) if top >= 2 else ():
                    for i in range(j):
                        if face(fa[j], a, i) != face(fa[i], a, j - 1):
                            raise SSetError(f"d_{i} d_{j} identity fails on {g!r} along axis {a}")
                for b in range(a + 1, n):
                    for i in range(top + 1) if top and deg[b] else ():
                        for j in range(deg[b] + 1):
                            if face(fa[i], b, j) != face(first[b][j], a, i):
                                raise SSetError(f"mixed face identity fails on {g!r}")

    # -- equality -------------------------------------------------------------------

    def _key(self):
        return (tuple((g, self._deg[g]) for g in self.gens()),
                tuple(tuple(sorted(f.items())) for f in self._faces))

    def __eq__(self, other):
        return isinstance(other, GradedSet) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class SSetMap:
    """A map of n-fold simplicial sets, stored on generators."""

    def __init__(self, src: GradedSet, dst: GradedSet, assign: Mapping[str, tuple],
                 validate: bool = True):
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
            deg = self.src._deg[g]
            if self.dst.degree(img) != deg:
                raise SSetError(f"image of {g!r} has wrong degree")
            for a, top in enumerate(deg):
                for i in range(top + 1) if top else ():
                    if self.dst._face(img, a, i) != self(self.src._faces[a][g][i]):
                        raise SSetError(f"map not simplicial at d_{i} along axis {a} of {g!r}")

    def __call__(self, e: tuple) -> tuple:
        return self.dst._degenerate(e[:-1], self.assign[e[-1]])

    def then(self, other: "SSetMap") -> "SSetMap":
        if other.src is not self.dst and other.src != self.dst:
            raise SSetError("maps not composable")
        return type(self)(self.src, other.dst,
                          {g: other(self.assign[g]) for g in self.assign}, validate=False)

    def is_mono(self) -> bool:
        seen = set()
        for g in self.src.gens():
            img = self.assign[g]
            if any(img[:-1]) or img in seen:
                return False
            seen.add(img)
        return True

    def is_iso(self) -> bool:
        return self.src.nd_counts() == self.dst.nd_counts() and self.is_mono()

    def __eq__(self, other):
        return (isinstance(other, SSetMap) and self.src == other.src
                and self.dst == other.dst and self.assign == other.assign)

    def __hash__(self):
        return hash((self.src, self.dst, tuple(sorted(self.assign.items()))))


class SSet(GradedSet):
    """A finite simplicial set: the n = 1 case, with d-simplices for degree (d,)."""

    nf_type = NF
    map_type = SSetMap

    def __init__(self, gens: Iterable[tuple[str, int]], faces: Mapping[str, tuple[NF, ...]],
                 labels: Optional[Mapping[str, str]] = None, validate: bool = True):
        super().__init__(((g, (d,)) for g, d in gens), (faces,), labels, validate)

    def _index(self) -> None:
        self.faces = self._faces[0]
        self.dim_bound = max(self._by_deg)[0] if self._by_deg else -1
        self.by_dim: tuple[tuple[str, ...], ...] = tuple(
            tuple(self._by_deg.get((d,), ())) for d in range(self.dim_bound + 1))
        self._vert_cache: dict = {}
        self._order_check: Optional[tuple] = None  # memo of ops.is_1_ordered
        self._local: Optional[tuple] = None  # memo of kan.local_form

    # -- structure ---------------------------------------------------------

    def gen_dim(self, g: str) -> int:
        return self._deg[g][0]

    def gens(self) -> list[str]:
        return [g for level in self.by_dim for g in level]

    def nd_counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.by_dim)

    def dim(self, nf: NF) -> int:
        return len(nf.word) + self._deg[nf.gen][0]

    # -- simplicial operators ----------------------------------------------

    def act(self, nf: NF, mu: Monotone) -> NF:
        """Presheaf action: nf at dim m composed with mu: [m'] -> [m]."""
        return self._act_axis(nf, 0, mu)

    def face(self, nf: NF, i: int) -> NF:
        return self.act(nf, delta.coface(i, self.dim(nf)))

    def degeneracy(self, nf: NF, i: int) -> NF:
        return self.act(nf, delta.codegeneracy(i, self.dim(nf)))

    def vertices(self, nf: NF) -> tuple[str, ...]:
        """Ordered vertex generators of nf, read from the face table: a
        generator's vertices are those of its last face, then the last vertex
        of its first face."""
        hit = self._vert_cache.get(nf)
        if hit is not None:
            return hit
        g = nf.gen
        if nf.word:
            base = self.vertices(NF((), g))
            out = tuple(base[v] for v in delta.word_to_epi(nf.word, self.dim(nf)))
        elif self._deg[g][0] == 0:
            out = (g,)
        else:
            fs = self.faces[g]
            out = self.vertices(fs[-1]) + self.vertices(fs[0])[-1:]
        self._vert_cache[nf] = out
        return out

    def __repr__(self):
        return f"SSet(nd_counts={self.nd_counts()})"


EMPTY = SSet([], {})


def identity_map(X: GradedSet) -> SSetMap:
    return X.map_type(X, X, {g: X._nd(g) for g in X.gens()}, validate=False)


def constant_map(X: GradedSet, Y: GradedSet, vertex: str) -> SSetMap:
    """Collapse X to a vertex of Y, in either grading: each generator goes to
    the vertex degenerated along every index of every axis."""
    def image(deg: tuple[int, ...]) -> tuple:
        return _new(Y.nf_type, (*(tuple(range(d - 1, -1, -1)) for d in deg), vertex))

    return X.map_type(X, Y, {g: image(X._deg[g]) for g in X.gens()}, validate=False)


# -- the materialize engine ---------------------------------------------------


class Materialized(NamedTuple):
    sset: SSet
    to_nf: Callable[[int, object], NF]
    elem_of: dict[str, object]
    expand: Callable[[NF], object]


def materialize(levels: Callable[[int], list], act: Callable[[object, int, Monotone], object],
                max_dim: int, prefix: str = "x",
                degen: Optional[Callable[[object, int, int], object]] = None) -> Materialized:
    """Build an SSet in EZ normal form from an abstract element space.

    levels(d) lists d-simplices (canonically ordered, hashable); it must list
    every non-degenerate one and may list only those.  act is the presheaf
    action.  degen(e, d, i) returns df with s_i(df) == e, or None; without it,
    the test is made through act.  Listed elements that degen strips are
    degenerate; the rest become generators in listing order, each with its
    faces read through act as it is made.  The returned lookup gives the
    normal form of any element, listed or not (faces, elements above
    max_dim), by stripping degeneracies with degen.  Elements above max_dim
    are never listed, so max_dim must be at least the top non-degenerate
    dimension.  expand, lookup's inverse, builds the named element by act.
    """
    return Materialized(*_materialize(SSet, levels, act, (max_dim,), prefix, degen))


def _degenerated(nf_type: type, base: tuple, a: int, i: int, low: int) -> tuple:
    """The normal form of s_i along axis a of base, whose degree along a is low."""
    return _new(nf_type, base[:a] + (delta.merge_words((i,), base[a], low),) + base[a + 1:])


def _materialize(kind: type, levels: Callable, act: Callable, bounds: tuple[int, ...],
                 prefix: str, degen: Optional[Callable] = None):
    """The engine behind materialize and bisset.materialize_bi, for n = len(bounds) axes.

    Callbacks see a degree as an int d for n = 1 and as a tuple otherwise:
    levels(*deg), act(e, d, *mus) with one operator (or None) per axis, and
    degen(e, d, i) for n = 1.  Degeneracies are stripped axis by axis, i
    descending; generator ids are prefix, the degree joined by "_", and a
    per-degree counter.  A generator's faces are read through act and the
    memo as it is made: every element below its degree is placed by then.
    Returns (set of type kind, lookup, elem_of, expand), where lookup(*deg,
    e) is the memoized normal form of any element and expand(x) the element
    named by the normal form x: its generator's element moved by act along
    the epi of each axis's word, one axis after another.
    """
    n = len(bounds)
    nf_type = kind.nf_type
    memo: dict[tuple, tuple] = {}
    made: list[tuple[str, object]] = []  # (id, degree as the callbacks see it)
    elem_of: dict[str, object] = {}

    def via_act(a: int) -> Callable:
        def degen_a(e, dk, i):
            top = dk if n == 1 else dk[a]
            df = act(e, dk, *_on_axis(n, a, delta.coface(i, top)))
            low = top - 1 if n == 1 else dk[:a] + (top - 1,) + dk[a + 1:]
            if act(df, low, *_on_axis(n, a, delta.codegeneracy(i, top - 1))) == e:
                return df
            return None

        return degen_a

    degens = (degen,) if degen is not None else tuple(map(via_act, range(n)))

    def degeneracy(deg: tuple, e) -> Optional[tuple]:
        """(axis a, index i, key of d_i e) for the first s_i along an axis a
        that e is in the image of, or None when e is non-degenerate."""
        dk = deg[0] if n == 1 else deg
        for a, degen_a in enumerate(degens):
            top = deg[a]
            for i in range(top - 1, -1, -1):
                df = degen_a(e, dk, i)
                if df is not None:
                    return a, i, (*deg[:a], top - 1, *deg[a + 1:], df)
        return None

    def lookup(*key) -> tuple:
        """Normal form of any element: lookup(*deg, e).  Degeneracies are
        stripped one at a time down to a memoized element, and the normal
        form is built back up, memoizing each element on the way."""
        hit = memo.get(key)
        if hit is not None:
            return hit
        steps = []
        while hit is None:
            step = degeneracy(key[:-1], key[-1])
            if step is None:
                raise SSetError(f"element at degree {key[:-1]} has no recorded normal form")
            steps.append((key, step))
            key = step[2]
            hit = memo.get(key)
        for key, (a, i, low) in reversed(steps):
            hit = memo[key] = _degenerated(nf_type, hit, a, i, low[a])
        return hit

    faces = tuple({} for _ in range(n))
    for deg in itertools.product(*(range(b + 1) for b in bounds)):
        elems = levels(*deg)
        if len(set(elems)) != len(elems):
            raise SSetError("duplicate elements in a level")
        stem = prefix + "_".join(map(str, deg)) + "_"
        dk, first = deg[0] if n == 1 else deg, len(made)
        # per axis a with deg[a] > 0: its face table, the degree below and the coface
        # operators; every element below deg already has its normal form
        axes = [(faces[a], deg[:a] + (top - 1,) + deg[a + 1:],
                 [_on_axis(n, a, delta.coface(i, top)) for i in range(top + 1)])
                for a, top in enumerate(deg) if top]
        for e in elems:
            step = degeneracy(deg, e)
            if step is None:
                gid = stem + str(len(made) - first)
                made.append((gid, dk))
                elem_of[gid] = e
                out = _new(nf_type, ((),) * n + (gid,))
                for fa, low, ops in axes:
                    fa[gid] = [memo.get(key := (*low, act(e, dk, *mus))) or lookup(*key)
                               for mus in ops]
            else:
                a, i, low = step
                out = _degenerated(nf_type, lookup(*low), a, i, low[a])
            memo[(*deg, e)] = out
    out = kind(made, *faces, validate=False)

    def expand(x: tuple):
        e, deg = elem_of[x[-1]], out._deg[x[-1]]
        for a, word in enumerate(x[:-1]):
            if word:
                top = deg[a] + len(word)
                e = act(e, deg[0] if n == 1 else deg,
                        *_on_axis(n, a, delta.word_to_epi(word, top)))
                deg = deg[:a] + (top,) + deg[a + 1:]
        return e

    return out, lookup, elem_of, expand
