"""Necklaces, their realizations inside a 1-ordered simplicial set, and the
pair-poset combinatorial model of the totally non-degenerate necklace poset."""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

from .ops import is_1_ordered
from .sset import SSet, SSetError, nd


class UnsupportedInput(SSetError):
    """Raised when an operation's structural precondition fails; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class Necklace(NamedTuple):
    """Abstract wedge of simplices; bead_dims positive unless the necklace is a point."""

    bead_dims: tuple[int, ...]

    @staticmethod
    def of(dims) -> "Necklace":
        dims = tuple(dims)
        if not dims:
            raise SSetError("a necklace needs at least one bead")
        if len(dims) > 1:
            dims = tuple(d for d in dims if d > 0)
            if not dims:
                dims = (0,)
        if any(d < 0 for d in dims):
            raise SSetError("bead dimensions must be >= 0")
        return Necklace(dims)

    @property
    def n_vertices(self) -> int:
        return sum(self.bead_dims) + 1

    @property
    def joints(self) -> tuple[int, ...]:
        out = [0]
        for d in self.bead_dims:
            out.append(out[-1] + d)
        return tuple(out)

    def wedge(self, other: "Necklace") -> "Necklace":
        return Necklace.of(self.bead_dims + other.bead_dims)


class RealizedNecklace(NamedTuple):
    """A totally non-degenerate necklace in K: each bead is a generator of K."""

    beads: tuple[str, ...]


class TndPoset:
    """The poset of totally non-degenerate necklaces of K from a to b."""

    def __init__(self, K: SSet, a: str, b: str):
        ok, wit = is_1_ordered(K)
        if not ok:
            raise UnsupportedInput(f"K is not 1-ordered ({wit.condition})", witness=wit)
        if K.dim_bound < 0 or a not in K.by_dim[0] or b not in K.by_dim[0]:
            raise SSetError(f"endpoints {a!r}, {b!r} must be vertices of K")
        self.K = K
        self.a = a
        self.b = b
        self.objects: tuple[RealizedNecklace, ...] = tuple(self._enumerate())
        self._index = {t: i for i, t in enumerate(self.objects)}
        self._verts = {t: self.vertex_ids(t) for t in self.objects}
        self._joints = {t: self.joint_ids(t) for t in self.objects}

    # -- structure ----------------------------------------------------------

    def bead_vertices(self, t: RealizedNecklace) -> tuple[tuple[str, ...], ...]:
        return tuple(self.K.vertices(nd(g)) for g in t.beads)

    def vertex_ids(self, t: RealizedNecklace) -> tuple[str, ...]:
        return necklace_vertex_ids(self.K, t)

    def joint_ids(self, t: RealizedNecklace) -> tuple[str, ...]:
        return necklace_joint_ids(self.K, t)

    def shape(self, t: RealizedNecklace) -> Necklace:
        return Necklace.of(self.K.gen_dim(g) for g in t.beads)

    # -- enumeration ----------------------------------------------------------

    def _beads_from(self, v: str) -> list[str]:
        out = []
        for d in range(1, self.K.dim_bound + 1):
            for g in self.K.by_dim[d]:
                if self.K.vertices(nd(g))[0] == v:
                    out.append(g)
        return sorted(out, key=lambda g: (self.K.gen_dim(g), g))

    def _enumerate(self) -> list[RealizedNecklace]:
        if self.a == self.b:
            return [RealizedNecklace((self.a,))]

        @functools.lru_cache(maxsize=None)
        def tails(v: str) -> tuple[tuple[str, ...], ...]:
            out = []
            for g in self._beads_from(v):
                w = self.K.vertices(nd(g))[-1]
                if w == self.b:
                    out.append((g,))
                out.extend((g,) + rest for rest in tails(w))
            return tuple(out)

        return [RealizedNecklace(bs) for bs in sorted(tails(self.a))]

    # -- the poset relation ----------------------------------------------------

    def leq(self, u: RealizedNecklace, t: RealizedNecklace) -> bool:
        """True iff there is a necklace monomorphism u -> t over K."""
        if u == t:
            return True
        vu, vt = self._verts[u], self._verts[t]
        jt = self._joints[t]
        if not set(vu) <= set(vt) or not set(jt) <= set(self._joints[u]):
            return False
        return u == sub_necklace(self.K, t, self._joints[u], vu)

    def sub_necklace(self, t: RealizedNecklace, joints, verts) -> Optional[RealizedNecklace]:
        return sub_necklace(self.K, t, joints, verts)

    def morphisms(self) -> list[tuple[RealizedNecklace, RealizedNecklace]]:
        out = []
        for u in self.objects:
            for t in self.objects:
                if u != t and self.leq(u, t):
                    out.append((u, t))
        return out

    def bead_map(self, u: RealizedNecklace, t: RealizedNecklace) -> tuple[int, ...]:
        """For a mono u <= t, the bead of t containing each bead of u."""
        if not self.leq(u, t):
            raise SSetError("bead_map requires a monomorphism of necklaces")
        pos = {v: i for i, v in enumerate(self._verts[t])}
        tj = self._joints[t]
        out = []
        for bi in range(len(u.beads)):
            lo = pos[self._joints[u][bi]]
            hi = pos[self._joints[u][bi + 1]]
            for ti in range(len(t.beads)):
                if pos[tj[ti]] <= lo and hi <= pos[tj[ti + 1]]:
                    out.append(ti)
                    break
            else:
                raise SSetError("no containing bead")
        return tuple(out)


def enumerate_tnd(K: SSet, a: str, b: str) -> TndPoset:
    """The poset of totally non-degenerate necklaces of K from a to b."""
    return TndPoset(K, a, b)


def necklace_vertex_ids(K: SSet, t: RealizedNecklace) -> tuple[str, ...]:
    out: list[str] = []
    for g in t.beads:
        vs = K.vertices(nd(g))
        out.extend(vs if not out else vs[1:])
    return tuple(out)


def necklace_joint_ids(K: SSet, t: RealizedNecklace) -> tuple[str, ...]:
    out = [K.vertices(nd(t.beads[0]))[0]]
    for g in t.beads:
        out.append(K.vertices(nd(g))[-1])
    return tuple(out)


def sub_necklace(K: SSet, t: RealizedNecklace, joints, verts) -> Optional[RealizedNecklace]:
    """The face of a realized necklace with the given joint and vertex sets."""
    vt = necklace_vertex_ids(K, t)
    pos = {v: i for i, v in enumerate(vt)}
    if not set(verts) <= set(vt) or not set(joints) <= set(verts):
        return None
    tj = necklace_joint_ids(K, t)
    if not set(tj) <= set(joints):
        return None
    joints = sorted(set(joints), key=pos.get)
    verts = sorted(set(verts), key=pos.get)
    if len(joints) == 1:
        return RealizedNecklace((joints[0],))
    beads = []
    for r in range(len(joints) - 1):
        lo, hi = pos[joints[r]], pos[joints[r + 1]]
        seg = [v for v in verts if lo <= pos[v] <= hi]
        bead_idx = None
        for bi in range(len(t.beads)):
            blo, bhi = pos[tj[bi]], pos[tj[bi + 1]]
            if blo <= lo and hi <= bhi:
                bead_idx = bi
                break
        if bead_idx is None:
            return None
        g = t.beads[bead_idx]
        bvs = K.vertices(nd(g))
        bpos = {v: i for i, v in enumerate(bvs)}
        if not all(v in bpos for v in seg):
            return None
        face = K.act(nd(g), tuple(bpos[v] for v in seg))
        if face.word:
            return None
        beads.append(face.gen)
    real = [g for g in beads if K.gen_dim(g) > 0]
    if not real:
        real = [beads[0]]
    return RealizedNecklace(tuple(real))


# -- pair posets ---------------------------------------------------------------


class PairObject(NamedTuple):
    """A pair of vertex subsets {i, m+1} <= J <= V <= {i, ..., m+1}."""

    J: tuple[int, ...]
    V: tuple[int, ...]

    @staticmethod
    def of(J, V) -> "PairObject":
        return PairObject(tuple(sorted(set(J))), tuple(sorted(set(V))))


def pair_leq(p: PairObject, q: PairObject) -> bool:
    """Morphism p -> q iff V_p <= V_q and J_q <= J_p."""
    return set(p.V) <= set(q.V) and set(q.J) <= set(p.J)


class PairPoset:
    """The poset of pairs (J, V) with {i, m+1} in J in V in {i..m+1}."""

    def __init__(self, i: int, m: int):
        if not 0 <= i <= m:
            raise SSetError("pair poset needs 0 <= i <= m")
        self.i = i
        self.m = m
        objs = []
        inner = list(range(i + 1, m + 1))
        base = (i, m + 1)
        for smask in range(1 << len(inner)):
            S = [inner[t] for t in range(len(inner)) if smask >> t & 1]
            for jmask in range(1 << len(S)):
                J = [S[t] for t in range(len(S)) if jmask >> t & 1]
                objs.append(PairObject.of(base + tuple(J), base + tuple(S)))
        self.objects: tuple[PairObject, ...] = tuple(sorted(objs))

    def leq(self, p: PairObject, q: PairObject) -> bool:
        return pair_leq(p, q)

    def morphisms(self) -> list[tuple[PairObject, PairObject]]:
        return [(p, q) for p in self.objects for q in self.objects
                if p != q and pair_leq(p, q)]

    def top(self) -> PairObject:
        """The full bead Delta[m+1] from i: minimal joints, all vertices."""
        return PairObject.of((self.i, self.m + 1), range(self.i, self.m + 2))

    def sub_m(self) -> list[PairObject]:
        """The pairs with m among the joints."""
        return [p for p in self.objects if self.m in p.J]

    def beads(self, p: PairObject) -> list[tuple[int, ...]]:
        return [tuple(v for v in p.V if p.J[r] <= v <= p.J[r + 1])
                for r in range(len(p.J) - 1)]

    def last_bead(self, p: PairObject) -> tuple[int, ...]:
        return self.beads(p)[-1]


def plus_m(p: PairObject, m: int) -> PairObject:
    """(J, V) -> (J u {m}, V u {m}); the identity on pairs already containing m."""
    return PairObject.of(p.J + (m,), p.V + (m,))


def pair_of_necklace(poset: TndPoset, t: RealizedNecklace,
                     vertex_int: dict[str, int]) -> PairObject:
    return PairObject.of((vertex_int[v] for v in poset.joint_ids(t)),
                         (vertex_int[v] for v in poset.vertex_ids(t)))


class PairIso(NamedTuple):
    tnd: TndPoset
    pairs: PairPoset
    fwd: dict[RealizedNecklace, PairObject]
    bwd: dict[PairObject, RealizedNecklace]


def pair_poset_iso(i: int, m: int) -> PairIso:
    """The isomorphism between tnd necklaces of Delta[m+1] from i to m+1 and pairs."""
    from .shapes import simplex

    K = simplex(m + 1)
    tnd = TndPoset(K, str(i), str(m + 1))
    pairs = PairPoset(i, m)
    vertex_int = {str(v): v for v in range(m + 2)}
    fwd = {t: pair_of_necklace(tnd, t, vertex_int) for t in tnd.objects}
    if sorted(fwd.values()) != sorted(pairs.objects):
        raise SSetError("pair poset enumeration mismatch")
    bwd = {p: t for t, p in fwd.items()}
    return PairIso(tnd, pairs, fwd, bwd)


def necklaces_dot(poset, name: str = "necklaces") -> str:
    """DOT export; nodes named J|V."""
    lines = [f"digraph {name} {{"]
    if isinstance(poset, PairPoset):
        objs = poset.objects
        label = lambda p: ".".join(map(str, p.J)) + "|" + ".".join(map(str, p.V))
        leq = poset.leq
    else:
        objs = poset.objects
        label = lambda t: ".".join(poset.joint_ids(t)) + "|" + ".".join(poset.vertex_ids(t))
        leq = poset.leq
    for o in objs:
        lines.append(f'  "{label(o)}";')
    for u in objs:
        for t in objs:
            if u != t and leq(u, t):
                # only Hasse edges
                if not any(w != u and w != t and leq(u, w) and leq(w, t) for w in objs):
                    lines.append(f'  "{label(u)}" -> "{label(t)}";')
    lines.append("}")
    return "\n".join(lines)
