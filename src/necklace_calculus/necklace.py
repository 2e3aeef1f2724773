"""Totally non-degenerate necklaces in a 1-ordered simplicial set, their
poset, and its pair-poset combinatorial model.

A totally non-degenerate necklace from a to b is a path of beads (Dugger and
Spivak): generators of dimension >= 1, each starting at the last vertex of
the one before; from a to a there is one, the point necklace, stored as the
vertex a.  A necklace is stored as its beads (RealizedNecklace), and
TndPoset.bead_dims gives its shape.  This module is the one home of that
model, for a simplicial set K here and for the level slices of a
bisimplicial set in `categorify`:
- `bead_table` lists the beads with their vertices, by first vertex;
- `fold_beads` is one pass over the vertices, each after its successors
  (`ops.post_order`), that folds a value along the bead paths: the necklace
  and bead counts of `necklace_count`, the longest weighted path of the hom
  bounds, and the beads at each vertex that lead to b;
- `bead_paths` lists the paths from a to b by one depth-first pass over the
  beads that lead to b, shared by every path through a vertex, so its time
  and memory grow with the total length of the paths listed; `TndPoset` and
  the hom spaces of `categorify` list their necklaces with it;
- `containing_beads` gives the bead of t containing each bead of u <= t from
  their joint positions, behind `TndPoset.bead_map` and the weights of
  `cubes`;
- `cut_bead` cuts one bead at new joints, keeping some of its vertices, by
  reading faces from the face table: `sub_necklace` cuts each bead of a
  necklace with it, and the hom spaces of `categorify` cut single beads of
  W along its horizontal faces.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, NamedTuple, Optional

from .ops import is_1_ordered, post_order
from .sset import GradedSet, SSet, SSetError, nd


class UnsupportedInput(SSetError):
    """Raised when an operation's structural precondition fails; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RealizedNecklace(NamedTuple):
    """A totally non-degenerate necklace in K: each bead is a generator of K."""

    beads: tuple[str, ...]


def _require_1_ordered(K: SSet) -> None:
    ok, wit = is_1_ordered(K)
    if not ok:
        raise UnsupportedInput(f"K is not 1-ordered ({wit.condition})", witness=wit)


def necklace_count(K: SSet, a: str, b: str) -> tuple[int, int]:
    """The number of totally non-degenerate necklaces of K from a to b, the
    objects of TndPoset(K, a, b), and of their beads in all (the point
    necklace of a == b has one), counted without listing them: from each
    vertex, sums over its beads of the counts from the bead's last vertex, a
    bead adding one to each necklace through it.  K must be 1-ordered, as for
    TndPoset."""
    _require_1_ordered(K)
    if a == b:
        return 1, 1
    counts = fold_beads(_simplex_beads(K), (a,), (b,), lambda end, steps: (
        end + sum(n for _, (n, _) in steps), sum(n + m for _, (n, m) in steps)))
    return counts.get(a, (0, 0))


# -- bead paths ------------------------------------------------------------------


class Bead(NamedTuple):
    """A generator of dimension m >= 1 (for a bisimplicial set, of horizontal
    degree m >= 1 and vertical degree k; k = 0 in a simplicial set), with its
    m + 1 vertices."""

    gen: str
    k: int
    verts: tuple[str, ...]


def bead_table(beads: Iterable[tuple[str, int, tuple[str, ...]]]) -> dict[str, list[Bead]]:
    """Bead(g, k, vertices) for each (g, k, vertices), by first vertex."""
    out: dict[str, list[Bead]] = {}
    for g, k, vs in beads:
        out.setdefault(vs[0], []).append(Bead(g, k, vs))
    return out


def _simplex_beads(K: SSet) -> dict[str, list[Bead]]:
    return bead_table((g, 0, K.vertices(nd(g))) for g in K.gens() if K.gen_dim(g))


def fold_beads(table: dict[str, list[Bead]], starts, ends, join) -> dict:
    """A value for each vertex reached from starts that has a bead path to a
    vertex of ends, in one pass over ops.post_order, each vertex after its
    successors: join(v in ends, [(bead, value at its last vertex) for each of
    v's beads to such a vertex]).  A loop is not followed; a directed cycle
    raises UnsupportedInput with a vertex on it."""
    order, cycle = post_order(lambda v: [bd.verts[-1] for bd in table.get(v, ())
                                         if bd.verts[-1] != v], starts)
    if cycle is not None:
        raise UnsupportedInput("the vertex order has a directed cycle", witness=cycle[0])
    acc: dict = {}
    for v in order:
        steps = [(bd, acc[bd.verts[-1]]) for bd in table.get(v, ()) if bd.verts[-1] in acc]
        if steps or v in ends:
            acc[v] = join(v in ends, steps)
    return acc


def bead_paths(table: dict[str, list[Bead]], a: str, b: str) -> Iterator[tuple[Bead, ...]]:
    """The bead paths from a to b != a, in table order.  The fold keeps at each
    vertex the beads that lead to b, shared by every path through it; one
    depth-first pass over them emits the paths, in time linear in their total
    length."""
    leads = fold_beads(table, (a,), (b,), lambda end, steps: [bd for bd, _ in steps])
    path: list[Bead] = []
    stack = [iter(leads.get(a, ()))]  # the beads to go at each step of the path
    while stack:
        bd = next(stack[-1], None)
        del path[len(stack) - 1:]
        if bd is None:
            stack.pop()
            continue
        path.append(bd)
        if bd.verts[-1] == b:
            yield tuple(path)
        stack.append(iter(leads[bd.verts[-1]]))


def containing_beads(inner, outer) -> tuple[int, ...]:
    """For necklaces u <= t given by their joint positions in ascending order,
    the bead of t containing each bead of u."""
    out = []
    for lo, hi in zip(inner, inner[1:]):
        ti = min(bisect.bisect_right(outer, lo), len(outer) - 1) - 1
        if ti < 0 or hi > outer[ti + 1]:
            raise SSetError("no containing bead")
        out.append(ti)
    return tuple(out)


class TndPoset:
    """The poset of totally non-degenerate necklaces of K from a to b."""

    def __init__(self, K: SSet, a: str, b: str):
        _require_1_ordered(K)
        if K.dim_bound < 0 or a not in K.by_dim[0] or b not in K.by_dim[0]:
            raise SSetError(f"endpoints {a!r}, {b!r} must be vertices of K")
        self.K = K
        self.a = a
        self.b = b
        self.objects: tuple[RealizedNecklace, ...] = tuple(self._enumerate())
        self._verts = {t: self.vertex_ids(t) for t in self.objects}
        self._joints = {t: self.joint_ids(t) for t in self.objects}

    # -- structure ----------------------------------------------------------

    def vertex_ids(self, t: RealizedNecklace) -> tuple[str, ...]:
        return necklace_vertex_ids(self.K, t)

    def joint_ids(self, t: RealizedNecklace) -> tuple[str, ...]:
        return necklace_joint_ids(self.K, t)

    def bead_dims(self, t: RealizedNecklace) -> tuple[int, ...]:
        """The dimension of each bead of t: all >= 1, or (0,) for the point necklace."""
        return tuple(self.K.gen_dim(g) for g in t.beads)

    # -- enumeration ----------------------------------------------------------

    def _enumerate(self) -> list[RealizedNecklace]:
        if self.a == self.b:
            return [RealizedNecklace((self.a,))]
        paths = bead_paths(_simplex_beads(self.K), self.a, self.b)
        return [RealizedNecklace(bs) for bs in sorted(tuple(bd.gen for bd in p) for p in paths)]

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
        return containing_beads([pos[v] for v in self._joints[u]],
                                [pos[v] for v in self._joints[t]])


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
    """The face of a realized necklace with the given joint and vertex sets.

    K is 1-ordered (as TndPoset and categorify require), so the vertices of t
    are distinct.  One pass over the beads' vertex tuples: each bead is cut
    by cut_bead at the new joints it contains, keeping the vertices in verts.
    None when the joints do not contain t's joints, when the vertices do not
    contain the joints, when a vertex lies off t, or when a piece is
    degenerate.
    """
    joints, verts = set(joints), set(verts)
    if not joints <= verts:
        return None
    beads = []
    found = 0  # kept vertices met so far, each shared joint counted once
    for bi, g in enumerate(t.beads):
        vs = K.vertices(nd(g))
        if vs[0] not in joints or vs[-1] not in joints:
            return None
        found += sum(map(verts.__contains__, vs)) - (1 if bi else 0)
        pieces = cut_bead(K, g, vs, joints, verts)
        if pieces is None:
            return None
        beads.extend(f.gen for f in pieces)
    if found != len(verts):
        return None
    return RealizedNecklace(tuple(beads) if beads else (t.beads[0],))


def cut_bead(K: GradedSet, g: str, vs: tuple[str, ...], joints, verts) -> Optional[tuple]:
    """Bead g, with vertices vs whose ends are in joints, cut at the vertices
    in joints and keeping those in verts: the faces of g on the kept positions
    from one joint to the next, as normal forms of K read from its face table
    along axis 0 (K a simplicial set, or a bisimplicial set cut horizontally);
    None when one is degenerate on that axis."""
    pieces, piece = [], [0]
    for p in range(1, len(vs)):
        v = vs[p]
        if v not in verts:
            continue
        piece.append(p)
        if v in joints:
            face = K._apply_mono(g, 0, tuple(piece))
            if face[0]:
                return None
            pieces.append(face)
            piece = [p]
    return tuple(pieces)


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
    """DOT export of a PairPoset or a TndPoset, Hasse edges only; nodes named J|V."""
    lines = [f"digraph {name} {{"]
    objs, leq = poset.objects, poset.leq
    if isinstance(poset, PairPoset):
        label = lambda p: ".".join(map(str, p.J)) + "|" + ".".join(map(str, p.V))
    else:
        label = lambda t: ".".join(poset.joint_ids(t)) + "|" + ".".join(poset.vertex_ids(t))
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
