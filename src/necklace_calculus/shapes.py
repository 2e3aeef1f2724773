"""Standard finite simplicial sets: simplices, boundaries, horns, spines."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import delta
from .sset import NF, SSet, SSetMap, SSetError, nd


def subset_id(s) -> str:
    return ".".join(map(str, sorted(s)))


def subset_complex(subsets) -> SSet:
    """The subcomplex of a standard simplex spanned by the given vertex subsets."""
    closed: set[tuple[int, ...]] = set()
    stack = [tuple(sorted(s)) for s in subsets]
    while stack:
        s = stack.pop()
        if s in closed or not s:
            continue
        closed.add(s)
        if len(s) > 1:
            stack.extend(s[:i] + s[i + 1:] for i in range(len(s)))
    gens = [(subset_id(s), len(s) - 1) for s in sorted(closed, key=lambda s: (len(s), s))]
    faces = {subset_id(s): tuple(NF((), subset_id(s[:i] + s[i + 1:])) for i in range(len(s)))
             for s in closed if len(s) > 1}
    return SSet(gens, faces, validate=False)


def simplex(m: int) -> SSet:
    if m < 0:
        raise SSetError("simplex dimension must be >= 0")
    return subset_complex(s for r in range(1, m + 2) for s in combinations(range(m + 1), r))


def boundary(m: int) -> SSet:
    if m < 0:
        raise SSetError("boundary dimension must be >= 0")
    return subset_complex(s for r in range(1, m + 1) for s in combinations(range(m + 1), r))


def horn(k: int, t: int) -> SSet:
    if k < 1 or not 0 <= t <= k:
        raise SSetError("horn requires k >= 1 and 0 <= t <= k")
    missing = tuple(v for v in range(k + 1) if v != t)
    subsets = [s for r in range(1, k + 1) for s in combinations(range(k + 1), r) if s != missing]
    return subset_complex(subsets)


def spine(m: int) -> SSet:
    if m < 0:
        raise SSetError("spine dimension must be >= 0")
    subsets = [(v,) for v in range(m + 1)] + [(v, v + 1) for v in range(m)]
    return subset_complex(subsets)


def point() -> SSet:
    return simplex(0)


def sub_inclusion(A: SSet, B: SSet) -> SSetMap:
    """Inclusion of one subset complex into another (matching generator ids)."""
    return SSetMap(A, B, {g: nd(g) for g in A.gens()})


@lru_cache(maxsize=16)
def _shared_simplex(m: int) -> SSet:
    """Delta[m], built once per dimension for simplex_operator; the 16 most
    recent dimensions are kept."""
    return simplex(m)


def simplex_operator(mu: delta.Monotone, n: int) -> SSetMap:
    """The map of standard simplices induced by mu: [m] -> [n].  Its source
    and target are shared by every map out of Delta[m] and into Delta[n]."""
    m = len(mu) - 1
    src, dst = _shared_simplex(m), _shared_simplex(n)
    top = nd(subset_id(range(n + 1)))
    assign = {}
    for g in src.gens():
        vs = tuple(int(v) for v in g.split("."))
        assign[g] = dst.act(top, delta.compose(mu, vs))
    return SSetMap(src, dst, assign, validate=False)
