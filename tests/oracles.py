"""Independent brute-force oracles used to freeze expected values.

Everything here is computed by direct enumeration, never through the library's
own engines, so the values it produces can back the library's outputs.
"""

import itertools
from math import comb


def shuffle_count(p: int, q: int, n: int) -> int:
    """Non-degenerate n-simplices of Delta[p] x Delta[q] lying over the top cells:
    pairs of jointly surjective degeneracy words."""
    # choose the positions where each factor degenerates; they must be disjoint
    total = 0
    for u in itertools.combinations(range(n), n - p):
        for v in itertools.combinations(range(n), n - q):
            if not set(u) & set(v):
                total += 1
    return total


def product_nd_counts(counts_a, counts_b):
    """nd cell counts of a product from the factors' nd counts, via shuffles."""
    top = len(counts_a) + len(counts_b) - 2
    out = [0] * (top + 1)
    for p, na in enumerate(counts_a):
        for q, nb in enumerate(counts_b):
            for n in range(max(p, q), p + q + 1):
                out[n] += na * nb * shuffle_count(p, q, n)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pair_objects(i: int, m: int):
    """All (J, V) with {i, m+1} <= J <= V <= {i..m+1}, by direct enumeration."""
    inner = list(range(i + 1, m + 1))
    out = []
    for vmask in range(1 << len(inner)):
        V = frozenset([i, m + 1] + [inner[t] for t in range(len(inner)) if vmask >> t & 1])
        rest = sorted(V - {i, m + 1})
        for jmask in range(1 << len(rest)):
            J = frozenset([i, m + 1] + [rest[t] for t in range(len(rest)) if jmask >> t & 1])
            out.append((tuple(sorted(J)), tuple(sorted(V))))
    return sorted(set(out))


def chain_count(J, V, j: int, strict: bool) -> int:
    """Chains S_0 <= ... <= S_j in the interval [J, V]."""
    free = [v for v in V if v not in J]
    if strict:
        total = 0
        for times in itertools.product(range(0, j + 2), repeat=len(free)):
            chain = [frozenset(J) | {v for v, t in zip(free, times) if t <= r}
                     for r in range(j + 1)]
            if all(chain[r] < chain[r + 1] for r in range(j)):
                total += 1
        return total
    return (j + 2) ** len(free)


def boolean_top_cells(n_free: int) -> int:
    import math

    return math.factorial(n_free)


def interval_nerve_counts(J, V):
    """nd chain counts of the subset-interval nerve, degree by degree."""
    free = len(V) - len(J)
    return tuple(chain_count(J, V, j, strict=True) for j in range(free + 1))


def cube_chain_counts(k: int):
    """Strict chains S_0 < ... < S_j in the poset {0,1}^k of subsets of a
    k-set, counted by length j: the nd simplex counts of its nerve."""
    subsets = range(1 << k)
    counts = [0] * (k + 1)

    def extend(top: int, length: int) -> None:
        counts[length] += 1
        for s in subsets:
            if s != top and s & top == top:
                extend(s, length + 1)

    for s in subsets:
        extend(s, 0)
    return tuple(counts)
