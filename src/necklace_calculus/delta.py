"""Monotone maps in the simplex category and Eilenberg-Zilber word arithmetic.

A monotone map mu: [a] -> [b] is stored as the tuple (mu(0), ..., mu(a)).
Degeneracy words are strictly decreasing tuples (i_1 > ... > i_p); the word
w applied to a simplex x means s_{i_1} s_{i_2} ... s_{i_p} x.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import le
from typing import Optional

Monotone = tuple[int, ...]
Word = tuple[int, ...]


@lru_cache(maxsize=1 << 14)
def identity(m: int) -> Monotone:
    return tuple(range(m + 1))


@lru_cache(maxsize=1 << 14)
def coface(i: int, m: int) -> Monotone:
    """delta^i: [m-1] -> [m], skipping i."""
    return tuple(j for j in range(m + 1) if j != i)


def coface_index(mu: Monotone) -> Optional[int]:
    """i when mu is the coface delta^i: [m-1] -> [m] for m = len(mu), else None."""
    m = len(mu)
    i = next((p for p, v in enumerate(mu) if v != p), m)
    return i if mu == coface(i, m) else None


@lru_cache(maxsize=1 << 14)
def codegeneracy(i: int, m: int) -> Monotone:
    """sigma^i: [m+1] -> [m], hitting i twice."""
    return tuple(j if j <= i else j - 1 for j in range(m + 2))


def compose(outer: Monotone, inner: Monotone) -> Monotone:
    """outer after inner."""
    return tuple(outer[v] for v in inner)


def is_monotone(mu: Monotone, target_dim: int) -> bool:
    """Whether mu is non-decreasing, from at least 0 to at most target_dim."""
    return not mu or (0 <= mu[0] and mu[-1] <= target_dim and all(map(le, mu, mu[1:])))


def is_mono(mu: Monotone) -> bool:
    return all(mu[i] < mu[i + 1] for i in range(len(mu) - 1))


@lru_cache(maxsize=1 << 14)
def word_to_epi(word: Word, m: int) -> Monotone:
    """The epi [m] ->> [m - len(word)] named by a strictly decreasing word."""
    mu = identity(m)
    d = m
    for i in word:
        mu = compose(codegeneracy(i, d - 1), mu)
        d -= 1
    return mu


def epi_to_word(epi: Monotone) -> Word:
    """Inverse of word_to_epi; positions where the epi repeats, descending."""
    return tuple(sorted((j for j in range(len(epi) - 1) if epi[j] == epi[j + 1]), reverse=True))


def strip_word(word: Word, common) -> Word:
    """The word w' with s_word = s_common s_w', for common a subset of word's
    indices (Eilenberg-Zilber): the indices of common dropped, each other
    index shifted down by the members of common below it."""
    return tuple(j - sum(c < j for c in common) for j in word if j not in common)


@lru_cache(maxsize=1 << 14)
def factor(mu: Monotone) -> tuple[Word, Monotone]:
    """Epi-mono factorization: mu = mono . epi, returned as (word, mono)."""
    image = sorted(set(mu))
    rank = {v: r for r, v in enumerate(image)}
    epi = tuple(rank[v] for v in mu)
    return epi_to_word(epi), tuple(image)


@lru_cache(maxsize=1 << 14)
def face_of_word(word: Word, m: int, r: int) -> tuple[Word, Optional[int]]:
    """d_r of s_word x, for x of dimension m - len(word), as s_word' d_i x.

    Returns (word', i), with i None when d_r cancels a degeneracy of the word
    (r or r - 1 in it) and the face is s_word' x.  By the simplicial
    identities: indices below r stay, those above r drop by one, and i is r
    less the indices below it.  The cache is bounded; a miss costs one pass
    over the word.
    """
    lo = tuple(w for w in word if w < r)
    hi = tuple(w - 1 for w in word if w > r)
    if r in word:
        return hi + lo, None
    if r - 1 in word:
        return hi + lo[1:], None  # lo descends from r - 1
    return hi + lo, r - len(lo)


@lru_cache(maxsize=1 << 14)
def merge_words(outer: Word, inner: Word, inner_top_dim: int) -> Word:
    """Word for s_outer(s_inner(x)) where s_inner(x) has dimension inner_top_dim.

    In closed form, with no monotone map built: the epi of the composite
    repeats at j when the outer epi does (j in outer), or when it sends j
    and j + 1 to i and i + 1 for i in inner.  The second j is the i-th
    index not in outer, so each inner index is lifted past the outer
    indices at or below it."""
    if not outer:
        return inner
    if not inner:
        return outer
    up = outer[::-1]  # ascending
    lifted = []
    shift = 0
    for i in reversed(inner):  # ascending
        while shift < len(up) and up[shift] <= i + shift:
            shift += 1
        lifted.append(i + shift)
    return tuple(sorted(lifted + list(outer), reverse=True))


@lru_cache(maxsize=1 << 14)
def all_words(p: int, top_dim: int) -> list[Word]:
    """All strictly decreasing degeneracy words of length p landing in dim top_dim."""
    return [tuple(sorted(c, reverse=True)) for c in combinations(range(top_dim), p)]
