"""Digraphs underlying nonnegative matrices.

A digraph on the vertices 0..n-1 is its successor lists: successors[x]
lists every y with an arc (x, y). One BFS (`_bfs_row`) from vertex 0,
along the arcs and along the reversed arcs, decides strong connectivity.
The distances come from one frontier pass for all sources at once
(`distance_structure`): each vertex x holds the bitset of the vertices at
the current distance from x, in ceil(n / 64) uint64 words, and a step ORs
the bitsets of x's successors and masks off the vertices x reached
before. D steps of arcs * ceil(n / 64) word operations give every
distance, with no per-source loop in Python. The distance grid dist[x][y],
one read-only int64 array, is the one form of the distance classes: the
distance-i matrix A_i is its level set {(x, y) : dist[x][y] = i}, so no
class matrix is built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Optional

import numpy as np

from .matrix import STACK_BYTES, RationalMatrix


class NegativeEntryError(ValueError):
    """A matrix handed to underlying_digraph had a negative entry."""

    def __init__(self, position: tuple[int, int]):
        self.position = position
        super().__init__(f"negative entry at position {position}")


class UnreachablePairError(ValueError):
    """Distance structure requested for a digraph that is not strongly connected."""


def successor_lists(entries: np.ndarray) -> list[list[int]]:
    """Successor lists of the digraph with an arc (x, y) exactly where entries[x, y] != 0."""
    xs, ys = np.nonzero(entries)
    ends = np.searchsorted(xs, np.arange(len(entries) + 1)).tolist()
    ys = ys.tolist()
    return [ys[lo:hi] for lo, hi in zip(ends, ends[1:])]


def first_negative(entries: np.ndarray) -> Optional[tuple[int, int]]:
    """The position of the first negative entry in row-major order, or None."""
    negative = (entries < 0).ravel()
    return divmod(int(negative.argmax()), len(entries)) if negative.any() else None


def underlying_digraph(b: RationalMatrix) -> list[list[int]]:
    """Successor lists of the digraph with an arc (x, y) exactly where the entry (x, y) > 0.

    The signs are read off C, since B = s C with s > 0.
    """
    position = first_negative(b.entries)
    if position is not None:
        raise NegativeEntryError(position)
    return successor_lists(b.entries)


def is_strongly_connected(successors: list[list[int]]) -> bool:
    """True iff every ordered pair of vertices is joined by a directed path.

    Vertex 0 must reach everything along the arcs and along the reversed
    arcs: one BFS over each.
    """
    predecessors: list[list[int]] = [[] for _ in successors]
    for x, ys in enumerate(successors):
        for y in ys:
            predecessors[y].append(x)
    return all(None not in _bfs_row(arcs, 0) for arcs in (successors, predecessors))


@dataclass(frozen=True)
class DistanceStructure:
    """All-pairs distances of a strongly connected digraph.

    dist is the label grid of the distance classes, an n x n read-only int64
    array: (x, y) lies in class dist[x, y], every label 0..diameter labels
    some pair, and label 0 labels exactly the diagonal.
    """

    dist: np.ndarray
    diameter: int


def _bfs_row(successors: list[list[int]], source: int) -> list[Optional[int]]:
    dist: list[Optional[int]] = [None] * len(successors)
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in successors[x]:
            if dist[y] is None:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _bitsets(rows: np.ndarray) -> np.ndarray:
    """Rows of an m x n bool array as bitsets: m rows of ceil(n / 64)
    little-endian uint64 words, column t at bit t % 64 of word t // 64."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    octets = np.zeros((len(rows), -(-rows.shape[1] // 64) * 8), dtype=np.uint8)
    octets[:, : packed.shape[1]] = packed
    return octets.view("<u8")


def _members(bitsets: np.ndarray, n: int) -> np.ndarray:
    """The bitsets of n columns as an m x n bool array, inverting `_bitsets`."""
    return np.unpackbits(bitsets.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def distance_structure(successors: list[list[int]]) -> DistanceStructure:
    """Distances from every vertex in one frontier pass; raises
    UnreachablePairError, naming the first row-major pair, if any pair is
    unreachable.

    After step k, frontier[x] is the bitset of the vertices at distance k
    from x and unseen[x] of those farther away. As dist(x, y) = 1 + min
    dist(z, y) over the successors z of x, step k + 1 ORs the frontiers of
    x's successors (one `np.bitwise_or.reduceat` over the successor lists,
    which come grouped by x) and keeps the vertices still unseen. `reduceat`
    takes an empty segment as its next element, not as zero, so a vertex
    with no arc reads the sentinel row n, whose bitset stays empty. The
    gather of the successors' bitsets runs in blocks of words of at most
    STACK_BYTES.
    """
    n = len(successors)
    rows = [ys or [n] for ys in successors]
    heads = np.fromiter(chain.from_iterable(rows), dtype=np.intp)
    starts = np.fromiter(accumulate(map(len, rows[:-1]), initial=0), dtype=np.intp, count=n)
    block = max(1, STACK_BYTES // (8 * len(heads)))
    frontier = _bitsets(np.eye(n + 1, n, dtype=bool))
    unseen = _bitsets(~np.eye(n, dtype=bool))
    dist = np.zeros((n, n), dtype=np.int64)
    diameter = 0
    while True:
        # each block's gather is a copy, taken before the reduction overwrites its words
        for lo in range(0, frontier.shape[1], block):
            cols = slice(lo, lo + block)
            np.bitwise_or.reduceat(frontier[heads, cols], starts, out=frontier[:n, cols])
        reached = frontier[:n]
        reached &= unseen
        if not reached.any():
            break
        diameter += 1
        unseen ^= reached
        dist[_members(reached, n)] = diameter
    if unseen.any():
        x, y = divmod(int(_members(unseen, n).argmax()), n)
        raise UnreachablePairError(f"no directed path from {x} to {y}")
    dist.flags.writeable = False
    return DistanceStructure(dist=dist, diameter=diameter)
