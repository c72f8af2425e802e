"""Digraphs underlying nonnegative matrices.

A digraph on the vertices 0..n-1 is its successor lists: successors[x]
lists every y with an arc (x, y). One BFS (`_bfs_row`) decides strong
connectivity and gives the distances and the diameter. The distance grid
dist[x][y] is the one form of the distance classes: the distance-i matrix
A_i is its level set {(x, y) : dist[x][y] = i}, so no class matrix is
built. Distances are plain ints; an unreachable pair is a sentinel (None)
during the BFS, never infinity arithmetic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .matrix import RationalMatrix


class NegativeEntryError(ValueError):
    """A matrix handed to underlying_digraph had a negative entry."""

    def __init__(self, position: tuple[int, int]):
        self.position = position
        super().__init__(f"negative entry at position {position}")


class UnreachablePairError(ValueError):
    """Distance structure requested for a digraph that is not strongly connected."""


def underlying_digraph(b: RationalMatrix) -> list[list[int]]:
    """Successor lists of the digraph with an arc (x, y) exactly where the entry (x, y) > 0.

    The signs are read off b.ints, since b.den > 0.
    """
    n, ints = b.order, b.ints
    for k, v in enumerate(ints):
        if v < 0:
            raise NegativeEntryError(divmod(k, n))
    return [[y for y, v in enumerate(ints[i : i + n]) if v] for i in range(0, n * n, n)]


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
    """All-pairs BFS distances of a strongly connected digraph.

    dist is the label grid of the distance classes: (x, y) lies in class
    dist[x][y], every label 0..diameter labels some pair, and label 0
    labels exactly the diagonal.
    """

    dist: tuple[tuple[int, ...], ...]
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


def distance_structure(successors: list[list[int]]) -> DistanceStructure:
    """BFS from every vertex; raises UnreachablePairError if any pair is unreachable."""
    grid: list[tuple[int, ...]] = []
    for x in range(len(successors)):
        row = _bfs_row(successors, x)
        for y, d in enumerate(row):
            if d is None:
                raise UnreachablePairError(f"no directed path from {x} to {y}")
        grid.append(tuple(row))  # type: ignore[arg-type]
    return DistanceStructure(dist=tuple(grid), diameter=max(max(row) for row in grid))
