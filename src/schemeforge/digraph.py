"""Digraphs underlying nonnegative matrices.

Strong connectivity, BFS distances and the diameter. The distance grid
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


class Digraph:
    """Vertex set 0..n-1 with integer arc multiplicities.

    Digraphs derived from a matrix's nonzero pattern are always 0/1 (loops
    allowed); multiplicities > 1 are accepted, so the powers of the
    adjacency grid also count walks in multigraphs.
    """

    __slots__ = ("order", "adjacency", "arc_count")

    def __init__(self, adjacency):
        grid = tuple(tuple(int(v) for v in row) for row in adjacency)
        n = len(grid)
        if n == 0:
            raise ValueError("digraph must have at least one vertex")
        for row in grid:
            if len(row) != n:
                raise ValueError("adjacency grid must be square")
            if any(v < 0 for v in row):
                raise ValueError("arc multiplicities must be nonnegative")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "adjacency", grid)
        object.__setattr__(self, "arc_count", sum(v for row in grid for v in row))

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    def successors(self, x: int) -> list[int]:
        return [y for y, v in enumerate(self.adjacency[x]) if v]


def underlying_digraph(b: RationalMatrix) -> Digraph:
    """0/1 digraph with an arc (x, y) exactly where the entry (x, y) > 0.

    The signs are read off b.ints, since b.den > 0.
    """
    n, ints = b.order, b.ints
    for k, v in enumerate(ints):
        if v < 0:
            raise NegativeEntryError(divmod(k, n))
    return Digraph([[1 if v > 0 else 0 for v in ints[i : i + n]] for i in range(0, n * n, n)])


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every ordered pair of vertices is joined by a directed path.

    Kosaraju-style double sweep: vertex 0 must reach everything along arcs
    and along reversed arcs.
    """
    n = g.order
    forward = [g.successors(x) for x in range(n)]
    backward: list[list[int]] = [[] for _ in range(n)]
    for x in range(n):
        for y in forward[x]:
            backward[y].append(x)
    for nbrs in (forward, backward):
        seen = [False] * n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            x = stack.pop()
            for y in nbrs[x]:
                if not seen[y]:
                    seen[y] = True
                    count += 1
                    stack.append(y)
        if count != n:
            return False
    return True


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


def distance_structure(g: Digraph) -> DistanceStructure:
    """BFS from every vertex; raises UnreachablePairError if any pair is unreachable."""
    n = g.order
    successors = [g.successors(x) for x in range(n)]
    grid: list[tuple[int, ...]] = []
    for x in range(n):
        row = _bfs_row(successors, x)
        for y, d in enumerate(row):
            if d is None:
                raise UnreachablePairError(f"no directed path from {x} to {y}")
        grid.append(tuple(row))  # type: ignore[arg-type]
    return DistanceStructure(dist=tuple(grid), diameter=max(max(row) for row in grid))
