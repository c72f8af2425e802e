from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schemeforge import digraph
from schemeforge.digraph import (
    NegativeEntryError,
    UnreachablePairError,
    distance_structure,
    is_strongly_connected,
    underlying_digraph,
)
from schemeforge.exact import Polynomial
from schemeforge.matrix import MatrixPowerBasis, RationalMatrix

from oracles import (
    add,
    adjacency_matrix,
    all_ones,
    bfs_distances,
    class_matrices,
    count_walks_dfs,
    identity,
    scaled,
    zeros,
)


def directed_cycle(n):
    return [[(x + 1) % n] for x in range(n)]


def test_underlying_digraph_of_fig2(fig2):
    g = underlying_digraph(fig2)
    loops = sum(x in g[x] for x in range(6))
    assert loops == 6
    assert sum(map(len, g)) - loops == 12


def test_underlying_digraph_of_identity():
    assert underlying_digraph(identity(4)) == [[x] for x in range(4)]


def test_underlying_digraph_of_scaled_allones():
    g = underlying_digraph(scaled(Fraction(1, 5), all_ones(5)))
    assert g == [list(range(5))] * 5


def test_underlying_digraph_names_negative_entry():
    b = RationalMatrix([[0, 1], [Fraction(-1, 2), 0]])
    with pytest.raises(NegativeEntryError) as excinfo:
        underlying_digraph(b)
    assert excinfo.value.position == (1, 0)


def test_cycle_is_strongly_connected():
    assert is_strongly_connected(directed_cycle(6))


def test_disjoint_cycles_are_not_strongly_connected():
    assert not is_strongly_connected([[1], [0], [3], [2]])


def test_fig1_digraph_is_strongly_connected(fig1):
    assert is_strongly_connected(underlying_digraph(fig1))


def test_one_vertex_no_loop_is_strongly_connected():
    assert is_strongly_connected([[]])


def test_cycle_distance_structure():
    n = 5
    ds = distance_structure(directed_cycle(n))
    assert ds.diameter == n - 1
    classes = class_matrices(ds.dist)
    for i in range(n):
        shift = RationalMatrix(
            [[1 if y == (x + i) % n else 0 for y in range(n)] for x in range(n)]
        )
        assert classes[i] == shift


def test_complete_with_loops_has_diameter_one():
    n = 4
    ds = distance_structure(underlying_digraph(all_ones(n)))
    assert ds.diameter == 1


def test_fig2_distance_structure(fig2):
    ds = distance_structure(underlying_digraph(fig2))
    assert ds.diameter == 3
    sizes = [sum(row.count(i) for row in ds.dist.tolist()) for i in range(ds.diameter + 1)]
    assert sizes == [6, 12, 12, 6]


def test_distance_structure_rejects_disconnected():
    with pytest.raises(UnreachablePairError):
        distance_structure([[1], []])


def frontier_outcome(successors):
    """(dist as lists, diameter) from the frontier pass, or its UnreachablePairError's message."""
    try:
        ds = distance_structure(successors)
    except UnreachablePairError as exc:
        return str(exc)
    return ds.dist.tolist(), ds.diameter


@pytest.mark.parametrize(
    "successors",
    [
        [[]],
        [[0]],
        [[1], [0], [0]],
        [[1], [2], [1]],
        [[1], [0, 3], [1], [0]],
        [[1], [0], [3], [2]],
        [[], [0]],
        [[1], [], [0]],
        [[1], []],
    ],
    ids=[
        "one-vertex",
        "one-loop",
        "last-has-no-in-arc",
        "first-has-no-in-arc",
        "middle-has-no-in-arc",
        "two-components",
        "first-is-a-sink",
        "middle-is-a-sink",
        "last-is-a-sink",
    ],
)
def test_distance_structure_edge_cases_match_bfs(successors):
    # a sink (no arc out) reads the empty sentinel row wherever its segment
    # falls, a vertex with no arc in is never reached, and the error names the
    # BFS's first row-major unreachable pair
    assert frontier_outcome(successors) == bfs_distances(successors)


def test_distance_structure_is_one_read_only_int_array():
    dist = distance_structure(directed_cycle(70)).dist
    assert dist.shape == (70, 70) and dist.dtype == np.int64
    with pytest.raises(ValueError):
        dist[0, 0] = 1


def test_distance_structure_in_blocks_of_words_matches_bfs(monkeypatch):
    # with no gather budget the successors' bitsets are taken one word at a
    # time: the bitsets of 150 vertices span three words
    monkeypatch.setattr(digraph, "STACK_BYTES", 0)
    n = 150
    successors = [sorted({(x + 1) % n, 7 * x % n}) for x in range(n)]
    assert frontier_outcome(successors) == bfs_distances(successors)


@st.composite
def digraphs(draw):
    """Successor lists on 1..140 vertices, so the bitsets span up to three words:
    random arcs and, in half the draws, a spanning cycle through a random order
    of the vertices, which makes the digraph strongly connected."""
    n = draw(st.integers(1, 140))
    vertex = st.integers(0, n - 1)
    arcs = set(draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        arcs |= set(zip(order, order[1:] + order[:1]))
    return [sorted(y for tail, y in arcs if tail == x) for x in range(n)]


@given(digraphs())
@settings(max_examples=100, deadline=None)
def test_distance_structure_matches_bfs(successors):
    assert frontier_outcome(successors) == bfs_distances(successors)


def test_distance_classes_partition_and_triangle_inequality(fig1, fig2):
    for b in (fig1, fig2):
        ds = distance_structure(underlying_digraph(b))
        n = b.order
        total = zeros(n)
        for a in class_matrices(ds.dist):
            total = add(total, a)
        assert total == all_ones(n)
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    assert ds.dist[x][z] <= ds.dist[x][y] + ds.dist[y][z]


def walk_count(adjacency, length):
    """Walks of the given length counted as a power of the adjacency matrix, p(A) for p = t^length."""
    return MatrixPowerBasis(adjacency).evaluate(Polynomial([0] * length + [1]))


def test_walk_count_length_one_is_adjacency():
    a = adjacency_matrix(directed_cycle(4))
    assert walk_count(a, 1) == a


def test_walk_count_cycle_returns_home():
    assert walk_count(adjacency_matrix(directed_cycle(3)), 3) == identity(3)


@given(st.integers(min_value=0, max_value=2**25 - 1))
@settings(max_examples=25, deadline=None)
def test_walk_count_matches_exhaustive_enumeration(bits):
    # 5-vertex digraph decoded from the bits of the draw
    n = 5
    adjacency = [[(bits >> (x * n + y)) & 1 for y in range(n)] for x in range(n)]
    for length in (1, 2, 3, 4):
        counted = walk_count(RationalMatrix(adjacency), length)
        for x in range(n):
            for y in range(n):
                assert counted[x][y] == count_walks_dfs(adjacency, x, y, length)


def test_walk_count_supports_multiple_arcs():
    a = RationalMatrix([[0, 2], [1, 0]])
    assert walk_count(a, 2) == RationalMatrix([[2, 0], [0, 2]])
    assert walk_count(a, 2)[0][0] == count_walks_dfs([[0, 2], [1, 0]], 0, 0, 2)


@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(
                st.fractions(min_value=Fraction(0), max_value=Fraction(3), max_denominator=4),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=30, deadline=None)
def test_nonzero_pattern_equivalence(grid):
    b = RationalMatrix(grid)
    a = adjacency_matrix(underlying_digraph(b))
    power_b = b
    power_a = a
    for _ in range(b.order):
        for x in range(b.order):
            for y in range(b.order):
                assert (power_b[x][y] != 0) == (power_a[x][y] != 0)
        power_b = power_b @ b
        power_a = power_a @ a
