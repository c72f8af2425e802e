from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schemeforge.digraph import (
    NegativeEntryError,
    UnreachablePairError,
    distance_structure,
    is_strongly_connected,
    underlying_digraph,
)
from schemeforge.matrix import MatrixPowerBasis, RationalMatrix

from oracles import add, adjacency_matrix, class_matrices, count_walks_dfs, identity, scaled, zeros


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
    g = underlying_digraph(scaled(Fraction(1, 5), RationalMatrix.ones(5)))
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
    ds = distance_structure(underlying_digraph(RationalMatrix.ones(n)))
    assert ds.diameter == 1


def test_fig2_distance_structure(fig2):
    ds = distance_structure(underlying_digraph(fig2))
    assert ds.diameter == 3
    sizes = [sum(row.count(i) for row in ds.dist) for i in range(ds.diameter + 1)]
    assert sizes == [6, 12, 12, 6]


def test_distance_structure_rejects_disconnected():
    with pytest.raises(UnreachablePairError):
        distance_structure([[1], []])


def test_distance_classes_partition_and_triangle_inequality(fig1, fig2):
    for b in (fig1, fig2):
        ds = distance_structure(underlying_digraph(b))
        n = b.order
        total = zeros(n)
        for a in class_matrices(ds.dist):
            total = add(total, a)
        assert total == RationalMatrix.ones(n)
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    assert ds.dist[x][z] <= ds.dist[x][y] + ds.dist[y][z]


def walk_count(adjacency, length):
    """Walks of the given length counted as a power of the adjacency matrix."""
    return MatrixPowerBasis(adjacency).power(length)


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
