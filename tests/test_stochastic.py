from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from schemeforge.digraph import is_strongly_connected, underlying_digraph
from schemeforge.hoffman import hoffman_polynomial
from schemeforge.matrix import RationalMatrix
from schemeforge.predistance import predistance_basis
from schemeforge.scheme import detect_scheme
from schemeforge.stochastic import (
    HYPOTHESIS_MESSAGES,
    HypothesisError,
    RejectionCode,
    classify,
    entry_decomposition,
    random_lambda_ds,
)

from conftest import load_fixture
from oracles import algebra_membership, all_ones, identity, naive_mat_mul, oracle_classification, reconstruct


def test_classify_fig1(fig1):
    cls = classify(fig1)
    assert cls.nonnegative
    assert cls.lam == 1
    assert cls.irreducible
    assert not cls.normal
    assert cls.hoffman_ready


def test_classify_fig2(fig2):
    cls = classify(fig2)
    assert cls.nonnegative and cls.normal and cls.irreducible
    assert cls.lam == 1


def test_classify_swap_permutation():
    cls = classify(RationalMatrix([[0, 1], [1, 0]]))
    assert cls.lam == 1 and cls.normal and cls.irreducible


def test_classify_negative_matrix():
    cls = classify(RationalMatrix([[0, -1], [-1, 0]]))
    assert not cls.nonnegative
    assert cls.lam is None
    assert not cls.doubly_stochastic


def test_classify_unequal_line_sums():
    cls = classify(RationalMatrix([[1, 0], [1, 1]]))
    assert cls.nonnegative and cls.lam is None


def test_classify_zero_one_by_one():
    cls = classify(RationalMatrix([[0]]))
    assert cls.lam == 0 and cls.irreducible
    assert not cls.hoffman_ready


@pytest.mark.parametrize(
    "grid, first",
    [
        ([[-1, 0], [0, -1]], RejectionCode.NOT_NONNEGATIVE),  # also reducible
        ([[0, -1], [2, 0]], RejectionCode.NOT_NONNEGATIVE),  # also no line sum, not normal
        ([[1, 0], [1, 1]], RejectionCode.NOT_IRREDUCIBLE),  # also no common line sum
        ([[0, 1], [2, 0]], RejectionCode.NOT_DOUBLY_STOCHASTIC),  # also not normal
        ([[0]], RejectionCode.LAMBDA_ZERO),
        ("fig1.mat", RejectionCode.NOT_NORMAL),  # the Hoffman gate skips normality
    ],
)
def test_every_stage_reports_the_gates_first_failure(grid, first):
    b = load_fixture(grid) if isinstance(grid, str) else RationalMatrix(grid)
    assert classify(b).failed_hypothesis() is first
    assert detect_scheme(b).reason.code is first
    with pytest.raises(HypothesisError) as excinfo:
        predistance_basis(b)
    assert excinfo.value.code is first
    assert excinfo.value.hypothesis == HYPOTHESIS_MESSAGES[first]
    if first is RejectionCode.NOT_NORMAL:
        assert classify(b).failed_hypothesis(require_normal=False) is None
        assert hoffman_polynomial(b).lam == 1
    else:
        with pytest.raises(HypothesisError) as excinfo:
            hoffman_polynomial(b)
        assert excinfo.value.code is first
        assert excinfo.value.hypothesis == HYPOTHESIS_MESSAGES[first]


# entries past 2^63, negative ones and zeros, over mixed denominators
classify_entries = st.one_of(
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 4))),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.sampled_from((1, 3, 7, 2**64 + 1))),
)


@st.composite
def classify_grids(draw):
    """Random and symmetric grids, and sums of scaled permutation matrices,
    whose line sums all equal the sum of the scales: zero when they cancel."""
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(("random", "symmetric", "permutations")))
    if kind == "permutations":
        grid = [[Fraction(0)] * n for _ in range(n)]
        scales = draw(st.lists(classify_entries, min_size=1, max_size=3))
        if draw(st.booleans()):
            scales.append(-sum(scales))
        for c in scales:
            image = draw(st.permutations(range(n)))
            for x in range(n):
                grid[x][image[x]] += c
        return grid
    grid = draw(st.lists(st.lists(classify_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "symmetric":
        grid = [[grid[x][y] + grid[y][x] for y in range(n)] for x in range(n)]
    return grid


@given(classify_grids())
@settings(max_examples=200, deadline=None)
def test_classify_matches_fraction_oracle(grid):
    cls = classify(RationalMatrix(grid))
    assert (cls.nonnegative, cls.lam, cls.normal) == oracle_classification(grid)


def test_irreducibility_matches_digraph_connectivity(fig1, fig2):
    for b in (fig1, fig2, identity(3), all_ones(4)):
        assert classify(b).irreducible == is_strongly_connected(underlying_digraph(b))


@st.composite
def sparse_grids(draw):
    """Grids of order at most 6, mostly zero, with negative entries and up to
    two rows and two columns zeroed out."""
    n = draw(st.integers(min_value=1, max_value=6))
    entries = st.sampled_from((0, 0, 0, 1, 2, -1, Fraction(1, 3)))
    grid = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    for x in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        grid[x] = [0] * n
    for y in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in grid:
            row[y] = 0
    return grid


@given(sparse_grids())
@settings(max_examples=200, deadline=None)
def test_irreducibility_matches_positive_power_of_pattern(grid):
    # B is irreducible iff (I + P)^(n - 1) is entrywise positive, P the nonzero pattern of B
    n = len(grid)
    step = [[int(x == y or v != 0) for y, v in enumerate(row)] for x, row in enumerate(grid)]
    power = [[int(x == y) for y in range(n)] for x in range(n)]
    for _ in range(n - 1):
        power = naive_mat_mul(power, step)
    assert classify(RationalMatrix(grid)).irreducible == all(v > 0 for row in power for v in row)


@given(st.one_of(classify_grids(), sparse_grids()).map(lambda grid: [[abs(v) for v in row] for row in grid]))
@settings(max_examples=60, deadline=None)
def test_theorem_1_allones_in_the_algebra_exactly_when_hoffman_ready(grid):
    # Theorem 1 on nonnegative B: J in span{I, B, ..., B^(n-1)} iff B is
    # lambda-doubly stochastic and irreducible. The 1 x 1 zero matrix is the
    # one divergence: h(t) = 1 gives h(B) = J, yet the gate rejects it with
    # LAMBDA_ZERO, as test_stochastic.py:68 (test_every_stage_reports_the_gates_first_failure)
    # and test_scheme.py:127 (test_rejection_lambda_zero) pin.
    assume(grid != [[0]])
    b = RationalMatrix(grid)
    n = b.order
    member = algebra_membership(all_ones(n), b, degree=n - 1)
    assert (member is not None) == classify(b).hoffman_ready


def test_entry_decomposition_fig2(fig2):
    decomposition = entry_decomposition(fig2)
    assert decomposition.coefficients == (Fraction(1, 4), Fraction(1, 2))
    assert decomposition.indicators[1] == identity(6)
    off_diagonal_support = sum(
        1 for row in decomposition.indicators[0].rows for v in row if v
    )
    assert off_diagonal_support == 12
    assert reconstruct(decomposition, 6) == fig2


def test_entry_decomposition_allones():
    j = all_ones(3)
    decomposition = entry_decomposition(j)
    assert decomposition.coefficients == (Fraction(1),)
    assert decomposition.indicators == (j,)


def test_entry_decomposition_fig1(fig1):
    decomposition = entry_decomposition(fig1)
    assert decomposition.coefficients == (Fraction(1, 3), Fraction(2, 3), Fraction(1))
    support_sizes = [
        sum(1 for row in f.rows for v in row if v) for f in decomposition.indicators
    ]
    # 16 nonzero positions split over the three values
    assert support_sizes == [10, 4, 2]
    assert reconstruct(decomposition, 8) == fig1


def test_entry_decomposition_rejects_negative():
    with pytest.raises(ValueError):
        entry_decomposition(RationalMatrix([[1, -1], [0, 1]]))


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(
                st.fractions(min_value=Fraction(0), max_value=Fraction(5), max_denominator=6),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
)
@settings(max_examples=50, deadline=None)
def test_entry_decomposition_reconstructs(grid):
    b = RationalMatrix(grid)
    decomposition = entry_decomposition(b)
    assert reconstruct(decomposition, b.order) == b
    assert list(decomposition.coefficients) == sorted(set(decomposition.coefficients))
    assert all(c > 0 for c in decomposition.coefficients)
    for i, fi in enumerate(decomposition.indicators):
        for j in range(i + 1, len(decomposition.indicators)):
            fj = decomposition.indicators[j]
            assert all(
                a * b_ == 0 for ra, rb in zip(fi.rows, fj.rows) for a, b_ in zip(ra, rb)
            )


def test_random_generator_one_by_one():
    b = random_lambda_ds(1, 1, seed=3)
    assert b.order == 1
    assert b[0][0] > 0


@pytest.mark.parametrize("seed", range(8))
def test_random_generator_outputs_are_lambda_ds(seed):
    b = random_lambda_ds(5, 3, seed=seed)
    cls = classify(b)
    assert cls.nonnegative
    assert cls.lam is not None and cls.lam > 0


def test_random_generator_single_term_is_scaled_permutation():
    b = random_lambda_ds(6, 1, seed=11)
    values = {v for row in b.rows for v in row if v != 0}
    assert len(values) == 1
    assert all(sum(1 for v in row if v) == 1 for row in b.rows)
    assert classify(b).normal


def test_random_generator_deterministic_under_seed():
    assert random_lambda_ds(7, 4, seed=42) == random_lambda_ds(7, 4, seed=42)
    assert random_lambda_ds(7, 4, seed=42) != random_lambda_ds(7, 4, seed=43)


def test_random_generator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_lambda_ds(0, 1, seed=0)
    with pytest.raises(ValueError):
        random_lambda_ds(3, 0, seed=0)
