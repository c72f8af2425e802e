import gc
import weakref
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schemeforge import matrix
from schemeforge.cli import run_command
from schemeforge.exact import Polynomial
from schemeforge.io import serialize_matrix
from schemeforge.matrix import (
    MatrixOrderError,
    MatrixPowerBasis,
    RationalMatrix,
    integer_product,
    solve_rational_system,
    trace_inner_product,
)

from conftest import load_fixture
from oracles import (
    add,
    algebra_membership,
    flat,
    identity,
    is_zero,
    naive_mat_mul,
    naive_poly_at,
    scaled,
    trace_form_inner,
    zeros,
)

rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
)


def square_grids(max_n=4, elements=rationals):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


# negative entries, zeros and mixed coprime denominators, plus all-integer
# rows whose cleared denominator is 1
mixed_entries = st.builds(
    Fraction, st.integers(-20, 20), st.sampled_from((1, 2, 3, 4, 5, 7, 9, 11, 12))
)
integer_entries = st.integers(-20, 20).map(Fraction)


def mixed_grid(n):
    row = st.one_of(
        st.lists(mixed_entries, min_size=n, max_size=n),
        st.lists(integer_entries, min_size=n, max_size=n),
    )
    return st.lists(row, min_size=n, max_size=n)


# numerators past 2^64 and denominators past 2^40, so the cleared rows and
# columns of a product overflow int64 and take the object-array path
huge_entries = st.builds(
    Fraction,
    st.integers(-(2**70), 2**70),
    st.sampled_from((1, 3, 2**40 + 15, 10**15 + 37)),
)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.one_of(
                mixed_grid(n),
                st.lists(st.lists(huge_entries, min_size=n, max_size=n), min_size=n, max_size=n),
            ),
            mixed_grid(n),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_matmul_matches_naive_product(grids):
    a, b = grids
    grid = lambda m: [list(row) for row in m.rows]
    ma, mb = RationalMatrix(a), RationalMatrix(b)
    assert grid(ma) == a and grid(mb) == b
    assert grid(ma @ mb) == naive_mat_mul(a, b)
    assert grid(mb @ ma) == naive_mat_mul(b, a)
    assert grid(ma.transpose()) == [list(col) for col in zip(*a)]
    for m in (ma, mb, ma @ mb, mb @ ma, ma.transpose()):
        assert m.den > 0 and gcd(m.den, *m.ints) == 1  # lowest terms
    eye = identity(ma.order)
    assert ma @ eye == eye @ ma == ma


def product_paths(monkeypatch) -> dict:
    """Count, from now on, the operand arrays that matrix hands to numpy by dtype.

    Each integer_product builds two: int64 ones on the "int64" path, object
    arrays of Python ints on the "python" path.
    """
    calls = {"int64": 0, "python": 0}
    path_of = {np.int64: "int64", object: "python"}

    def array(values, dtype=None):
        if dtype in path_of:
            calls[path_of[dtype]] += 1
        return np.array(values, dtype=dtype)

    # every other numpy name that matrix uses passes through unchanged
    monkeypatch.setattr(matrix, "np", SimpleNamespace(**{**vars(np), "array": array}))
    return calls


def flat_integer_grid(n, bits):
    bound = 2**bits
    return st.lists(st.integers(-bound, bound), min_size=n * n, max_size=n * n)


# operand sizes from 1 to 71 bits: n * max|a| * max|b| falls on both sides of 2^63
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 70).flatmap(lambda bits: flat_integer_grid(n, bits)),
            st.integers(0, 70).flatmap(lambda bits: flat_integer_grid(n, bits)),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_integer_product_matches_naive_oracle(operands):
    n, a, b = operands
    rows = lambda flat: [flat[i : i + n] for i in range(0, n * n, n)]
    expected = [v for row in naive_mat_mul(rows(a), rows(b)) for v in row]
    assert integer_product(a, b, n) == expected


@pytest.mark.parametrize(
    "n, a, b, path",
    [
        (7, 7 * 73 * 127, 337 * 92737 * 649657, "int64"),  # n * a * b = 2^63 - 1
        (8, 2**30, 2**30, "python"),  # n * a * b = 2^63
    ],
)
def test_integer_product_at_the_int64_bound(monkeypatch, n, a, b, path):
    assert n * a * b == (2**63 - 1 if path == "int64" else 2**63)
    calls = product_paths(monkeypatch)
    for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        # every entry of the product is +-n * a * b, the extreme partial sum
        product = integer_product([sa * a] * (n * n), [sb * b] * (n * n), n)
        assert product == [sa * sb * n * a * b] * (n * n)
    assert calls[path] == 2 * 4 and sum(calls.values()) == 2 * 4


def test_integer_product_of_a_zero_operand_with_entries_past_int64(monkeypatch):
    calls = product_paths(monkeypatch)
    huge = [10**30, -(2**64), 2**63, 1]
    zero = [0] * 4
    assert integer_product(zero, huge, 2) == zero
    assert integer_product(huge, zero, 2) == zero
    assert calls == {"int64": 0, "python": 2 * 2}


def test_entry_sizes_alone_choose_the_product_path(monkeypatch, tmp_path):
    # the directed 6-cycle P_6 and 10^30 I + P_6, whose entries pass int64, are
    # both accepted with d = D = 5; 10^30 P_6 would not do, since the powers are
    # taken of the primitive integer matrix C = P_6 and the scale never reaches them
    n = 6
    calls = product_paths(monkeypatch)
    for diagonal, path in ((0, "int64"), (10**30, "python")):
        grid = [[diagonal * (x == y) + (y == (x + 1) % n) for y in range(n)] for x in range(n)]
        file = tmp_path / f"cycle-{path}.mat"
        file.write_text(serialize_matrix(RationalMatrix(grid)))
        calls.update(int64=0, python=0)
        assert run_command(["scheme", str(file), "--json"]) == 0
        assert calls[path] > 0 and sum(calls.values()) == calls[path]


def test_identity_is_neutral(fig2):
    assert identity(6) @ fig2 == fig2


def test_fig2_commutes_with_transpose(fig2):
    bt = fig2.transpose()
    assert fig2 @ bt == bt @ fig2


def test_permutation_times_transpose():
    p = RationalMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert p @ p.transpose() == identity(3)


def test_order_mismatch_rejected():
    with pytest.raises(MatrixOrderError):
        identity(2) @ identity(3)


def test_poly_eval_of_t_is_matrix(fig2):
    assert MatrixPowerBasis(fig2).evaluate(Polynomial([0, 1])) == fig2


def test_hoffman_cubic_maps_fig2_to_allones(fig2):
    h = Polynomial([-2, 8, -16, 16])
    assert MatrixPowerBasis(fig2).evaluate(h) == RationalMatrix.ones(6)


def test_poly_eval_idempotent_relation_on_scaled_allones():
    n = 5
    jn = scaled(Fraction(1, n), RationalMatrix.ones(n))
    assert MatrixPowerBasis(jn).evaluate(Polynomial([0, -1, 1])) == zeros(n)


def test_poly_eval_zero_and_constant(fig2):
    basis = MatrixPowerBasis(fig2)
    assert basis.evaluate(Polynomial()) == zeros(6)
    assert basis.evaluate(Polynomial([Fraction(3, 7)])) == scaled(Fraction(3, 7), identity(6))


@given(square_grids(), st.lists(rationals, max_size=4), st.lists(rationals, max_size=4))
@settings(max_examples=40, deadline=None)
def test_poly_eval_respects_ring_structure(grid, cs, ds):
    basis = MatrixPowerBasis(RationalMatrix(grid))
    p, q = Polynomial(cs), Polynomial(ds)
    assert basis.evaluate(p + q) == add(basis.evaluate(p), basis.evaluate(q))
    assert basis.evaluate(p * q) == basis.evaluate(p) @ basis.evaluate(q)


@given(square_grids(), st.lists(rationals, max_size=4))
@settings(max_examples=25, deadline=None)
def test_poly_eval_matches_naive_oracle(grid, cs):
    p = Polynomial(cs)
    assert MatrixPowerBasis(RationalMatrix(grid)).evaluate(p) == RationalMatrix(naive_poly_at(p, grid))


def test_trace_inner_product_identity():
    for n in (1, 3, 6):
        eye = identity(n)
        assert trace_inner_product(eye, eye) == 1


def test_trace_inner_product_allones():
    for n in (2, 5):
        j = RationalMatrix.ones(n)
        assert trace_inner_product(j, j) == n


def test_trace_inner_product_first_predistance(fig2):
    p1 = MatrixPowerBasis(fig2).evaluate(Polynomial([-2, 4]))
    assert trace_inner_product(p1, p1) == 2


@given(square_grids())
@settings(max_examples=40, deadline=None)
def test_trace_inner_product_positive_definite(grid):
    m = RationalMatrix(grid)
    value = trace_inner_product(m, m)
    assert value >= 0
    assert (value == 0) == is_zero(m)


@given(square_grids(max_n=3))
@settings(max_examples=30, deadline=None)
def test_trace_form_equals_hadamard_form(grid):
    m = RationalMatrix(grid)
    n = add(m.transpose(), identity(m.order))
    expected = trace_form_inner([list(r) for r in m.rows], [list(r) for r in n.rows])
    assert trace_inner_product(m, n) == expected


def test_power_basis_caches_incrementally(fig2):
    # fig2 = C / 4 with C primitive, so the basis keeps C^k = 4^k fig2^k
    basis = MatrixPowerBasis(fig2)
    assert basis.scale == Fraction(1, 4)
    grid = [list(row) for row in fig2.rows]
    assert basis.integer_power(2) == [16 * v for row in naive_mat_mul(grid, grid) for v in row]
    assert basis.integer_power(0) == list(flat(identity(6)))
    assert basis.integer_power(1) == [4 * v for v in flat(fig2)]
    assert basis.evaluate(Polynomial([-2, 8, -16, 16])) == RationalMatrix.ones(6)


def test_matrix_keeps_one_power_basis_outside_its_value():
    b = load_fixture("fig2.mat")
    basis = b.powers
    assert b.powers is basis
    assert basis.evaluate(Polynomial([0, 1])) == b
    basis.integer_power(4)
    basis.gram(2, 3)
    fresh = load_fixture("fig2.mat")
    assert b == fresh and hash(b) == hash(fresh)
    assert fresh.powers is not basis


def test_power_basis_is_freed_without_the_cycle_collector():
    # B owns its basis and the basis holds no reference to B: dropping B frees both by refcount
    b = load_fixture("fig2.mat")
    b.powers.integer_power(3)
    basis = weakref.ref(b.powers)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del b
        assert basis() is None
    finally:
        if enabled:
            gc.enable()


def test_power_basis_outlives_a_temporary_base(fig2):
    basis = MatrixPowerBasis(load_fixture("fig2.mat"))
    assert basis.evaluate(Polynomial([0, 1])) == fig2
    assert basis.evaluate(Polynomial([0, 0, 1])) == fig2 @ fig2


def test_membership_of_allones_gives_hoffman_coefficients(fig2):
    p = algebra_membership(RationalMatrix.ones(6), fig2, degree=3)
    assert p == Polynomial([-2, 8, -16, 16])


def test_membership_of_matrix_itself(fig2):
    assert algebra_membership(fig2, fig2, degree=3) == Polynomial([0, 1])


def test_membership_rejects_perturbed_distance_class(fig2):
    from schemeforge.digraph import distance_structure, underlying_digraph

    dist = distance_structure(underlying_digraph(fig2)).dist
    perturbed = [[int(v == 3) for v in row] for row in dist]
    perturbed[0][0] += 1
    assert algebra_membership(RationalMatrix(perturbed), fig2, degree=3) is None


# --- exact solver -----------------------------------------------------------


def gauss_reference(columns, target):
    """Plain Fraction Gaussian elimination, as an independent consistency oracle."""
    k = len(columns)
    m = len(target)
    aug = [[Fraction(columns[j][r]) for j in range(k)] + [Fraction(target[r])] for r in range(m)]
    rank = 0
    pivots = []
    for c in range(k):
        pivot = next((i for i in range(rank, m) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        lead = aug[rank][c]
        aug[rank] = [v / lead for v in aug[rank]]
        for i in range(m):
            if i != rank and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [v - factor * w for v, w in zip(aug[i], aug[rank])]
        pivots.append(c)
        rank += 1
    consistent = all(row[k] == 0 for row in aug[rank:])
    return consistent


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.lists(rationals, min_size=3, max_size=3), min_size=k, max_size=k
            ),
            st.lists(rationals, min_size=k, max_size=k),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_solver_finds_constructed_solutions(data):
    columns, weights = data
    target = [
        sum((w * col[r] for w, col in zip(weights, columns)), Fraction(0))
        for r in range(3)
    ]
    solution = solve_rational_system(columns, target)
    assert solution is not None
    for r in range(3):
        assert sum((x * col[r] for x, col in zip(solution, columns)), Fraction(0)) == target[r]


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.lists(rationals, min_size=4, max_size=4), min_size=k, max_size=k
            ),
            st.lists(rationals, min_size=4, max_size=4),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_solver_agrees_with_gauss_on_consistency(data):
    columns, target = data
    solution = solve_rational_system(columns, target)
    assert (solution is not None) == gauss_reference(columns, target)
    if solution is not None:
        for r in range(4):
            assert (
                sum((x * col[r] for x, col in zip(solution, columns)), Fraction(0))
                == target[r]
            )


def test_solver_flags_inconsistency():
    columns = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)]]
    assert solve_rational_system(columns, [Fraction(0), Fraction(1)]) is None


# --- power basis --------------------------------------------------------------


def integer_grid(n):
    return st.lists(st.lists(integer_entries, min_size=n, max_size=n), min_size=n, max_size=n)


def kernel_grid(n):
    """Mixed or coprime denominators, all-integer (delta = 1), or zero."""
    return st.one_of(mixed_grid(n), integer_grid(n), st.just([[Fraction(0)] * n for _ in range(n)]))


# zero polynomials (empty lists), zero coefficients, integer and fractional ones
coefficient_lists = st.lists(st.one_of(st.just(Fraction(0)), mixed_entries), max_size=6)


@given(
    st.integers(min_value=1, max_value=5).flatmap(kernel_grid),
    coefficient_lists,
    coefficient_lists,
)
@settings(max_examples=100, deadline=None)
def test_power_basis_evaluate_matches_naive_oracle(grid, cs, ds):
    basis = MatrixPowerBasis(RationalMatrix(grid))
    for coeffs in (cs, ds):  # the second call may reuse or extend the cache
        p = Polynomial(coeffs)
        expected = naive_poly_at(p, grid)
        value = basis.evaluate(p)
        assert gcd(value.den, *value.ints) == 1  # lowest terms
        assert [list(row) for row in value.rows] == expected
    # B = s C with C primitive (or zero), and s^k C^k = B^k
    assert gcd(*basis.integer_power(1)) in (0, 1)
    n = len(grid)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(4):
        value = basis.integer_power(k)
        assert [basis.scale**k * v for v in value] == [v for row in power for v in row]
        power = naive_mat_mul(power, grid)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(kernel_grid(n), kernel_grid(n))
    )
)
@settings(max_examples=100, deadline=None)
def test_trace_inner_product_matches_trace_form_oracle(grids):
    a, b = grids
    assert trace_inner_product(RationalMatrix(a), RationalMatrix(b)) == trace_form_inner(a, b)


# degree <= 4, with zero polynomials (empty lists) and zero coefficients
inner_coefficients = st.lists(st.one_of(st.just(Fraction(0)), mixed_entries), max_size=5)


@given(
    st.integers(min_value=1, max_value=4).flatmap(kernel_grid),
    inner_coefficients,
    inner_coefficients,
)
@settings(max_examples=100, deadline=None)
def test_power_basis_inner_matches_trace_form_oracle(grid, cs, ds):
    # <p, q> = sum_ab u_a v_b G_ab / (L_p L_q n), with (L, u) the weights of a
    # polynomial on C's powers and G_ab = C^a . C^b the basis's Gram entries
    basis = MatrixPowerBasis(RationalMatrix(grid))

    def inner(p, q):
        p_den, p_weights = basis.weights(p)
        q_den, q_weights = basis.weights(q)
        total = sum(u * v * basis.gram(a, c) for a, u in p_weights for c, v in q_weights)
        return Fraction(total, p_den * q_den * len(grid))

    p, q = Polynomial(cs), Polynomial(ds)
    expected = trace_form_inner(naive_poly_at(p, grid), naive_poly_at(q, grid))
    assert inner(p, q) == expected
    assert inner(q, p) == expected  # symmetric, and served from the cached Gram entries
    assert inner(p, Polynomial()) == 0
