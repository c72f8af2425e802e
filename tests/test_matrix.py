import gc
import weakref
from fractions import Fraction
from math import gcd

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
    _bits,
    _integer_grid,
    _prime,
    _prime_run,
    _primes,
    integer_product,
    solve_rational_system,
    trace_inner_product,
)
from schemeforge.stochastic import random_lambda_ds

from conftest import load_fixture
from oracles import (
    add,
    algebra_membership,
    all_ones,
    flat,
    identity,
    is_zero,
    naive_mat_mul,
    naive_poly_at,
    poly_add,
    poly_mul,
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
    eye = identity(ma.order)
    for m in (ma, mb, ma @ mb, mb @ ma, ma.transpose()):
        assert_primitive_form(m)
        # each float entry is the correctly rounded value of the exact one
        assert m.to_float().tolist() == [[float(v) for v in row] for row in m.rows]
        for same in (m.transpose().transpose(), m @ eye, eye @ m):
            assert same == m and hash(same) == hash(m)
    assert ma @ eye == eye @ ma == ma


def assert_primitive_form(m):
    """m holds B = s C: s > 0, C primitive, s = 1 for the zero matrix, and C on
    int64 exactly when n max|C| < 2^63 (Python ints otherwise)."""
    values = m.entries.ravel().tolist()
    assert type(m.scale) is Fraction and m.scale > 0
    assert m.entries.shape == (m.order, m.order)
    assert gcd(*values) == (1 if any(values) else 0)
    assert any(values) or m.scale == 1
    assert m.entries.dtype == (np.int64 if m.order * max(map(abs, values)) < 2**63 else object)


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
    # the operands as a matrix holds them: int64 while n max|v| < 2^63, Python ints beyond
    n, a, b = operands
    rows = lambda flat: [flat[i : i + n] for i in range(0, n * n, n)]
    product = integer_product(_integer_grid(a, n), _integer_grid(b, n))
    assert product.tolist() == naive_mat_mul(rows(a), rows(b))
    bound = n * max(1, *map(abs, a)) * max(1, *map(abs, b))
    assert product.dtype == (np.int64 if bound < 2**63 else object)


@pytest.mark.parametrize(
    "n, a, b, path",
    [
        (7, 7 * 73 * 127, 337 * 92737 * 649657, "int64"),  # n * a * b = 2^63 - 1
        (8, 2**30, 2**30, "python"),  # n * a * b = 2^63
    ],
)
def test_integer_product_at_the_int64_bound(n, a, b, path):
    assert n * a * b == (2**63 - 1 if path == "int64" else 2**63)
    for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        # every entry of the product is +-n * a * b, the extreme partial sum
        product = integer_product(np.full((n, n), sa * a), np.full((n, n), sb * b))
        assert product.tolist() == [[sa * sb * n * a * b] * n] * n
        assert product.dtype == (np.int64 if path == "int64" else object)


@pytest.mark.parametrize(
    "n, a, b",
    [
        (1, 6361 * 69431, 20394401),  # n * a * b = 2^53 - 1: float64
        (8, 2**25, 2**25),  # n * a * b = 2^53: int64
        (3, 2**26 + 1, 2**26 + 1),  # odd and past 2^53, where float64 would round: int64
    ],
)
def test_integer_product_at_the_float64_bound(n, a, b):
    assert n * a * b in (2**53 - 1, 2**53) or (n * a * b > 2**53 and n * a * b % 2)
    for sa, sb in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        # every entry of the product is +-n * a * b, the extreme partial sum
        product = integer_product(np.full((n, n), sa * a), np.full((n, n), sb * b))
        assert product.tolist() == [[sa * sb * n * a * b] * n] * n
        assert product.dtype == np.int64


def test_integer_product_of_a_zero_operand_with_entries_past_int64():
    huge = np.array([[10**30, -(2**64)], [2**63, 1]], dtype=object)
    zero = np.zeros((2, 2), dtype=np.int64)
    for product in (integer_product(zero, huge), integer_product(huge, zero)):
        assert product.tolist() == [[0, 0], [0, 0]] and product.dtype == object


def test_entry_sizes_alone_choose_the_product_path(monkeypatch, tmp_path):
    # the directed 6-cycle P_6 and 10^30 I + P_6, whose entries pass int64, are
    # both accepted with d = D = 5; their only exact products are normality's
    # B B^T and B^T B, and each runs on the path its operands' entries choose
    # (the residue stages build their own arrays, which are not products)
    n = 6
    dtypes = []
    product = matrix.integer_product

    def recorded(a, b):
        result = product(a, b)
        dtypes.append(result.dtype)
        return result

    monkeypatch.setattr(matrix, "integer_product", recorded)
    for diagonal, dtype in ((0, np.int64), (10**30, object)):
        grid = [[diagonal * (x == y) + (y == (x + 1) % n) for y in range(n)] for x in range(n)]
        file = tmp_path / f"cycle-{diagonal}.mat"
        file.write_text(serialize_matrix(RationalMatrix(grid)))
        dtypes.clear()
        assert run_command(["scheme", str(file), "--json"]) == 0
        assert dtypes == [dtype] * 2


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
    assert MatrixPowerBasis(fig2).evaluate(h) == all_ones(6)


def test_poly_eval_idempotent_relation_on_scaled_allones():
    n = 5
    jn = scaled(Fraction(1, n), all_ones(n))
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
    assert basis.evaluate(Polynomial(poly_add(p.coeffs, q.coeffs))) == add(basis.evaluate(p), basis.evaluate(q))
    assert basis.evaluate(Polynomial(poly_mul(p.coeffs, q.coeffs))) == basis.evaluate(p) @ basis.evaluate(q)


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
        j = all_ones(n)
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


@pytest.mark.parametrize(
    "grid",
    [
        [[Fraction(1, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(1, 4)]],
        [[Fraction(3 * 10**30, 7), Fraction(3, 7)], [Fraction(3, 7), Fraction(3 * 10**30, 7)]],
        [[0, 0], [0, 0]],
    ],
)
def test_context_shares_the_matrix_form(grid):
    b = RationalMatrix(grid)
    assert b.powers.scale is b.scale and b.powers.entries is b.entries
    # the context and every transpose (a view) share the entries, so no write reaches them
    for m in (b, b.transpose()):
        with pytest.raises(ValueError, match="read-only"):
            m.entries[0, 1] = 5
    assert b == RationalMatrix(grid)


def test_power_basis_caches_incrementally(fig2):
    # fig2 = C / 4 with C primitive, so the basis reduces C^k = 4^k fig2^k
    basis = MatrixPowerBasis(fig2)
    assert basis.scale == Fraction(1, 4)
    assert basis.entries.ravel().tolist() == [4 * v for v in flat(fig2)]
    grid = [list(row) for row in fig2.rows]
    square = [16 * v for row in naive_mat_mul(grid, grid) for v in row]
    primes = [_prime(_bits(36), 0)]
    stack = basis._powers_mod(primes, 2)
    assert stack.shape == (1, 3, 36)
    assert stack[0, 0].tolist() == list(flat(identity(6)))
    assert stack[0, 1].tolist() == [v % primes[0] for v in basis.entries.ravel().tolist()]
    assert stack[0, 2].tolist() == [int(v) % primes[0] for v in square]
    # the Gram matrix is computed once and a lower degree reads its leading block
    assert basis.gram(2)[2][2] == sum(v * v for v in square)
    assert basis.gram(1) == [row[:2] for row in basis.gram(2)[:2]]
    assert basis.evaluate(Polynomial([-2, 8, -16, 16])) == all_ones(6)


def test_matrix_keeps_one_power_basis_outside_its_value():
    b = load_fixture("fig2.mat")
    basis = b.powers
    assert b.powers is basis
    assert basis.evaluate(Polynomial([0, 1])) == b
    basis.gram(3)
    fresh = load_fixture("fig2.mat")
    assert b == fresh and hash(b) == hash(fresh)
    assert fresh.powers is not basis


def test_power_basis_is_freed_without_the_cycle_collector():
    # B owns its basis and the basis holds no reference to B: dropping B frees both by refcount
    b = load_fixture("fig2.mat")
    b.powers.gram(3)
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
    p = algebra_membership(all_ones(6), fig2, degree=3)
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
        assert_primitive_form(value)
        assert [list(row) for row in value.rows] == expected
    # B = s C with C primitive (or zero), and the stack holds C^k = B^k / s^k mod p
    assert gcd(*basis.entries.ravel().tolist()) in (0, 1)
    n = len(grid)
    primes = _prime_run(_primes(_bits(n)), 2**80)
    stack = basis._powers_mod(primes, 3)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(4):
        c_power = [v / basis.scale**k for row in power for v in row]
        assert all(v.denominator == 1 for v in c_power)
        for p, residues in zip(primes, stack[:, k].tolist()):
            assert residues == [int(v) % p for v in c_power]
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
        gram = basis.gram(4)
        total = sum(u * v * gram[a][c] for a, u in enumerate(p_weights) for c, v in enumerate(q_weights))
        return Fraction(total, p_den * q_den * len(grid))

    p, q = Polynomial(cs), Polynomial(ds)
    expected = trace_form_inner(naive_poly_at(p, grid), naive_poly_at(q, grid))
    assert inner(p, q) == expected
    assert inner(q, p) == expected  # symmetric, and served from the cached Gram entries
    assert inner(p, Polynomial()) == 0


@st.composite
def gram_cases(draw):
    """(grid, d): 10^30 I + P_n, a lambda-DS draw or an integer grid with
    entries up to 2^40, times a content, and a degree d <= n. The Gram
    entries fall on both sides of the int64 bound."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("cycle", "lambda_ds", "grid")))
    if kind == "cycle":
        grid = [[10**30 * (x == y) + (y == (x + 1) % n) for y in range(n)] for x in range(n)]
    elif kind == "lambda_ds":
        b = random_lambda_ds(n, draw(st.integers(2, 3)), draw(st.integers(0, 2**32)))
        grid = [list(row) for row in b.rows]
    else:
        entry = st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40))
        grid = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    content = draw(st.sampled_from((1, Fraction(2**64 + 13), Fraction(1, 2**61 - 1), Fraction(3**40, 7))))
    return [[content * Fraction(v) for v in row] for row in grid], draw(st.integers(0, n))


@given(gram_cases())
@settings(max_examples=60, deadline=None)
def test_gram_matches_the_trace_form_on_naive_powers(case):
    # G_ab = C^a . C^b = n <C^a, C^b> for B = s C, against Fraction powers of C
    grid, d = case
    n = len(grid)
    basis = RationalMatrix(grid).powers
    c = [[v / basis.scale for v in row] for row in grid]
    powers = [naive_poly_at(Polynomial([1]), c)]
    for _ in range(d):
        powers.append(naive_mat_mul(powers[-1], c))
    assert basis.gram(d) == [[n * trace_form_inner(a, b) for b in powers] for a in powers]


def test_gram_uses_every_prime_its_bound_needs():
    """G_11 = 2 + 2 p^2 for C = [[1, p], [p, 1]], p the first prime at n^2 = 4 terms.

    The bound 2 n R^2 = 4 (p + 1)^2 needs three primes; two give a modulus
    below 4 G_11, so a CRT one prime short would return a wrong G_11.
    """
    p = _prime(_bits(4), 0)
    basis = RationalMatrix([[1, p], [p, 1]]).powers
    assert basis.gram(1) == [[2, 2], [2, 2 + 2 * p * p]]
    primes = _prime_run(_primes(_bits(4)), 4 * (p + 1) ** 2)
    assert len(primes) == 3 and primes[0] * primes[1] < 4 * (2 + 2 * p * p)


def test_residue_evaluations_use_every_prime_their_bounds_need():
    """C = [[1, p], [p, 1]] is I modulo p, the first prime of the residue
    kernel at n = 2 (a sum of at most n = 2 products of residues).

    The bound 2 (p + 1) for evaluate(t) needs a second prime: one prime
    short, C would evaluate to I. The class certificate reads C = I as
    ||C - I||^2 = G_11 - 2 mu_10 + |I| = 2 p^2, a multiple of p, so it
    rejects C as I only on the exact G and moments.
    """
    p = _prime(_bits(2), 0)
    b = RationalMatrix([[1, p], [p, 1]])
    basis = b.powers
    assert [primes for primes, _ in basis.combinations([0, 1], p - 1)] == [[p]]
    assert basis.evaluate(Polynomial([0, 1])) == b
    moments = basis.class_moments(1, [np.eye(2, dtype=bool), [[0, 1], [1, 0]]])
    assert moments == [(2, [2, 2]), (2, [0, 2 * p])]
    polys = [Polynomial([0, 1]), Polynomial([Fraction(-1, p), Fraction(1, p)])]
    assert basis.evaluates_to(polys, moments) == [False, True]
    with pytest.raises(ValueError, match="class moments stop below C"):
        basis.evaluates_to(polys, basis.class_moments(0, [np.eye(2, dtype=bool)] * 2))


def test_residue_chunks_bound_the_memory_of_many_primes(monkeypatch):
    # with room for one prime's stack per chunk, 10^30 I + P_6 needs dozens of
    # chunks: the Gram matrix, the class moments, the certificates and p(B)
    # are unchanged, and the moments' pass is the Gram matrix's
    n = 6
    grid = [[10**30 * (x == y) + (y == (x + 1) % n) for y in range(n)] for x in range(n)]
    masks = [[[int(y == (x + 1) % n) for y in range(n)] for x in range(n)], np.eye(n, dtype=bool)]
    b = RationalMatrix(grid)
    expected = b.powers.gram(5)
    moments = b.powers.class_moments(5, masks)
    p = Polynomial([-(10**30), 1])  # p(B) = P_6, the distance-1 class
    assert b.powers.evaluates_to([p, p], moments) == [True, False]
    value = b.powers.evaluate(p)
    monkeypatch.setattr(matrix, "STACK_BYTES", 1)
    chunked = RationalMatrix(grid).powers
    runs, powers = [], chunked._powers_mod
    monkeypatch.setattr(chunked, "_powers_mod", lambda run, d: runs.append(len(run)) or powers(run, d))
    assert chunked.class_moments(5, masks) == moments
    assert len(runs) > 10 and set(runs) == {1}
    passes = len(runs)
    assert chunked.gram(5) == expected and len(runs) == passes
    assert chunked.evaluates_to([p, p], moments) == [True, False] and len(runs) == passes
    # moments for a smaller d keep the larger G, which gram(5) reads with no further pass
    assert chunked.class_moments(2, masks) == [(size, mu[:3]) for size, mu in moments]
    passes = len(runs)
    assert chunked.gram(5) == expected and len(runs) == passes
    assert chunked.evaluate(p) == value
