import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from schemeforge.exact import Polynomial, divide_linear
from schemeforge.hoffman import (
    _annihilates_cyclic,
    _candidate,
    _sends_to_ones,
    _solve_pivot_systems,
    _start,
    hoffman_polynomial,
    minimal_polynomial,
)
from schemeforge.matrix import MatrixPowerBasis, RationalMatrix, _bits, _prime, _symmetric_crt
from schemeforge.stochastic import HypothesisError, classify, random_lambda_ds

from conftest import load_fixture
from oracles import (
    algebra_membership,
    all_ones,
    charpoly_leverrier,
    divides,
    identity,
    naive_mat_mul,
    naive_poly_at,
    oracle_hoffman,
    oracle_minimal_polynomial,
    poly_mul,
    poly_scale,
    poly_value,
    product_form_discrepancy,
    scaled,
    zeros,
)
from test_predistance import heavy_circulant, scaled_cycle, weighted_circulant


def first_prime(b):
    """The first prime the residue pipeline tries on B, the largest its order allows."""
    return _prime(_bits(b.order), 0)


FIG1_Q = Polynomial(
    [
        0,
        Fraction(-32, 243),
        Fraction(8, 27),
        Fraction(-8, 27),
        Fraction(5, 27),
        Fraction(1, 3),
        Fraction(-1, 3),
        1,
    ]
)


def test_minimal_polynomial_of_identity():
    m = minimal_polynomial(identity(5))
    assert m == Polynomial([-1, 1])


def test_minimal_polynomial_fig2(fig2):
    m = minimal_polynomial(fig2)
    expected = Polynomial(poly_mul([-1, 1], [Fraction(-1, 8), Fraction(1, 2), -1, 1]))
    assert m == expected
    assert RationalMatrix(naive_poly_at(m, [list(r) for r in fig2.rows])) == zeros(6)


def test_minimal_polynomial_fig1(fig1):
    m = minimal_polynomial(fig1)
    assert m == Polynomial(poly_mul([-1, 1], FIG1_Q.coeffs))
    assert RationalMatrix(naive_poly_at(m, [list(r) for r in fig1.rows])) == zeros(8)


def test_minimal_polynomial_is_minimal(fig2):
    m = minimal_polynomial(fig2)
    # powers below deg(m) are linearly independent: B^k outside the span of the lower ones
    grid = [list(r) for r in fig2.rows]
    power = grid
    for k in range(1, m.degree):
        assert algebra_membership(RationalMatrix(power), fig2, degree=k - 1) is None
        power = naive_mat_mul(power, grid)


def test_hoffman_fig1_matches_reference_values(fig1):
    info = hoffman_polynomial(fig1)
    assert info.lam == 1
    assert info.q == FIG1_Q
    assert info.h == Polynomial(poly_scale(Fraction(8) / poly_value(FIG1_Q.coeffs, 1), FIG1_Q.coeffs))
    assert RationalMatrix(naive_poly_at(info.h, [list(r) for r in fig1.rows])) == all_ones(8)


def test_hoffman_fig2(fig2):
    info = hoffman_polynomial(fig2)
    assert info.h == Polynomial([-2, 8, -16, 16])
    assert info.q == Polynomial([Fraction(-1, 8), Fraction(1, 2), -1, 1])


def test_hoffman_of_scaled_allones():
    n = 4
    jn = scaled(Fraction(1, n), all_ones(n))
    info = hoffman_polynomial(jn)
    assert info.h == Polynomial([0, n])
    assert info.lam == 1


def test_hoffman_requires_common_line_sum():
    with pytest.raises(HypothesisError):
        hoffman_polynomial(RationalMatrix([[1, 0], [1, 1]]))


def test_hoffman_requires_irreducibility():
    with pytest.raises(HypothesisError) as excinfo:
        hoffman_polynomial(identity(3))
    assert "irreducible" in str(excinfo.value)


def test_hoffman_requires_nonnegativity():
    with pytest.raises(HypothesisError):
        hoffman_polynomial(RationalMatrix([[0, -1], [-1, 0]]))


def test_hoffman_rejects_lambda_zero():
    with pytest.raises(HypothesisError) as excinfo:
        hoffman_polynomial(RationalMatrix([[0]]))
    assert "zero" in str(excinfo.value)


def test_no_lower_degree_polynomial_reaches_allones(fig1, fig2):
    for b in (fig1, fig2):
        h = hoffman_polynomial(b).h
        assert algebra_membership(all_ones(b.order), b, degree=h.degree - 1) is None


@pytest.mark.parametrize(
    "name",
    [
        "fig1.mat",
        "fig2.mat",
        "cyclic_3.mat",
        "cyclic_4.mat",
        "cyclic_5.mat",
        "cyclic_6.mat",
        "cyclic_7.mat",
        "cyclic_8.mat",
        "complete_4.mat",
        "complete_5.mat",
    ],
)
def test_minimal_polynomial_divides_charpoly(name):
    b = load_fixture(name)
    m = minimal_polynomial(b)
    assert divides(m, charpoly_leverrier(b))


def test_eigenvalue_count_matches_degree_for_normal(fig2):
    from schemeforge.spectral import roots

    m = minimal_polynomial(fig2)
    spectrum = roots(m)
    assert len(set(spectrum.eigenvalues)) == m.degree


def product_form_residual(b, roots_of_q):
    info = hoffman_polynomial(b)
    return product_form_discrepancy(info.h, info.lam, b.order, roots_of_q)


def test_product_form_residual_fig2(fig2):
    # roots of q: 1/2 and (1 +/- i sqrt(3))/4, from h = 2(2t - 1)(4t^2 - 2t + 1)
    root = 3 ** 0.5 / 4
    roots_of_q = [0.5, complex(0.25, root), complex(0.25, -root)]
    assert product_form_residual(fig2, roots_of_q) < 1e-9


def test_product_form_residual_scaled_allones():
    jn = scaled(Fraction(1, 6), all_ones(6))
    assert product_form_residual(jn, [0.0]) < 1e-12


def test_product_form_residual_random_normal_instance():
    from schemeforge.spectral import roots

    b = None
    seed = 0
    while b is None:
        candidate = random_lambda_ds(5, 1, seed=seed)
        cls = classify(candidate)
        if cls.normal and cls.irreducible and cls.lam:
            b = candidate
        seed += 1
    spectrum = roots(minimal_polynomial(b))
    assert product_form_residual(b, spectrum.eigenvalues[1:]) < 1e-9


# --- minimal polynomial against the Gauss-Jordan oracle ----------------------

entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)
eigenvalues = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)])


def square_grid(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def block_diagonal(blocks):
    n = sum(len(block) for block in blocks)
    grid = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            grid[offset + i][offset : offset + len(row)] = row
        offset += len(block)
    return grid


def jordan_block(size, eigenvalue):
    return [
        [eigenvalue if i == j else Fraction(1) if j == i + 1 else Fraction(0) for j in range(size)]
        for i in range(size)
    ]


def conjugate_by_permutation(grid, perm):
    n = len(grid)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = grid[i][j]
    return out


@st.composite
def krylov_cases(draw):
    """Square grids (n <= 6) that stress the elimination: dense with negative
    entries, zero, scalar, Jordan blocks sharing eigenvalues, and permuted
    block-diagonal matrices whose repeated block makes them derogatory."""
    kind = draw(st.sampled_from(["dense", "zero", "scalar", "jordan", "derogatory"]))
    if kind == "dense":
        return draw(square_grid(draw(st.integers(1, 6))))
    if kind == "zero":
        n = draw(st.integers(1, 6))
        return [[Fraction(0)] * n for _ in range(n)]
    if kind == "scalar":
        n = draw(st.integers(1, 6))
        c = draw(entries)
        return [[c if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    if kind == "jordan":
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 6))
        return block_diagonal([jordan_block(size, draw(eigenvalues)) for size in sizes])
    size = draw(st.integers(1, 3))
    block = draw(square_grid(size))
    blocks = [block, block]
    extra = draw(st.integers(0, 6 - 2 * size))
    if extra:
        blocks.append(jordan_block(extra, draw(eigenvalues)))
    grid = block_diagonal(blocks)
    return conjugate_by_permutation(grid, draw(st.permutations(range(len(grid)))))


@given(krylov_cases())
@settings(max_examples=200, deadline=None)
def test_minimal_polynomial_matches_gauss_jordan_oracle(grid):
    m = minimal_polynomial(RationalMatrix(grid))
    assert m == oracle_minimal_polynomial(grid)
    n = len(grid)
    assert naive_poly_at(m, grid) == [[Fraction(0)] * n for _ in range(n)]


def determinant(rows):
    """det of a square integer matrix, by Fraction elimination with row exchanges."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        r = next((r for r in range(c, len(a)) if a[r][c]), None)
        if r is None:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        det *= a[c][c]
        for below in a[c + 1 :]:
            factor = below[c] / a[c][c]
            below[c:] = [v - factor * w for v, w in zip(below[c:], a[c][c:])]
    return int(det)


@given(krylov_cases(), st.data())
@settings(max_examples=100, deadline=None)
def test_pivot_systems_match_plain_matrix_vector_products(grid, data):
    """For any distinct pivot coordinates R and two primes, the system
    sum_j y_j (C^j v)[R] = (C^K v)[R] built from plain-int matrix-vector
    products has a vanishing leading principal minor mod q exactly when
    _solve_pivot_systems returns None for q, and otherwise is solved by its y."""
    context = RationalMatrix(grid).powers
    n = context.order
    c = context.entries.tolist()
    primes = [_prime(_bits(n), 0), _prime(_bits(n), 1)]
    start = np.array(data.draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)), dtype=np.int64)
    pivots = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    k = len(pivots)
    for q, y in zip(primes, _solve_pivot_systems(context, primes, pivots, start)):
        vector, columns = [int(v) for v in start], []
        for _ in range(k + 1):
            columns.append([vector[i] % q for i in pivots])
            vector = [sum(c[x][z] * vector[z] for z in range(n)) for x in range(n)]
        system = [[columns[j][i] for j in range(k)] for i in range(k)]
        singular = any(determinant([row[:m] for row in system[:m]]) % q == 0 for m in range(1, k + 1))
        assert (y is None) == singular
        if y is not None:
            assert all(sum(a * b for a, b in zip(system[i], y)) % q == columns[k][i] for i in range(k))


@pytest.mark.parametrize("build", [scaled_cycle, heavy_circulant], ids=["scaled_cycle", "heavy_circulant"])
def test_candidate_pivot_systems_one_prime_per_chunk(monkeypatch, build):
    """With one CRT prime per chunk, the pivot systems of scaled_cycle (R near
    10^30) and heavy_circulant run in several chunks and give m exactly."""
    from schemeforge import hoffman, matrix

    monkeypatch.setattr(matrix, "STACK_BYTES", 1)
    chunks = []
    solve = hoffman._solve_pivot_systems
    monkeypatch.setattr(hoffman, "_solve_pivot_systems", lambda *args: chunks.append(args[1]) or solve(*args))
    b = build()
    assert minimal_polynomial(b) == oracle_minimal_polynomial([list(row) for row in b.rows])
    assert len(chunks) > 1 and all(len(run) == 1 for run in chunks)


def assert_certificate_matches_naive(grid, coefficients):
    """The residue kernel's certificate sum_j a_j C^j = L J
    (`MatrixPowerBasis.certifies`) agrees with naive_poly_at on C.

    The rows a = coefficients(length) take every length from 1 to max(n + 2,
    16), so that one row runs w = 1 to 4 baby steps, and every multiple of
    m_C of such a length joins them, as does the zero polynomial. L is the
    (0, 0) entry of sum_j a_j C^j, so that the verdict holds exactly when the
    matrix is L J. A multiple of m_C must hold.
    """
    context = RationalMatrix(grid).powers
    c = [[Fraction(v) for v in row] for row in context.entries.tolist()]
    n = len(c)
    m = oracle_minimal_polynomial(c)

    def check(coeffs, vanishes=False):
        value = naive_poly_at(Polynomial(coeffs), c)
        scale = int(value[0][0])
        holds = all(v == scale for row in value for v in row)
        assert holds or not vanishes
        assert context.certifies(coeffs, scale) == holds

    check([], vanishes=True)
    for length in range(1, max(n + 2, 16) + 1):
        coeffs = coefficients(length)
        check(coeffs)
        if length > m.degree:
            multiple = poly_mul(m.coeffs, coeffs[: length - m.degree - 1] + [1])
            check([int(v) for v in multiple], vanishes=True)


@given(krylov_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_baby_and_giant_step_certificate_matches_naive_evaluation(grid, data):
    coefficient = st.integers(-(2**40), 2**40)
    assert_certificate_matches_naive(
        grid, lambda length: data.draw(st.lists(coefficient, min_size=length, max_size=length))
    )


def test_certificate_matches_naive_evaluation_one_prime_per_chunk(monkeypatch, fig1):
    from schemeforge import matrix

    monkeypatch.setattr(matrix, "STACK_BYTES", 1)
    rng = random.Random(0)
    assert_certificate_matches_naive(
        [list(row) for row in fig1.rows], lambda length: [rng.randint(-(2**40), 2**40) for _ in range(length)]
    )
    # C - I vanishes modulo the first prime alone: the second chunk must reject it
    p = first_prime(RationalMatrix([[1, 0], [0, 1]]))
    assert not MatrixPowerBasis(RationalMatrix([[1, p], [p, 1]])).certifies([-1, 1], 0)


@st.composite
def class_certificate_cases(draw):
    """A grid (`krylov_cases`) and a batch of 1 to 4 pairs (p_i, A_i).

    Each p_i has up to max(n + 2, 8) rational coefficients, or is such a
    polynomial times m_B, so that p_i(B) = 0. Each mask A_i is J, I, the
    cyclic shift, a random 0/1 grid, the empty grid or the support of
    p_i(B), so the masks of a batch need not partition the pairs; p_i is
    divided by the entry of p_i(B) at the first 1 of A_i when that entry is
    not 0, so that the verdict holds whenever p_i(B) is a multiple of A_i.
    """
    grid = draw(krylov_cases())
    n = len(grid)
    m = oracle_minimal_polynomial(grid)
    batch = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = draw(st.lists(entries, max_size=max(n + 2, 8)))
        if draw(st.booleans()):
            coeffs = poly_mul(m.coeffs, coeffs)
        value = naive_poly_at(Polynomial(coeffs), grid)
        grids = st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n)
        fixed = [
            [[1] * n for _ in range(n)],
            [[int(x == y) for y in range(n)] for x in range(n)],
            [[int(y == (x + 1) % n) for y in range(n)] for x in range(n)],
            [[0] * n for _ in range(n)],
            [[int(v != 0) for v in row] for row in value],
        ]
        mask = draw(st.sampled_from(fixed) | grids)
        first = next((v for vs, ms in zip(value, mask) for v, one in zip(vs, ms) if one), 0)
        batch.append((Polynomial(poly_scale(1 / first, coeffs) if first else coeffs), mask))
    return grid, batch


@pytest.mark.parametrize("stack_bytes", [None, 1], ids=["default", "one_prime_per_chunk"])
@given(class_certificate_cases())
@settings(max_examples=60, deadline=None)
def test_class_certificate_matches_naive_evaluation(stack_bytes, case):
    # p_i(B) = A_i on G and the class moments, against naive_poly_at over
    # Fractions: the batch in one call, and each pair alone on its moments
    from schemeforge import matrix

    grid, batch = case
    polys, masks = map(list, zip(*batch))
    exact = [naive_poly_at(p, grid) == [list(map(Fraction, row)) for row in mask] for p, mask in batch]
    with mock.patch.object(matrix, "STACK_BYTES", stack_bytes or matrix.STACK_BYTES):
        context = RationalMatrix(grid).powers
        moments = context.class_moments(max(0, *(p.degree for p in polys)), masks)
        assert context.evaluates_to(polys, moments) == exact
        assert [context.evaluates_to([p], [mu]) for p, mu in zip(polys, moments)] == [[v] for v in exact]


def test_deep_krylov_scaled_directed_cycle():
    """(3/2) P for the directed 30-cycle P: m = t^30 - (3/2)^30, so d = 29.

    B = (3/2) P with P primitive, so the basis reduces the powers P^k, whose
    integers carry no power of 3/2; the Hoffman polynomial is sum_j (2/3)^j
    t^j.
    """
    n = 30
    scale = Fraction(3, 2)
    b = RationalMatrix(
        [[scale if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    )
    expected = Polynomial([-(scale**n)] + [0] * (n - 1) + [1])
    # B = (3/2) C with C = P primitive, so the candidate is m_C = t^30 - 1
    candidate = _candidate(b, first_prime(b))
    assert candidate.coeffs == [-1] + [0] * (n - 1) + [1]
    # K = n: certified on its start vector, past ||v||_inf 2^30 > p
    assert candidate.cyclic and len(candidate.primes) > 1
    assert _annihilates_cyclic(candidate, 1)
    m = minimal_polynomial(b)
    assert m.degree - 1 == 29
    assert m == expected
    assert b.powers.scale == scale
    stack = b.powers._powers_mod([first_prime(b)], n)
    for k in range(n + 1):
        assert sorted(stack[0, k].tolist()) == [0] * (n * n - n) + [1] * n
    info = hoffman_polynomial(b)
    assert info.h == Polynomial([Fraction(2, 3) ** j for j in range(n)])


def test_unlucky_prime_is_caught_by_the_certificate(monkeypatch, fig2):
    """A start vector that misses part of m_C: the certificate rejects the
    candidate, and the next prime, with its own start vector, gives m and h.

    fig2 is lambda-DS, so C 1 = lambda_C 1: drawn as the all-ones vector on
    the first prime, v stops the Krylov sequence at once and the first
    candidate is t - lambda_C.
    """
    from schemeforge import hoffman

    grid = [list(r) for r in fig2.rows]
    b = RationalMatrix(grid)
    p = first_prime(b)
    draw = hoffman._start
    monkeypatch.setattr(
        hoffman, "_start", lambda n, q: np.ones(n, dtype=np.int64) if q == p else draw(n, q)
    )
    lam_c = int(classify(b).lam / b.powers.scale)
    candidate = _candidate(b, p)
    assert candidate.coeffs == [-lam_c, 1] and not candidate.cyclic
    assert not b.powers.certifies([-lam_c, 1], 0)
    assert minimal_polynomial(b) == oracle_minimal_polynomial(grid)
    h = hoffman_polynomial(b).h
    assert naive_poly_at(h, grid) == [[Fraction(1)] * len(grid) for _ in grid]


# --- the cyclic certificates: K = n ---------------------------------------------


@st.composite
def cyclic_cases(draw):
    """A content times a hoffman-ready lambda-DS draw or a directed weighted
    circulant (n <= 7) whose minimal polynomial has degree n, by the oracle."""
    content = draw(contents)
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        b = random_lambda_ds(n, draw(st.integers(2, 3)), draw(st.integers(0, 2**32)))
    else:
        shifts = draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n))
        shifts[1 % n] += 1  # the shift by one keeps the digraph strongly connected
        b = weighted_circulant(n, dict(enumerate(shifts)))
    grid = [[content * v for v in row] for row in b.rows]
    assume(oracle_minimal_polynomial(grid).degree == n)
    assume(classify(RationalMatrix(grid)).hoffman_ready)
    return grid


@given(cyclic_cases())
@settings(max_examples=60, deadline=None)
def test_cyclic_certificates_match_the_oracle(grid):
    """On K = n inputs m and h are the oracle's, h(B) = J, and the residue kernel never runs."""
    n = len(grid)
    b = RationalMatrix(grid)
    with mock.patch.object(MatrixPowerBasis, "combinations", side_effect=AssertionError("kernel called")):
        m = minimal_polynomial(b)
        info = hoffman_polynomial(b)
    assert b.powers.cyclic_start is not None
    assert m == oracle_minimal_polynomial(grid)
    assert info.h == oracle_hoffman(grid, info.lam)
    assert naive_poly_at(info.h, grid) == [[Fraction(1)] * n for _ in range(n)]


def cyclic_candidate():
    """I plus a superdiagonal of weights near 10^6: one Jordan block, so K = n
    = 5 and m = (t - 1)^5, whose coefficients are small against R^5 ~ 10^30;
    and its candidate on the first prime."""
    weights = [10**6, 10**6 + 1, 10**6, 10**6 + 1, 0]
    b = RationalMatrix([[int(x == y) + weights[x] * (y == x + 1) for y in range(5)] for x in range(5)])
    candidate = _candidate(b, first_prime(b))
    assert candidate.coeffs == [-1, 5, -10, 10, -5, 1]
    assert candidate.cyclic and len(candidate.primes) > 2
    return b, candidate


def kernel_verdicts(monkeypatch) -> list:
    """The verdicts of every `MatrixPowerBasis.certifies` call from now on, in order."""
    verdicts = []
    certify = MatrixPowerBasis.certifies

    def recorded(self, *args):
        verdicts.append(certify(self, *args))
        return verdicts[-1]

    monkeypatch.setattr(MatrixPowerBasis, "certifies", recorded)
    return verdicts


def test_forged_cyclic_candidate_is_never_accepted(monkeypatch):
    """Each coefficient of the cyclic candidate moved by 1 fails the cyclic
    certificate; forged on the first prime, the kernel rejects it too and
    the second prime's candidate gives m."""
    from schemeforge import hoffman

    b, candidate = cyclic_candidate()
    assert _annihilates_cyclic(candidate, b.powers.norm)
    for j in range(len(candidate.coeffs) - 1):
        for delta in (1, -1):
            coeffs = list(candidate.coeffs)
            coeffs[j] += delta
            assert not _annihilates_cyclic(replace(candidate, coeffs=coeffs), b.powers.norm)
    forged = replace(candidate, coeffs=[candidate.coeffs[0] + 1, *candidate.coeffs[1:]])
    draw = hoffman._candidate
    monkeypatch.setattr(hoffman, "_candidate", lambda b, p: forged if p == first_prime(b) else draw(b, p))
    verdicts = kernel_verdicts(monkeypatch)
    grid = [list(row) for row in b.rows]
    b = RationalMatrix(grid)
    assert minimal_polynomial(b) == oracle_minimal_polynomial(grid)
    assert verdicts == [False]
    assert not np.array_equal(b.powers.cyclic_start, candidate.start)


def test_cyclic_certificate_needs_every_prime_of_its_bound(monkeypatch):
    """A run one prime short of the bound ||v||_inf sum_j |m_j| R^j fails the
    cyclic certificate although its CRT still gives m exactly, the run that
    reaches the bound passes, and the pipeline sends the short run's
    candidate to the residue kernel, which accepts it."""
    from schemeforge import hoffman

    b, candidate = cyclic_candidate()
    norm, coeffs, primes = b.powers.norm, candidate.coeffs, candidate.primes
    bound = int(candidate.start.max()) * sum(abs(c) * norm**j for j, c in enumerate(coeffs))
    reach = next(i for i in range(1, len(primes) + 1) if prod(primes[:i]) > bound)
    assert reach > 1 and prod(primes[: reach - 1]) > 2 * max(map(abs, coeffs))

    def run(i):
        rows = candidate.rows[:i]
        assert [-y for y in _symmetric_crt(np.array(rows, dtype=np.int64), primes[:i])] + [1] == coeffs
        return replace(candidate, primes=primes[:i], rows=rows)

    assert _annihilates_cyclic(run(reach), norm)
    short = run(reach - 1)
    assert not _annihilates_cyclic(short, norm)
    monkeypatch.setattr(hoffman, "_candidate", lambda b, p: short)
    verdicts = kernel_verdicts(monkeypatch)
    grid = [list(row) for row in b.rows]
    b = RationalMatrix(grid)
    assert minimal_polynomial(b) == oracle_minimal_polynomial(grid)
    assert verdicts == [True] and b.powers.cyclic_start is short.start


def test_directed_12_cycle_takes_the_krylov_prime_alone(monkeypatch):
    """R = 1 and K = n = 12: the coefficient bound 2 binom(12, 6) and the
    relation bound 2^12 ||v||_inf <= 2^22 both lie below the Krylov prime, so
    no pivot system and no residue kernel runs for m or for h."""
    from schemeforge import hoffman

    n = 12
    b = RationalMatrix([[int(y == (x + 1) % n) for y in range(n)] for x in range(n)])
    p = first_prime(b)
    start = hoffman._start(n, p)
    assert start.min() >= 1 and start.max() <= 2**10 and 2**n * int(start.max()) < p
    monkeypatch.setattr(hoffman, "_solve_pivot_systems", lambda *args: pytest.fail("pivot systems ran"))
    monkeypatch.setattr(MatrixPowerBasis, "combinations", lambda *args: pytest.fail("residue kernel ran"))
    assert minimal_polynomial(b) == Polynomial([-1] + [0] * (n - 1) + [1])
    assert hoffman_polynomial(b).h == Polynomial([1] * n)


def test_hoffman_vector_check_rejects_a_moved_coefficient():
    """(n / g) q(C) v = (q(lambda_C) / g) (1^T v) 1 holds for the certified q
    and fails with any coefficient of n q / g, or its target, moved by 1."""
    b = random_lambda_ds(6, 3, 7)
    info = hoffman_polynomial(b)
    context = b.powers
    start = context.cyclic_start
    assert start is not None
    lam = int(info.lam / context.scale)
    q = divide_linear(context.primitive_minimal, lam)
    q_at_lam = sum(c * lam**j for j, c in enumerate(q))
    g = gcd(b.order, q_at_lam)
    scaled, target = [b.order // g * c for c in q], q_at_lam // g
    assert _sends_to_ones(context, scaled, target, start)
    assert not _sends_to_ones(context, scaled, target + 1, start)
    for j in range(len(scaled)):
        for delta in (1, -1):
            moved = list(scaled)
            moved[j] += delta
            assert not _sends_to_ones(context, moved, target, start)


def test_vector_check_uses_every_prime_its_bound_needs():
    """(C - I) v for B = [[1, p], [p, 1]] is p (v_2, v_1): it vanishes modulo
    the first prime p alone, and the bound ||v||_inf (1 + R) = ||v||_inf (p +
    2) needs a second prime; m_C(C) v = 0 holds."""
    p = first_prime(RationalMatrix([[1, 0], [0, 1]]))
    context = RationalMatrix([[1, p], [p, 1]]).powers
    for start in (np.ones(2, dtype=np.int64), _start(2, p)):
        assert not _sends_to_ones(context, [-1, 1], 0, start)
        assert _sends_to_ones(context, [1 - p * p, -2, 1], 0, start)


def test_certificate_uses_every_prime_its_bound_needs():
    """C - I for B = [[1, p], [p, 1]] vanishes modulo the first prime p alone.

    Its entries reach p, so the bound H = 1 + ||C||_inf = p + 2 needs a
    second prime; a certificate one prime short would accept t - 1.
    """
    p = first_prime(RationalMatrix([[1, 0], [0, 1]]))
    b = RationalMatrix([[1, p], [p, 1]])
    context = MatrixPowerBasis(b)
    assert np.array_equal(context.residues([p])[0], np.eye(2))
    assert not context.certifies([-1, 1], 0) and context.certifies([1 - p * p, -2, 1], 0)
    assert minimal_polynomial(b).degree == 2


HUGE_ENTRY_GRIDS = [
    [[2**64 + 1, 3, 0], [5, 2**70, 7], [1, 1, 2**65]],
    [[Fraction(1, 2**64 + 13), 2**63], [-(2**80), Fraction(2**90, 3)]],
    # the same 2 x 2 block twice: derogatory, degree 2 at n = 4
    [[2**64, 1, 0, 0], [3, 2**63 + 5, 0, 0], [0, 0, 2**64, 1], [0, 0, 3, 2**63 + 5]],
    [[2**100, 0], [0, 2**100]],
]


@pytest.mark.parametrize("grid", HUGE_ENTRY_GRIDS)
def test_minimal_polynomial_with_entries_past_int64(grid):
    grid = [[Fraction(v) for v in row] for row in grid]
    m = minimal_polynomial(RationalMatrix(grid))
    assert m == oracle_minimal_polynomial(grid)
    assert naive_poly_at(m, grid) == [[Fraction(0)] * len(grid) for _ in grid]


# large contents: B = s C with s far from 1, so m_B = s^K m_C(t / s) and h_j carry s^-j
contents = st.sampled_from(
    [1, Fraction(2**64 + 13), Fraction(1, 2**61 - 1), Fraction(3**40, 7), Fraction(-(2**70), 9)]
)


@st.composite
def certified_cases(draw):
    """A content times a lambda-DS draw (hoffman-ready when irreducible) or an
    integer grid with negative entries and entries past int64."""
    content = draw(contents)
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        b = random_lambda_ds(n, draw(st.integers(2, 3)), draw(st.integers(0, 2**32)))
        grid = [list(row) for row in b.rows]
    else:
        entry = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
        grid = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return [[content * Fraction(v) for v in row] for row in grid]


@given(certified_cases())
@settings(max_examples=60, deadline=None)
def test_residue_certificates_hold_under_the_fraction_oracle(grid):
    n = len(grid)
    b = RationalMatrix(grid)
    m = minimal_polynomial(b)
    assert naive_poly_at(m, grid) == [[Fraction(0)] * n for _ in range(n)]
    if classify(b).hoffman_ready:
        h = hoffman_polynomial(b).h
        assert naive_poly_at(h, grid) == [[Fraction(1)] * n for _ in range(n)]


@pytest.mark.parametrize(
    "primitive_minimal, message",
    [
        # fig2 = C / 4 has lambda_C = 4; t - 5 leaves a nonzero remainder at 4
        ([-5, 1], "ValueError: 4 is not a root"),
        # (t - 4)^2 gives q_C = t - 4, which vanishes at lambda_C
        ([16, -8, 1], "ArithmeticError: internal invariant violated: q(lambda) = 0"),
    ],
)
def test_broken_minimal_polynomial_is_an_internal_error(
    monkeypatch, capsys, fixtures_dir, primitive_minimal, message
):
    from schemeforge import hoffman
    from schemeforge.cli import run_command

    def broken(b):
        b.powers.primitive_minimal = primitive_minimal
        return b.powers.rescaled(primitive_minimal, len(primitive_minimal) - 1)

    monkeypatch.setattr(hoffman, "minimal_polynomial", broken)
    assert run_command(["hoffman", str(fixtures_dir / "fig2.mat"), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {message}")
