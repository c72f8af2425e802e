import cmath
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from schemeforge.exact import Polynomial
from schemeforge.hoffman import minimal_polynomial
from schemeforge.matrix import MatrixPowerBasis, RationalMatrix
from schemeforge.spectral import (
    RootConvergenceError,
    Spectrum,
    SpectrumDegeneracyError,
    idempotents,
    perron_check,
    roots,
)
from schemeforge.stochastic import random_lambda_ds

from conftest import FIXTURES, load_fixture
from oracles import algebra_membership, all_ones, hamming_adjacency, johnson_adjacency, scaled


def directed_cycle_matrix(n, scale=1):
    return RationalMatrix(
        [[scale if y == (x + 1) % n else 0 for y in range(n)] for x in range(n)]
    )


def paley_tournament(p):
    """The Paley tournament on Z_p, p = 3 mod 4: x -> y when y - x is a nonzero square."""
    squares = {x * x % p for x in range(1, p)}
    return RationalMatrix([[int((y - x) % p in squares) for y in range(p)] for x in range(p)])


def lagrange_projectors(b, values):
    """Reference E_i: one dense product and one division per factor of each Lagrange product."""
    bf = b.to_float().astype(complex)
    eye = np.eye(b.order, dtype=complex)
    projectors = []
    for i, li in enumerate(values):
        e = eye.copy()
        for j, lj in enumerate(values):
            if j != i:
                e = e @ (bf - lj * eye) / (li - lj)
        projectors.append(e)
    return projectors


def assert_multiset_close(actual, expected, tol=1e-9):
    remaining = list(expected)
    for z in actual:
        best = min(remaining, key=lambda w: abs(w - z))
        assert abs(best - z) < tol
        remaining.remove(best)
    assert not remaining


def test_roots_of_quadratic():
    spectrum = roots(Polynomial([-1, 0, 1]))
    assert_multiset_close(spectrum.eigenvalues, [1.0, -1.0])
    assert spectrum.eigenvalues[0] == 1.0  # dominant root listed first


@pytest.mark.parametrize("n", (3, 5, 8))
def test_roots_of_unity(n):
    spectrum = roots(Polynomial([-1] + [0] * (n - 1) + [1]))
    expected = [cmath.exp(2j * cmath.pi * k / n) for k in range(n)]
    assert_multiset_close(spectrum.eigenvalues, expected)
    assert abs(spectrum.eigenvalues[0] - 1.0) < 1e-12


def test_roots_of_fig2_minimal_polynomial(fig2):
    m = minimal_polynomial(fig2)
    spectrum = roots(m)
    s = 3 ** 0.5 / 4
    assert_multiset_close(
        spectrum.eigenvalues, [1.0, 0.5, complex(0.25, s), complex(0.25, -s)]
    )
    assert spectrum.eigenvalues[0] == 1.0


def test_roots_are_conjugate_closed(fig1):
    spectrum = roots(minimal_polynomial(fig1))
    values = list(spectrum.eigenvalues)
    for z in values:
        assert any(w == z.conjugate() for w in values)


def test_root_residuals_are_tiny(fig1, fig2):
    for b in (fig1, fig2):
        m = minimal_polynomial(b)
        spectrum = roots(m)
        scale = max(abs(float(c)) for c in m.coeffs)
        assert all(r / scale < 1e-10 for r in spectrum.residuals)


def test_roots_requires_degree():
    with pytest.raises(ValueError):
        roots(Polynomial([1]))


def test_roots_non_convergence_carries_residuals():
    m = minimal_polynomial(random_lambda_ds(28, 2, seed=1))
    with pytest.raises(RootConvergenceError) as excinfo:
        roots(m, tol=1e-300)
    assert len(excinfo.value.residuals) == m.degree


def test_idempotents_of_scaled_allones():
    n = 4
    jn = scaled(Fraction(1, n), all_ones(n))
    spectrum = roots(minimal_polynomial(jn))
    family = idempotents(jn, spectrum)
    e_perron = family.projectors[0]
    assert np.max(np.abs(e_perron - np.full((n, n), 1.0 / n))) < 1e-9
    assert np.max(np.abs(family.projectors[1] - (np.eye(n) - 1.0 / n))) < 1e-9


def test_idempotents_fig2_invariants(fig2):
    spectrum = roots(minimal_polynomial(fig2))
    family = idempotents(fig2, spectrum)
    assert all(v < 1e-9 for v in family.residuals.values())


def test_idempotents_cyclic_are_fourier_projectors():
    n = 3
    c = directed_cycle_matrix(n)
    spectrum = roots(minimal_polynomial(c))
    family = idempotents(c, spectrum)
    cf = c.to_float().astype(complex)
    powers = [np.eye(n, dtype=complex), cf, cf @ cf]
    for value, projector in zip(spectrum.eigenvalues, family.projectors):
        expected = sum(
            (value ** -k if value != 0 else 0) * powers[k] for k in range(n)
        ) / n
        assert np.max(np.abs(projector - expected)) < 1e-9


def test_idempotents_reject_degenerate_spectrum(fig2):
    fake = Spectrum(eigenvalues=(1.0, 1.0 + 1e-12), residuals=(0.0, 0.0))
    with pytest.raises(SpectrumDegeneracyError):
        idempotents(fig2, fake)


def test_degeneracy_names_the_first_close_pair_not_the_closest(fig2):
    # (1, 2) comes first in row-major order; (3, 4) is the closer pair
    values = (3 + 0j, 1 + 0j, complex(1 + 5e-10, 0), 0j, complex(1e-11, 0))
    fake = Spectrum(eigenvalues=values, residuals=(0.0,) * len(values))
    with pytest.raises(SpectrumDegeneracyError) as excinfo:
        idempotents(fig2, fake)
    assert str(excinfo.value) == "eigenvalues (1+0j) and (1.0000000005+0j) closer than 1e-09"


REFERENCE_CASES = (
    [load_fixture(path.name) for path in sorted(FIXTURES.glob("*.mat"))]
    + [directed_cycle_matrix(n) for n in range(2, 9)]
    + [directed_cycle_matrix(4, scale=Fraction(3, 2))]
    + [random_lambda_ds(n, 3, seed) for n in range(1, 13) for seed in range(3)]
    # repeated roots: eig's own vectors for them are dependent
    + [scaled(Fraction(1, n), all_ones(n)) for n in (4, 16)]
    + [RationalMatrix(hamming_adjacency(3, 3)), RationalMatrix(johnson_adjacency(7, 3))]
    + [paley_tournament(7)]  # normal, not symmetric, with repeated complex roots
)


@pytest.mark.parametrize("b", REFERENCE_CASES)
def test_idempotents_match_the_lagrange_loop(b):
    spectrum = roots(minimal_polynomial(b))
    family = idempotents(b, spectrum)
    expected = lagrange_projectors(b, spectrum.eigenvalues)
    assert len(family.projectors) == len(expected)
    for projector, reference in zip(family.projectors, expected):
        assert np.max(np.abs(projector - reference)) < 1e-9
    assert list(family.residuals) == ["mutual", "sum", "reconstruction", "hermitian"]


def test_idempotents_need_an_eigenvalue_near_every_root(fig2):
    # 0.75 + 2i is no eigenvalue of fig2, and each eigenvalue of fig2 is nearer its own root
    spectrum = roots(minimal_polynomial(fig2))
    fake = Spectrum(eigenvalues=spectrum.eigenvalues + (0.75 + 2j,), residuals=(0.0,) * 5)
    with pytest.raises(SpectrumDegeneracyError, match="no eigenvalue of B near"):
        idempotents(fig2, fake)


def test_idempotents_scratch_stays_below_three_stacks():
    # the stack of the k projectors is k n^2 complex entries; one (kn x kn)
    # product of every pair at once would take k^2 n^2
    b = random_lambda_ds(24, 3, seed=0)
    spectrum = roots(minimal_polynomial(b))
    k, n = len(spectrum.eigenvalues), b.order
    tracemalloc.start()
    try:
        idempotents(b, spectrum)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * k * n * n * 16


def test_power_identity(fig2):
    spectrum = roots(minimal_polynomial(fig2))
    family = idempotents(fig2, spectrum)
    bf = fig2.to_float().astype(complex)
    power = np.eye(6, dtype=complex)
    for h in (1, 2, 3):
        power = power @ bf
        reconstructed = sum(
            value**h * projector
            for value, projector in zip(spectrum.eigenvalues, family.projectors)
        )
        assert np.max(np.abs(power - reconstructed)) < 1e-8


def test_transpose_is_polynomial_in_normal_matrix(fig2):
    p = algebra_membership(fig2.transpose(), fig2, degree=3)
    assert p is not None
    assert MatrixPowerBasis(fig2).evaluate(p) == fig2.transpose()


def test_perron_check_fig2(fig2):
    spectrum = roots(minimal_polynomial(fig2))
    report = perron_check(fig2, spectrum)
    assert report.modulus_matches and report.perron_simple
    assert report.max_modulus == pytest.approx(1.0, abs=1e-12)


def test_perron_check_fig1(fig1):
    spectrum = roots(minimal_polynomial(fig1))
    report = perron_check(fig1, spectrum)
    assert report.modulus_matches and report.perron_simple


def test_perron_check_scaled_permutation_spectrum_on_circle():
    b = directed_cycle_matrix(4, scale=Fraction(3, 2))
    spectrum = roots(minimal_polynomial(b))
    report = perron_check(b, spectrum)
    assert report.modulus_matches and report.perron_simple
    assert all(abs(abs(z) - 1.5) < 1e-9 for z in spectrum.eigenvalues)
    assert report.perron_simple


def test_perron_check_requires_line_sums():
    b = RationalMatrix([[1, 0], [1, 1]])
    spectrum = roots(minimal_polynomial(b))
    with pytest.raises(ValueError):
        perron_check(b, spectrum)


def test_eigencount_equals_minpoly_degree_for_normal(fig2):
    m = minimal_polynomial(fig2)
    spectrum = roots(m)
    assert len(set(spectrum.eigenvalues)) == m.degree
