import cmath
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

from oracles import algebra_membership, scaled


def directed_cycle_matrix(n, scale=1):
    return RationalMatrix(
        [[scale if y == (x + 1) % n else 0 for y in range(n)] for x in range(n)]
    )


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
    jn = scaled(Fraction(1, n), RationalMatrix.ones(n))
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
    assert report.ok
    assert report.max_modulus == pytest.approx(1.0, abs=1e-12)


def test_perron_check_fig1(fig1):
    spectrum = roots(minimal_polynomial(fig1))
    assert perron_check(fig1, spectrum).ok


def test_perron_check_scaled_permutation_spectrum_on_circle():
    b = directed_cycle_matrix(4, scale=Fraction(3, 2))
    spectrum = roots(minimal_polynomial(b))
    report = perron_check(b, spectrum)
    assert report.ok
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
