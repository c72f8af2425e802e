"""Floating-point spectral sidecar.

Numeric roots of the (exact) minimal polynomial as the eigenvalues of its
companion matrix (`numpy.roots`, one LAPACK call), each refined by one
Newton step; Lagrange-interpolation primitive idempotents; and a Perron
sanity report. LAPACK returns the eigenvalues of a real matrix as exact
conjugate pairs, and companion eigenvalues are backward stable (Edelman and
Murakami, Math. Comp. 64, 1995), so no iteration, pairing pass or iteration
cap is needed. Everything here is advisory: the exact pipeline never
consumes these values for an accept/reject decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import Polynomial
from .matrix import RationalMatrix
from .stochastic import MatrixClassification, classify

RESIDUAL_TOL = 1e-12
ASSERTION_TOL = 1e-9


class RootConvergenceError(RuntimeError):
    """A root's relative residual exceeds the bound; carries |m(z)| for every root."""

    def __init__(self, residuals: Sequence[float]):
        self.residuals = tuple(residuals)
        super().__init__(f"root residual above the bound; residuals {self.residuals}")


class SpectrumDegeneracyError(RuntimeError):
    """Two numeric eigenvalues are too close to separate idempotents."""


@dataclass(frozen=True)
class Spectrum:
    """Numeric roots (Perron value first) with per-root residuals |m(root)|."""

    eigenvalues: tuple[complex, ...]
    residuals: tuple[float, ...]


def roots(m: Polynomial, tol: float = RESIDUAL_TOL) -> Spectrum:
    """All roots of m, sorted by descending real part, then by imaginary part.

    The eigenvalues of the companion matrix of m, each moved by one Newton
    step (skipped where m'(z) = 0). Raises RootConvergenceError when a root's
    relative residual |m(z)| / sum_j |c_j| |z|^j exceeds tol. For a
    nonnegative matrix with line sums lambda, lambda has the strictly
    largest real part of any eigenvalue, so it comes first.
    """
    if m.degree < 1:
        raise ValueError("need a polynomial of degree at least 1")
    coeffs = np.array([float(c) for c in reversed(m.coeffs)])  # descending, as numpy takes them
    z = np.roots(coeffs).astype(complex)
    slope = np.polyval(np.polyder(coeffs), z)
    step = slope != 0
    z[step] -= np.polyval(coeffs, z[step]) / slope[step]
    z = z[np.lexsort((z.imag, -z.real))]
    residuals = np.abs(np.polyval(coeffs, z))
    scale = np.polyval(np.abs(coeffs), np.abs(z))
    if not np.all(residuals <= tol * scale):  # a NaN residual fails too
        raise RootConvergenceError(residuals.tolist())
    return Spectrum(eigenvalues=tuple(z.tolist()), residuals=tuple(residuals.tolist()))


@dataclass(frozen=True)
class IdempotentFamily:
    """Lagrange-built spectral projectors E_i plus measured invariant residuals.

    residuals keys: "mutual" (E_i E_j vs delta_ij E_i), "sum" (sum E_i vs I),
    "reconstruction" (B vs sum lambda_i E_i), "hermitian" (E_i vs E_i*).
    """

    projectors: tuple[np.ndarray, ...]
    residuals: dict[str, float]


def idempotents(
    b: RationalMatrix, spectrum: Spectrum, tol: float = ASSERTION_TOL
) -> IdempotentFamily:
    """E_i = prod_{j != i} (B - lambda_j I) / (lambda_i - lambda_j)."""
    values = spectrum.eigenvalues
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) < tol:
                raise SpectrumDegeneracyError(
                    f"eigenvalues {values[i]} and {values[j]} closer than {tol}"
                )
    bf = b.to_float().astype(complex)
    n = b.order
    eye = np.eye(n, dtype=complex)
    projectors = []
    for i, li in enumerate(values):
        e = eye.copy()
        for j, lj in enumerate(values):
            if j != i:
                e = e @ (bf - lj * eye) / (li - lj)
        projectors.append(e)
    # the E_i are polynomials in B, so they commute: the pairs i <= j cover every E_i E_j
    mutual = 0.0
    for i, ei in enumerate(projectors):
        for j in range(i, len(projectors)):
            target = ei if i == j else np.zeros_like(ei)
            mutual = max(mutual, np.max(np.abs(ei @ projectors[j] - target)))
    total = sum(projectors)
    residuals = {
        "mutual": float(mutual),
        "sum": float(np.max(np.abs(total - eye))),
        "reconstruction": float(
            np.max(np.abs(bf - sum(l * e for l, e in zip(values, projectors))))
        ),
        "hermitian": float(
            max(np.max(np.abs(e - e.conj().T)) for e in projectors)
        ),
    }
    return IdempotentFamily(projectors=tuple(projectors), residuals=residuals)


@dataclass(frozen=True)
class PerronReport:
    """Sanity report tying the numeric spectrum back to the rational lambda."""

    lam: float
    max_modulus: float
    modulus_matches: bool
    perron_simple: bool
    min_gap_to_perron: float
    allones_eigenvector_exact: bool

    @property
    def ok(self) -> bool:
        return self.modulus_matches and self.perron_simple and self.allones_eigenvector_exact


def perron_check(
    b: RationalMatrix,
    spectrum: Spectrum,
    tol: float = ASSERTION_TOL,
    classification: MatrixClassification | None = None,
) -> PerronReport:
    """Check lambda dominates the spectrum, is simple, and B 1 = lambda 1 exactly."""
    cls = classification if classification is not None else classify(b)
    if cls.lam is None:
        raise ValueError("perron check needs a lambda-doubly stochastic matrix")
    lam = cls.lam
    values = spectrum.eigenvalues
    perron = values[0]  # roots lists lambda first
    max_modulus = max(abs(v) for v in values)
    min_gap = min((abs(perron - v) for v in values[1:]), default=float("inf"))
    row_sums_ok = all(sum(row, start=0 * lam) == lam for row in b.rows)
    return PerronReport(
        lam=float(lam),
        max_modulus=max_modulus,
        modulus_matches=abs(max_modulus - float(lam)) < tol and abs(perron - float(lam)) < tol,
        perron_simple=min_gap > tol,
        min_gap_to_perron=min_gap,
        allones_eigenvector_exact=row_sums_ok,
    )
