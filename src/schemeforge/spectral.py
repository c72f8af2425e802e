"""Floating-point spectral sidecar.

Numeric roots of the (exact) minimal polynomial as the eigenvalues of its
companion matrix (`numpy.roots`, one LAPACK call), each refined by one
Newton step; Lagrange-interpolation primitive idempotents, built from
prefix and suffix products of the factors (B - lambda_j I) in one stack and
checked by chunked batched products; and a Perron sanity report. LAPACK
returns the eigenvalues of a real matrix as exact conjugate pairs, and
companion eigenvalues are backward stable (Edelman and Murakami, Math.
Comp. 64, 1995), so no iteration, pairing pass or iteration cap is needed.
Everything here is advisory: the exact pipeline never consumes these values
for an accept/reject decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import Polynomial
from .matrix import RationalMatrix
from .stochastic import classify

RESIDUAL_TOL = 1e-12
ASSERTION_TOL = 1e-9
CHUNK = 4  # E_j per batched product in the mutual check


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
    # coefficients or roots near the float64 range overflow to inf and NaN;
    # the residual check below rejects them, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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


def _projector_stack(bf: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """E_i = prod_{j != i} (B - lambda_j I) / (lambda_i - lambda_j) for every i, as one (k, n, n) stack.

    Every factor and every difference is divided by rho = max(1, max
    |lambda_j|), so that the products stay bounded. The prefixes
    P_i = prod_{j < i} are written in place into the stack; one running
    suffix S_i = prod_{j > i}, swept downwards, turns each P_i into
    P_i S_i / prod_{j != i} (lambda_i - lambda_j) = E_i. That is about 3k
    dense products for k eigenvalues, and no scratch beyond a few n x n
    matrices.
    """
    k, n = len(lam), bf.shape[0]
    eye = np.eye(n, dtype=complex)
    rho = float(np.abs(lam).max(initial=1.0))

    def factor(j: int) -> np.ndarray:
        """(B - lambda_j I) / rho."""
        return (bf - lam[j] * eye) / rho

    gaps = (lam[:, None] - lam) / rho
    np.fill_diagonal(gaps, 1)
    denominators = gaps.prod(axis=1)
    stack = np.empty((k, n, n), dtype=complex)
    stack[0] = eye
    for i in range(1, k):
        np.matmul(stack[i - 1], factor(i - 1), out=stack[i])
    suffix = eye
    for i in range(k - 1, -1, -1):
        stack[i] = stack[i] @ suffix
        stack[i] /= denominators[i]
        if i:
            suffix = factor(i) @ suffix
    return stack


def idempotents(
    b: RationalMatrix, spectrum: Spectrum, tol: float = ASSERTION_TOL
) -> IdempotentFamily:
    """E_i = prod_{j != i} (B - lambda_j I) / (lambda_i - lambda_j), from prefix and suffix products.

    Raises SpectrumDegeneracyError naming the first pair i < j, in row-major
    order, whose eigenvalues are closer than tol. The E_i are polynomials in
    B, so they commute and the pairs i <= j cover every E_i E_j: the
    "mutual" check multiplies E_i by CHUNK of the E_j at a time into one
    reused buffer, and "sum", "reconstruction" and "hermitian" accumulate
    per i, so the scratch beyond the k projectors stays O(CHUNK n^2).
    """
    values = spectrum.eigenvalues
    lam = np.array(values, dtype=complex)
    close = np.argwhere(np.triu(np.abs(lam[:, None] - lam) < tol, 1))
    if close.size:
        i, j = close[0]
        raise SpectrumDegeneracyError(
            f"eigenvalues {values[i]} and {values[j]} closer than {tol}"
        )
    bf = b.to_float().astype(complex)
    stack = _projector_stack(bf, lam)
    k, n = len(values), b.order
    mutual = hermitian = 0.0
    total = np.zeros((n, n), dtype=complex)
    combination = np.zeros((n, n), dtype=complex)
    scratch = np.empty((min(CHUNK, k), n, n), dtype=complex)
    for i, e in enumerate(stack):
        for j in range(i, k, CHUNK):
            block = stack[j : j + CHUNK]
            products = np.matmul(e, block, out=scratch[: len(block)])
            if j == i:
                products[0] -= e
            mutual = max(mutual, np.abs(products).max())
        total += e
        combination += lam[i] * e
        hermitian = max(hermitian, np.abs(e - e.conj().T).max())
    residuals = {
        "mutual": float(mutual),
        "sum": float(np.abs(total - np.eye(n)).max()),
        "reconstruction": float(np.abs(bf - combination).max()),
        "hermitian": float(hermitian),
    }
    return IdempotentFamily(projectors=tuple(stack), residuals=residuals)


@dataclass(frozen=True)
class PerronReport:
    """Sanity report tying the numeric spectrum back to the rational lambda."""

    lam: float
    max_modulus: float
    modulus_matches: bool
    perron_simple: bool

    @property
    def ok(self) -> bool:
        return self.modulus_matches and self.perron_simple


def perron_check(b: RationalMatrix, spectrum: Spectrum, tol: float = ASSERTION_TOL) -> PerronReport:
    """Check lambda dominates the spectrum and is simple.

    B 1 = lambda 1 holds exactly whenever the classification has lambda
    (classify sets it only when every line sum of B agrees), so it needs
    no numeric check.
    """
    lam = classify(b).lam
    if lam is None:
        raise ValueError("perron check needs a lambda-doubly stochastic matrix")
    values = spectrum.eigenvalues
    perron = values[0]  # roots lists lambda first
    max_modulus = max(abs(v) for v in values)
    min_gap = min((abs(perron - v) for v in values[1:]), default=float("inf"))
    return PerronReport(
        lam=float(lam),
        max_modulus=max_modulus,
        modulus_matches=abs(max_modulus - float(lam)) < tol and abs(perron - float(lam)) < tol,
        perron_simple=min_gap > tol,
    )
