"""Floating-point spectral sidecar.

Numeric roots of the (exact) minimal polynomial as the eigenvalues of its
companion matrix (`numpy.roots`, one LAPACK call), each refined by one
Newton step; the primitive idempotents E_i = V_i W_i from one
eigendecomposition B = V diag(lambda) V^-1, with B's eigenvalues grouped by
the nearest root and W = V^-1; and a Perron sanity report. LAPACK returns
the eigenvalues of a real matrix as exact conjugate pairs, and companion
eigenvalues are backward stable (Edelman and Murakami, Math. Comp. 64,
1995), so no iteration, pairing pass or iteration cap is needed. The
idempotents take O(n^3) work whatever deg m is, where the Lagrange form
prod_{j != i} (B - lambda_j I) / (lambda_i - lambda_j) divides by products
of root gaps that at deg m = 64 leave its residuals meaningless.
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
    """Spectral projectors E_i = V_i W_i from one eigendecomposition, plus measured invariant residuals.

    V_i holds the eigenvectors of B grouped to the i-th root and W_i the
    matching rows of W = V^-1. residuals keys: "mutual" (E_i E_j vs
    delta_ij E_i, over all ordered pairs), "sum" (sum E_i vs I),
    "reconstruction" (B vs sum lambda_i E_i), "hermitian" (E_i vs E_i*).
    """

    projectors: tuple[np.ndarray, ...]
    residuals: dict[str, float]


def idempotents(
    b: RationalMatrix, spectrum: Spectrum, tol: float = ASSERTION_TOL
) -> IdempotentFamily:
    """E_i = V_i W_i, with the eigenvectors of B grouped by the nearest root and W = V^-1.

    Raises SpectrumDegeneracyError naming the first pair i < j, in row-major
    order, whose roots are closer than tol; naming a root that no
    eigenvalue of B is nearest to; or when LAPACK fails on B or V. A
    root's eigenvectors are eig's column when it has one eigenvalue, and
    otherwise an orthonormal basis of null(B - lambda_i I), the right
    singular vectors of its m_i smallest singular values: eig returns
    dependent vectors for a repeated eigenvalue. With M = W V - I,
    E_i E_j - delta_ij E_i = V_i M_ij W_j, so "mutual" needs an explicit
    product only for a pair of repeated roots: for a simple root the term
    is an outer product, whose largest entry is the product of its
    factors' largest entries. No (k, n, n) array is built besides the
    returned stack.
    """
    values = spectrum.eigenvalues
    lam = np.array(values, dtype=complex)
    close = np.argwhere(np.triu(np.abs(lam[:, None] - lam) < tol, 1))
    if close.size:
        i, j = close[0]
        raise SpectrumDegeneracyError(
            f"eigenvalues {values[i]} and {values[j]} closer than {tol}"
        )
    bf = b.to_float()
    k, n = len(values), b.order
    eye = np.eye(n)
    try:
        found, vectors = np.linalg.eig(bf)
        owner = np.abs(found[:, None] - lam).argmin(axis=1)
        counts = np.bincount(owner, minlength=k)
        if not counts.all():
            raise SpectrumDegeneracyError(f"no eigenvalue of B near {values[int(counts.argmin())]}")
        v = vectors[:, np.argsort(owner, kind="stable")].astype(complex)
        ends = np.cumsum(counts)
        blocks = [slice(end - count, end) for end, count in zip(ends.tolist(), counts.tolist())]
        for i in np.flatnonzero(counts > 1):
            v[:, blocks[i]] = np.linalg.svd(bf - lam[i] * eye)[2][-counts[i] :].conj().T
        w = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise SpectrumDegeneracyError(f"eigenvectors of B not separable: {exc}") from None
    stack = np.empty((k, n, n), dtype=complex)
    hermitian = 0.0
    for i, block in enumerate(blocks):
        e = np.matmul(v[:, block], w[block], out=stack[i])
        hermitian = max(hermitian, np.abs(e - e.conj().T).max())
    m = w @ v - eye
    # with simple roots i and j the term's largest entry is |M_ij| max|v_i| max|w_j|
    simple = counts == 1
    columns = ends[simple] - 1  # each simple root's one column of V and row of W
    v_top = np.abs(v[:, columns]).max(axis=0)
    w_top = np.abs(w[columns]).max(axis=1)
    mutual = (np.abs(m[np.ix_(columns, columns)]) * v_top[:, None] * w_top).max(initial=0.0)
    for j in np.flatnonzero(~simple):
        right = m[:, blocks[j]] @ w[blocks[j]]  # row block i holds M_ij W_j
        left = v[:, blocks[j]] @ m[blocks[j]]  # column block i holds V_j M_ji
        mutual = max(
            mutual,
            (np.abs(right[columns]).max(axis=1) * v_top).max(initial=0.0),
            (np.abs(left[:, columns]).max(axis=0) * w_top).max(initial=0.0),
        )
        for i in np.flatnonzero(~simple):
            mutual = max(mutual, np.abs(v[:, blocks[i]] @ right[blocks[i]]).max())
    scaled_v = v * np.repeat(lam, counts)
    residuals = {
        "mutual": float(mutual),
        "sum": float(np.abs(v @ w - eye).max()),
        "reconstruction": float(np.abs(bf - scaled_v @ w).max()),
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
