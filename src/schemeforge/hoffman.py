"""Exact minimal polynomials and Hoffman polynomials.

The minimal polynomial is found modulo a word-size prime and certified
exactly. Each power B^k = ints_k / delta_k of the power basis is reduced
modulo p on its integers and eliminated incrementally as an int64 vector;
the first dependent power gives a candidate degree k and k pivot
coordinates. One exact k x k solve on those coordinates gives the
coefficients, and the candidate is accepted only after m(B) = 0 is checked
on all n^2 integers; otherwise the next prime is tried. No verdict depends
on the choice of prime. For a lambda-doubly stochastic irreducible B with
lambda != 0, the Hoffman polynomial h is the unique minimal-degree
polynomial with h(B) = J; it is always verified against J, as the matrix
equality h(B) == J, before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator, Optional, Sequence

import numpy as np

from .exact import Polynomial
from .matrix import MatrixPowerBasis, RationalMatrix, solve_rational_system
from .stochastic import HYPOTHESIS_MESSAGES, MatrixClassification, classify


class HoffmanHypothesisError(ValueError):
    """The input fails a hypothesis under which the Hoffman polynomial exists."""

    def __init__(self, hypothesis: str):
        self.hypothesis = hypothesis
        super().__init__(f"Hoffman polynomial undefined: {hypothesis}")


@dataclass(frozen=True)
class MinimalPolynomial:
    """Monic polynomial of least degree annihilating B."""

    poly: Polynomial

    @property
    def degree(self) -> int:
        return self.poly.degree


@dataclass(frozen=True)
class HoffmanPolynomial:
    """h = (n / q(lambda)) * q where (t - lambda) q(t) is the minimal polynomial."""

    h: Polynomial
    q: Polynomial
    lam: Fraction


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7, which is exact below 3.2e9."""
    bases = (2, 3, 5, 7)
    if n in bases:
        return True
    if n < 2 or any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _word_primes() -> Iterator[int]:
    """The odd primes below 2^31 in descending order, from 2^31 - 1."""
    return (p for p in range(2**31 - 1, 2, -2) if _is_prime(p))


def _krylov_pivots(basis: MatrixPowerBasis, p: int) -> list[int]:
    """Pivot coordinates of I, B, ..., B^(k-1), where B^k is the first power
    that depends on the lower ones modulo p.

    Each ints_k = basis.power(k).ints is reduced mod p (on Python ints, so
    entries of any size work) and then against the rows kept so far, in
    insertion order. A kept row is normalized to 1 at its pivot and is zero
    at the pivots of all earlier rows, so a vector in their span reduces to
    exactly zero. All residues are below p < 2^31, so every product fits in
    int64.
    """
    kept: list[tuple[int, np.ndarray]] = []  # (pivot, row)
    for k in count():
        vector = np.array([v % p for v in basis.power(k).ints], dtype=np.int64)
        for pivot, row in kept:
            a = vector[pivot]
            if a:
                vector = (vector - a * row) % p
        nonzero = np.flatnonzero(vector)
        if not nonzero.size:
            return [pivot for pivot, _ in kept]
        pivot = int(nonzero[0])
        kept.append((pivot, vector * pow(int(vector[pivot]), -1, p) % p))


def _candidate(basis: MatrixPowerBasis, p: int) -> Polynomial:
    """Monic m of the degree k found modulo p, solved exactly on the pivots R.

    sum_j y_j ints_j[R] = ints_k[R] gives m(t) = t^k - sum_j y_j (delta_j /
    delta_k) t^j. The k x k minor of ints_0, ..., ints_(k-1) on R is nonzero
    mod p, hence nonzero over the integers, so the solve has one solution
    and I, B, ..., B^(k-1) are independent: deg m_B >= k.
    """
    pivots = _krylov_pivots(basis, p)
    k = len(pivots)
    powers = [basis.power(j) for j in range(k + 1)]
    columns = [[power.ints[r] for r in pivots] for power in powers[:k]]
    solution = solve_rational_system(columns, [powers[k].ints[r] for r in pivots])
    return Polynomial(
        [-y * Fraction(powers[j].den, powers[k].den) for j, y in enumerate(solution)] + [1]
    )


def minimal_polynomial(
    b: RationalMatrix, basis: Optional[MatrixPowerBasis] = None
) -> MinimalPolynomial:
    """Smallest monic m with m(B) = 0: a candidate modulo a prime, certified exactly.

    A candidate m with m(B) = 0 on all entries is monic of degree k <= deg
    m_B and annihilates B, so m = m_B. Otherwise p divides one of finitely
    many fixed nonzero minors, and the next prime is tried.
    """
    if basis is None:
        basis = MatrixPowerBasis(b)
    for p in _word_primes():
        candidate = _candidate(basis, p)
        if basis.annihilated_by(candidate):
            return MinimalPolynomial(candidate)
    raise ArithmeticError("no prime below 2^31 gave a certified minimal polynomial")


def hoffman_polynomial(
    b: RationalMatrix,
    classification: Optional[MatrixClassification] = None,
    basis: Optional[MatrixPowerBasis] = None,
    minimal: Optional[MinimalPolynomial] = None,
) -> HoffmanPolynomial:
    """Hoffman polynomial of a lambda-DS irreducible matrix, verified exactly.

    Raises HoffmanHypothesisError naming the first hypothesis the gate finds
    failed (normality is not required).
    A precomputed minimal polynomial of B may be passed in; h(B) = J is
    checked either way.
    """
    cls = classification if classification is not None else classify(b)
    failed = cls.failed_hypothesis(require_normal=False)
    if failed is not None:
        raise HoffmanHypothesisError(HYPOTHESIS_MESSAGES[failed])
    if basis is None:
        basis = MatrixPowerBasis(b)
    if minimal is None:
        minimal = minimal_polynomial(b, basis)
    q = minimal.poly.divide_linear(cls.lam)
    q_at_lam = q(cls.lam)
    if q_at_lam == 0:
        # impossible for a valid input: lambda is a simple eigenvalue
        raise ArithmeticError("internal invariant violated: q(lambda) = 0")
    h = Fraction(b.order, 1) / q_at_lam * q
    if basis.evaluate(h) != RationalMatrix.ones(b.order):
        raise ArithmeticError("internal invariant violated: h(B) != J")
    return HoffmanPolynomial(h=h, q=q, lam=cls.lam)


def hoffman_product_form_check(
    b: RationalMatrix,
    roots: Sequence[complex],
    hoffman: Optional[HoffmanPolynomial] = None,
) -> float:
    """Compare h against its factored form over the numeric roots of q.

    Evaluates (n / q(lambda)) q(t) and (n / prod(lambda - r)) prod(t - r) at
    a fixed sample grid and returns the largest absolute discrepancy. Purely
    diagnostic; nothing exact depends on it. The Hoffman polynomial of B is
    computed unless passed in.
    """
    info = hoffman if hoffman is not None else hoffman_polynomial(b)
    lam = float(info.lam)
    n = b.order
    h_coeffs = [float(c) for c in reversed(info.h.coeffs)]  # descending, as np.polyval takes them
    pi0 = 1.0 + 0.0j
    for r in roots:
        pi0 *= lam - r
    worst = 0.0
    for s in (0.0, 0.25 * lam, 0.5 * lam, 0.75 * lam, lam, 1.25 * lam, -0.5 * lam):
        exact_side = np.polyval(h_coeffs, s)
        product = 1.0 + 0.0j
        for r in roots:
            product *= s - r
        factored_side = n / pi0 * product
        worst = max(worst, abs(exact_side - factored_side))
    return worst
