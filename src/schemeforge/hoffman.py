"""Exact minimal polynomials and Hoffman polynomials, on word-prime residues.

The stage reads B in its one exact form B = s C, kept in B's analysis
context (see `matrix`): C = ints / gcd(ints) is the primitive integer
matrix of B's cleared integers and s = gcd(ints) / den. All the work is on
C, and the context's `rescaled` applies s to the certified results. By
Gauss's lemma the minimal polynomial m_C is in Z[t], and each of its K
roots is an eigenvalue of C, at most R = ||C||_inf (the largest absolute
row sum) in modulus, so its coefficients obey |c_j| <= binom(K, j) R^(K -
j). They come out exactly from a symmetric CRT over primes p with prod p >
2 max_j binom(K, j) R^(K - j), with no rational reconstruction, and m_B(t)
= s^K m_C(t / s).

Every residue C^k mod p comes from float64 matmuls on the residue kernel
that `matrix` holds (its prime table, prime runs and symmetric CRT, shared
with the predistance stage). They are exact: each prime is below 2^b with
n (p - 1)^2 < 2^53 (`_bits` of n terms, as a product of residues sums n of
them), so every partial sum is an integer below 2^53, in any summation
order. Results are reduced with int64 `%`. No power of B is formed.

- One prime's Krylov pass reduces C^0, C^1, ... mod p, flattened, against
  the powers kept so far; the first dependent power gives the degree K, K
  pivot coordinates R and its combination y of the lower powers mod p. The
  K x K minor of C^0..C^(K-1) on R is nonzero mod p, hence over Z, so deg
  m_C >= K.
- The K x K pivot system sum_j y_j C^j[R] = C^K[R] is solved modulo every
  further CRT prime at once; a prime on which the minor vanishes is skipped.
- An identity sum_j a_j C^j = a_J J with integer a is decided by one Horner
  pass on residues: m_C(C) = 0, and h(B) = J as sum_j n q_j C^j =
  q(lambda_C) J, where m_C = (t - lambda_C) q and lambda_C = lambda / s is
  the line sum of C. Every entry of the difference is at most H = sum_j
  |a_j| R^j + |a_J| in absolute value, so it is zero once it vanishes modulo
  primes with prod p > H.

A certified candidate is monic of degree K <= deg m_C and annihilates C, so
it is m_C; otherwise the Krylov prime divides one of finitely many fixed
nonzero minors, and the next prime is tried. No verdict depends on the
choice of primes. For a lambda-doubly stochastic irreducible B with lambda
!= 0, the Hoffman polynomial h is the unique minimal-degree polynomial with
h(B) = J; it is always certified against J before being returned. Both are
computed once per matrix and kept in its analysis context, `B.powers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Sequence

import numpy as np

from .exact import Polynomial
from .matrix import (
    MatrixPowerBasis,
    RationalMatrix,
    _bits,
    _prime_run,
    _primes,
    _reduce,
    _symmetric_crt,
)
from .stochastic import HypothesisError, classify


@dataclass(frozen=True)
class HoffmanPolynomial:
    """h = (n / q(lambda)) * q where (t - lambda) q(t) is the minimal polynomial."""

    h: Polynomial
    q: Polynomial
    lam: Fraction


def _krylov(context: MatrixPowerBasis, p: int) -> tuple[list[int], list[int]]:
    """(pivots, y): pivot coordinates of C^0, ..., C^(K-1), where C^K is the
    first power that depends on the lower ones modulo p, and the residues
    y_j with C^K = sum_j y_j C^j mod p.

    Each C^k mod p is flattened and reduced against the rows kept so far.
    A kept row is 1 at its pivot and 0 at the pivots of the rows before it,
    so the kept rows read on the pivots form a unit upper triangular matrix
    M, whose inverse grows by one column per row. A vector v reduces to v -
    w rows with w = v[pivots] M^-1, which is zero at every pivot and is
    zero exactly when v is in the span. Each kept row is also kept as its
    combination of the powers (the lower triangular `combinations`), so the
    w of C^K gives y. K <= n, so each product sums at most n terms below
    p^2 and stays exact in float64.
    """
    n = context.order
    base = context.residues([p])[0]
    rows = np.empty((1, n * n))  # doubled when full, so it holds O(K n^2)
    inverse = np.eye(n)
    combinations = np.zeros((n, n))
    pivots: list[int] = []
    power = np.eye(n)
    while True:
        k = len(pivots)
        vector = power.ravel()
        if k:
            weights = _reduce(vector[pivots] @ inverse[:k, :k], p)
            vector = vector - weights @ rows[:k]
        vector = _reduce(vector, p)
        nonzero = np.flatnonzero(vector)
        if not nonzero.size:
            return pivots, _reduce(weights @ combinations[:k, :k], p).tolist()
        pivot = int(nonzero[0])
        scale = pow(int(vector[pivot]), -1, p)
        if k == len(rows):
            rows = np.concatenate([rows, np.empty_like(rows)])
        rows[k] = vector * scale % p
        # row_k = scale (C^k - sum_i w_i row_i)
        combinations[k, k] = scale
        if k:
            combinations[k, :k] = -_reduce(weights @ combinations[:k, :k], p) * scale % p
        # [[M, c], [0, 1]]^-1 = [[M^-1, -M^-1 c], [0, 1]]
        inverse[:k, k] = _reduce(-(inverse[:k, :k] @ rows[:k, pivot]), p)
        pivots.append(pivot)
        power = _reduce(power @ base, p).astype(float)


def _solve_pivot_systems(
    context: MatrixPowerBasis, primes: list[int], pivots: list[int]
) -> list[list[int] | None]:
    """For each prime, y with sum_j y_j C^j[R] = C^K[R] mod p, or None.

    The entries C^j[R] come from the columns of C^j that R reads, one
    batched product per power. The rows follow the order in which the
    Krylov pass found the pivots, so every leading principal minor of the
    system is nonzero modulo the Krylov prime, hence over Z. Gauss-Jordan
    elimination therefore runs on every prime's augmented K x (K + 1)
    system at once, without row exchanges or division; a prime on which a
    leading minor vanishes meets a zero pivot and gets None.
    """
    n, k = context.order, len(pivots)
    xs = [r // n for r in pivots]
    columns = sorted({r % n for r in pivots})
    ys = [columns.index(r % n) for r in pivots]
    p = np.array(primes, dtype=np.int64)[:, None, None]
    base = context.residues(primes)
    block = np.repeat(np.eye(n)[None, :, columns], len(primes), axis=0)
    system = np.empty((len(primes), k, k + 1), dtype=np.int64)
    for j in range(k + 1):
        system[:, :, j] = block[:, xs, ys]
        if j < k:
            block = _reduce(base @ block, p).astype(float)
    ok = np.ones(len(primes), dtype=bool)
    for c in range(k):
        row = system[:, c : c + 1].copy()
        ok &= row[:, 0, c] != 0
        system = (row[:, :, c : c + 1] * system - system[:, :, c : c + 1] * row) % p
        system[:, c : c + 1] = row
    diagonal = system[:, range(k), range(k)].tolist()
    return [
        [v * pow(d, -1, q) % q for v, d in zip(rhs, lead)] if good else None
        for q, rhs, lead, good in zip(primes, system[:, :, k].tolist(), diagonal, ok)
    ]


def _candidate(b: RationalMatrix, p: int) -> list[int]:
    """Integer coefficients of the monic m of the degree K found modulo p, for C.

    m(t) = t^K - sum_j y_j t^j, with each y_j the symmetric CRT of its
    residues over primes whose product exceeds twice the bound on the
    coefficients of m_C: p's residues come from the Krylov pass, and the
    pivot systems give those of any further primes. Only the certificate
    decides whether m = m_C.
    """
    context = b.powers
    pivots, y = _krylov(context, p)
    k = len(pivots)
    bound = 2 * max(comb(k, j) * context.norm ** (k - j) for j in range(k + 1))
    modulus, primes, rows = p, [p], [y]
    others = (q for q in _primes(_bits(b.order)) if q != p)
    while modulus <= bound:
        run = _prime_run(others, bound // modulus)
        for q, row in zip(run, _solve_pivot_systems(context, run, pivots)):
            if row is not None:
                primes.append(q)
                rows.append(row)
                modulus *= q
    return [-y for y in _symmetric_crt(np.array(rows, dtype=np.int64), primes)] + [1]


def _vanishes(context: MatrixPowerBasis, coeffs: Sequence[int], ones: int) -> bool:
    """Whether sum_j coeffs_j C^j = ones * J, decided exactly on residues.

    Each entry of the difference is at most H = sum_j |coeffs_j| norm^j +
    |ones| in absolute value; one Horner pass checks it modulo primes whose
    product exceeds H, so a zero residue everywhere is a zero difference.
    """
    n = context.order
    bound = sum(abs(c) * context.norm**j for j, c in enumerate(coeffs)) + abs(ones)
    primes = _prime_run(_primes(_bits(n)), bound)
    p = np.array(primes, dtype=np.int64)[:, None, None]
    base = context.residues(primes)
    terms = np.array([[c % q for q in primes] for c in reversed(coeffs)], dtype=float)
    acc = np.eye(n) * terms[0][:, None, None]
    for term in terms[1:]:
        acc = acc @ base
        acc.reshape(len(primes), n * n)[:, :: n + 1] += term[:, None]
        acc = _reduce(acc, p).astype(float)
    return bool((acc == np.array([ones % q for q in primes])[:, None, None]).all())


def minimal_polynomial(b: RationalMatrix) -> Polynomial:
    """Smallest monic m with m(B) = 0: a candidate modulo a prime, certified exactly.

    A candidate m_C with m_C(C) = 0 is monic of degree K <= deg m_C and
    annihilates C, so it is m_C. Otherwise the Krylov prime divides one of
    finitely many fixed nonzero minors, and the next prime is tried. The
    certified m_C and m_B(t) = s^K m_C(t / s) are both kept in B's analysis
    context.
    """
    context = b.powers
    if context.minimal is not None:
        return context.minimal
    for p in _primes(_bits(b.order)):
        coeffs = _candidate(b, p)
        if _vanishes(context, coeffs, 0):
            context.primitive_minimal = coeffs
            context.minimal = context.rescaled(coeffs, len(coeffs) - 1)
            return context.minimal


def hoffman_polynomial(b: RationalMatrix) -> HoffmanPolynomial:
    """Hoffman polynomial of a lambda-DS irreducible matrix, certified exactly.

    Raises HypothesisError with the first hypothesis the gate finds
    failed (normality is not required). The work is on C: its line sum is
    the integer lambda_C = lambda / s, m_C = (t - lambda_C) q_C with q_C in
    Z[t], and h(B) = J reads sum_j n q_C,j C^j = q_C(lambda_C) J, decided on
    residues. Then q(t) = s^(K-1) q_C(t / s) and h(t) = n q_C(t / s) /
    q_C(lambda_C). The certified h is kept in B's analysis context.
    """
    context = b.powers
    if context.hoffman is not None:
        return context.hoffman
    cls = classify(b)
    failed = cls.failed_hypothesis(require_normal=False)
    if failed is not None:
        raise HypothesisError(failed)
    minimal_polynomial(b)
    lam = cls.lam / context.scale  # the line sum of C, an integer
    # a nonzero remainder raises ValueError: lambda would not be a root of m
    q_c = Polynomial(context.primitive_minimal).divide_linear(lam)
    q_at_lam = q_c(lam).numerator
    if q_at_lam == 0:
        # impossible for a valid input: lambda is a simple eigenvalue
        raise ArithmeticError("internal invariant violated: q(lambda) = 0")
    q = [c.numerator for c in q_c.coeffs]
    n = b.order
    g = gcd(n, q_at_lam)
    if not _vanishes(context, [n // g * c for c in q], q_at_lam // g):
        raise ArithmeticError("internal invariant violated: h(B) != J")
    context.hoffman = HoffmanPolynomial(
        h=context.rescaled(q, 0, n, q_at_lam), q=context.rescaled(q, len(q) - 1), lam=cls.lam
    )
    return context.hoffman


def hoffman_product_form_check(b: RationalMatrix, roots: Sequence[complex]) -> float:
    """Compare h against its factored form over the numeric roots of q.

    Evaluates (n / q(lambda)) q(t) and (n / prod(lambda - r)) prod(t - r) at
    a fixed sample grid and returns the largest absolute discrepancy. Purely
    diagnostic; nothing exact depends on it.
    """
    info = hoffman_polynomial(b)
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
