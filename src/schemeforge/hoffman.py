"""Exact minimal polynomials and Hoffman polynomials, on word-prime residues.

The stage reads B in its one exact form B = s C (see `matrix`): a scale
s > 0 and a primitive integer matrix C, shared by B's analysis context.
All the work is on C, and the context's `rescaled` applies s to the
certified results. By
Gauss's lemma the minimal polynomial m_C is in Z[t], and each of its K
roots is an eigenvalue of C, at most R = ||C||_inf (the largest absolute
row sum) in modulus, so its coefficients obey |c_j| <= binom(K, j) R^(K -
j). They come out exactly from a symmetric CRT over primes p with prod p >
2 max_j binom(K, j) R^(K - j), with no rational reconstruction, and m_B(t)
= s^K m_C(t / s).

Every residue comes from float64 matmuls on the residue kernel that
`matrix` holds (its prime table, prime runs, symmetric CRT and the
certificate of sum_k w_k C^k, shared with the predistance and scheme
stages). They are exact: each prime is below 2^b with n (p -
1)^2 < 2^53 (`_bits` of n terms, as a product of residues sums n of them),
so every partial sum is an integer below 2^53, in any summation order.
Results are reduced with int64 `%`. No power of B is formed: the Krylov
sequence takes one matrix-vector product per vector, and each certificate
takes either K matrix-vector products or about 2 sqrt(K) products of C's
residues, not one per power of C:

- The Krylov sequence v, Cv, ..., C^K v of a start vector v with entries
  in [1, 2^10] takes K matrix-vector products on one prime. Each new vector
  is reduced against the kept rows as it arrives, held in reduced echelon
  form together with their combinations of the sequence, and the first
  dependent vector gives the degree K, K pivot coordinates R and the
  combination y with C^K v = sum_j y_j C^j v mod p. The K x K minor of
  [v, ..., C^(K-1) v] on R is nonzero mod p, hence over Z, so the minimal
  polynomial of v under C, which divides m_C, has degree at least K, and
  so has m_C.
- The K x K pivot system sum_j y_j (C^j v)[R] = (C^K v)[R] is read off K
  matrix-vector products batched over each chunk of further CRT primes; a
  prime on which the minor vanishes is skipped.
- When K = n, v is a cyclic vector: v, Cv, ..., C^(n-1) v are a basis of
  Q^n, and a polynomial f with f(C) v = 0 kills the whole basis, as
  f(C) C^j v = C^j f(C) v, so f(C) = 0 (Keller-Gehrig 1985, Wiedemann
  1986). Both certificates then take matrix-vector work on v:
  - m_C(C) = 0: every pivot system is the full system, so m(C) v = 0
    modulo each prime whose row the CRT reads. Every entry of m(C) v is at
    most ||v||_inf sum_j |m_j| R^j <= ||v||_inf (2R)^n for m = m_C, so the
    CRT primes run past that a-priori bound too, in the same batches. The
    certificate reads m's residues against the rows and the product of the
    primes against ||v||_inf sum_j |m_j| R^j for the m it got; a candidate
    that fails either goes to the kernel certificate below.
  - h(B) = J: as sum_j n q_j C^j = q(lambda_C) J with m_C = (t - lambda_C)
    q, reduced by g = gcd(n, q(lambda_C)), it is checked on v alone:
    (n / g) q(C) v = (q(lambda_C) / g) (1^T v) 1, by one Horner pass of
    matrix-vector products on the residues of primes whose product exceeds
    (n / g) sum_j |q_j| R^j ||v||_inf + |q(lambda_C) / g| 1^T v. The gate
    gives C 1 = lambda_C 1 and 1^T C = lambda_C 1^T, so J C^j v =
    lambda_C^j (1^T v) 1 and both sides agree on every C^j v.
- Otherwise (K < n), an identity sum_j a_j C^j = a_J J with integer a is
  decided by the context's one residue kernel
  (`MatrixPowerBasis.certifies`): Paterson and Stockmeyer's baby and giant
  steps (1973) on one row, C^0..C^w with w = isqrt(K + 1), every block of
  w coefficients against them in one batched product, then a Horner pass
  in C^w, in chunks of primes of at most STACK_BYTES. That is m_C(C) = 0,
  and h(B) = J as sum_j n q_j C^j = q(lambda_C) J. Every entry of the
  difference is at most H = sum_j |a_j| R^j + |a_J| in absolute value, so
  it is zero once it vanishes modulo primes with prod p > H. The scheme
  stage's class certificates A_i = p_i(B) always take this kernel: A_i
  need not commute with C, so p_i(C) v = A_i v does not give p_i(C) = A_i.

A certified candidate is monic of degree K <= deg m_C and annihilates C, so
it is m_C. A candidate fails when v misses part of m_C over Q, which holds
only for v in finitely many proper subspaces, or when the Krylov prime
divides a nonzero minor. v is a fixed hash of the coordinates and of the
prime, so it changes with p, the certificate catches every miss, and the
next prime is tried. No verdict depends on the choice of primes or of v.
For a lambda-doubly stochastic irreducible B with lambda != 0, the Hoffman
polynomial h is the unique minimal-degree polynomial with h(B) = J; it is
always certified against J before being returned. Both are computed once
per matrix and kept in its analysis context, `B.powers`, with v when it is
cyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, prod

import numpy as np

from .exact import Polynomial, divide_linear
from .matrix import (
    MatrixPowerBasis,
    RationalMatrix,
    _bits,
    _prime_chunks,
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


@dataclass(frozen=True)
class Candidate:
    """A monic candidate m for m_C, found from the start vector v modulo primes.

    coeffs are m's integer coefficients, ascending, and rows[i] the y with
    C^K v = sum_j y_j C^j v on the pivot coordinates modulo primes[i] (the
    Krylov prime first), of which coeffs[:K] are the symmetric CRT of -y.
    """

    coeffs: list[int]
    start: np.ndarray
    primes: list[int]
    rows: list[list[int]]

    @property
    def cyclic(self) -> bool:
        """K = n: v, Cv, ..., C^(n-1) v are a basis of Q^n."""
        return len(self.coeffs) == len(self.start) + 1


def _start(n: int, p: int) -> np.ndarray:
    """The Krylov start vector for the prime p: n int64 entries in [1, 2^10].

    Entry i is 1 plus the top 10 bits of a splitmix64 hash of (i, p), so v
    changes with p: a v whose sequence misses part of m_C over Q is not
    drawn again on every later prime. ||v||_inf enters the bound of the
    cyclic certificates, so the entries are kept small: with R = 1, K = n
    <= 12 and n (p - 1)^2 < 2^53, 2^n ||v||_inf <= 2^22 stays below the
    Krylov prime.
    """
    x = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) ^ np.uint64(p)
    x = (x ^ x >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ x >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return ((x ^ x >> np.uint64(31)) >> np.uint64(54)).astype(np.int64) + 1


def _krylov(context: MatrixPowerBasis, p: int, start: np.ndarray) -> tuple[list[int], list[int]]:
    """(pivots, y): pivot coordinates of v, Cv, ..., C^(K-1) v, where C^K v is
    the first vector that depends on the lower ones modulo p, and the
    residues y_j with C^K v = sum_j y_j C^j v mod p.

    Each vector is one matrix-vector product of the one before. The kept
    rows are held in reduced echelon form, each 1 at its pivot and 0 at the
    others, and each carries its combination of the sequence in n + 1
    further columns, all in one (n + 1) x (2n + 1) table. A new vector is
    reduced against them in one product: a zero vector is the first
    dependent one, and its combination columns read -y; otherwise its first
    nonzero coordinate becomes a pivot, and it is scaled to 1 there and
    cleared from the kept rows. So the pivots follow the sequence, and the
    vector C^k v reduced against the lower ones is zero on their pivots and
    nonzero on its own.
    """
    n = context.order
    base = context.residues([p])[0]
    table = np.zeros((n + 1, 2 * n + 1), dtype=np.int64)
    pivots: list[int] = []
    vector = start % p
    for k in range(n + 1):
        row = table[k]
        row[:n] = vector
        row[n + k] = 1
        row[:] = (row - row[pivots] @ table[:k]) % p
        nonzero = np.flatnonzero(row[:n])
        if not nonzero.size:
            return pivots, (-row[n : n + k] % p).tolist()
        pivot = int(nonzero[0])
        row[:] = row * pow(int(row[pivot]), -1, p) % p
        table[:k] = (table[:k] - table[:k, pivot : pivot + 1] * row) % p
        pivots.append(pivot)
        vector = _reduce(base @ vector, p)
    raise AssertionError("unreachable: n + 1 vectors of length n are dependent")


def _solve_pivot_systems(
    context: MatrixPowerBasis, primes: list[int], pivots: list[int], start: np.ndarray
) -> list[list[int] | None]:
    """For each prime, y with sum_j y_j (C^j v)[R] = (C^K v)[R] mod p, or None.

    The vectors C^0 v..C^K v come from K matrix-vector products batched
    over the primes, and column j of each system is C^j v read on the K
    pivot coordinates R. The rows follow the order in which the Krylov pass
    found the pivots, so every leading principal minor of the system is
    nonzero modulo the Krylov prime, hence over Z. Gaussian elimination
    therefore runs on every prime's augmented K x (K + 1) system at once,
    without row exchanges: each pivot row is scaled by its inverse mod p and
    cleared from the rows below it, and back-substitution reads y off the
    unit upper triangular system. A prime on which a leading minor vanishes
    meets a zero pivot and gets None.
    """
    k = len(pivots)
    p = np.array(primes, dtype=np.int64)[:, None, None]
    base = context.residues(primes)
    system = np.empty((len(primes), k, k + 1), dtype=np.int64)
    vector = start % p[:, 0]
    for j in range(k + 1):
        system[:, :, j] = vector[:, pivots]
        if j < k:
            vector = _reduce(base @ vector[:, :, None], p)[:, :, 0]
    ok = np.ones(len(primes), dtype=bool)
    for c in range(k):
        lead = system[:, c, c]
        ok &= lead != 0
        inverse = [pow(d, -1, q) if d else 0 for d, q in zip(lead.tolist(), primes)]
        row = system[:, c, c + 1 :] * np.array(inverse)[:, None] % p[:, 0]
        system[:, c, c + 1 :] = row
        below = system[:, c + 1 :]
        below[:, :, c + 1 :] = (below[:, :, c + 1 :] - below[:, :, c : c + 1] * row[:, None]) % p
    # back-substitution on the unit upper triangular system, column by column
    y = system[:, :, k]
    for c in range(k - 1, 0, -1):
        y[:, :c] = (y[:, :c] - system[:, :c, c] * y[:, c : c + 1]) % p[:, 0]
    return [row if good else None for row, good in zip(y.tolist(), ok)]


def _candidate(b: RationalMatrix, p: int) -> Candidate:
    """The monic m of the degree K found modulo p, for C, with its residues.

    m(t) = t^K - sum_j y_j t^j, with each y_j the symmetric CRT of its
    residues over primes whose product exceeds twice the bound on the
    coefficients of m_C: p's residues come from the Krylov pass on the
    start vector drawn for p, and the pivot systems on the same vector give
    those of any further primes, in chunks of at most STACK_BYTES. For K =
    n the product also exceeds ||v||_inf (2R)^n, the cyclic certificate's
    bound on m_C(C) v. Only a certificate decides whether m = m_C.
    """
    context = b.powers
    n = b.order
    start = _start(n, p)
    pivots, y = _krylov(context, p, start)
    k = len(pivots)
    bound = 2 * max(comb(k, j) * context.norm ** (k - j) for j in range(k + 1))
    if k == n:
        bound = max(bound, int(start.max()) * (2 * context.norm) ** n)
    modulus, primes, rows = p, [p], [y]
    others = (q for q in _primes(_bits(n)) if q != p)
    while modulus <= bound:
        # per prime: C, the vectors, the system and its elimination's temporaries, under 10 n^2 values
        for run in _prime_chunks(_prime_run(others, bound // modulus), 80 * n * n):
            for q, row in zip(run, _solve_pivot_systems(context, run, pivots, start)):
                if row is not None:
                    primes.append(q)
                    rows.append(row)
                    modulus *= q
    coeffs = [-y for y in _symmetric_crt(np.array(rows, dtype=np.int64), primes)] + [1]
    return Candidate(coeffs, start, primes, rows)


def _annihilates_cyclic(candidate: Candidate, norm: int) -> bool:
    """Whether m(C) = 0 follows from the relations that gave the candidate m.

    Only a cyclic candidate can pass. With K = n each row is the full
    relation C^n v = sum_j y_j C^j v modulo its prime, so m(C) v = 0 modulo
    every prime on which m's residues are t^n - sum_j y_j t^j. Every entry
    of m(C) v is at most ||v||_inf sum_j |m_j| R^j in absolute value, so it
    is zero once the product of those primes exceeds that, and m(C) kills
    the basis v, ..., C^(n-1) v.
    """
    if not candidate.cyclic:
        return False
    coeffs = candidate.coeffs
    bound = int(candidate.start.max()) * sum(abs(c) * norm**j for j, c in enumerate(coeffs))
    return prod(candidate.primes) > bound and all(
        [-c % q for c in coeffs[:-1]] == row for q, row in zip(candidate.primes, candidate.rows)
    )


def _sends_to_ones(context: MatrixPowerBasis, coeffs: list[int], scale: int, start: np.ndarray) -> bool:
    """Whether sum_j coeffs_j C^j v = scale (1^T v) 1 for the positive vector v.

    Decided on residues by Horner's rule in C, one matrix-vector product per
    coefficient and prime, with coeffs_j v added as a residue: a sum of n
    products of residues and one residue, below 2^53 for the primes of n
    terms. Every entry of the difference is at most ||v||_inf sum_j
    |coeffs_j| R^j + |scale| 1^T v in absolute value, so it is zero once it
    vanishes modulo primes whose product exceeds that.
    """
    n = context.order
    total = int(start.sum())
    bound = int(start.max()) * sum(abs(c) * context.norm**j for j, c in enumerate(coeffs))
    primes = _prime_run(_primes(_bits(n)), bound + abs(scale) * total)
    # per prime: C's residues, as int64 and as float64, and the K residues of coeffs_j v
    for chunk in _prime_chunks(primes, 8 * (2 * n + len(coeffs)) * n):
        p = np.array(chunk, dtype=np.int64)[:, None]
        base = context.residues(chunk)
        weights = np.array([[c % q for c in coeffs] for q in chunk], dtype=np.int64)
        terms = weights[:, :, None] * (start % p)[:, None] % p[:, :, None]
        acc = terms[:, -1]
        for j in range(len(coeffs) - 2, -1, -1):
            acc = _reduce((base @ acc[:, :, None])[:, :, 0] + terms[:, j], p)
        if not (acc == np.array([scale * total % q for q in chunk])[:, None]).all():
            return False
    return True


def minimal_polynomial(b: RationalMatrix) -> Polynomial:
    """Smallest monic m with m(B) = 0: a candidate modulo a prime, certified exactly.

    A candidate m_C with m_C(C) = 0 is monic of degree K <= deg m_C and
    annihilates C, so it is m_C. A cyclic candidate (K = n) is certified on
    its start vector, and any other, or one whose relations do not decide
    it, by the residue kernel. A failed candidate missed part of m_C or met
    a Krylov prime that divides a nonzero minor, and the next prime, with
    its own start vector, is tried. The certified m_C and m_B(t) = s^K
    m_C(t / s) are both kept in B's analysis context, with the start vector
    when it is cyclic.
    """
    context = b.powers
    if context.minimal is not None:
        return context.minimal
    for p in _primes(_bits(b.order)):
        candidate = _candidate(b, p)
        coeffs = candidate.coeffs
        if _annihilates_cyclic(candidate, context.norm) or context.certifies([coeffs], [0], [1])[0]:
            context.primitive_minimal = coeffs
            context.cyclic_start = candidate.start if candidate.cyclic else None
            context.minimal = context.rescaled(coeffs, len(coeffs) - 1)
            return context.minimal


def hoffman_polynomial(b: RationalMatrix) -> HoffmanPolynomial:
    """Hoffman polynomial of a lambda-DS irreducible matrix, certified exactly.

    Raises HypothesisError with the first hypothesis the gate finds
    failed (normality is not required). The work is on C: its line sum is
    the integer lambda_C = lambda / s, m_C = (t - lambda_C) q_C with q_C in
    Z[t], and h(B) = J reads sum_j n q_C,j C^j = q_C(lambda_C) J, decided on
    residues: on the cyclic start vector v when m_C has degree n, and by the
    residue kernel otherwise. q_C and q_C(lambda_C) come from synthetic
    division and a Horner pass on ints. Then q(t) = s^(K-1) q_C(t / s) and
    h(t) = n q_C(t / s) / q_C(lambda_C). The certified h is kept in B's
    analysis context.
    """
    context = b.powers
    if context.hoffman is not None:
        return context.hoffman
    cls = classify(b)
    failed = cls.failed_hypothesis(require_normal=False)
    if failed is not None:
        raise HypothesisError(failed)
    minimal_polynomial(b)
    lam = (cls.lam / context.scale).numerator  # the line sum of C, an integer
    # a nonzero remainder raises ValueError: lambda would not be a root of m
    q = divide_linear(context.primitive_minimal, lam)
    q_at_lam = 0
    for c in reversed(q):
        q_at_lam = q_at_lam * lam + c
    if q_at_lam == 0:
        # impossible for a valid input: lambda is a simple eigenvalue
        raise ArithmeticError("internal invariant violated: q(lambda) = 0")
    n = b.order
    g = gcd(n, q_at_lam)
    scaled, target, start = [n // g * c for c in q], q_at_lam // g, context.cyclic_start
    if start is not None:
        holds = _sends_to_ones(context, scaled, target, start)
    else:
        holds = context.certifies([scaled], [target], [1])[0]
    if not holds:
        raise ArithmeticError("internal invariant violated: h(B) != J")
    context.hoffman = HoffmanPolynomial(
        h=context.rescaled(q, 0, n, q_at_lam), q=context.rescaled(q, len(q) - 1), lam=cls.lam
    )
    return context.hoffman

