"""Dense square matrices over exact rationals, and the word-prime residue kernel.

Provides the products, transposes and the residue kernel that the rest of
the pipeline is built on; the pipeline solves on residues (see `hoffman`).
No stage calls the exact linear solver (`solve_rational_system`,
fraction-free elimination), `trace_inner_product` or
`MatrixPowerBasis.evaluate`: they are kept only because `bench/tracer.py`
binds them. There is one exact form of a matrix: `RationalMatrix` holds B
= s C, with the scale s > 0 a Fraction and C a primitive integer matrix,
one n x n array (`entries`, int64 while every line sum of |C| fits, Python
ints beyond). B and C generate the same algebra, so every stage works on
C. Its exact operations are integer operations on that form:

- every matrix product is (s C)(s' C') = s s' C C', one call of
  `integer_product`, the exact product of two integer arrays: one numpy
  matmul, on float64 (BLAS) when a bound on the entries proves that every
  partial sum is an integer below 2^53, on int64 when it proves that none
  overflows, and on object arrays of Python ints otherwise. The pipeline's
  only products are normality's B B^T and B^T B;
- each matrix owns one analysis context (`RationalMatrix.powers`, built
  on first access and kept), which shares B's scale and entries. The
  classification and the underlying digraph read their signs, line sums
  and arcs off C. `rescaled` writes a polynomial in C as one in B for the
  Hoffman stage, the predistance family applies s in its closed form (see
  `predistance`), and `weights` writes p(B) as a combination (sum_k w_k
  C^k) / L of C's powers on integers. The context also keeps the results
  of the pipeline stages on B, each stored by the stage that computes it;
- no integer power of C is formed. C's powers are read modulo word primes
  by float64 matmuls (`_powers_mod`), every prime below 2^b with t (p -
  1)^2 < 2^53 (`_bits` of t terms) for the longest sum of t products of
  residues in the result, so every partial sum is an integer below 2^53,
  and in chunks of primes whose work takes at most STACK_BYTES. Each
  result is decided under a proven bound, with R = ||C||_inf bounding
  every absolute row sum of C^k by R^k:
  - the Gram matrix G_ab = C^a . C^b of the trace form (`gram`) and the
    moments C^k . A_i of 0/1 matrices A_i (`class_moments`) come from one
    pass: batched products of the residues P of C^0..C^d per chunk of
    primes for n^2 terms, and one symmetric CRT under |G_ab| <= n R^(a +
    b). `evaluates_to` decides p_i(B) = A_i for the scheme stage's classes
    on that exact G and the moments, with no residue of its own;
  - every other combination sum_k w_k C^k comes from one kernel
    (`combinations`): Paterson and Stockmeyer's baby and giant steps on one
    row of weights. `certifies` decides sum_k w_k C^k = L J on it, modulo
    primes with prod p > sum_k |w_k| R^k + |L|: m_C(C) = 0 and h(B) = J for
    the Hoffman stage when deg m_C < n (at deg m_C = n that stage certifies
    both on a cyclic vector of C: see `hoffman`);
  - `evaluate`, the one exact p(B), is the symmetric CRT of the kernel's
    sum_k w_k C^k under the bound sum_k |w_k| R^k (no stage calls it);
- the trace inner product is one integer dot product of the flattenings
  (no stage calls it).

Fractions are built when a file is parsed and when a boundary asks for
`rows` (a serialized matrix); the distance classes stay one integer label
grid from the frontier pass (`digraph.distance_structure`) to the report.
Matrices are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import count
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .exact import Polynomial, Scalar

Row = tuple[Fraction, ...]

# the most memory the residue work of one chunk of primes takes
# (`_prime_chunks`): huge entries need so many primes that one stack of C's
# power residues modulo them all would take several times the memory of C's
# integer powers
STACK_BYTES = 2**23


def clear_denominators(values: Sequence[Scalar]) -> tuple[int, list[int]]:
    """(den, ints) with den the lcm of the denominators and ints = den * values.

    The values may be Fractions or ints: both carry numerator and denominator.
    """
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
    return den, [v.numerator * (den // v.denominator) for v in values]


def integer_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The exact product of two n x n integer arrays (int64 or Python ints),
    as int64 or, past 2^63, as Python ints.

    Every partial sum of an entry is at most n * max|a| * max|b| in absolute
    value, with each maximum read off the operand's largest and smallest
    entries as Python ints, so that -2^63 does not wrap, and taken as at
    least 1, so that both operands fit as well. Below 2^53 the matmul runs
    on float64, and its result is exact for two reasons: every partial sum
    is an integer below 2^53 in absolute value, so the order of summation
    does not matter; and BLAS (OpenBLAS dgemm) forms each entry as a plain
    sum of n products, with no Strassen-type scheme. Below 2^63 the matmul
    runs on int64, and otherwise on object arrays of Python ints. The bound
    comes first because numpy integer matmul wraps on overflow without a
    warning. Its loop (no BLAS) reads rows of a and columns of b, so a is
    taken row-major and b column-major.
    """
    bound = len(a)
    for values in (a, b):
        bound *= max(1, int(values.max()), -int(values.min()))
    if bound < 2**53:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    dtype = np.int64 if bound < 2**63 else object
    return a.astype(dtype, order="C", copy=False) @ b.astype(dtype, order="F", copy=False)


def _integer_grid(values: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    """n^2 integers (row-major, or an n x n array) as an n x n array: int64
    when n * max|v| < 2^63, so that every line sum of absolute values fits,
    and Python ints otherwise."""
    try:
        grid = np.asarray(values, dtype=np.int64)
        if n * max(int(grid.max()), -int(grid.min())) < 2**63:
            return grid.reshape(n, n)
    except OverflowError:
        pass
    return np.array(values, dtype=object).reshape(n, n)


class MatrixOrderError(ValueError):
    """Operands have incompatible orders."""


class RationalMatrix:
    """Immutable n x n rational matrix B = s C, held as (order, scale, entries).

    The scale s > 0 is a Fraction (1 for the zero matrix), and the entries C
    a primitive, read-only integer array under `_integer_grid`'s rule. Every
    constructor goes through `_scaled`, so each matrix has exactly one
    (order, scale, entries), which equality and hashing read. The Fraction
    rows are built only on request; the analysis context (`powers`) is a
    cache beside that form, sharing its scale and entries.
    """

    __slots__ = ("order", "scale", "entries", "_powers")

    def __new__(cls, rows: Iterable[Iterable[Scalar]]) -> "RationalMatrix":
        grid = [[v if type(v) in (Fraction, int) else Fraction(v) for v in row] for row in rows]
        n = len(grid)
        if n == 0:
            raise ValueError("matrix must have positive order")
        for row in grid:
            if len(row) != n:
                raise ValueError(f"row of length {len(row)} in matrix of order {n}")
        den, ints = clear_denominators([v for row in grid for v in row])
        return cls._scaled(Fraction(1, den), ints, n)

    @classmethod
    def _scaled(cls, scale: Fraction, values: Sequence[int] | np.ndarray, n: int) -> "RationalMatrix":
        """The n x n matrix scale * values, for scale > 0 and n^2 integers
        values (row-major, or an n x n array, as `_integer_grid` takes them),
        as s C: C = values / g and s = scale * g, with g the gcd of the
        values; the zero matrix is stored with s = 1."""
        grid = _integer_grid(values, n)
        g = abs(int(np.gcd.reduce(grid, axis=None)))  # a reduce over one entry returns it as it is
        entries = _integer_grid(grid // g, n) if g > 1 else grid
        entries.flags.writeable = False  # shared by the analysis context and, as views, by transposes
        m = object.__new__(cls)
        object.__setattr__(m, "order", n)
        object.__setattr__(m, "scale", scale * g if g else Fraction(1))
        object.__setattr__(m, "entries", entries)
        object.__setattr__(m, "_powers", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def powers(self) -> "MatrixPowerBasis":
        """The analysis context of this matrix, built on first access and kept."""
        if self._powers is None:
            object.__setattr__(self, "_powers", MatrixPowerBasis(self))
        return self._powers

    @property
    def rows(self) -> tuple[Row, ...]:
        """The entries as Fractions, row by row, built on each access."""
        return tuple(self[x] for x in range(self.order))

    def __getitem__(self, x: int) -> Row:
        s = self.scale
        return tuple(s * v for v in self.entries[x].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalMatrix):  # array_equal compares the shapes, so the orders, too
            return self.scale == other.scale and np.array_equal(self.entries, other.entries)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.order, self.scale, tuple(self.entries.ravel().tolist())))

    def _require_same_order(self, other: "RationalMatrix") -> None:
        if self.order != other.order:
            raise MatrixOrderError(f"order mismatch: {self.order} vs {other.order}")

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """Exact product: (s C)(s' C') = s s' C C', one `integer_product`."""
        self._require_same_order(other)
        product = integer_product(self.entries, other.entries)
        return RationalMatrix._scaled(self.scale * other.scale, product, self.order)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._scaled(self.scale, self.entries.T, self.order)

    def to_float(self):
        """Dense float copy for the numeric sidecar.

        Each entry is v num(s) / den(s), a correctly rounded int division, so
        it equals float(s v) without building the Fraction.
        """
        up, down = self.scale.numerator, self.scale.denominator
        return np.array([[v * up / down for v in row] for row in self.entries.tolist()], dtype=float)

    def __repr__(self) -> str:
        return f"RationalMatrix({[list(map(str, r)) for r in self.rows]!r})"

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


def trace_inner_product(m: RationalMatrix, n: RationalMatrix) -> Fraction:
    """(1/order) * trace(M N^T), computed as the normalized Hadamard sum.

    Both operands are real rational, so conjugation is the identity and the
    trace form and the entrywise form coincide: one integer dot product of
    the flattened entries, times s_M s_N / order.
    """
    m._require_same_order(n)
    dot = sum(map(mul, m.entries.ravel().tolist(), n.entries.ravel().tolist()))
    return dot * m.scale * n.scale / m.order


class MatrixPowerBasis:
    """The analysis context of one matrix B = s C: the scale s, the primitive
    integer matrix C, the residues of its powers modulo word primes, and the
    result of each pipeline stage on B.

    The scale and entries are B's own (`RationalMatrix.scale` and
    `entries`, the same objects), and the context adds R = `norm`. B and C
    generate the same algebra, so every stage reads C: its signs, line sums
    and support directly, and its powers through their residues modulo
    primes (`residues`, `_powers_mod`) bounded through R = `norm`.
    `rescaled` writes a polynomial in C as one in B (the Hoffman stage's
    m_B, q and h); the predistance family applies s itself, through
    num(s)^k and den(s)^k in its closed form, with no rescaled polynomial.
    `weights` writes a polynomial in B as a combination of C's powers, on
    integers. `classify`, `minimal_polynomial`, `hoffman_polynomial` and
    `predistance_basis` each store their result here and return it on
    later calls, and `minimal_polynomial` its start vector when it is
    cyclic; a failed gate or check stores nothing.

    No integer power of C is formed, and no residue of one is kept: the
    integer Gram matrix G_ab = C^a . C^b of the trace form (`gram`,
    computed once by CRT) is the one result kept from C's powers, and
    `evaluates_to` decides the classes on it. Every other combination sum_k
    w_k C^k modulo primes comes from one kernel (`combinations`), which
    decides `certifies` and gives `evaluate`, the one exact p(B), by CRT.
    The context holds C's integers, not B, so dropping B frees both without
    the cycle collector.
    """

    def __init__(self, base: RationalMatrix):
        self.order = base.order
        self.scale = base.scale
        self.entries = base.entries
        # ||C||_inf, the largest absolute row sum: it bounds every eigenvalue
        # of C, every absolute row sum of C^j by norm^j, and so every entry
        self.norm = int(abs(self.entries).sum(axis=1).max())
        self._gram: Optional[list[list[int]]] = None
        # stage results, each set once by the stage that computes it
        self.classification = None  # stochastic.MatrixClassification
        self.primitive_minimal = None  # m_C's integer coefficients, ascending
        self.cyclic_start = None  # its Krylov start vector v, when v, ..., C^(n-1) v span Q^n
        self.minimal = None  # hoffman.minimal_polynomial
        self.hoffman = None  # hoffman.HoffmanPolynomial
        self.predistance = None  # predistance.PredistanceBasis

    def residues(self, primes: Sequence[int]) -> np.ndarray:
        """C mod p for each prime, an (r, n, n) float64 stack of integers in [0, p)."""
        n = self.order
        return (self.entries.reshape(1, n * n) % np.array(primes)[:, None]).astype(float).reshape(-1, n, n)

    def _powers_mod(self, primes: list[int], degree: int) -> np.ndarray:
        """C^0..C^degree mod each prime: an (r, degree + 1, n^2) float64 stack."""
        n, r = self.order, len(primes)
        stack = np.empty((r, degree + 1, n, n))
        stack[:, 0] = np.eye(n)
        if degree:
            stack[:, 1] = self.residues(primes)
        p = np.array(primes, dtype=np.int64)[:, None, None]
        for k in range(2, degree + 1):
            stack[:, k] = _reduce(stack[:, k - 1] @ stack[:, 1], p)
        return stack.reshape(r, degree + 1, n * n)

    def rescaled(self, coeffs: Sequence[int], top: int, num: int = 1, den: int = 1) -> Polynomial:
        """sum_j (num / den) coeffs_j s^(top - j) t^j, each coefficient one Fraction of integers.

        For p_C(t) = sum_j coeffs_j t^j this is s^top p_C(t / s), so p(B) =
        s^top p_C(C) (num / den): a polynomial in C rewritten as one in B.
        """
        g, d = self.scale.numerator, self.scale.denominator
        out = []
        for e, c in zip(range(top, top - len(coeffs), -1), coeffs):
            up, down = (g**e, d**e) if e >= 0 else (d**-e, g**-e)
            out.append(Fraction(num * c * up, den * down))
        return Polynomial(out)

    def weights(self, p: Polynomial) -> tuple[int, list[int]]:
        """(L, w) with p(B) = (sum_k w_k C^k) / L in lowest terms, k = 0..deg p.

        Each nonzero term p_k s^k is the integer fraction num(p_k) num(s)^k
        over den(p_k) den(s)^k; the terms are cleared under one lcm and the
        result reduced by one gcd, with no Fraction built.
        """
        up, down = self.scale.numerator, self.scale.denominator
        terms = [
            (c.numerator * up**k, c.denominator * down**k) if c else (0, 1) for k, c in enumerate(p.coeffs)
        ]
        den = lcm(*(q for _, q in terms))
        cleared = [v * (den // q) for v, q in terms]
        g = gcd(den, *cleared)
        return den // g, [v // g for v in cleared]

    def combinations(self, row: Sequence[int], bound: int) -> Iterator[tuple[list[int], np.ndarray]]:
        """sum_k row[k] C^k modulo the fewest primes whose product exceeds
        bound: chunks (primes, sums), sums[r] that sum mod primes[r], flattened,
        as int64 integers in [0, p).

        Paterson and Stockmeyer's baby and giant steps (1973) on K
        coefficients: C^0..C^(w-1), one batched product of the blocks of w
        coefficients against them, and one Horner pass over the blocks in C^w,
        about 2 sqrt(K) products of residue matrices at w = isqrt(K). The
        primes are those for max(n, w) terms, in chunks of at most STACK_BYTES.
        """
        n, size = self.order, max(1, len(row))
        w = isqrt(size)
        blocks = -(-size // w)
        primes = _prime_run(_primes(_bits(max(n, w))), bound)
        # per prime: the w + 1 steps, the blocks' sums with two reductions of them, and the Horner pass
        for chunk in _prime_chunks(primes, 8 * (w + 3 * blocks + 5) * n * n):
            r = len(chunk)
            p = np.array(chunk, dtype=np.int64)[:, None, None]
            steps = self._powers_mod(chunk, min(w, size - 1))
            terms = np.zeros((r, blocks, w))  # block j at [:, j], zero past the row
            terms.reshape(r, -1)[:, : len(row)] = [[c % q for c in row] for q in chunk]
            parts = _reduce(terms @ steps[:, :w], p).reshape(r, blocks, n, n)
            acc = parts[:, -1]
            giant = steps[:, -1].reshape(r, n, n)  # C^w whenever there is more than one block
            for j in range(blocks - 2, -1, -1):
                acc = _reduce(acc @ giant + parts[:, j], p)
            yield chunk, acc.reshape(r, n * n)

    def certifies(self, row: Sequence[int], scale: int) -> bool:
        """Whether sum_k row[k] C^k = scale J: every entry of the difference is
        at most H = sum_k |row[k]| R^k + |scale| in absolute value, so it is
        zero exactly when it vanishes modulo primes whose product exceeds H
        (`combinations`), and a chunk that differs modulo one prime decides.
        """
        bound = sum(abs(c) * self.norm**k for k, c in enumerate(row)) + abs(scale)
        return all(
            (sums == np.array([scale % q for q in primes])[:, None]).all()
            for primes, sums in self.combinations(row, bound)
        )

    def evaluate(self, p: Polynomial) -> RationalMatrix:
        """p(B) = (sum_k w_k C^k) / L, the combination recovered by CRT.

        Every entry of sum_k w_k C^k is at most sum_k |w_k| R^k in absolute
        value, so its residues modulo primes whose product exceeds twice that
        bound give it exactly by the symmetric CRT.
        """
        den, row = self.weights(p)
        bound = sum(abs(c) * self.norm**k for k, c in enumerate(row))
        primes, sums = _joined(self.combinations(row, 2 * bound))
        return RationalMatrix._scaled(Fraction(1, den), _symmetric_crt(sums, primes), self.order)

    def evaluates_to(self, polys: Sequence[Polynomial], moments: Sequence[tuple[int, list[int]]]) -> list[bool]:
        """For each i, whether p_i(B) is the 0/1 matrix A_i with moments[i] =
        (|A_i|, mu_i) (`class_moments`), decided on the exact G and mu_i.

        With p_i(B) = (sum_k w_ik C^k) / L_i and C real, ||sum_k w_ik C^k -
        L_i A_i||_F^2 = w_i . G w_i - 2 L_i w_i . mu_i + L_i^2 |A_i| is zero
        exactly when p_i(B) = A_i. One object-array product gives G w_i for
        every row; no residue is formed.
        """
        scales, rows = zip(*map(self.weights, polys))
        d = max(1, *map(len, rows)) - 1
        w = np.array([[*row, *[0] * (d + 1 - len(row))] for row in rows], dtype=object)
        sizes, mus = zip(*moments)
        if min(map(len, mus)) <= d:
            raise ValueError(f"class moments stop below C^{d}, the polynomials' top power")
        mu = np.array([v[: d + 1] for v in mus], dtype=object)
        scales, sizes = np.array(scales, dtype=object), np.array(sizes, dtype=object)
        squares = ((w @ np.array(self.gram(d), dtype=object)) * w).sum(axis=1)
        return (squares - 2 * scales * (w * mu).sum(axis=1) + scales * scales * sizes == 0).tolist()

    def gram(self, d: int) -> list[list[int]]:
        """The integer Gram matrix G_ab = C^a . C^b = n <C^a, C^b> for a, b <=
        d, computed once (`class_moments`); a smaller d reads the leading block.
        """
        if self._gram is None or len(self._gram) <= d:
            self.class_moments(d, ())
        return [row[: d + 1] for row in self._gram[: d + 1]]

    def class_moments(self, d: int, masks: Sequence) -> list[tuple[int, list[int]]]:
        """(|A_i|, [mu_0i, ..., mu_di]), mu_ki = C^k . A_i, for each 0/1 matrix
        A_i in masks (n x n, or flattened), in one pass with the Gram matrix of
        C^0..C^d; it keeps that G as Python ints (`gram`) unless a larger one is
        kept, so it saves a pass only when called before anything reads `gram`.

        Row x of C^a has absolute sum at most R^a and every entry of C^b is
        at most R^b, so |G_ab| <= n R^(2d) (R taken as at least 1), and
        |mu_ki| <= n R^k. Per chunk of primes, with P the residues of
        C^0..C^d, P P^T gives G and P A_i, one float64 mask at a time, the
        moments, each entry a sum of at most n^2 products of residues; one
        symmetric CRT over primes whose product exceeds 2 n R^(2d) recovers both.
        """
        n = self.order
        masks = np.asarray(masks, dtype=bool).reshape(len(masks), n * n)
        rows, cols = np.triu_indices(d + 1)
        primes = _prime_run(_primes(_bits(n * n)), 2 * n * max(1, self.norm) ** (2 * d))
        residues = []
        for chunk in _prime_chunks(primes, 8 * (d + 1) * n * n):
            stack = self._powers_mod(chunk, d)
            p = np.array(chunk)[:, None, None]
            products = _reduce(stack @ stack.transpose(0, 2, 1), p)[:, rows, cols]
            mu = [_reduce(stack @ mask.astype(float), p[:, 0]) for mask in masks]  # mu_ki at (d + 1) i + k
            residues.append(np.concatenate([products, *mu], axis=1))
        values = _symmetric_crt(np.concatenate(residues), primes)
        if self._gram is None or len(self._gram) <= d + 1:
            self._gram = [[0] * (d + 1) for _ in range(d + 1)]
            for a, b, v in zip(rows.tolist(), cols.tolist(), values):
                self._gram[a][b] = self._gram[b][a] = v
        moments, k = values[len(rows) :], d + 1
        return [(int(mask.sum()), moments[i * k : i * k + k]) for i, mask in enumerate(masks)]


# ---------------------------------------------------------------------------
# Word-prime residues: the primes, their runs and the CRT.
# ---------------------------------------------------------------------------


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


# bits -> the odd primes below 2^bits in descending order, found on first use
_PRIME_TABLES: dict[int, list[int]] = {}


def _prime(bits: int, index: int) -> int:
    """The index-th odd prime below 2^bits, counting down from 2^bits."""
    table = _PRIME_TABLES.setdefault(bits, [])
    candidate = table[-1] - 2 if table else 2**bits - 1
    while len(table) <= index:
        if candidate < 3:
            raise ArithmeticError(f"ran out of primes below 2^{bits}")
        if _is_prime(candidate):
            table.append(candidate)
        candidate -= 2
    return table[index]


def _primes(bits: int) -> Iterator[int]:
    """The odd primes below 2^bits in descending order."""
    return map(partial(_prime, bits), count())


def _prime_run(primes: Iterator[int], bound: int) -> list[int]:
    """The fewest next primes, at least one, whose product exceeds bound."""
    run = [next(primes)]
    modulus = run[0]
    while modulus <= bound:
        run.append(next(primes))
        modulus *= run[-1]
    return run


def _prime_chunks(primes: list[int], size: int) -> Iterator[list[int]]:
    """The primes in order, in chunks whose residue work of size bytes per
    prime takes at most STACK_BYTES (or one prime)."""
    step = max(1, STACK_BYTES // size)
    return (primes[lo : lo + step] for lo in range(0, len(primes), step))


def _bits(terms: int) -> int:
    """The size of the residue primes for sums of `terms` products of residues:
    each prime p is below 2^bits, with terms (p - 1)^2 < 2^53."""
    return (53 - (terms - 1).bit_length()) // 2


def _reduce(stack: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """An exact float64 stack of integers below 2^53, reduced mod its primes."""
    return stack.astype(np.int64) % primes


def _joined(chunks: Iterable[tuple[list[int], np.ndarray]]) -> tuple[list[int], np.ndarray]:
    """The primes and the residue rows of a run of chunks, each joined in order."""
    primes, rows = zip(*chunks)
    return [q for chunk in primes for q in chunk], np.concatenate(rows)


def _symmetric_crt(residues: np.ndarray, primes: Sequence[int]) -> list[int]:
    """For each column of residues (one row per prime), the integer v with
    v = residues[r] mod primes[r] and |v| < prod(primes) / 2."""
    modulus = prod(primes)
    weights = np.array([(modulus // q) * pow(modulus // q, -1, q) for q in primes], dtype=object)
    values = (weights @ np.asarray(residues).astype(object)) % modulus
    return [v - modulus if 2 * v > modulus else v for v in values.tolist()]


# ---------------------------------------------------------------------------
# Exact linear solving: fraction-free (Bareiss-style) elimination.
# ---------------------------------------------------------------------------


def solve_rational_system(
    columns: Sequence[Sequence[Scalar]], target: Sequence[Scalar]
) -> Optional[list[Fraction]]:
    """Solve sum_j x_j * columns[j] = target exactly over the rationals (ints or Fractions).

    Returns one solution (free variables set to zero) or None when the
    system is inconsistent. Forward elimination is fraction-free on
    integer-cleared rows with first-nonzero pivoting, so every intermediate
    entry is an exact minor of the cleared system; back-substitution runs
    over Fractions.
    """
    k = len(columns)
    m = len(target)
    rows: list[list[int]] = []
    for r in range(m):
        row = [columns[j][r] for j in range(k)]
        row.append(target[r])
        if any(row):
            rows.append(clear_denominators(row)[1])  # solutions unchanged
    width = k + 1
    pivot_cols: list[int] = []
    rank = 0
    prev = 1
    for c in range(width):
        pr = None
        for i in range(rank, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        piv = rows[rank][c]
        pivot_row = rows[rank]
        for i in range(rank + 1, len(rows)):
            row = rows[i]
            factor = row[c]
            for j in range(width):
                num = row[j] * piv - factor * pivot_row[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row[j] = q
        prev = piv
        pivot_cols.append(c)
        rank += 1
        if rank == len(rows):
            break
    if pivot_cols and pivot_cols[-1] == k:
        return None  # pivot in the target column: inconsistent
    solution = [Fraction(0)] * k
    for r in range(rank - 1, -1, -1):
        c = pivot_cols[r]
        acc = Fraction(rows[r][k])
        for j in range(c + 1, k):
            if rows[r][j]:
                acc -= rows[r][j] * solution[j]
        solution[c] = acc / rows[r][c]
    return solution
