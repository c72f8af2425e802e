"""Dense square matrices over exact rationals.

Provides the products, transposes, the normalized trace inner product
and matrix-polynomial evaluation that the rest of the pipeline is built
on, and an exact linear solver (fraction-free elimination) for the test
oracles; the pipeline itself solves on residues (see `hoffman`). There is one
encoding of a matrix: `RationalMatrix` holds its entries cleared of their
denominators, ints / den with ints a flat row-major tuple of integers, in
lowest terms. Every operation is an integer operation on that encoding:

- every matrix product is one call of `integer_product` over den * den',
  the exact product of two integer matrices: one numpy matmul, on int64
  when a bound on the entries proves that no partial sum can overflow and
  on object arrays of Python ints otherwise;
- each matrix owns one analysis context (`RationalMatrix.powers`, built
  on first access and kept). It holds B = s C, the one exact form of B
  past the parser: the scale s = gcd(ints) / den and the primitive integer
  matrix C = ints / gcd(ints). B and C generate the same algebra, so every
  stage works on C, and s is applied in the context alone: `rescaled`
  writes a polynomial in C as one in B, and `weights` writes p(B) as a
  combination of C's powers. The context also keeps C's powers, each one
  product of the previous power with C, and the results of the pipeline
  stages on B, each stored by the stage that computes it;
- `evaluate` combines C's powers under one common denominator into p(B);
  the identities m(B) = 0 and h(B) = J are not decided here but on
  word-prime residues of C (see `hoffman`), so no power above the
  predistance degree is formed;
- the trace inner product is one integer dot product of the flattenings,
  and the polynomial form is an integer combination of the entries of the
  one Gram matrix G_ab = C^a . C^b that the context keeps.

Fractions are built when a file is parsed and when a boundary asks for
`rows` (reports, the entry decomposition, the float sidecar); the
distance classes stay one integer label grid from the BFS to the report.
Matrices are immutable; every operation returns a fresh value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

import numpy as np

from .exact import Polynomial, Scalar

Row = tuple[Fraction, ...]


def clear_denominators(values: Sequence[Scalar]) -> tuple[int, list[int]]:
    """(den, ints) with den the lcm of the denominators and ints = den * values.

    The values may be Fractions or ints: both carry numerator and denominator.
    """
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
    return den, [v.numerator * (den // v.denominator) for v in values]


def integer_product(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The exact product of two n x n integer matrices, flattened row-major.

    Every partial sum of an entry is at most n * max|a| * max|b| in absolute
    value. When that bound, with each maximum taken as at least 1 so that
    both operands fit as well, is below 2^63, the matmul runs on int64;
    otherwise the same matmul runs on object arrays of Python ints. The
    bound comes first because numpy integer matmul wraps on overflow without
    a warning.
    """
    bound = n * max(1, max(a), -min(a)) * max(1, max(b), -min(b))
    dtype = np.int64 if bound < 2**63 else object
    left = np.array(a, dtype=dtype).reshape(n, n)
    right = np.array(b, dtype=dtype).reshape(n, n)
    return (left @ right).ravel().tolist()


class MatrixOrderError(ValueError):
    """Operands have incompatible orders."""


class RationalMatrix:
    """Immutable n x n rational matrix, kept cleared of its denominators.

    Entry (x, y) is ints[x * n + y] / den, with ints a flat row-major tuple
    of ints, den > 0 and gcd(den, *ints) = 1, so each matrix has exactly
    one (order, den, ints). The Fraction rows are built only on request.
    The analysis context (`powers`) is a cache beside that encoding:
    equality and hashing read only (order, den, ints).
    """

    __slots__ = ("order", "den", "ints", "_powers")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        grid = [[v if type(v) in (Fraction, int) else Fraction(v) for v in row] for row in rows]
        n = len(grid)
        if n == 0:
            raise ValueError("matrix must have positive order")
        for row in grid:
            if len(row) != n:
                raise ValueError(f"row of length {len(row)} in matrix of order {n}")
        # den is the lcm of the reduced denominators, so (den, ints) is in lowest terms
        self._set(n, *clear_denominators([v for row in grid for v in row]))

    def _set(self, n: int, den: int, ints: Sequence[int]) -> None:
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "_powers", None)

    @classmethod
    def _cleared(cls, den: int, ints: Sequence[int], n: int) -> "RationalMatrix":
        """The n x n matrix with row-major flattening ints / den (den > 0), in lowest terms."""
        g = gcd(den, *ints)
        m = object.__new__(cls)
        m._set(n, den // g, [v // g for v in ints] if g > 1 else ints)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def ones(cls, n: int) -> "RationalMatrix":
        """The all-ones matrix J."""
        return cls._cleared(1, [1] * (n * n), n)

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
        n, den = self.order, self.den
        x = range(n)[x]  # IndexError past the last row, as for a tuple
        return tuple(Fraction(v, den) for v in self.ints[x * n : x * n + n])

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalMatrix):
            return (self.order, self.den, self.ints) == (other.order, other.den, other.ints)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.order, self.den, self.ints))

    def _require_same_order(self, other: "RationalMatrix") -> None:
        if self.order != other.order:
            raise MatrixOrderError(f"order mismatch: {self.order} vs {other.order}")

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """Exact product: one `integer_product` of the two cleared grids over den * den'."""
        self._require_same_order(other)
        n = self.order
        return RationalMatrix._cleared(
            self.den * other.den, integer_product(self.ints, other.ints, n), n
        )

    def transpose(self) -> "RationalMatrix":
        n, ints = self.order, self.ints
        return RationalMatrix._cleared(self.den, [v for y in range(n) for v in ints[y::n]], n)

    def to_float(self):
        """Dense float copy for the numeric sidecar.

        Each entry is v / den, a correctly rounded int division, so it equals
        float(Fraction(v, den)) without building the Fraction.
        """
        n, den = self.order, self.den
        return np.array([v / den for v in self.ints], dtype=float).reshape(n, n)

    def __repr__(self) -> str:
        return f"RationalMatrix({[list(map(str, r)) for r in self.rows]!r})"

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


def trace_inner_product(m: RationalMatrix, n: RationalMatrix) -> Fraction:
    """(1/order) * trace(M N^T), computed as the normalized Hadamard sum.

    Both operands are real rational, so conjugation is the identity and the
    trace form and the entrywise form coincide: one integer dot product of
    the cleared flattenings over den_M * den_N * order.
    """
    m._require_same_order(n)
    return Fraction(sum(map(mul, m.ints, n.ints)), m.den * n.den * m.order)


class MatrixPowerBasis:
    """The analysis context of one matrix B = s C: the scale s, the primitive
    integer matrix C and its powers, each computed once, and the result of
    each pipeline stage on B.

    For B = ints / den, s = gcd(ints) / den and C = ints / gcd(ints); the
    zero matrix is its own C, with s = 1. This is the one exact form of B
    past the parser. B and C generate the same algebra, so every stage reads
    C: the minimal and Hoffman polynomials reduce C modulo primes
    (`residues`, bounded through R = `norm`), and the predistance stage
    reads C's integer powers and their Gram entries. s is applied in
    `rescaled`, which writes a polynomial in C as one in B, and in
    `weights`, which writes a polynomial in B as a combination of C's
    powers. `classify`, `minimal_polynomial`, `hoffman_polynomial` and
    `predistance_basis` each store their result here and return it on later
    calls; a failed gate or check stores nothing.

    C^k is kept as a flat integer list, one `integer_product` of C^(k - 1)
    with C (on int64 while the entry bound allows it, on Python ints
    beyond). Only the predistance stage reads powers, C^0 up to C^d for its
    Gram matrix and its evaluations, and it needs each of them, so repeated
    squaring would not help. The basis also holds the one integer Gram
    matrix G_ab = C^a . C^b of the trace form, filled entry by entry on
    first use (`gram`). The context holds C's integers, not B, so dropping
    B frees both without the cycle collector.
    """

    def __init__(self, base: RationalMatrix):
        n = base.order
        g = gcd(*base.ints) or 1
        ints = [v // g for v in base.ints]
        identity = [0] * (n * n)
        identity[:: n + 1] = [1] * n
        self.order = n
        self.scale = Fraction(g, base.den)
        # ||C||_inf, the largest absolute row sum: it bounds every eigenvalue
        # of C and every entry of C^j by norm^j
        self.norm = max(sum(map(abs, ints[x * n : x * n + n])) for x in range(n))
        self._powers = [identity, ints]
        self._entries = None  # C as a numpy array, built by the first `residues` call
        self._gram: dict[tuple[int, int], int] = {}
        # stage results, each set once by the stage that computes it
        self.classification = None  # stochastic.MatrixClassification
        self.primitive_minimal = None  # m_C's integer coefficients, ascending
        self.minimal = None  # hoffman.minimal_polynomial
        self.hoffman = None  # hoffman.HoffmanPolynomial
        self.predistance = None  # predistance.PredistanceBasis

    def integer_power(self, k: int) -> list[int]:
        """C^k, flattened row-major, computed once."""
        powers = self._powers
        while len(powers) <= k:
            powers.append(integer_product(powers[-1], powers[1], self.order))
        return powers[k]

    def residues(self, primes: Sequence[int]) -> np.ndarray:
        """C mod p for each prime, an (r, n, n) float64 stack of integers in [0, p)."""
        if self._entries is None:
            # int64 while every entry fits, Python ints beyond
            self._entries = np.array(self._powers[1], dtype=np.int64 if self.norm < 2**63 else object)
        n = self.order
        return (self._entries % np.array(primes)[:, None]).astype(float).reshape(-1, n, n)

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

    def weights(self, p: Polynomial) -> tuple[int, list[tuple[int, int]]]:
        """(L, [(k, w_k)]) with p(B) = (sum_k w_k C^k) / L: p_k s^k cleared under one lcm L."""
        scale = self.scale
        terms = [(k, c * scale**k) for k, c in enumerate(p.coeffs) if c]
        den = lcm(*(c.denominator for _, c in terms))
        return den, [(k, c.numerator * (den // c.denominator)) for k, c in terms]

    def _combination(self, weights: list[tuple[int, int]]) -> list[int]:
        """sum_k w_k C^k, entry by entry."""
        acc = [0] * (self.order**2)
        for k, weight in weights:
            acc = [a + weight * v for a, v in zip(acc, self.integer_power(k))]
        return acc

    def evaluate(self, p: Polynomial) -> RationalMatrix:
        """p(B): one integer combination (sum_k w_k C^k) / L of C's powers."""
        den, weights = self.weights(p)
        return RationalMatrix._cleared(den, self._combination(weights), self.order)

    def gram(self, a: int, b: int) -> int:
        """G_ab = C^a . C^b, one integer dot product, computed once per basis.

        <C^a, C^b> = G_ab / n; the predistance Gram-Schmidt reads its form
        from these entries.
        """
        key = (a, b) if a <= b else (b, a)
        entry = self._gram.get(key)
        if entry is None:
            entry = self._gram[key] = sum(map(mul, self.integer_power(a), self.integer_power(b)))
        return entry


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
