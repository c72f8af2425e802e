"""Dense square matrices over exact rationals.

Provides the products, transposes, the normalized trace inner product,
matrix-polynomial evaluation, and exact linear solves (fraction-free
elimination) that the rest of the pipeline is built on. The hot paths run
on cleared integers, a vector of Fractions written as ints / den with den
the lcm of its denominators:

- every matrix product is one call of `integer_product`, the exact product
  of two integer matrices: one int64 numpy matmul when a bound on the
  entries proves that no partial sum can overflow, the Python-int loop
  otherwise;
- `RationalMatrix` products scale each row and column by its own lcm and
  multiply the two cleared grids with that kernel;
- the power basis keeps every power B^k once, as (delta_k, ints_k), each
  one integer product of the previous power with the cleared base;
- `evaluate_cleared` combines those integer powers under one common
  denominator into p(B) as (den, ints), and `annihilated_by` decides
  p(B) = 0 on the same integer combination;
- the trace inner product is one integer dot product of cleared
  flattenings, and the polynomial form is an integer combination of the
  entries of the basis's one Gram matrix G_ab = ints_a . ints_b.

Fraction matrices (`RationalMatrix`) are built when a file is parsed, for
the two products of the normality check, and by `evaluate` on request;
the pipeline decides every other exact identity on the cleared integers,
and the distance classes stay one integer label grid from the BFS to the
report.
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

# Shared entries of the 0/1 matrices; Fractions are immutable.
ZERO = Fraction(0)
ONE = Fraction(1)


def clear_denominators(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(den, ints) with den the lcm of the denominators and ints = den * values."""
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
    return den, [v.numerator * (den // v.denominator) for v in values]


def integer_product(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The exact product of two n x n integer matrices, flattened row-major.

    Every partial sum of an entry is at most n * max|a| * max|b| in absolute
    value. When that bound, with each maximum taken as at least 1 so that
    both operands fit as well, is below 2^63, one int64 matmul is exact;
    otherwise the product runs on Python ints. The bound comes first because
    numpy integer matmul wraps on overflow without a warning.
    """
    bound = n * max(1, max(a), -min(a)) * max(1, max(b), -min(b))
    if bound < 2**63:
        return _int64_product(a, b, n)
    return _python_product(a, b, n)


def _int64_product(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    left = np.array(a, dtype=np.int64).reshape(n, n)
    right = np.array(b, dtype=np.int64).reshape(n, n)
    return (left @ right).ravel().tolist()


def _python_product(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    columns = [b[j::n] for j in range(n)]
    return [sum(map(mul, a[i : i + n], col)) for i in range(0, n * n, n) for col in columns]


class MatrixOrderError(ValueError):
    """Operands have incompatible orders."""


class RationalMatrix:
    """Immutable n x n matrix of Fractions, row-major indexing (x, y)."""

    __slots__ = ("order", "rows")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        # Fractions are immutable, so existing ones are shared, not rebuilt
        grid = tuple(
            tuple(v if type(v) is Fraction else Fraction(v) for v in row) for row in rows
        )
        n = len(grid)
        if n == 0:
            raise ValueError("matrix must have positive order")
        for row in grid:
            if len(row) != n:
                raise ValueError(f"row of length {len(row)} in matrix of order {n}")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "rows", grid)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> "RationalMatrix":
        return cls([[ZERO] * n for _ in range(n)])

    @classmethod
    def ones(cls, n: int) -> "RationalMatrix":
        """The all-ones matrix J."""
        return cls([[ONE] * n for _ in range(n)])

    def __getitem__(self, x: int) -> Row:
        return self.rows[x]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def _require_same_order(self, other: "RationalMatrix") -> None:
        if self.order != other.order:
            raise MatrixOrderError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._require_same_order(other)
        return RationalMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._require_same_order(other)
        return RationalMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix([[-a for a in row] for row in self.rows])

    def __rmul__(self, scalar: Scalar) -> "RationalMatrix":
        c = Fraction(scalar)
        return RationalMatrix([[c * a for a in row] for row in self.rows])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """Exact product on cleared integers.

        Each row of self is scaled by the lcm of its denominators and each
        column of other by the lcm of its own; one `integer_product` of the
        two cleared grids gives every entry over one reduced Fraction.
        """
        self._require_same_order(other)
        n = self.order
        rows = [clear_denominators(row) for row in self.rows]
        cols = [clear_denominators(col) for col in zip(*other.rows)]
        left = [v for _, ints in rows for v in ints]
        right = [v for line in zip(*(ints for _, ints in cols)) for v in line]
        product = integer_product(left, right, n)
        col_dens = [den for den, _ in cols]
        return RationalMatrix(
            tuple(
                Fraction(v, row_den * col_den)
                for v, col_den in zip(product[i * n : i * n + n], col_dens)
            )
            for i, (row_den, _) in enumerate(rows)
        )

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.rows)))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def flatten(self) -> Row:
        return tuple(v for row in self.rows for v in row)

    def to_float(self):
        """Dense float copy for the numeric sidecar."""
        return np.array([[float(v) for v in row] for row in self.rows], dtype=float)

    def __repr__(self) -> str:
        return f"RationalMatrix({[list(map(str, r)) for r in self.rows]!r})"

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)


def cleared_trace_inner(
    m: tuple[int, Sequence[int]], n: tuple[int, Sequence[int]], order: int
) -> Fraction:
    """trace_inner_product of two order x order matrices given by their cleared flattenings.

    One integer dot product over delta_M * delta_N * order.
    """
    (m_den, m_ints), (n_den, n_ints) = m, n
    return Fraction(sum(map(mul, m_ints, n_ints)), m_den * n_den * order)


def trace_inner_product(m: RationalMatrix, n: RationalMatrix) -> Fraction:
    """(1/order) * trace(M N^T), computed as the normalized Hadamard sum.

    Both operands are real rational, so conjugation is the identity and the
    trace form and the entrywise form coincide. Each flattening is cleared
    by the lcm of its denominators, so the sum is one integer dot product.
    """
    m._require_same_order(n)
    return cleared_trace_inner(
        clear_denominators(m.flatten()), clear_denominators(n.flatten()), m.order
    )


def _lowest_terms(den: int, ints: list[int]) -> tuple[int, list[int]]:
    """(den, ints) divided by the gcd of den and every entry."""
    g = gcd(den, *ints)
    if g > 1:
        return den // g, [v // g for v in ints]
    return den, ints


def _from_cleared(den: int, ints: Sequence[int], n: int) -> RationalMatrix:
    """The n x n matrix with row-major flattening ints / den."""
    return RationalMatrix(
        [Fraction(v, den) for v in ints[i : i + n]] for i in range(0, n * n, n)
    )


class MatrixPowerBasis:
    """Powers I, B, B^2, ... of one matrix, each kept once as cleared integers.

    Power k is stored as (delta_k, ints_k) with vec(B^k) = ints_k / delta_k
    in lowest terms: B = M / delta with M an integer matrix, kept as one
    flat int list, and ints_{k+1} / delta_{k+1} is ints_k * M / (delta_k *
    delta) divided by its content. Each power costs one `integer_product`
    (int64 while the entry bound allows it, Python ints beyond); every
    power up to the
    working degree is needed anyway (the minimal polynomial reduces each one
    modulo a prime), so repeated squaring would not help.
    Fraction matrices are built only on request (`evaluate`);
    `evaluate_cleared` and `annihilated_by` combine the cleared integers
    directly.

    The basis also holds the one integer Gram matrix of the trace form,
    G_ab = ints_a . ints_b, filled entry by entry on first use (`gram`).
    The predistance Gram-Schmidt reads it, working on the weights of its
    polynomials and the images G w rather than on polynomials of
    Fractions.
    """

    def __init__(self, base: RationalMatrix):
        self.base = base
        n = base.order
        self._base_den, self._base_ints = clear_denominators(base.flatten())
        identity = [0] * (n * n)
        identity[:: n + 1] = [1] * n
        self._cleared_powers: list[tuple[int, list[int]]] = [(1, identity)]
        self._gram: dict[tuple[int, int], int] = {}

    def cleared(self, k: int) -> tuple[int, list[int]]:
        """(delta_k, ints_k) with vec(B^k) = ints_k / delta_k in lowest terms."""
        powers, n = self._cleared_powers, self.base.order
        while len(powers) <= k:
            den, ints = powers[-1]
            product = integer_product(ints, self._base_ints, n)
            powers.append(_lowest_terms(den * self._base_den, product))
        return powers[k]

    def weights(self, p: Polynomial) -> tuple[int, list[tuple[int, int]]]:
        """(L, [(k, w_k)]) with p(B) = (sum_k w_k ints_k) / L, L = lcm(den(p_k) delta_k)."""
        terms = [(k, c) for k, c in enumerate(p.coeffs) if c]
        powers = self._cleared_powers
        if terms:
            self.cleared(p.degree)
        den = 1
        for k, c in terms:
            den = lcm(den, c.denominator * powers[k][0])
        return den, [(k, c.numerator * (den // (c.denominator * powers[k][0]))) for k, c in terms]

    def _combination(self, weights: list[tuple[int, int]]) -> list[int]:
        """sum_k w_k ints_k, entry by entry."""
        acc = [0] * (self.base.order**2)
        for k, weight in weights:
            acc = [a + weight * v for a, v in zip(acc, self._cleared_powers[k][1])]
        return acc

    def evaluate_cleared(self, p: Polynomial) -> tuple[int, list[int]]:
        """(den, ints) with vec(p(B)) = ints / den in lowest terms.

        One integer combination (sum_k w_k ints_k) / L of the cleared
        powers, divided by its content; no Fraction is built.
        """
        den, weights = self.weights(p)
        return _lowest_terms(den, self._combination(weights))

    def evaluate(self, p: Polynomial) -> RationalMatrix:
        """p(B) as a matrix: the entries of evaluate_cleared(p) as Fractions."""
        return _from_cleared(*self.evaluate_cleared(p), self.base.order)

    def annihilated_by(self, p: Polynomial) -> bool:
        """Whether p(B) = 0, decided on the integers sum_k w_k ints_k; no Fraction is built."""
        return not any(self._combination(self.weights(p)[1]))

    def gram(self, a: int, b: int) -> int:
        """G_ab = ints_a . ints_b, one integer dot product, computed once per basis.

        <B^a, B^b> = G_ab / (delta_a delta_b n); the predistance Gram-Schmidt
        reads its form from these entries.
        """
        key = (a, b) if a <= b else (b, a)
        entry = self._gram.get(key)
        if entry is None:
            a_ints, b_ints = self.cleared(a)[1], self.cleared(b)[1]
            entry = self._gram[key] = sum(map(mul, a_ints, b_ints))
        return entry


# ---------------------------------------------------------------------------
# Exact linear solving: fraction-free (Bareiss-style) elimination.
# ---------------------------------------------------------------------------


def solve_rational_system(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Solve sum_j x_j * columns[j] = target exactly over the rationals.

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
        frac_row = [Fraction(columns[j][r]) for j in range(k)]
        frac_row.append(Fraction(target[r]))
        if any(frac_row):
            rows.append(clear_denominators(frac_row)[1])  # solutions unchanged
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
