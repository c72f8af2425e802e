"""Classification of rational matrices, the hypothesis gate, and the
distinct-entry decomposition.

classify() reports the four exact flags the rest of the pipeline gates on:
nonnegativity, a common line sum (lambda-double stochasticity), normality,
and irreducibility. All four are read off the integers of B = M / delta:
signs and line sums off M, normality as B B^T = B^T B, two integer
products. It never fails; bad inputs just classify negatively.
MatrixClassification.failed_hypothesis() is the one gate on those flags, in
the theorem's order; HYPOTHESIS_MESSAGES words each failure.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .digraph import is_strongly_connected
from .matrix import RationalMatrix


class RejectionCode(enum.Enum):
    NOT_NONNEGATIVE = "NOT_NONNEGATIVE"
    NOT_IRREDUCIBLE = "NOT_IRREDUCIBLE"
    NOT_DOUBLY_STOCHASTIC = "NOT_DOUBLY_STOCHASTIC"
    NOT_NORMAL = "NOT_NORMAL"
    LAMBDA_ZERO = "LAMBDA_ZERO"
    EIGENCOUNT_NE_DIAMETER = "EIGENCOUNT_NE_DIAMETER"
    AD_NOT_POLYNOMIAL = "AD_NOT_POLYNOMIAL"
    AXIOM_FAILURE = "AXIOM_FAILURE"


HYPOTHESIS_MESSAGES = {
    RejectionCode.NOT_NONNEGATIVE: "matrix has a negative entry",
    RejectionCode.NOT_IRREDUCIBLE: "matrix is not irreducible",
    RejectionCode.NOT_DOUBLY_STOCHASTIC: "row and column sums do not share a common value",
    RejectionCode.NOT_NORMAL: "matrix is not normal",
    RejectionCode.LAMBDA_ZERO: "common line sum is zero",
}


@dataclass(frozen=True)
class MatrixClassification:
    """Exact classification flags of one square rational matrix.

    lam is the common row/column sum, present only when the matrix is
    nonnegative and all 2n line sums agree (i.e. exactly when the matrix is
    lambda-doubly stochastic).
    """

    order: int
    nonnegative: bool
    lam: Optional[Fraction]
    normal: bool
    irreducible: bool

    @property
    def doubly_stochastic(self) -> bool:
        return self.lam is not None

    def failed_hypothesis(self, require_normal: bool = True) -> Optional[RejectionCode]:
        """The first failed hypothesis in the theorem's order, or None.

        The Hoffman polynomial exists without normality, so its gate passes
        require_normal=False and skips that hypothesis.
        """
        checks = (
            (RejectionCode.NOT_NONNEGATIVE, self.nonnegative),
            (RejectionCode.NOT_IRREDUCIBLE, self.irreducible),
            (RejectionCode.NOT_DOUBLY_STOCHASTIC, self.lam is not None),
            (RejectionCode.NOT_NORMAL, self.normal or not require_normal),
            (RejectionCode.LAMBDA_ZERO, self.lam != 0),
        )
        return next((code for code, holds in checks if not holds), None)

    @property
    def hoffman_ready(self) -> bool:
        """Whether a Hoffman polynomial exists: the gate without normality passes."""
        return self.failed_hypothesis(require_normal=False) is None


def classify(b: RationalMatrix) -> MatrixClassification:
    """The four flags; signs and line sums are decided on M = delta B.

    delta = b.den, so the line sums are integer sums (lambda = row sum /
    delta). Normality compares the two products B B^T and B^T B.
    """
    n, den, ints = b.order, b.den, b.ints
    rows = [ints[i : i + n] for i in range(0, n * n, n)]
    nonnegative = all(v >= 0 for v in ints)
    row_sums = [sum(row) for row in rows]
    col_sums = [sum(ints[j::n]) for j in range(n)]
    lam: Optional[Fraction] = None
    if nonnegative and all(s == row_sums[0] for s in row_sums + col_sums):
        lam = Fraction(row_sums[0], den)
    bt = b.transpose()
    normal = (b @ bt) == (bt @ b)
    irreducible = is_strongly_connected([[y for y, v in enumerate(row) if v] for row in rows])
    return MatrixClassification(
        order=n, nonnegative=nonnegative, lam=lam, normal=normal, irreducible=irreducible
    )


@dataclass(frozen=True)
class EntryDecomposition:
    """B = sum_i coefficients[i] * indicators[i] over the distinct positive entries.

    Coefficients are strictly ascending; indicator supports are pairwise
    disjoint and together cover exactly the nonzero positions.
    """

    coefficients: tuple[Fraction, ...]
    indicators: tuple[RationalMatrix, ...]


def entry_decomposition(b: RationalMatrix) -> EntryDecomposition:
    """Group positions of B by distinct positive value."""
    for x, row in enumerate(b.rows):
        for y, v in enumerate(row):
            if v < 0:
                raise ValueError(f"entry decomposition requires nonnegativity; entry ({x}, {y}) is {v}")
    values = sorted({v for row in b.rows for v in row if v > 0})
    indicators = [
        RationalMatrix([[1 if v == c else 0 for v in row] for row in b.rows]) for c in values
    ]
    return EntryDecomposition(coefficients=tuple(values), indicators=tuple(indicators))


def random_lambda_ds(n: int, k: int, seed: int) -> RationalMatrix:
    """Random positive combination of k random permutation matrices.

    Output is lambda-doubly stochastic with lambda equal to the sum of the
    drawn coefficients. Deterministic under the seed; coefficients keep
    small denominators so downstream exact arithmetic stays light.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    rng = random.Random(seed)
    grid = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(k):
        coeff = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        image = list(range(n))
        rng.shuffle(image)
        for x in range(n):
            grid[x][image[x]] += coeff
    return RationalMatrix(grid)
