"""Classification of rational matrices, the hypothesis gate, and the
distinct-entry decomposition.

classify() reports the four exact flags the rest of the pipeline gates on:
nonnegativity, a common line sum (lambda-double stochasticity), normality,
and irreducibility. All four are read off B = s C (s > 0, C a primitive
integer array): signs, line sums and the arcs for irreducibility in one
array pass each over C, normality as B B^T = B^T B, two integer array
products and one comparison. It never fails; bad inputs just classify
negatively. The entry decomposition groups C's distinct positive values.
MatrixClassification.failed_hypothesis() is the one gate on those flags, in
the theorem's order; HYPOTHESIS_MESSAGES words each failure, and a stage
whose gate fails raises HypothesisError with the failed code.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .digraph import first_negative, is_strongly_connected, successor_lists
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


class HypothesisError(ValueError):
    """The input fails the gate hypothesis `code` of the stage that raised it."""

    def __init__(self, code: RejectionCode):
        self.code = code
        self.hypothesis = HYPOTHESIS_MESSAGES[code]
        super().__init__(f"hypothesis failed: {self.hypothesis}")


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
    """The four flags; signs, line sums and support are read off C, for B = s C.

    C is B's entries and s > 0, so B's signs and support are C's, and its
    line sums are s times C's (lambda = s times C's row sum). Normality
    compares B B^T = s^2 C C^T with B^T B = s^2 C^T C. The result is
    computed once and kept in B's analysis context.
    """
    context = b.powers
    if context.classification is not None:
        return context.classification
    entries = context.entries
    nonnegative = not (entries < 0).any()
    row_sums, col_sums = entries.sum(axis=1), entries.sum(axis=0)
    lam: Optional[Fraction] = None
    if nonnegative and (row_sums == row_sums[0]).all() and (col_sums == row_sums[0]).all():
        lam = int(row_sums[0]) * context.scale
    bt = b.transpose()
    normal = (b @ bt) == (bt @ b)
    irreducible = is_strongly_connected(successor_lists(entries))
    context.classification = MatrixClassification(
        order=b.order, nonnegative=nonnegative, lam=lam, normal=normal, irreducible=irreducible
    )
    return context.classification


@dataclass(frozen=True)
class EntryDecomposition:
    """B = sum_i coefficients[i] * indicators[i] over the distinct positive entries.

    Coefficients are strictly ascending; indicator supports are pairwise
    disjoint and together cover exactly the nonzero positions.
    """

    coefficients: tuple[Fraction, ...]
    indicators: tuple[RationalMatrix, ...]


def entry_decomposition(b: RationalMatrix) -> EntryDecomposition:
    """Group positions of B = s C by distinct positive value.

    Since s > 0, B's distinct positive values are s v for C's, in the same
    order, and the indicator of s v is the 0/1 matrix C == v.
    """
    entries = b.entries
    position = first_negative(entries)
    if position is not None:
        value = b.scale * int(entries[position])
        raise ValueError(f"entry decomposition requires nonnegativity; entry {position} is {value}")
    values = sorted(set(entries[entries > 0].tolist()))
    return EntryDecomposition(
        coefficients=tuple(b.scale * v for v in values),
        indicators=tuple(RationalMatrix._scaled(Fraction(1), entries == v, b.order) for v in values),
    )


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
