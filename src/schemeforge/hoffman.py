"""Exact minimal polynomials and Hoffman polynomials.

The minimal polynomial comes from one incremental fraction-free elimination
of the vectorized powers of B, kept as cleared integers by the power basis:
each new power is reduced against the rows kept so far, and the first one
that reduces to zero gives the dependency. No linear system is solved and
nothing is recomputed from one candidate degree to the next. For a
lambda-doubly stochastic irreducible B with lambda != 0, the Hoffman
polynomial h is the unique minimal-degree polynomial with h(B) = J; it is
always verified against J before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, zip_longest
from math import gcd
from typing import Optional, Sequence

from .exact import Polynomial
from .matrix import MatrixPowerBasis, RationalMatrix
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


def minimal_polynomial(
    b: RationalMatrix, basis: Optional[MatrixPowerBasis] = None
) -> MinimalPolynomial:
    """Smallest monic m with m(B) = 0, found at the first dependent power.

    One incremental fraction-free elimination over the cleared power
    vectors ints_k = delta_k vec(B^k). Each new vector is reduced against
    the rows kept so far, in insertion order, and carries the integer
    combination of the ints_j it stands for; after every row operation the
    vector and its combination are divided by their common content. Every
    kept row is zero at the pivots of all earlier rows, so a vector in their
    span reduces to exactly zero. The first power that does gives the
    dependency sum_j c_j ints_j = 0, that is sum_j c_j delta_j B^j = 0,
    which is made monic.
    """
    if basis is None:
        basis = MatrixPowerBasis(b)
    kept: list[tuple[int, list[int], list[int]]] = []  # (pivot, vector, combination)
    for k in count():
        vector = basis.cleared(k)[1]
        combination = [0] * k + [1]
        for pivot, row, row_combination in kept:
            a = vector[pivot]
            if not a:
                continue
            p = row[pivot]
            vector = [p * x - a * y for x, y in zip(vector, row)]
            combination = [
                p * x - a * y for x, y in zip_longest(combination, row_combination, fillvalue=0)
            ]
            g = gcd(*vector, *combination)
            if g > 1:
                vector = [x // g for x in vector]
                combination = [x // g for x in combination]
        pivot = next((i for i, x in enumerate(vector) if x), None)
        if pivot is None:
            coeffs = [c * basis.cleared(j)[0] for j, c in enumerate(combination)]
            lead = coeffs[-1]
            return MinimalPolynomial(Polynomial(Fraction(c, lead) for c in coeffs))
        kept.append((pivot, vector, combination))


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
    sample_points: Optional[Sequence[float]] = None,
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
    if sample_points is None:
        sample_points = [0.0, 0.25 * lam, 0.5 * lam, 0.75 * lam, lam, 1.25 * lam, -0.5 * lam]
    pi0 = 1.0 + 0.0j
    for r in roots:
        pi0 *= lam - r
    worst = 0.0
    for s in sample_points:
        exact_side = info.h.eval_complex(s)
        product = 1.0 + 0.0j
        for r in roots:
            product *= s - r
        factored_side = n / pi0 * product
        worst = max(worst, abs(exact_side - factored_side))
    return worst
