"""Predistance polynomial bases.

The matrix B induces an inner product <p, q> = (1/n) trace(p(B) q(B)^T) on
polynomials of degree at most d (d + 1 = degree of the minimal polynomial).
Gram-Schmidt over the monomials, with a doubling fallback that keeps every
basis polynomial nonvanishing at lambda, followed by the normalization
p_i = (q_i(lambda) / |q_i|^2) q_i, yields the predistance family: orthogonal,
deg p_i = i, |p_i|^2 = p_i(lambda) > 0, and sum_i p_i(B) = J.

The form comes from the Gram entries <B^a, B^b> of the power basis
(MatrixPowerBasis.inner). Each p_i is evaluated at B once and kept as
cleared integers (den, ints); no Fraction matrix is built. The invariant
check re-verifies orthogonality and norms on those evaluations with the
trace inner product, independently of the Gram entries, and sum_i p_i(B) = J
as one integer sum.

The normalization map above is the rational-arithmetic equivalent of scaling
the unit-norm polynomial r_i by r_i(lambda); it never materializes a square
root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .exact import Polynomial
from .hoffman import (
    HoffmanPolynomial,
    MinimalPolynomial,
    hoffman_polynomial,
    minimal_polynomial,
)
from .matrix import MatrixPowerBasis, RationalMatrix, cleared_trace_inner
from .stochastic import HYPOTHESIS_MESSAGES, MatrixClassification, classify


class PredistanceHypothesisError(ValueError):
    """The input fails a hypothesis of the predistance construction."""

    def __init__(self, hypothesis: str):
        self.hypothesis = hypothesis
        super().__init__(f"predistance basis undefined: {hypothesis}")


def poly_inner(
    p: Polynomial,
    q: Polynomial,
    b: RationalMatrix,
    basis: Optional[MatrixPowerBasis] = None,
) -> Fraction:
    """Exact value of <p, q> = (1/n) trace(p(B) q(B)^T).

    Real rational data throughout, so conjugation is the identity.
    """
    if basis is None:
        basis = MatrixPowerBasis(b)
    return basis.inner(p, q)


def lambda_avoiding_gram_schmidt(
    b: RationalMatrix,
    lam: Fraction,
    d: int,
    basis: Optional[MatrixPowerBasis] = None,
) -> list[Polynomial]:
    """Orthogonalize the monomials 1, t, ..., t^d while avoiding roots at lambda.

    Classical (not modified) Gram-Schmidt is enough because the arithmetic
    is exact. When the plain residual r_j vanishes at lambda, the doubled
    candidate 2 t^j - sum(projections) is used instead, which evaluates to
    lambda^j != 0 at lambda.
    """
    lam = Fraction(lam)
    if lam == 0:
        raise PredistanceHypothesisError("lambda is zero")
    if basis is None:
        basis = MatrixPowerBasis(b)
    polys: list[Polynomial] = []
    norms_sq: list[Fraction] = []
    for j in range(d + 1):
        monomial = Polynomial.monomial(j)
        candidate = monomial
        for ell in range(j):
            coeff = basis.inner(polys[ell], monomial) / norms_sq[ell]
            if coeff:
                candidate = candidate - coeff * polys[ell]
        if candidate(lam) == 0:
            # doubling fallback: candidate + t^j evaluates to lam^j at lambda
            candidate = candidate + monomial
        norm_sq = basis.inner(candidate, candidate)
        if norm_sq == 0:
            raise PredistanceHypothesisError(
                f"inner product degenerate at degree {j}; d exceeds deg(minpoly) - 1"
            )
        polys.append(candidate)
        norms_sq.append(norm_sq)
    return polys


@dataclass(frozen=True)
class PredistanceBasis:
    """The family p_0..p_d with cached norms and evaluations at B.

    evaluations[i] is p_i(B) cleared: (den, ints) with vec(p_i(B)) = ints /
    den in lowest terms, as MatrixPowerBasis.evaluate_cleared returns it.
    """

    polys: tuple[Polynomial, ...]
    lam: Fraction
    norms_sq: tuple[Fraction, ...]
    evaluations: tuple[tuple[int, list[int]], ...]

    @property
    def d(self) -> int:
        return len(self.polys) - 1


def predistance_basis(
    b: RationalMatrix,
    classification: Optional[MatrixClassification] = None,
    basis: Optional[MatrixPowerBasis] = None,
    minimal: Optional[MinimalPolynomial] = None,
) -> PredistanceBasis:
    """Construct and fully check the predistance family of B.

    Requires B normal, lambda-doubly stochastic, irreducible, lambda != 0.
    Every invariant of the family (degrees, orthogonality, norm values,
    positivity, Hoffman sum) is asserted before returning.
    """
    cls = classification if classification is not None else classify(b)
    failed = cls.failed_hypothesis()
    if failed is not None:
        raise PredistanceHypothesisError(HYPOTHESIS_MESSAGES[failed])
    if basis is None:
        basis = MatrixPowerBasis(b)
    if minimal is None:
        minimal = minimal_polynomial(b, basis)
    d = minimal.degree - 1
    orthogonal = lambda_avoiding_gram_schmidt(b, cls.lam, d, basis)
    polys = tuple(q(cls.lam) / basis.inner(q, q) * q for q in orthogonal)
    result = PredistanceBasis(
        polys=polys,
        lam=cls.lam,
        norms_sq=tuple(basis.inner(p, p) for p in polys),
        evaluations=tuple(basis.evaluate_cleared(p) for p in polys),
    )
    _assert_invariants(result, b)
    return result


def _sums_to_ones(evaluations: tuple[tuple[int, list[int]], ...], order: int) -> bool:
    """Whether sum_i p_i(B) = J, decided on the cleared evaluations.

    One integer sum under the lcm L of their denominators, compared with L
    on every entry.
    """
    den = lcm(*(d for d, _ in evaluations))
    total = [0] * (order * order)
    for d, ints in evaluations:
        scale = den // d
        total = [t + scale * v for t, v in zip(total, ints)]
    return total == [den] * (order * order)


def _assert_invariants(family: PredistanceBasis, b: RationalMatrix) -> None:
    polys, lam, evaluations = family.polys, family.lam, family.evaluations
    if polys[0] != Polynomial([1]):
        raise ArithmeticError("internal invariant violated: p_0 != 1")
    for i, (p, norm_sq) in enumerate(zip(polys, family.norms_sq)):
        if p.degree != i:
            raise ArithmeticError(f"internal invariant violated: deg(p_{i}) != {i}")
        value = p(lam)
        if value <= 0 or value != norm_sq:
            raise ArithmeticError(f"internal invariant violated: |p_{i}|^2 != p_{i}(lambda) > 0")
        if cleared_trace_inner(evaluations[i], evaluations[i], b.order) != norm_sq:
            raise ArithmeticError(f"internal invariant violated: cached norm of p_{i}")
        for j in range(i):
            if cleared_trace_inner(evaluations[j], evaluations[i], b.order) != 0:
                raise ArithmeticError(f"internal invariant violated: <p_{j}, p_{i}> != 0")
    if not _sums_to_ones(evaluations, b.order):
        raise ArithmeticError("internal invariant violated: sum of p_i(B) != J")


def verify_hoffman_sum(
    family: PredistanceBasis,
    b: RationalMatrix,
    hoffman: Optional[HoffmanPolynomial] = None,
) -> bool:
    """Check sum_i p_i(B) = J, and cross-check sum_i p_i = h coefficient-wise.

    The Hoffman polynomial of B is computed unless passed in.
    """
    if not _sums_to_ones(family.evaluations, b.order):
        return False
    total_poly = Polynomial()
    for p in family.polys:
        total_poly = total_poly + p
    info = hoffman if hoffman is not None else hoffman_polynomial(b)
    return total_poly == info.h
