"""Predistance polynomial bases.

The matrix B induces an inner product <p, q> = (1/n) trace(p(B) q(B)^T) on
polynomials of degree at most d (d + 1 = degree of the minimal polynomial).
Gram-Schmidt over the monomials, followed by the normalization
p_i = (q_i(lambda) / |q_i|^2) q_i, yields the predistance family: orthogonal,
deg p_i = i, |p_i|^2 = p_i(lambda) > 0, and sum_i p_i(B) = J.

No q_j vanishes at lambda past the hypothesis gate. Every other eigenvalue
theta has Re theta < lambda, so a monic orthogonal q_j = (t - lambda) s
would be shortened by (t - lambda + eps) s: the first-order change is
-2 eps sum_{theta != lambda} m_theta Re(lambda - theta) |s(theta)|^2 < 0,
as s (degree j - 1 < d) cannot vanish at all d eigenvalues theta != lambda.
Were q_j(lambda) = 0 anyway, p_j = 0 would fail the degree invariant.

The stage reads B in its one exact form B = s C, kept in the analysis
context that B owns (see `matrix`): B and C generate the same algebra, so
the form comes from one integer Gram matrix G_ab = C^a . C^b of C's powers
(`B.powers.gram`), found by a symmetric CRT on residues of C^0..C^d under
|G_ab| <= n R^(a + b), R = ||C||_inf. No power of B and no integer power of
C is formed. The Gram-Schmidt pass runs on G in coefficient space, on
integer weight vectors, brings each q_i and |q_i|^2 back to B through the
context's `rescaled`, the one place s is applied, and hands the norms on to
the normalization, so no inner product is taken twice. The checked family
is built once per matrix and kept in the same analysis context, beside the
classification, the minimal polynomial and the Hoffman polynomial it reads.
The invariant check re-verifies the family on the exact G through the
images G w_i of each p_i's weights on C's powers, with no evaluation at B:
<p_j, p_i> = 0 for all j < i as (G w_i)_k = 0 for all k < i, since deg p_j
= j, and the cached norm as w_ii (G w_i)_i = L_i^2 n |p_i|^2, for (d + 1)^3
integer products per family. sum_i p_i(B) = J is not evaluated: sum_i p_i
= h is checked coefficient by coefficient against the stored Hoffman
polynomial h, whose h(B) = J `hoffman_polynomial` has certified.

The normalization map above is the rational-arithmetic equivalent of scaling
the unit-norm polynomial r_i by r_i(lambda); it never materializes a square
root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .exact import Polynomial
from .hoffman import HoffmanPolynomial, hoffman_polynomial, minimal_polynomial
from .matrix import RationalMatrix
from .stochastic import HypothesisError, classify


def lambda_avoiding_gram_schmidt(b: RationalMatrix, d: int) -> tuple[list[Polynomial], list[Fraction]]:
    """(q_0..q_d, <q_j, q_j>): the monomials 1, t, ..., t^d orthogonalized.

    Classical (not modified) Gram-Schmidt is enough because the arithmetic
    is exact; no q_j vanishes at lambda past the gate (module docstring).
    Raises ValueError when d >= deg m_B, where the powers are dependent.

    The pass runs on C, for B = s C, in coefficient space on the integer
    Gram matrix G_ab = C^a . C^b (`B.powers.gram`, found by CRT). Each
    q_l,C, the l-th monic orthogonal polynomial of C, is kept as q_l,C(C) =
    c_l sum_k w_lk C^k, with w_l a primitive integer vector, and its image
    G w_l is taken once. With N_l = w_l . G w_l the projection coefficient <q_l,C, t^j> /
    |q_l,C|^2 times q_l,C(C) is ((G w_l)_j / N_l) sum_k w_lk C^k, so the
    candidate is the integer combination u = M e_j - sum_l M (G w_l)_j / N_l
    w_l over M, M the lcm of the reduced denominators of those ratios, and
    its norm is N_j c_j^2 / n. The monic q_j(t) = s^j q_j,C(t / s) has
    q_j(B) = s^j q_j,C(C), so the context's `rescaled` brings q_j and its
    norm back to B.
    """
    basis = b.powers
    gram = basis.gram(d)
    weights: list[list[int]] = []
    images: list[list[int]] = []
    gram_norms: list[int] = []
    polys: list[Polynomial] = []
    norms_sq: list[Fraction] = []
    for j in range(d + 1):
        ratios = []
        for image, norm in zip(images, gram_norms):
            g = gcd(image[j], norm)
            ratios.append((image[j] // g, norm // g))
        m = lcm(*(den for _, den in ratios))
        u = [0] * j + [m]
        for (num, den), w in zip(ratios, weights):
            if num:
                factor = num * (m // den)
                for k, v in enumerate(w):
                    u[k] -= factor * v
        g = gcd(*u)
        w = [v // g for v in u]
        image = [sum(map(mul, row, w)) for row in gram]
        norm = sum(map(mul, w, image))
        if norm == 0:
            raise ValueError(f"inner product degenerate at degree {j}: d = {d} is not below deg m_B")
        # q_j,C = sum_k u_k t^k / m, with |q_j,C|^2 = g^2 N_j / (m^2 n) and |q_j|^2 = s^(2j) |q_j,C|^2
        polys.append(basis.rescaled(u, j, 1, m))
        norms_sq.append(basis.rescaled([g * g * norm], 2 * j, 1, m * m * b.order).coeffs[0])
        weights.append(w)
        images.append(image)
        gram_norms.append(norm)
    return polys, norms_sq


@dataclass(frozen=True)
class PredistanceBasis:
    """The family p_0..p_d with its cached norms |p_i|^2."""

    polys: tuple[Polynomial, ...]
    lam: Fraction
    norms_sq: tuple[Fraction, ...]

    @property
    def d(self) -> int:
        return len(self.polys) - 1


def predistance_basis(b: RationalMatrix) -> PredistanceBasis:
    """Construct and fully check the predistance family of B.

    Requires B normal, lambda-doubly stochastic, irreducible, lambda != 0,
    and raises HypothesisError with the first hypothesis the gate finds
    failed. Every invariant of the family (degrees, orthogonality, norm
    values, positivity, Hoffman sum) is asserted before the family is kept
    in B's analysis context and returned.
    """
    context = b.powers
    if context.predistance is not None:
        return context.predistance
    cls = classify(b)
    failed = cls.failed_hypothesis()
    if failed is not None:
        raise HypothesisError(failed)
    d = minimal_polynomial(b).degree - 1
    orthogonal, orthogonal_norms = lambda_avoiding_gram_schmidt(b, d)
    # p_j = (q_j(lambda) / |q_j|^2) q_j, so |p_j|^2 = q_j(lambda)^2 / |q_j|^2
    scales = [q(cls.lam) / norm_sq for q, norm_sq in zip(orthogonal, orthogonal_norms)]
    result = PredistanceBasis(
        polys=tuple(s * q for s, q in zip(scales, orthogonal)),
        lam=cls.lam,
        norms_sq=tuple(s * s * norm_sq for s, norm_sq in zip(scales, orthogonal_norms)),
    )
    _assert_invariants(result, b)
    context.predistance = result
    return result


def _assert_invariants(family: PredistanceBasis, b: RationalMatrix) -> None:
    """Re-verify the family through the images G w_i of its weight vectors.

    p_i(B) = (sum_k w_ik C^k) / L_i on C's powers (`weights`), so with G the
    exact Gram matrix of C^0..C^d, (G w_i)_k = n L_i <C^k, p_i(B)>. As deg p_j
    = j with w_jj != 0, <p_j, p_i> = 0 for every j < i exactly when (G w_i)_k
    = 0 for every k < i, and the first k where it is not is the first j with
    <p_j, p_i> != 0. The cached norm is then checked as w_ii (G w_i)_i =
    L_i^2 n |p_i|^2. Each family costs (d + 1)^3 integer products and
    evaluates no p_i at B. sum_i p_i(B) = J follows from sum_i p_i = h,
    checked on the coefficients of B's stored Hoffman polynomial h.
    """
    basis = b.powers
    polys, lam = family.polys, family.lam
    gram = basis.gram(family.d)
    if polys[0] != Polynomial([1]):
        raise ArithmeticError("internal invariant violated: p_0 != 1")
    for i, (p, norm_sq) in enumerate(zip(polys, family.norms_sq)):
        if p.degree != i:
            raise ArithmeticError(f"internal invariant violated: deg(p_{i}) != {i}")
        value = p(lam)
        if value <= 0 or value != norm_sq:
            raise ArithmeticError(f"internal invariant violated: |p_{i}|^2 != p_{i}(lambda) > 0")
        den, weights = basis.weights(p)
        image = [sum(w * row[k] for k, w in weights) for row in gram[: i + 1]]
        for j in range(i):
            if image[j]:
                raise ArithmeticError(f"internal invariant violated: <p_{j}, p_{i}> != 0")
        if weights[-1][1] * image[i] != den * den * b.order * norm_sq:
            raise ArithmeticError(f"internal invariant violated: cached norm of p_{i}")
    if not verify_hoffman_sum(family, hoffman_polynomial(b)):
        raise ArithmeticError("internal invariant violated: sum of p_i != h")


def verify_hoffman_sum(family: PredistanceBasis, hoffman: HoffmanPolynomial) -> bool:
    """Check sum_i p_i = h coefficient-wise.

    That settles sum_i p_i(B) = J as well, with no evaluation at B:
    hoffman_polynomial verifies h(B) = J exactly before it returns h.
    """
    return sum(family.polys, Polynomial()) == hoffman.h
