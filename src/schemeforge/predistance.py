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
C is formed. The family stays in integer form from Gram-Schmidt to the
report. The fraction-free Gram-Schmidt pass on G gives the primitive weight
vectors w_j, q_j,C = sum_k w_jk t^k / w_jj, and their Gram norms N_j =
w_j . G w_j = n |sum_k w_jk C^k|^2. With lambda_C = lambda / s, the
integer line sum of C, and W_j = sum_k w_jk lambda_C^k (one integer Horner
pass), the normalization is in closed form:

    p_j(B) = (n W_j / N_j) sum_k w_jk C^k,
    coefficient k of p_j = n W_j w_jk den(s)^k / (N_j num(s)^k),
    |p_j|^2 = p_j(lambda) = n W_j^2 / N_j,

so s enters only through those powers of num(s) and den(s), and each
reported coefficient and norm is the one Fraction built for it. The
checked family is built once per matrix and kept in the same analysis
context, beside the classification, the minimal polynomial and the Hoffman
polynomial it reads.

The invariant check reads the emitted polynomials, not the integer form
they came from: it writes each p_i back on C's powers as (sum_k w_ik C^k)
/ L_i (`weights`) and re-verifies it on the exact G, with no evaluation
at B and no polynomial arithmetic: p_i(lambda) = sum_k w_ik lambda_C^k /
L_i against the cached norm, <p_j, p_i> = 0 for all j < i as (G w_i)_k = 0
for all k < i, since deg p_j = j, and the cached norm as w_ii (G w_i)_i =
L_i^2 n |p_i|^2, for (d + 1)^3 integer products per family. sum_i p_i(B) =
J is not evaluated: sum_i p_i = h is checked coefficient by coefficient
against the stored Hoffman polynomial h, whose h(B) = J
`hoffman_polynomial` has certified.

The normalization is the rational-arithmetic equivalent of scaling the
unit-norm polynomial r_i by r_i(lambda); it never materializes a square
root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .exact import Polynomial
from .hoffman import HoffmanPolynomial, hoffman_polynomial, minimal_polynomial
from .matrix import RationalMatrix
from .stochastic import HypothesisError, classify


def lambda_avoiding_gram_schmidt(b: RationalMatrix, d: int) -> tuple[list[list[int]], list[int]]:
    """(w_0..w_d, N_0..N_d): the monomials 1, t, ..., t^d orthogonalized on C.

    The pass runs on C, for B = s C, in coefficient space on the integer
    Gram matrix G_ab = C^a . C^b (`B.powers.gram`, found by CRT), and is
    fraction-free (Erlingsson, Kaltofen & Musser, ISSAC 1996): with D_i the
    leading principal minor of G of order i (D_0 = 1), the vector a_i =
    D_i (e_i - proj) of the i-th orthogonalized monomial is integral, and
    a_i = e_i, then a_i <- (D_(k+1) a_i - l_ik a_k) / D_k for k < i, with
    l_ik = (G a_k)_i, takes it there by exact divisions, with no gcd. Its
    image gives D_(i+1) = (G a_i)_i, and |a_i|^2 = a_i . G a_i = D_i D_(i+1).
    The pass returns w_i = a_i / g_i, g_i its content, a primitive integer
    vector with q_i,C = sum_k w_ik t^k / w_ii the i-th monic orthogonal
    polynomial of C, and its Gram norm N_i = w_i . G w_i = D_i D_(i+1) / g_i^2
    = n |sum_k w_ik C^k|^2. Arithmetic is exact, so no q_i vanishes at lambda
    past the gate (module docstring). Raises ValueError when d >= deg m_B,
    where the powers are dependent and some D_(i+1) = 0.
    """
    gram = b.powers.gram(d)
    minors = [1]
    vectors: list[list[int]] = []
    images: list[list[int]] = []
    weights: list[list[int]] = []
    gram_norms: list[int] = []
    for i in range(d + 1):
        # entry i of a_i runs 1, D_1, ..., D_i, so only the entries below i are updated
        head: list[int] = []
        for k, (a, image) in enumerate(zip(vectors, images)):
            factor = image[i]
            head = [(minors[k + 1] * h - factor * v) // minors[k] for h, v in zip(head, a)]
            head.append(-factor)
        a = head + [minors[i]]
        # (G a_i)_k = 0 for k < i
        image = [0] * i + [sum(map(mul, row, a)) for row in gram[i:]]
        if image[i] == 0:
            raise ValueError(f"inner product degenerate at degree {i}: d = {d} is not below deg m_B")
        minors.append(image[i])
        vectors.append(a)
        images.append(image)
        g = gcd(*a)
        weights.append([v // g for v in a])
        gram_norms.append(minors[i] * minors[i + 1] // (g * g))
    return weights, gram_norms


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
    weights, gram_norms = lambda_avoiding_gram_schmidt(b, d)
    n, scale = b.order, context.scale
    lam_c = (cls.lam / scale).numerator  # the line sum of C, an integer
    # s^-k = den(s)^k / num(s)^k, the factor that writes C^k as B^k
    ups = [scale.denominator**k for k in range(d + 1)]
    downs = [scale.numerator**k for k in range(d + 1)]
    polys, norms_sq = [], []
    for w, norm in zip(weights, gram_norms):
        value = 0  # W_j = sum_k w_jk lambda_C^k
        for c in reversed(w):
            value = value * lam_c + c
        # p_j(B) = (n W_j / N_j) sum_k w_jk C^k, and |p_j|^2 = p_j(lambda) = n W_j^2 / N_j
        factor = n * value
        polys.append(Polynomial([Fraction(factor * c * up, norm * down) for c, up, down in zip(w, ups, downs)]))
        norms_sq.append(Fraction(factor * value, norm))
    result = PredistanceBasis(polys=tuple(polys), lam=cls.lam, norms_sq=tuple(norms_sq))
    _assert_invariants(result, b)
    context.predistance = result
    return result


def _assert_invariants(family: PredistanceBasis, b: RationalMatrix) -> None:
    """Re-verify the family through the images G w_i of its weight vectors.

    p_i(B) = (sum_k w_ik C^k) / L_i on C's powers (`weights`), so with G the
    exact Gram matrix of C^0..C^d, (G w_i)_k = n L_i <C^k, p_i(B)>. As deg p_j
    = j with w_jj != 0, <p_j, p_i> = 0 for every j < i exactly when (G w_i)_k
    = 0 for every k < i, and the first k where it is not is the first j with
    <p_j, p_i> != 0. The cached norm is checked against p_i(lambda) = sum_k
    w_ik lambda_C^k / L_i, lambda_C = lambda / s, and then as w_ii (G w_i)_i
    = L_i^2 n |p_i|^2. Each family costs (d + 1)^3 integer products and
    evaluates no p_i at B or at lambda as a polynomial. sum_i p_i(B) = J
    follows from sum_i p_i = h, checked on the coefficients of B's stored
    Hoffman polynomial h.
    """
    basis = b.powers
    polys = family.polys
    gram = basis.gram(family.d)
    # lambda_C = a / c: an integer (c = 1) unless lambda is not B's line sum
    lam_c = family.lam / basis.scale
    a, c = lam_c.numerator, lam_c.denominator
    if polys[0] != Polynomial([1]):
        raise ArithmeticError("internal invariant violated: p_0 != 1")
    for i, (p, norm_sq) in enumerate(zip(polys, family.norms_sq)):
        if p.degree != i:
            raise ArithmeticError(f"internal invariant violated: deg(p_{i}) != {i}")
        den, w = basis.weights(p)
        # c^i L_i p_i(lambda) = sum_k w_ik a^k c^(i - k), by homogeneous Horner
        value, shift = 0, 1
        for v in reversed(w):
            value = value * a + v * shift
            shift *= c
        num, norm_den = norm_sq.numerator, norm_sq.denominator
        if value <= 0 or value * norm_den != den * num * c**i:
            raise ArithmeticError(f"internal invariant violated: |p_{i}|^2 != p_{i}(lambda) > 0")
        image = [sum(map(mul, row, w)) for row in gram[: i + 1]]
        for j in range(i):
            if image[j]:
                raise ArithmeticError(f"internal invariant violated: <p_{j}, p_{i}> != 0")
        if w[i] * image[i] * norm_den != den * den * b.order * num:
            raise ArithmeticError(f"internal invariant violated: cached norm of p_{i}")
    if not verify_hoffman_sum(family, hoffman_polynomial(b)):
        raise ArithmeticError("internal invariant violated: sum of p_i != h")


def verify_hoffman_sum(family: PredistanceBasis, hoffman: HoffmanPolynomial) -> bool:
    """Check sum_i p_i = h coefficient-wise.

    Each coefficient sum is kept as an integer pair (num, den) in lowest
    terms, grown term by term as Fraction adds but with no Fraction built,
    and compared with (num(h_k), den(h_k)); a zero sum comes out as (0, 1).
    The running sums stay small: on a 20-vertex circulant with d = 19 their
    denominators stay within 360 bits, where the lcm of a coefficient's
    terms' denominators reaches 2977. That settles sum_i p_i(B) = J as well,
    with no evaluation at B: hoffman_polynomial verifies h(B) = J exactly
    before it returns h.
    """
    width = max(len(p.coeffs) for p in family.polys)
    sums = [(0, 1)] * width
    for p in family.polys:
        for k, c in enumerate(p.coeffs):
            num, den = sums[k]
            # num/den + c in lowest terms: gcd(top, den den(c) / g) = gcd(top, g)
            g = gcd(den, c.denominator)
            top = num * (c.denominator // g) + c.numerator * (den // g)
            g2 = gcd(top, g)
            sums[k] = top // g2, den // g * (c.denominator // g2)
    h = [(c.numerator, c.denominator) for c in hoffman.h.coeffs]
    return sums == h + [(0, 1)] * (width - len(h))
