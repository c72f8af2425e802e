"""Association-scheme detection for normal lambda-doubly stochastic matrices.

detect_scheme runs the full decision pipeline: classification gates, the
distance structure of the underlying digraph, the eigenvalue-count vs
diameter comparison, the predistance basis, and the single matrix equality
A_D = p_D(B) that settles whether the distance-D matrix is a polynomial in
B. With p_i(B) = (sum_k w_ik C^k) / L_i on C's powers, for B = s C, every
class A_i = p_i(B) is certified by ||sum_k w_ik C^k - L_i A_i||_F^2 = w_i .
G w_i - 2 L_i w_i . mu_i + L_i^2 |A_i| = 0, with G the exact Gram matrix
of C^0..C^d and mu_ki = C^k . A_i the class moments, found in G's own pass
of residues (`MatrixPowerBasis.class_moments`) before the predistance stage
reads G: all D + 1 classes in one call (`evaluates_to`), A_D's verdict read
first. No p_i(B) is evaluated. The classes are
never built as matrices: the distance grid, one int64 array from the
frontier pass, is their label grid, with A_i the level set {(x, y) :
dist[x][y] = i}, and the axiom kernels and the report read that array
directly. An accepted certificate carries that grid, the integer
intersection tensor, and the transpose permutation; a rejection carries a
typed reason. The intersection numbers are counted in bulk: one exact
float64 matrix product per class and group of classes, with the counts
packed as base-(n + 1) digits below 2^53 (see intersection_numbers).

Rejection is a value, never an exception. The AXIOM_FAILURE reason exists
only as a self-check trap: when the acceptance hypotheses hold it is
unreachable, and any occurrence is loudly logged as a potential gap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .digraph import distance_structure, underlying_digraph
from .exact import Polynomial
from .matrix import RationalMatrix
from .hoffman import minimal_polynomial
from .predistance import predistance_basis
from .stochastic import RejectionCode, classify

logger = logging.getLogger(__name__)

IntersectionTensor = tuple[tuple[tuple[int, ...], ...], ...]
LabelGrid = Sequence[Sequence[int]]


class SchemeAxiomError(Exception):
    """A standard-basis axiom check failed on the given witness indices."""

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"axiom {axiom} failed at {witness}")


@dataclass(frozen=True)
class Rejection:
    code: RejectionCode
    d: Optional[int] = None
    diameter: Optional[int] = None
    axiom: Optional[str] = None
    witness: Optional[tuple] = None

    def describe(self) -> str:
        if self.code is RejectionCode.EIGENCOUNT_NE_DIAMETER:
            return f"EIGENCOUNT_NE_DIAMETER(d={self.d}, D={self.diameter})"
        if self.code is RejectionCode.AXIOM_FAILURE:
            return f"AXIOM_FAILURE({self.axiom}, witness={self.witness})"
        return self.code.value


@dataclass(frozen=True)
class SchemeCertificate:
    """Verdict of detect_scheme plus, when accepted, the scheme data.

    labels is the distance grid, a read-only int64 array: (x, y) lies in
    class labels[x, y], so the distance matrix A_i (equal to p_i(B)) is the
    level set of label i; intersection_tensor is indexed [i][j][h] with A_i
    A_j = sum_h tensor[i][j][h] A_h; transpose_perm maps i to the index of
    A_i^T.
    """

    accepted: bool
    reason: Optional[Rejection]
    d: Optional[int] = None
    diameter: Optional[int] = None
    labels: Optional[np.ndarray] = None
    intersection_tensor: Optional[IntersectionTensor] = None
    transpose_perm: Optional[tuple[int, ...]] = None
    generator_polynomials: Optional[tuple[Polynomial, ...]] = None


def _class_count(lab: np.ndarray) -> int:
    """r = max label + 1; ValueError unless every label 0..r-1 labels some pair."""
    sizes = np.bincount(lab.ravel())
    if not sizes.all():
        raise ValueError("label grid has a class with empty support")
    return len(sizes)


def intersection_numbers(labels: LabelGrid) -> IntersectionTensor:
    """Structure constants of the classes of a label grid.

    p^h_ij at an ordered pair (x, y) with h = labels[x][y] is the number of
    z with labels[x][z] = i and labels[z][y] = j, the (x, y) entry of A_i A_j.
    It is asserted equal at every ordered pair, which is exactly the
    condition A_i A_j = sum_h p^h_ij A_h.

    The counts are packed as base-(n + 1) digits: for a group of g classes
    j0..j0+g-1, Z = sum_j (n + 1)^(j - j0) A_j, and the (x, y) entry of the
    float64 product A_i Z is sum_j p_ij(x, y) (n + 1)^(j - j0). Each digit
    is at most n, so the entry is below (n + 1)^g <= 2^53. The product is
    exact for two reasons: every term is a nonnegative integer, so every
    partial sum is an integer below 2^53 and the order of summation does
    not matter; and BLAS (OpenBLAS dgemm) forms each entry as a plain sum of
    n products, with no Strassen-type scheme. Each entry is compared with the
    entry at the first row-major pair of its class, whose digits are the
    p^h_ij. The AS4 witness (i, j, h, x, y) is the first row-major pair whose
    counts differ from its class representative's, with (i, j) the first
    differing counts there.
    """
    lab = np.asarray(labels, dtype=np.int64)
    r = _class_count(lab)
    n = len(lab)
    flat = lab.ravel()
    # first row-major pair of each class, and of the class of each pair
    cells = flat.tolist()
    rep = np.array([cells.index(h) for h in range(r)])
    rep_of_pair = rep[flat]
    # the largest g <= r with (n + 1)^g <= 2^53
    g = 1
    while g < r and (n + 1) ** (g + 1) <= 2**53:
        g += 1
    place = np.array([(n + 1) ** k for k in range(g)], dtype=np.int64)
    tensor = np.empty((r, r, r), dtype=np.int64)  # [i, j, h]
    same = np.ones(n * n, dtype=bool)
    for j0 in range(0, r, g):
        width = min(g, r - j0)
        weight = np.zeros(r)
        weight[j0 : j0 + width] = place[:width]
        z = weight[lab]
        for i in range(r):
            counts = ((lab == i).astype(np.float64) @ z).astype(np.int64).ravel()
            same &= counts == counts[rep_of_pair]
            # digit k of the count at the representative of class h is p^h_ij, j = j0 + k
            tensor[i, j0 : j0 + width] = counts[rep] // place[:width, None] % (n + 1)
    if not same.all():
        # recount every (i, j) at the first differing pair and at its class representative
        first = int((~same).argmax())
        h = cells[first]
        here, there = (
            np.bincount(lab[a // n] * r + lab[:, a % n], minlength=r * r) for a in (first, cells.index(h))
        )
        ij = int((here != there).argmax())
        raise SchemeAxiomError("AS4", (*divmod(ij, r), h, *divmod(first, n)))
    return tuple(tuple(map(tuple, plane)) for plane in tensor.tolist())


def transpose_map(labels: LabelGrid) -> tuple[int, ...]:
    """For each i, the unique index i' with A_i^T = A_i', read off labels[y][x].

    The transposed support of A_i must carry a single label i', and the map
    i -> i' must be a bijection: the first i where either fails is the AS3
    witness. The distinct pairs (i, i') = (labels[x][y], labels[y][x]) are
    read off the sorted codes r i + i', so they come sorted by i, then i'.
    """
    lab = np.asarray(labels, dtype=np.int64)
    r = _class_count(lab)
    codes = np.sort((lab * r + lab.T).ravel())
    source, target = np.divmod(codes[np.append(True, codes[1:] != codes[:-1])], r)
    # every class is nonempty, so each i starts a run of its sorted targets
    perm = target[np.searchsorted(source, np.arange(r))]
    shared = (np.bincount(source, minlength=r) != 1) | (np.bincount(perm, minlength=r)[perm] != 1)
    if shared.any():
        raise SchemeAxiomError("AS3", (int(shared.argmax()),))
    return tuple(perm.tolist())


def detect_scheme(b: RationalMatrix) -> SchemeCertificate:
    """Decide whether the polynomial algebra of B is a Bose-Mesner algebra.

    Acceptance requires B normal, lambda-doubly stochastic (lambda != 0),
    irreducible, with eigenvalue count D + 1 matching the diameter D of the
    underlying digraph, and the distance-D matrix equal to p_D(B). Every
    accepted certificate is built from re-verified axiom checks. The
    classification, minimal polynomial and predistance family come from B's
    analysis context, so each is computed at most once per matrix.
    """

    def rejected(code: RejectionCode, **details) -> SchemeCertificate:
        return SchemeCertificate(
            accepted=False,
            reason=Rejection(code, **details),
            d=details.get("d"),
            diameter=details.get("diameter"),
        )

    failed = classify(b).failed_hypothesis()
    if failed is not None:
        return rejected(failed)

    structure = distance_structure(underlying_digraph(b))
    minimal = minimal_polynomial(b)
    d = minimal.degree - 1
    if d != structure.diameter:
        return rejected(RejectionCode.EIGENCOUNT_NE_DIAMETER, d=d, diameter=structure.diameter)

    grid = structure.dist
    # the classes' moments ride the pass that forms G, which the predistance stage then reads
    moments = b.powers.class_moments(d, grid == np.arange(d + 1)[:, None, None])
    family = predistance_basis(b)
    # A_i = p_i(B) for every class at once; A_D = p_D(B) decides
    holds = b.powers.evaluates_to(family.polys, moments)
    if not holds[d]:
        return rejected(RejectionCode.AD_NOT_POLYNOMIAL, d=d, diameter=structure.diameter)

    def axiom_failure(axiom: str, witness: tuple) -> SchemeCertificate:
        logger.warning(
            "axiom self-check %s failed at %s although acceptance hypotheses hold; "
            "this should be unreachable",
            axiom,
            witness,
        )
        return rejected(
            RejectionCode.AXIOM_FAILURE,
            d=d,
            diameter=structure.diameter,
            axiom=axiom,
            witness=witness,
        )

    # guaranteed once A_D = p_D(B), but certified for every class below D too
    if not all(holds):
        return axiom_failure("CLASS_POLYNOMIALITY", (holds.index(False),))

    # AS2 (a 0/1 partition of J) holds by construction: each pair has one label
    if not np.array_equal(grid == 0, np.eye(len(grid), dtype=bool)):
        return axiom_failure("AS1", ())
    try:
        perm = transpose_map(grid)
        tensor = intersection_numbers(grid)
    except SchemeAxiomError as exc:
        return axiom_failure(exc.axiom, exc.witness)
    # the first row-major (i, j, h) with p^h_ij != p^h_ji has i < j: compare rows above the diagonal
    for i in range(d + 1):
        for j in range(i + 1, d + 1):
            if tensor[i][j] != tensor[j][i]:
                h = next(h for h in range(d + 1) if tensor[i][j][h] != tensor[j][i][h])
                return axiom_failure("AS5", (i, j, h))

    return SchemeCertificate(
        accepted=True,
        reason=None,
        d=d,
        diameter=structure.diameter,
        labels=grid,
        intersection_tensor=tensor,
        transpose_perm=perm,
        generator_polynomials=family.polys,
    )
