"""Association-scheme detection for normal lambda-doubly stochastic matrices.

detect_scheme runs the full decision pipeline: classification gates, the
distance structure of the underlying digraph, the eigenvalue-count vs
diameter comparison, the predistance basis, and the single matrix equality
A_D = p_D(B) that settles whether the distance-D matrix is a polynomial in
B, decided on the cleared evaluation (den, ints) as ints = den * A_D. An
accepted certificate carries the standard basis, the intersection
tensor, and the transpose permutation; a rejection carries a typed reason.

Rejection is a value, never an exception. The AXIOM_FAILURE reason exists
only as a self-check trap: when the acceptance hypotheses hold it is
unreachable, and any occurrence is loudly logged as a potential gap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .digraph import DistanceStructure, distance_structure, underlying_digraph
from .exact import Polynomial
from .matrix import MatrixPowerBasis, RationalMatrix
from .hoffman import minimal_polynomial
from .predistance import predistance_basis
from .stochastic import MatrixClassification, RejectionCode, classify

logger = logging.getLogger(__name__)

IntersectionTensor = tuple[tuple[tuple[Fraction, ...], ...], ...]


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

    class_matrices are the distance matrices A_0..A_D (each equal to
    p_i(B)); intersection_tensor is indexed [i][j][h] with
    A_i A_j = sum_h tensor[i][j][h] A_h; transpose_perm maps i to the index
    of A_i^T.
    """

    accepted: bool
    reason: Optional[Rejection]
    d: Optional[int] = None
    diameter: Optional[int] = None
    class_matrices: Optional[tuple[RationalMatrix, ...]] = None
    intersection_tensor: Optional[IntersectionTensor] = None
    transpose_perm: Optional[tuple[int, ...]] = None
    generator_polynomials: Optional[tuple[Polynomial, ...]] = None


def _class_labels(class_matrices: Sequence[RationalMatrix]) -> list[list[int]]:
    """The label grid label[x][y] = i of the class holding (x, y).

    Raises ValueError for a class with empty support, and SchemeAxiomError
    AS2 at the first cell (x, y) where the classes are not a 0/1 partition
    of the all-ones matrix.
    """
    if any(a.is_zero() for a in class_matrices):
        raise ValueError("class matrix with empty support")
    n = class_matrices[0].order
    label = [[-1] * n for _ in range(n)]
    for i, a in enumerate(class_matrices):
        for x, row in enumerate(a.rows):
            labels_x = label[x]
            for y, v in enumerate(row):
                if not v:
                    continue
                if v != 1 or labels_x[y] >= 0:
                    raise SchemeAxiomError("AS2", (x, y))
                labels_x[y] = i
    for x, row in enumerate(label):
        if -1 in row:
            raise SchemeAxiomError("AS2", (x, row.index(-1)))
    return label


def intersection_numbers(class_matrices: Sequence[RationalMatrix]) -> IntersectionTensor:
    """Structure constants of the class matrices, counted from their labels.

    p^h_ij at an ordered pair (x, y) with h = label[x][y] is the number of
    z with label[x][z] = i and label[z][y] = j, the (x, y) entry of A_i A_j.
    It is counted as a popcount of two bitsets and asserted equal at every
    ordered pair, which is exactly the condition A_i A_j = sum_h p^h_ij A_h.
    """
    label = _class_labels(class_matrices)
    r = len(class_matrices)
    n = len(label)
    # row_bits[x][i] = {z : label[x][z] = i}, col_bits[y][j] = {z : label[z][y] = j}
    row_bits = [[0] * r for _ in range(n)]
    col_bits = [[0] * r for _ in range(n)]
    for x, row in enumerate(label):
        for z, i in enumerate(row):
            row_bits[x][i] |= 1 << z
            col_bits[z][i] |= 1 << x
    counts: list[Optional[list[int]]] = [None] * r
    for x, row in enumerate(label):
        rows_x = row_bits[x]
        for y, h in enumerate(row):
            here = [(a & c).bit_count() for a in rows_x for c in col_bits[y]]
            if counts[h] is None:
                counts[h] = here
            elif here != counts[h]:
                ij = next(k for k, (u, v) in enumerate(zip(here, counts[h])) if u != v)
                raise SchemeAxiomError("AS4", (*divmod(ij, r), h, x, y))
    return tuple(
        tuple(tuple(Fraction(counts[h][i * r + j]) for h in range(r)) for j in range(r))
        for i in range(r)
    )


def transpose_map(class_matrices: Sequence[RationalMatrix]) -> tuple[int, ...]:
    """For each i, the unique index i' with A_i^T = A_i', read off label[y][x].

    The transposed support of A_i must carry a single label i', and the map
    i -> i' must be a bijection: the first i where either fails is the AS3
    witness.
    """
    label = _class_labels(class_matrices)
    targets: list[set[int]] = [set() for _ in class_matrices]
    for x, row in enumerate(label):
        for y, i in enumerate(row):
            targets[i].add(label[y][x])
    perm = [min(t) for t in targets]
    for i, t in enumerate(targets):
        if len(t) != 1 or perm.count(perm[i]) != 1:
            raise SchemeAxiomError("AS3", (i,))
    return tuple(perm)


def detect_scheme(
    b: RationalMatrix, classification: Optional[MatrixClassification] = None
) -> SchemeCertificate:
    """Decide whether the polynomial algebra of B is a Bose-Mesner algebra.

    Acceptance requires B normal, lambda-doubly stochastic (lambda != 0),
    irreducible, with eigenvalue count D + 1 matching the diameter D of the
    underlying digraph, and the distance-D matrix equal to p_D(B). Every
    accepted certificate is built from re-verified axiom checks. B is
    classified unless its classification is passed in.
    """

    def rejected(code: RejectionCode, **details) -> SchemeCertificate:
        return SchemeCertificate(
            accepted=False,
            reason=Rejection(code, **details),
            d=details.get("d"),
            diameter=details.get("diameter"),
        )

    cls = classification if classification is not None else classify(b)
    failed = cls.failed_hypothesis()
    if failed is not None:
        return rejected(failed)

    structure = distance_structure(underlying_digraph(b))
    basis = MatrixPowerBasis(b)
    minimal = minimal_polynomial(b, basis)
    d = minimal.degree - 1
    if d != structure.diameter:
        return rejected(RejectionCode.EIGENCOUNT_NE_DIAMETER, d=d, diameter=structure.diameter)

    family = predistance_basis(b, classification=cls, basis=basis, minimal=minimal)

    def is_class(i: int) -> bool:
        """A_i = p_i(B), decided as ints == den * A_i on the cleared evaluation."""
        den, ints = family.evaluations[i]
        return ints == [den if v == i else 0 for row in structure.dist for v in row]

    if not is_class(d):
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

    # guaranteed once A_D = p_D(B), but re-verified class by class
    for i in range(d + 1):
        if not is_class(i):
            return axiom_failure("CLASS_POLYNOMIALITY", (i,))

    classes = structure.classes
    if classes[0] != RationalMatrix.identity(b.order):
        return axiom_failure("AS1", ())
    try:  # AS2 (a 0/1 partition of J) is checked while the classes are labelled
        perm = transpose_map(classes)
        tensor = intersection_numbers(classes)
    except SchemeAxiomError as exc:
        return axiom_failure(exc.axiom, exc.witness)
    for i in range(d + 1):
        for j in range(d + 1):
            for h in range(d + 1):
                value = tensor[i][j][h]
                if value.denominator != 1 or value < 0:
                    return axiom_failure("AS4", (i, j, h))
                if value != tensor[j][i][h]:
                    return axiom_failure("AS5", (i, j, h))

    return SchemeCertificate(
        accepted=True,
        reason=None,
        d=d,
        diameter=structure.diameter,
        class_matrices=classes,
        intersection_tensor=tensor,
        transpose_perm=perm,
        generator_polynomials=family.polys,
    )


def vanishing_product_check(b: RationalMatrix, structure: DistanceStructure) -> bool:
    """Structural check: (A_{D-j} B^T)_{xy} = 0 whenever dist(x, y) < D-j-1.

    Runs over every applicable j (those with D - j - 1 >= 2) and is
    vacuously true for diameters below 3. Independent of the scheme
    pipeline.
    """
    n = b.order
    diameter = structure.diameter
    bt = b.transpose()
    for j in range(diameter - 2):
        product = structure.classes[diameter - j] @ bt
        threshold = diameter - j - 1
        for x in range(n):
            for y in range(n):
                if structure.dist[x][y] < threshold and product.rows[x][y] != 0:
                    return False
    return True


def class_distance_constancy(
    certificate: SchemeCertificate, structure: DistanceStructure
) -> bool:
    """Whether each class support lies at a single digraph distance."""
    if not certificate.class_matrices:
        raise ValueError("certificate carries no class matrices")
    n = structure.classes[0].order
    for a in certificate.class_matrices:
        seen: set[int] = set()
        for x in range(n):
            for y in range(n):
                if a.rows[x][y] != 0:
                    seen.add(structure.dist[x][y])
        if len(seen) > 1:
            return False
    return True
