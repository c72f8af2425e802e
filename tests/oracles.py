"""Independent oracles the test suite checks the library against.

Everything here is written from first principles on plain lists of
Fractions: no power caches, no fraction-free solver, no pipeline
intermediates, and every matrix product goes through naive_mat_mul rather
than the library's kernel. Slow is fine; disagreement with the library is
the signal.

Two sections are not oracles. Matrix arithmetic on Fraction grids builds
test inputs: it reads every RationalMatrix through `.rows` and builds its
results with the RationalMatrix constructor, never from the library's
integer encoding or its product. The last section holds test conveniences
that read a MatrixPowerBasis (its powers, weights and Gram entries) as
Fractions, plus the exact solver for membership in the span of the powers.
The library itself never needs them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from schemeforge.exact import Polynomial
from schemeforge.matrix import MatrixPowerBasis, RationalMatrix, solve_rational_system


def charpoly_leverrier(b: RationalMatrix) -> Polynomial:
    """Characteristic polynomial det(tI - B) by the Leverrier-Faddeev recurrence."""
    n = b.order
    grid = [list(row) for row in b.rows]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = grid
    for k in range(1, n + 1):
        ck = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = ck
        if k < n:
            shifted = [
                [v + ck if i == j else v for j, v in enumerate(row)] for i, row in enumerate(mk)
            ]
            mk = naive_mat_mul(grid, shifted)
    return Polynomial(coeffs)


def divides(divisor: Polynomial, multiple: Polynomial) -> bool:
    """Schoolbook long division of the coefficient lists; True iff the remainder is 0."""
    rem = list(multiple.coeffs)
    lead = divisor.coeffs[-1]
    for k in range(len(rem) - len(divisor.coeffs), -1, -1):
        factor = rem[k + divisor.degree] / lead
        for j, c in enumerate(divisor.coeffs):
            rem[k + j] -= factor * c
    return not any(rem)


def count_walks_dfs(adjacency: list[list[int]], start: int, end: int, length: int) -> int:
    """Exhaustively enumerate vertex sequences start -> ... -> end along arcs."""
    if length == 0:
        return 1 if start == end else 0
    total = 0
    n = len(adjacency)
    stack = [(start, 0)]
    while stack:
        vertex, steps = stack.pop()
        if steps == length:
            if vertex == end:
                total += 1
            continue
        for nxt in range(n):
            for _ in range(adjacency[vertex][nxt]):
                stack.append((nxt, steps + 1))
    return total


def naive_mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def oracle_intersection_tensor(classes: list[RationalMatrix]) -> list[list[list[Fraction]]]:
    """p^h_ij read off the explicit products A_i A_j, indexed [i][j][h].

    Each value is taken at the first support point of A_h; the expansion
    A_i A_j = sum_h p^h_ij A_h is then asserted entry by entry.
    """
    grids = [[list(row) for row in a.rows] for a in classes]
    n = len(grids[0])
    firsts = [
        next((x, y) for x in range(n) for y in range(n) if a[x][y] != 0) for a in grids
    ]
    tensor = []
    for a in grids:
        plane = []
        for b in grids:
            product = naive_mat_mul(a, b)
            row = [product[x][y] for x, y in firsts]
            for x in range(n):
                for y in range(n):
                    expanded = sum((p * c[x][y] for p, c in zip(row, grids)), Fraction(0))
                    assert product[x][y] == expanded, "product leaves the span of the classes"
            plane.append(row)
        tensor.append(plane)
    return tensor


def class_matrices(labels) -> list[RationalMatrix]:
    """The 0/1 class matrices A_0..A_r-1 of a label grid: A_i holds (x, y) where labels[x][y] = i."""
    r = max(max(row) for row in labels) + 1
    return [RationalMatrix([[int(v == i) for v in row] for row in labels]) for i in range(r)]


def labels_of(classes: list[RationalMatrix]) -> list[list[int]]:
    """The label grid of 0/1 class matrices that partition the all-ones matrix."""
    n = classes[0].order
    labels: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i, a in enumerate(classes):
        for x, row in enumerate(a.rows):
            for y, v in enumerate(row):
                if v:
                    assert v == 1 and labels[x][y] is None, "classes are not a 0/1 partition"
                    labels[x][y] = i
    assert all(v is not None for row in labels for v in row), "classes leave a pair uncovered"
    return labels  # type: ignore[return-value]


def vanishing_product_check(b: RationalMatrix, dist) -> bool:
    """Structural check: (A_{D-j} B^T)_{xy} = 0 whenever dist(x, y) < D-j-1.

    A_i is the 0/1 level set of the distance grid, and each product is a
    naive Fraction product. Runs over every applicable j (those with
    D - j - 1 >= 2) and is vacuously true for diameters below 3.
    """
    n = b.order
    diameter = max(max(row) for row in dist)
    bt = [[b.rows[y][x] for y in range(n)] for x in range(n)]
    for j in range(diameter - 2):
        a = [[Fraction(int(v == diameter - j)) for v in row] for row in dist]
        product = naive_mat_mul(a, bt)
        threshold = diameter - j - 1
        for x in range(n):
            for y in range(n):
                if dist[x][y] < threshold and product[x][y] != 0:
                    return False
    return True


def oracle_classification(grid: list[list[Fraction]]) -> tuple[bool, Fraction | None, bool]:
    """(nonnegative, lambda, normal) from Fraction line sums and naive products.

    lambda is the common value of all 2n line sums when every entry is
    nonnegative, else None; normal means B B^T = B^T B.
    """
    n = len(grid)
    transpose = [[grid[j][i] for j in range(n)] for i in range(n)]
    nonnegative = all(v >= 0 for row in grid for v in row)
    sums = {sum(row, Fraction(0)) for row in grid} | {sum(col, Fraction(0)) for col in transpose}
    lam = sums.pop() if nonnegative and len(sums) == 1 else None
    normal = naive_mat_mul(grid, transpose) == naive_mat_mul(transpose, grid)
    return nonnegative, lam, normal


def naive_poly_at(p: Polynomial, grid: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(grid)
    power = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    out = [[Fraction(0)] * n for _ in range(n)]
    for k in range(p.degree + 1):
        c = p.coefficient(k)
        if c:
            for i in range(n):
                for j in range(n):
                    out[i][j] += c * power[i][j]
        if k < p.degree:
            power = naive_mat_mul(power, grid)
    return out


def oracle_gram_schmidt(grid: list[list[Fraction]], lam: Fraction, d: int) -> list[Polynomial]:
    """Classical Gram-Schmidt over 1, t, ..., t^d with the doubling fallback.

    Every inner product is trace_form_inner of naive_poly_at evaluations.
    q_j = t^j - sum_l (<q_l, t^j> / <q_l, q_l>) q_l, and when that residual
    vanishes at lam, 2 t^j - the same projections; later degrees still
    project onto such a q_j, orthogonal or not.
    """

    def inner(p: Polynomial, q: Polynomial) -> Fraction:
        return trace_form_inner(naive_poly_at(p, grid), naive_poly_at(q, grid))

    qs: list[Polynomial] = []
    for j in range(d + 1):
        monomial = Polynomial.monomial(j)
        candidate = monomial
        for q in qs:
            candidate = candidate - (inner(q, monomial) / inner(q, q)) * q
        if candidate(lam) == 0:
            candidate = candidate + monomial
        qs.append(candidate)
    return qs


def oracle_predistance(
    grid: list[list[Fraction]], lam: Fraction, d: int
) -> tuple[list[Polynomial], list[Fraction]]:
    """(p_0..p_d, <p_j, p_j>) with p_j = (q_j(lam) / <q_j, q_j>) q_j over oracle_gram_schmidt."""
    polys = []
    for q in oracle_gram_schmidt(grid, lam, d):
        q_at = naive_poly_at(q, grid)
        polys.append((q(lam) / trace_form_inner(q_at, q_at)) * q)
    norms = []
    for p in polys:
        p_at = naive_poly_at(p, grid)
        norms.append(trace_form_inner(p_at, p_at))
    return polys, norms


def oracle_minimal_polynomial(grid: list[list[Fraction]]) -> Polynomial:
    """Monic minimal polynomial by Gauss-Jordan on explicit vectorized powers.

    For k = 1, 2, ... the powers I, B, ..., B^k come from naive_mat_mul; the
    augmented system sum_j x_j vec(B^j) = vec(B^k) (j < k) is brought to
    reduced row echelon form over Fractions from scratch. The first
    consistent k gives m(t) = t^k - sum_j x_j t^j; the lower powers are
    then independent, so the solution is unique.
    """
    n = len(grid)
    power = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    vectors = [[v for row in power for v in row]]
    for k in range(1, n + 1):
        power = naive_mat_mul(power, grid)
        vectors.append([v for row in power for v in row])
        aug = [[vectors[j][r] for j in range(k + 1)] for r in range(n * n)]
        pivots: list[int] = []
        for c in range(k + 1):
            pivot = next((i for i in range(len(pivots), n * n) if aug[i][c] != 0), None)
            if pivot is None:
                continue
            rank = len(pivots)
            aug[rank], aug[pivot] = aug[pivot], aug[rank]
            lead = aug[rank][c]
            aug[rank] = [v / lead for v in aug[rank]]
            for i in range(n * n):
                if i != rank and aug[i][c] != 0:
                    factor = aug[i][c]
                    aug[i] = [v - factor * w for v, w in zip(aug[i], aug[rank])]
            pivots.append(c)
        if k in pivots:
            continue  # vec(B^k) is outside the span of the lower powers
        solution = [Fraction(0)] * k
        for row, c in enumerate(pivots):
            solution[c] = aug[row][k]
        return Polynomial([-x for x in solution] + [Fraction(1)])
    raise AssertionError("no dependency up to degree n contradicts Cayley-Hamilton")


def trace_form_inner(m: list[list[Fraction]], other: list[list[Fraction]]) -> Fraction:
    """(1/n) trace(M N^T) via an explicit matrix product, not a Hadamard sum."""
    n = len(m)
    transpose = [[other[j][i] for j in range(n)] for i in range(n)]
    product = naive_mat_mul(m, transpose)
    return sum((product[i][i] for i in range(n)), Fraction(0)) / n


def verify_scheme_axioms(classes: list[RationalMatrix]) -> str | None:
    """Brute-force check of the five association-scheme axioms.

    Returns None when all hold, otherwise a human-readable failure tag.
    Works directly on entry grids so no library shortcut is trusted.
    """
    grids = [[list(row) for row in a.rows] for a in classes]
    n = len(grids[0])
    r = len(grids)
    for a in grids:
        for row in a:
            for v in row:
                if v not in (0, 1):
                    return "classes must be 0/1"
    for i in range(n):
        for j in range(n):
            if grids[0][i][j] != (1 if i == j else 0):
                return "AS1: class 0 is not the identity"
    for i in range(n):
        for j in range(n):
            if sum(a[i][j] for a in grids) != 1:
                return "AS2: classes do not partition (sum != all-ones)"
    for idx, a in enumerate(grids):
        transpose = [[a[j][i] for j in range(n)] for i in range(n)]
        if transpose not in grids:
            return f"AS3: transpose of class {idx} missing"
    products: dict[tuple[int, int], list[list[Fraction]]] = {}
    for i in range(r):
        for j in range(r):
            products[(i, j)] = naive_mat_mul(
                [[Fraction(v) for v in row] for row in grids[i]],
                [[Fraction(v) for v in row] for row in grids[j]],
            )
    for i in range(r):
        for j in range(r):
            product = products[(i, j)]
            for h in range(r):
                values = {
                    product[x][y]
                    for x in range(n)
                    for y in range(n)
                    if grids[h][x][y] == 1
                }
                if len(values) != 1:
                    return f"AS4: product ({i},{j}) not constant on class {h}"
                value = values.pop()
                if value.denominator != 1 or value < 0:
                    return f"AS4: p^{h}_{i}{j} = {value} not a nonnegative integer"
            if product != products[(j, i)]:
                return f"AS5: classes {i} and {j} do not commute"
    return None


def hamming_adjacency(d: int, q: int) -> list[list[int]]:
    """H(d, q): words of length d over q symbols, adjacent at Hamming distance 1."""
    words = list(itertools.product(range(q), repeat=d))
    return [
        [1 if sum(a != b for a, b in zip(u, v)) == 1 else 0 for v in words] for u in words
    ]


def hamming_intersection_array(d: int, q: int) -> tuple[list[int], list[int]]:
    """(b_0..b_{d-1}, c_1..c_d) of H(d, q): b_i = (d - i)(q - 1), c_i = i (BCN 9.2)."""
    return [(d - i) * (q - 1) for i in range(d)], list(range(1, d + 1))


def johnson_adjacency(n: int, k: int) -> list[list[int]]:
    """J(n, k): k-subsets of an n-set, adjacent when they share k - 1 points."""
    subsets = [set(s) for s in itertools.combinations(range(n), k)]
    return [[1 if len(s & t) == k - 1 else 0 for t in subsets] for s in subsets]


def johnson_intersection_array(n: int, k: int) -> tuple[list[int], list[int]]:
    """(b_0..b_{D-1}, c_1..c_D) of J(n, k), D = min(k, n - k):
    b_i = (k - i)(n - k - i), c_i = i^2 (BCN 9.1)."""
    diameter = min(k, n - k)
    return [(k - i) * (n - k - i) for i in range(diameter)], [i * i for i in range(1, diameter + 1)]


def distance_one_products(b: list[int], c: list[int]) -> list[list[int]]:
    """rows[j][h] = p^h_1j of a distance-regular graph from its intersection array.

    A_1 A_j = b_{j-1} A_{j-1} + a_j A_j + c_{j+1} A_{j+1}, a_j = b_0 - b_j - c_j.
    """
    diameter = len(b)
    bs = b + [0]
    cs = [0] + c
    rows = [[0] * (diameter + 1) for _ in range(diameter + 1)]
    for j in range(diameter + 1):
        rows[j][j] = bs[0] - bs[j] - cs[j]
        if j > 0:
            rows[j][j - 1] = bs[j - 1]
        if j < diameter:
            rows[j][j + 1] = cs[j + 1]
    return rows


# ---------------------------------------------------------------------------
# Matrix arithmetic on Fraction grids, for building test inputs (not oracles).
# ---------------------------------------------------------------------------


def identity(n: int) -> RationalMatrix:
    return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def zeros(n: int) -> RationalMatrix:
    return RationalMatrix([[0] * n for _ in range(n)])


def add(*terms: RationalMatrix) -> RationalMatrix:
    """The sum of matrices of one order."""
    assert len({m.order for m in terms}) == 1, "order mismatch"
    return RationalMatrix([list(map(sum, zip(*rows))) for rows in zip(*(m.rows for m in terms))])


def sub(a: RationalMatrix, *terms: RationalMatrix) -> RationalMatrix:
    """A minus each of the other matrices."""
    return add(a, *(scaled(-1, m) for m in terms))


def scaled(c, a: RationalMatrix) -> RationalMatrix:
    """c * A for a scalar c."""
    c = Fraction(c)
    return RationalMatrix([[c * v for v in row] for row in a.rows])


def is_zero(a: RationalMatrix) -> bool:
    return not any(flat(a))


def flat(a: RationalMatrix) -> tuple[Fraction, ...]:
    """vec(A), row-major, as Fractions."""
    return tuple(v for row in a.rows for v in row)


def reconstruct(decomposition, order: int) -> RationalMatrix:
    """sum_i coefficients[i] * indicators[i] of an EntryDecomposition."""
    acc = zeros(order)
    for c, f in zip(decomposition.coefficients, decomposition.indicators):
        acc = add(acc, scaled(c, f))
    return acc


def adjacency_matrix(successors: list[list[int]]) -> RationalMatrix:
    """The 0/1 adjacency matrix of a digraph given by its successor lists."""
    n = len(successors)
    return RationalMatrix([[1 if y in ys else 0 for y in range(n)] for ys in successors])


# ---------------------------------------------------------------------------
# Test conveniences on the library's power basis (not oracles).
# ---------------------------------------------------------------------------


def monic(p: Polynomial) -> Polynomial:
    """p divided by its leading coefficient."""
    return Polynomial([c / p.coeffs[-1] for c in p.coeffs])


def poly_inner(
    p: Polynomial, q: Polynomial, b: RationalMatrix, basis: MatrixPowerBasis | None = None
) -> Fraction:
    """<p, q> = (1/n) trace(p(B) q(B)^T) = sum_ab u_a v_b G_ab / (L_p L_q n).

    u, v and L_p, L_q are the weights of p and q on the powers, and
    G_ab are the basis's cached Gram entries.
    """
    if basis is None:
        basis = MatrixPowerBasis(b)
    p_den, p_weights = basis.weights(p)
    q_den, q_weights = basis.weights(q)
    total = sum(u * v * basis.gram(a, c) for a, u in p_weights for c, v in q_weights)
    return Fraction(total, p_den * q_den * b.order)


def algebra_membership(m: RationalMatrix, basis: MatrixPowerBasis, degree: int) -> Polynomial | None:
    """The polynomial p of degree <= `degree` with p(B) = M, or None when M is outside the span.

    One exact solve over the vectorized powers vec(B^0), ..., vec(B^degree).
    """
    columns = [flat(basis.power(k)) for k in range(degree + 1)]
    solution = solve_rational_system(columns, flat(m))
    return None if solution is None else Polynomial(solution)
