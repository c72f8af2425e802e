"""Independent oracles the test suite checks the library against.

Everything here is written from first principles on plain lists of
Fractions: no power caches, no fraction-free solver, no pipeline
intermediates, and every matrix product goes through naive_mat_mul rather
than the library's kernel. Polynomials are added, scaled, multiplied and
evaluated on their coefficient lists here (poly_add, poly_scale, poly_mul,
poly_value), and every linear system is one Gauss-Jordan elimination over
Fractions (gauss_jordan_solve), so the only things taken from `schemeforge`
are the values compared against (RationalMatrix, the Polynomial type) and
the contract of the messages (MatrixParseError, _shown, the bounds of the
parser, SchemeAxiomError). Slow is fine; disagreement with the library is
the signal. Four references are the plain per-entry forms of the
library's bulk paths: popcount_intersection_tensor counts each p_ij(x, y)
as a popcount of two bitsets, set_transpose_map collects the transposed
labels of each class in a set, fraction_parse_matrix reads each token of a
matrix file as one Fraction, where it stands, and bfs_distances runs one
breadth-first search per source where the library takes one frontier pass
for all sources. coherent_closure_rank is the rank of the coherent
closure W(B) by 2-dimensional Weisfeiler-Leman refinement, the other side
of the paper's Theorem 2.

Two sections are not oracles. Matrix arithmetic on Fraction grids builds
test inputs: it reads every RationalMatrix through `.rows` and builds its
results with the RationalMatrix constructor, never from the library's
integer encoding or its product. The last section holds test conveniences
on naive_poly_at and naive_mat_mul: the trace form of two polynomials at B,
membership in the span of B's powers through gauss_jordan_solve, and the
gap between a Hoffman polynomial and its product form over numeric roots.
The library itself never needs them.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from collections import Counter, deque
from fractions import Fraction

from schemeforge.exact import Polynomial
from schemeforge.io import MAX_DIGITS, MAX_EXPONENT, MAX_ORDER, MatrixParseError, _shown
from schemeforge.matrix import RationalMatrix
from schemeforge.scheme import SchemeAxiomError


def poly_add(p, q) -> list[Fraction]:
    """The sum of two ascending coefficient lists."""
    return [a + b for a, b in itertools.zip_longest(p, q, fillvalue=Fraction(0))]


def poly_scale(c, p) -> list[Fraction]:
    """c times an ascending coefficient list."""
    return [Fraction(c) * a for a in p]


def poly_mul(p, q) -> list[Fraction]:
    """The schoolbook product of two ascending coefficient lists."""
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_value(p, x) -> Fraction:
    """An ascending coefficient list at x, by Horner."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def gauss_jordan_solve(columns, target) -> list[Fraction] | None:
    """One solution of sum_j x_j columns[j] = target, or None when there is none.

    The augmented system is brought to reduced row echelon form over
    Fractions from scratch; free variables are set to zero.
    """
    k = len(columns)
    aug = [[col[r] for col in columns] + [target[r]] for r in range(len(target))]
    pivots: list[int] = []
    for c in range(k + 1):
        pivot = next((i for i in range(len(pivots), len(aug)) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        rank = len(pivots)
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        # every row from `rank` on is zero left of c, so the row operations start at c
        lead = Fraction(aug[rank][c])  # ints divide to Fractions, never to floats
        aug[rank][c:] = tail = [v / lead for v in aug[rank][c:]]
        for i in range(len(aug)):
            if i != rank and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i][c:] = [v - factor * w for v, w in zip(aug[i][c:], tail)]
        pivots.append(c)
    if k in pivots:
        return None  # a pivot in the target column: inconsistent
    solution = [Fraction(0)] * k
    for row, c in enumerate(pivots):
        solution[c] = aug[row][k]
    return solution


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


def bfs_distances(successors: list[list[int]]) -> tuple[list[list[int]], int] | str:
    """All-pairs distances by one breadth-first search per source: (grid,
    diameter), or the message naming the first row-major unreachable pair."""
    n = len(successors)
    grid = []
    for x in range(n):
        row = [None] * n
        row[x] = 0
        queue = deque([x])
        while queue:
            u = queue.popleft()
            for v in successors[u]:
                if row[v] is None:
                    row[v] = row[u] + 1
                    queue.append(v)
        if None in row:
            return f"no directed path from {x} to {row.index(None)}"
        grid.append(row)
    return grid, max(map(max, grid))


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


def popcount_intersection_tensor(labels) -> tuple:
    """p^h_ij of a label grid as popcounts of bitsets, indexed [i][j][h]; the reference kernel.

    row_bits[x][i] = {z : labels[x][z] = i} and col_bits[y][j] = {z : labels[z][y] = j},
    so p_ij(x, y) = |row_bits[x][i] & col_bits[y][j]|. The count vector over (i, j) of
    every ordered pair is compared with that of the first pair of its class; the first
    row-major pair that differs raises SchemeAxiomError("AS4", (i, j, h, x, y)) with (i, j)
    the first differing counts. A label grid with an empty class is a ValueError.
    """
    used = {i for row in labels for i in row}
    r = max(used) + 1
    if used != set(range(r)):
        raise ValueError("label grid has a class with empty support")
    n = len(labels)
    row_bits = [[0] * r for _ in range(n)]
    col_bits = [[0] * r for _ in range(n)]
    for x, row in enumerate(labels):
        for z, i in enumerate(row):
            row_bits[x][i] |= 1 << z
            col_bits[z][i] |= 1 << x
    counts: list[list[int] | None] = [None] * r
    for x, row in enumerate(labels):
        rows_x = row_bits[x]
        for y, h in enumerate(row):
            here = [(a & c).bit_count() for a in rows_x for c in col_bits[y]]
            if counts[h] is None:
                counts[h] = here
            elif here != counts[h]:
                ij = next(k for k, (u, v) in enumerate(zip(here, counts[h])) if u != v)
                raise SchemeAxiomError("AS4", (*divmod(ij, r), h, x, y))
    return tuple(
        tuple(tuple(counts[h][i * r + j] for h in range(r)) for j in range(r))
        for i in range(r)
    )


def set_transpose_map(labels) -> tuple[int, ...]:
    """The transpose map of a label grid from one set of transposed labels per class; the reference.

    targets[i] = {labels[y][x] : labels[x][y] = i}; i -> min(targets[i]) is
    the map, and the first i whose set is not a single label, or whose image
    another class shares, raises SchemeAxiomError("AS3", (i,)). A label grid
    with an empty class is a ValueError.
    """
    used = {i for row in labels for i in row}
    r = max(used) + 1
    if used != set(range(r)):
        raise ValueError("label grid has a class with empty support")
    targets: list[set[int]] = [set() for _ in range(r)]
    for x, row in enumerate(labels):
        for y, i in enumerate(row):
            targets[i].add(labels[y][x])
    perm = [min(t) for t in targets]
    for i, t in enumerate(targets):
        if len(t) != 1 or perm.count(perm[i]) != 1:
            raise SchemeAxiomError("AS3", (i,))
    return tuple(perm)


def fraction_parse_matrix(text: str) -> RationalMatrix:
    """A matrix file read with one Fraction per token, through the RationalMatrix constructor.

    The reference for parse_matrix: the same layout checks, exponent and
    digit bounds and error positions and messages, but no integer fast
    path and no table of distinct tokens: every token is read where it
    stands, row by row. A signed integer or p/q in ASCII digits with a part
    past MAX_DIGITS digits is refused before Fraction sees it, whatever the
    int-to-str digit limit; one that Fraction refuses at that limit is read
    again with the limit lifted.
    """
    data = [
        (lineno, raw.strip())
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if raw.strip() and not raw.strip().startswith("#")
    ]
    if not data:
        raise MatrixParseError("no matrix data found", 1, 1)
    header_line, header = data[0]
    # the whole header read as one int, under a lifted int-to-str digit limit
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        n = int(header)
    except ValueError:
        raise MatrixParseError(f"expected matrix order, found {_shown(header)}", header_line, 1) from None
    finally:
        sys.set_int_max_str_digits(previous)
    if n <= 0:
        raise MatrixParseError(f"matrix order must be positive, found {_shown(header)}", header_line, 1)
    if n > MAX_ORDER:
        raise MatrixParseError(f"matrix order {_shown(header)} exceeds {MAX_ORDER}", header_line, 1)
    body = data[1:]
    if len(body) != n:
        where = body[-1][0] if body else header_line
        raise MatrixParseError(f"expected {_shown(header)} data rows, found {len(body)}", where, 1)
    rows = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixParseError(f"expected {n} entries, found {len(tokens)}", lineno, len(tokens))
        row = []
        for col, token in enumerate(tokens, start=1):
            exponent = re.search(r"[eE][-+]?(\d+(?:_\d+)*)\Z", token)
            digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise MatrixParseError(
                    f"exponent of {_shown(token)} exceeds {MAX_EXPONENT} in absolute value", lineno, col
                )
            plain = re.fullmatch(r"[-+]?([0-9]+)(?:/([0-9]+))?", token)
            if plain is not None and max(len(part or "") for part in plain.groups()) > MAX_DIGITS:
                raise MatrixParseError(f"{_shown(token)} has more than {MAX_DIGITS} digits in one part", lineno, col)
            try:
                row.append(Fraction(token))
            except ZeroDivisionError:
                raise MatrixParseError(f"cannot parse entry {_shown(token)}", lineno, col) from None
            except ValueError:
                row.append(_refused_fraction(token, plain is not None, lineno, col))
        rows.append(row)
    return RationalMatrix(rows)


def _refused_fraction(token: str, plain: bool, lineno: int, col: int) -> Fraction:
    """A token Fraction refused, read again under a lifted int-to-str digit
    limit when it is a signed integer or p/q in ASCII digits (`plain`, its
    parts already bounded by MAX_DIGITS); otherwise the MatrixParseError
    that refuses it."""
    if plain:
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            pass
        finally:
            sys.set_int_max_str_digits(previous)
    raise MatrixParseError(f"cannot parse entry {_shown(token)}", lineno, col)


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
    for k, c in enumerate(p.coeffs):
        if c:
            for i in range(n):
                for j in range(n):
                    out[i][j] += c * power[i][j]
        if k < p.degree:
            power = naive_mat_mul(power, grid)
    return out


def oracle_gram_schmidt(grid: list[list[Fraction]], d: int) -> list[Polynomial]:
    """Classical Gram-Schmidt over 1, t, ..., t^d.

    Every inner product is trace_form_inner of naive_poly_at evaluations:
    q_j = t^j - sum_l (<q_l, t^j> / <q_l, q_l>) q_l.
    """

    def inner(p: Polynomial, q: Polynomial) -> Fraction:
        return trace_form_inner(naive_poly_at(p, grid), naive_poly_at(q, grid))

    qs: list[Polynomial] = []
    for j in range(d + 1):
        monomial = Polynomial([0] * j + [1])
        candidate = list(monomial.coeffs)
        for q in qs:
            candidate = poly_add(candidate, poly_scale(-inner(q, monomial) / inner(q, q), q.coeffs))
        qs.append(Polynomial(candidate))
    return qs


def oracle_predistance(
    grid: list[list[Fraction]], lam: Fraction, d: int
) -> tuple[list[Polynomial], list[Fraction]]:
    """(p_0..p_d, <p_j, p_j>) with p_j = (q_j(lam) / <q_j, q_j>) q_j over oracle_gram_schmidt."""
    polys = []
    for q in oracle_gram_schmidt(grid, d):
        q_at = naive_poly_at(q, grid)
        polys.append(Polynomial(poly_scale(poly_value(q.coeffs, lam) / trace_form_inner(q_at, q_at), q.coeffs)))
    norms = []
    for p in polys:
        p_at = naive_poly_at(p, grid)
        norms.append(trace_form_inner(p_at, p_at))
    return polys, norms


def oracle_minimal_polynomial(grid: list[list[Fraction]]) -> Polynomial:
    """Monic minimal polynomial by Gauss-Jordan on explicit vectorized powers.

    For k = 1, 2, ... the powers I, B, ..., B^k come from naive_mat_mul, and
    gauss_jordan_solve takes the system sum_j x_j vec(B^j) = vec(B^k)
    (j < k) from scratch. The first consistent k gives m(t) = t^k - sum_j x_j t^j; the lower powers are
    then independent, so the solution is unique.
    """
    n = len(grid)
    power = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    vectors = [[v for row in power for v in row]]
    for k in range(1, n + 1):
        power = naive_mat_mul(power, grid)
        vectors.append([v for row in power for v in row])
        solution = gauss_jordan_solve(vectors[:k], vectors[k])
        if solution is not None:
            return Polynomial([-x for x in solution] + [Fraction(1)])
    raise AssertionError("no dependency up to degree n contradicts Cayley-Hamilton")


def oracle_hoffman(grid: list[list[Fraction]], lam: Fraction) -> Polynomial:
    """h = n q / q(lam) with q = m / (t - lam), for m from oracle_minimal_polynomial.

    q comes from schoolbook division of m by t - lam, one coefficient of m
    per step from the top; lam must leave no remainder.
    """
    m = oracle_minimal_polynomial(grid).coeffs
    q = [Fraction(0)] * (len(m) - 1)
    carry = Fraction(0)
    for j in range(len(m) - 1, 0, -1):
        carry = m[j] + lam * carry
        q[j - 1] = carry
    assert m[0] + lam * carry == 0, "lam is not a root of the minimal polynomial"
    return Polynomial(poly_scale(Fraction(len(grid)) / poly_value(q, lam), q))


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


def coherent_closure_rank(grid: list[list[Fraction]]) -> int:
    """rank W(B), the dimension of the coherent closure of B, by 2-dimensional Weisfeiler-Leman.

    W(B) is the smallest algebra that holds B, I and J and is closed under
    the entrywise product and the transpose; its basis is the 0/1 matrices
    of the stable colouring of the pairs (x, y). The colours start as
    (B_xy, B_yx, x = y), and each round refines colour(x, y) by the counts
    of (colour(x, z), colour(z, y)) over z, on integer colour indices, until
    a round adds no colour.
    """
    n = len(grid)
    pairs = [(x, y) for x in range(n) for y in range(n)]
    colour = _indexed({(x, y): (grid[x][y], grid[y][x], x == y) for x, y in pairs})
    while True:
        refined = _indexed(
            {
                (x, y): (colour[x, y], tuple(sorted(Counter((colour[x, z], colour[z, y]) for z in range(n)).items())))
                for x, y in pairs
            }
        )
        if max(refined.values()) == max(colour.values()):
            return max(colour.values()) + 1
        colour = refined


def _indexed(signatures: dict) -> dict:
    """Each key's signature replaced by the index of its first occurrence among the distinct signatures."""
    index: dict = {}
    return {key: index.setdefault(sig, len(index)) for key, sig in signatures.items()}


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


def all_ones(n: int) -> RationalMatrix:
    """The all-ones matrix J."""
    return RationalMatrix([[1] * n for _ in range(n)])


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
# Test conveniences on naive powers of B (not oracles).
# ---------------------------------------------------------------------------


def monic(p: Polynomial) -> Polynomial:
    """p divided by its leading coefficient."""
    return Polynomial(poly_scale(1 / p.coeffs[-1], p.coeffs))


def poly_inner(p: Polynomial, q: Polynomial, b: RationalMatrix) -> Fraction:
    """<p, q> = (1/n) trace(p(B) q(B)^T), on naive_poly_at evaluations."""
    grid = [list(row) for row in b.rows]
    return trace_form_inner(naive_poly_at(p, grid), naive_poly_at(q, grid))


def algebra_membership(m: RationalMatrix, b: RationalMatrix, degree: int) -> Polynomial | None:
    """The polynomial p of degree <= `degree` with p(B) = M, or None when M is outside the span.

    One exact solve over the vectorized powers vec(B^0), ..., vec(B^degree),
    each a naive_mat_mul of the previous power with B.
    """
    grid = [list(row) for row in b.rows]
    power = [[Fraction(int(i == j)) for j in range(b.order)] for i in range(b.order)]
    columns = []
    for _ in range(degree + 1):
        columns.append([v for row in power for v in row])
        power = naive_mat_mul(power, grid)
    solution = gauss_jordan_solve(columns, flat(m))
    return None if solution is None else Polynomial(solution)


def product_form_discrepancy(h: Polynomial, lam: Fraction, n: int, roots_of_q) -> float:
    """The largest relative gap between h and its product form n prod(t - r) / prod(lam - r).

    r runs over roots_of_q, numeric roots of q = m / (t - lam). At each
    sample s = lam (0, 1/4, 1/2, 3/4, 1, 5/4, -1/2), h(s) is exact and the
    gap |h(s) - product(s)| is taken relative to max(1, |h(s)|), so the size
    of h at high degree does not set it.
    """
    scale = n / math.prod(float(lam) - r for r in roots_of_q)
    worst = 0.0
    for f in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, Fraction(5, 4), Fraction(-1, 2)):
        s = lam * f
        exact = float(sum(c * s**j for j, c in enumerate(h.coeffs)))
        product = scale * math.prod(float(s) - r for r in roots_of_q)
        worst = max(worst, abs(exact - product) / max(1.0, abs(exact)))
    return worst
