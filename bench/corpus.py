"""Benchmark corpora: generated matrices, each with what its construction predicts.

Nothing here imports schemeforge. Every expectation (verdict, exit code,
diameter D, eigenvalue count d + 1, the intersection-array row t[1][j][h])
comes from the construction itself or from closed forms, so a wrong answer
from the program cannot leak into the check.

Closed-form intersection arrays are those of Brouwer, Cohen and Neumaier,
*Distance-Regular Graphs* (1989), sections 9.1-9.2 for Hamming and Johnson
graphs; cycles, complete graphs and the Paley graph P(13) (strongly regular
with parameters (13, 6, 2, 3)) are the standard small cases.
"""

from __future__ import annotations

import cmath
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

Grid = list[list[Fraction]]


@dataclass(frozen=True)
class Instance:
    """One input file and the invocations the workload runs on it.

    expect_exit maps each command to the exit code the construction
    predicts; None means "any of 0, 1, 2, but no exception" (hostile files).
    """

    name: str
    text: str
    commands: tuple[str, ...]
    expect_exit: dict
    grid: Optional[Grid] = None
    lam: Optional[Fraction] = None
    reason: Optional[str] = None
    d: Optional[int] = None
    diameter: Optional[int] = None
    dist: Optional[list[list[int]]] = None
    t1: Optional[list[list[int]]] = None
    meta: dict = field(default_factory=dict)

    @property
    def order(self) -> Optional[int]:
        return len(self.grid) if self.grid is not None else None


# ---------------------------------------------------------------------------
# Graph families (0/1 adjacency as lists of lists of int).
# ---------------------------------------------------------------------------


def hamming(d: int, q: int) -> list[list[int]]:
    words = list(itertools.product(range(q), repeat=d))
    return [[int(sum(a != b for a, b in zip(u, v)) == 1) for v in words] for u in words]


def johnson(v: int, k: int) -> list[list[int]]:
    sets = [frozenset(s) for s in itertools.combinations(range(v), k)]
    return [[int(len(a & b) == k - 1) for b in sets] for a in sets]


def cycle(n: int, directed: bool) -> list[list[int]]:
    adj = [[0] * n for _ in range(n)]
    for x in range(n):
        adj[x][(x + 1) % n] = 1
        if not directed:
            adj[x][(x - 1) % n] = 1
    return adj


def complete(n: int) -> list[list[int]]:
    return [[int(x != y) for y in range(n)] for x in range(n)]


def paley(p: int) -> list[list[int]]:
    squares = {(x * x) % p for x in range(1, p)}
    return [[int((y - x) % p in squares) for y in range(p)] for x in range(p)]


def intersection_array(family: str, *params: int) -> tuple[list[int], list[int]]:
    """(b_0..b_D, c_0..c_D) with b_D = 0 and c_0 = 0, from the closed forms."""
    if family == "hamming":
        d, q = params
        return [(d - i) * (q - 1) for i in range(d + 1)], [i for i in range(d + 1)]
    if family == "johnson":
        v, k = params
        return [(k - i) * (v - k - i) for i in range(k + 1)], [i * i for i in range(k + 1)]
    if family == "cycle":
        (n,) = params
        big_d = n // 2
        b = [2] + [1] * (big_d - 1) + [0]
        c = [0] + [1] * (big_d - 1) + [2 if n % 2 == 0 else 1]
        return b, c
    if family == "complete":
        (n,) = params
        return [n - 1, 0], [0, 1]
    if family == "paley13":
        return [6, 3, 0], [0, 1, 3]
    raise ValueError(f"unknown family {family!r}")


def t1_rows(b: list[int], c: list[int]) -> list[list[int]]:
    """Row t[1][j][h] of A_1 A_j = b_{j-1} A_{j-1} + a_j A_j + c_{j+1} A_{j+1}."""
    big_d = len(b) - 1
    k = b[0]
    rows = []
    for j in range(big_d + 1):
        row = [0] * (big_d + 1)
        if j > 0:
            row[j - 1] = b[j - 1]
        row[j] = k - b[j] - c[j] if j > 0 else 0
        if j < big_d:
            row[j + 1] = c[j + 1]
        rows.append(row)
    return rows


def directed_cycle_t1(n: int) -> list[list[int]]:
    """A_1 A_j = A_{j+1 mod n} on the directed n-cycle, whose class i is distance i."""
    return [[int(h == (j + 1) % n) for h in range(n)] for j in range(n)]


# ---------------------------------------------------------------------------
# Independent structure checks used by the generators.
# ---------------------------------------------------------------------------


def distances(grid) -> Optional[list[list[int]]]:
    """All-pairs BFS distances along positive entries; None if some pair is unreachable."""
    n = len(grid)
    succ = [[y for y in range(n) if grid[x][y] > 0] for x in range(n)]
    out = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in succ[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if min(dist) < 0:
            return None
        out.append(dist)
    return out


def line_sum(grid: Grid) -> Optional[Fraction]:
    """The common row and column sum of a nonnegative matrix, or None."""
    if any(v < 0 for row in grid for v in row):
        return None
    sums = {sum(row, Fraction(0)) for row in grid} | {sum(col, Fraction(0)) for col in zip(*grid)}
    return sums.pop() if len(sums) == 1 else None


def is_normal(grid: Grid) -> bool:
    n = len(grid)
    cols = list(zip(*grid))
    b_bt = [[sum(grid[x][k] * grid[y][k] for k in range(n)) for y in range(n)] for x in range(n)]
    bt_b = [[sum(cols[x][k] * cols[y][k] for k in range(n)) for y in range(n)] for x in range(n)]
    return b_bt == bt_b


def relabel(adj: list[list], rng: random.Random) -> list[list]:
    """P A P^T for a random permutation P: the same matrix on shuffled vertex names."""
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    return [[adj[perm[x]][perm[y]] for y in range(n)] for x in range(n)]


def matrix_text(grid: Grid, comment: str) -> str:
    lines = [f"# {comment}", str(len(grid))]
    lines.extend(" ".join(str(v) for v in row) for row in grid)
    return "\n".join(lines) + "\n"


def small_scale(rng: random.Random) -> Fraction:
    """A scale c = p/q with small p, q and c != 1."""
    while True:
        c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        if c != 1:
            return c


# ---------------------------------------------------------------------------
# Workload corpora.
# ---------------------------------------------------------------------------


def _drg_instance(name, adj, c, b, c_arr, rng, largest=False, t1=None) -> Instance:
    adj = relabel(adj, rng)
    grid = [[c * v for v in row] for row in adj]
    dist = distances(adj)
    big_d = max(max(row) for row in dist)
    if big_d != len(b) - 1:
        raise AssertionError(f"{name}: BFS diameter {big_d} != closed form {len(b) - 1}")
    return Instance(
        name=name,
        text=matrix_text(grid, f"{name}, scale {c}"),
        commands=("scheme",),
        expect_exit={"scheme": 0},
        grid=grid,
        lam=c * b[0],
        reason=None,
        d=big_d,
        diameter=big_d,
        dist=dist,
        t1=t1 if t1 is not None else t1_rows(b, c_arr),
        meta={"largest": largest, "classes": big_d + 1},
    )


def scheme_drg(seed: int, pass_index: int) -> list[Instance]:
    """Distance-regular graphs, all accepted by `scheme` with d = D."""
    rng = random.Random(f"scheme-drg/{seed}/{pass_index}")
    one = Fraction(1)
    out = []
    for name, adj, scale, family, params, largest in (
        ("H(2,4)", hamming(2, 4), one, "hamming", (2, 4), False),
        ("H(4,2)", hamming(4, 2), one, "hamming", (4, 2), False),
        ("cH(3,3)", hamming(3, 3), small_scale(rng), "hamming", (3, 3), False),
        ("cH(3,4)", hamming(3, 4), small_scale(rng), "hamming", (3, 4), True),
        ("J(6,3)", johnson(6, 3), one, "johnson", (6, 3), False),
        ("J(7,3)", johnson(7, 3), one, "johnson", (7, 3), False),
        ("C12", cycle(12, False), one, "cycle", (12,), False),
        ("C20", cycle(20, False), one, "cycle", (20,), False),
        ("K8", complete(8), one, "complete", (8,), False),
        ("Paley13", paley(13), one, "paley13", (), False),
    ):
        b, c_arr = intersection_array(family, *params)
        out.append(_drg_instance(name, adj, scale, b, c_arr, rng, largest))
    scale = small_scale(rng)
    n = 12
    out.insert(
        8,
        _drg_instance(
            "cDC12",
            cycle(n, True),
            scale,
            [1] * (n - 1) + [0],
            [0] + [1] * (n - 1),
            rng,
            t1=directed_cycle_t1(n),
        ),
    )
    return out


def random_lambda_ds(n: int, k: int, seed: int) -> Grid:
    """Positive combination of k random permutation matrices.

    The same construction as `schemeforge gen n k --seed seed`, written out
    here so that the corpus does not depend on the program under test.
    """
    rng = random.Random(seed)
    grid = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(k):
        coeff = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        image = list(range(n))
        rng.shuffle(image)
        for x in range(n):
            grid[x][image[x]] += coeff
    return grid


def _draw_irreducible(n: int, k: int, rng: random.Random, normal: Optional[bool] = None):
    """First random_lambda_ds draw that is irreducible (and normal or not, if asked)."""
    while True:
        draw_seed = rng.randrange(2**32)
        grid = random_lambda_ds(n, k, draw_seed)
        if distances(grid) is None:
            continue
        if normal is not None and is_normal(grid) != normal:
            continue
        return draw_seed, grid


def hoffman_dense(seed: int, pass_index: int) -> list[Instance]:
    """Dense random lambda-DS matrices (d = n - 1 typically) for `hoffman` and `spectrum`.

    The draw for each n is fixed; the seed and pass only relabel it. Fresh
    draws would move the minimal-polynomial time at n = 24 between 3 and 8 s
    and make a one-pass run meaningless as a timing.
    """
    rng = random.Random(f"hoffman-dense/{seed}/{pass_index}")
    out = []
    for n in (12, 16, 20, 24):
        draw_seed, grid = _draw_irreducible(n, 3, random.Random(f"hoffman-dense/{n}"))
        grid = relabel(grid, rng)
        out.append(
            Instance(
                name=f"rds{n}",
                text=matrix_text(grid, f"random lambda-DS n={n} k=3 seed={draw_seed}, relabeled"),
                commands=("hoffman", "spectrum"),
                expect_exit={"hoffman": 0, "spectrum": 0},
                grid=grid,
                lam=line_sum(grid),
                meta={"largest": n == 24, "seed": draw_seed},
            )
        )
    return out


def circulant_eigencount(n: int, weights: dict) -> Optional[int]:
    """Number of distinct eigenvalues sum_s w_s omega^(j s), or None if too close to call.

    The eigenvalues of a circulant are known in closed form; values closer
    than 1e-6 but not within 1e-9 are reported as undecidable so the
    generator draws again instead of guessing.
    """
    values = []
    for j in range(n):
        values.append(sum(float(w) * cmath.exp(2j * cmath.pi * j * s / n) for s, w in weights.items()))
    groups: list[complex] = []
    for v in values:
        gaps = [abs(v - g) for g in groups]
        if any(g < 1e-9 for g in gaps):
            continue
        if any(g < 1e-6 for g in gaps):
            return None
        groups.append(v)
    return len(groups)


def weighted_circulant(n: int, rng: random.Random):
    """Normal, irreducible circulant with 2-3 shifts, small weights and d != D."""
    while True:
        shifts = rng.sample(range(1, n), rng.randint(2, 3))
        weights = {s: Fraction(rng.randint(1, 5), rng.randint(1, 3)) for s in shifts}
        grid = [[weights.get((y - x) % n, Fraction(0)) for y in range(n)] for x in range(n)]
        dist = distances(grid)
        if dist is None:
            continue
        eigencount = circulant_eigencount(n, weights)
        if eigencount is None:
            continue
        big_d = max(max(row) for row in dist)
        if eigencount - 1 != big_d:
            return grid, shifts, eigencount - 1, big_d


def scheme_reject(seed: int, pass_index: int) -> list[Instance]:
    """Normal circulants and non-normal draws that `scheme` rejects, plus hostile files.

    As in hoffman_dense, the base matrices are fixed and each pass relabels them.
    """
    rng = random.Random(f"scheme-reject/{seed}/{pass_index}")
    out = []
    for n in (9, 12, 16, 20):
        grid, shifts, d, big_d = weighted_circulant(n, random.Random(f"scheme-reject/circulant/{n}"))
        grid = relabel(grid, rng)
        out.append(
            Instance(
                name=f"circ{n}",
                text=matrix_text(grid, f"circulant n={n} shifts={shifts}, relabeled"),
                commands=("scheme", "predistance"),
                expect_exit={"scheme": 1, "predistance": 0},
                grid=grid,
                lam=line_sum(grid),
                reason=f"EIGENCOUNT_NE_DIAMETER(d={d}, D={big_d})",
                d=d,
                diameter=big_d,
                meta={"largest": n == 20},
            )
        )
    for n in (12, 20):
        draw_seed, grid = _draw_irreducible(n, 3, random.Random(f"scheme-reject/nonnormal/{n}"), normal=False)
        grid = relabel(grid, rng)
        out.append(
            Instance(
                name=f"nonnormal{n}",
                text=matrix_text(grid, f"random lambda-DS n={n} k=3 seed={draw_seed}, relabeled"),
                commands=("scheme",),
                expect_exit={"scheme": 1},
                grid=grid,
                lam=line_sum(grid),
                reason="NOT_NORMAL",
                meta={"seed": draw_seed},
            )
        )
    out.append(
        Instance(
            name="malformed",
            text="# a row is one entry short\n3\n1 0 0\n0 1\n0 0 1\n",
            commands=("scheme",),
            expect_exit={"scheme": 2},
        )
    )
    out.append(
        Instance(
            name="huge",
            text="# entries far beyond the int-to-str digit limit\n2\n1e5000 1e5000\n1e5000 1e5000\n",
            commands=("scheme",),
            expect_exit={"scheme": None},
        )
    )
    return out


WORKLOADS = {
    "scheme-drg": scheme_drg,
    "hoffman-dense": hoffman_dense,
    "scheme-reject": scheme_reject,
}
