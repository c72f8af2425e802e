#!/usr/bin/env python3
"""Print the matrix file of (10^1000 + 7) I + A(H(3,4)), A(H(3,4)) the Hamming graph's adjacency.

H(3,4) has the 64 words of length 3 over 4 symbols as vertices, adjacent at
Hamming distance 1, so the matrix is 64 x 64 with 1001-digit diagonal
entries and line sum 10^1000 + 16. Its primitive integer matrix is itself,
with R = ||C||_inf = 10^1000 + 16, so its minimal polynomial, of degree 4,
needs 578 CRT primes below 2^23, and the Hoffman stage solves the pivot
systems of the 577 after the first in 24 chunks. CI diffs the `hoffman
--json` report against the record beside this script:

    python scripts/make_huge_hamming.py > huge_hamming.mat
    PYTHONPATH=src python -m schemeforge hoffman huge_hamming.mat --json \\
        | diff scripts/hoffman_huge_hamming.json -
"""

from __future__ import annotations

import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from schemeforge.io import serialize_matrix
from schemeforge.matrix import RationalMatrix

D, Q = 3, 4
DIAGONAL = 10**1000 + 7


def main() -> None:
    words = list(product(range(Q), repeat=D))
    rows = [
        [DIAGONAL if x == y else int(sum(a != b for a, b in zip(x, y)) == 1) for y in words]
        for x in words
    ]
    sys.stdout.write(serialize_matrix(RationalMatrix(rows), comment="(10^1000 + 7) I + A(H(3,4))"))


if __name__ == "__main__":
    main()
