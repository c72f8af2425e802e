#!/usr/bin/env python3
"""Print the matrix file of (2/5) (9000 I + 7 P_7 + 7 P_7^-1), a weighted circulant.

P_7 is the directed 7-cycle, so the matrix is the weighted undirected 7-cycle
with heavy loops, accepted with d = D = 3. Its primitive integer matrix C =
9000 I + 7 (P_7 + P_7^-1) has R = ||C||_inf = 9014, and its Gram entries
C^a . C^b reach 2^81, past int64: under the bound 2 n R^(2d), about 2^83,
the Gram matrix needs four CRT primes below 2^23. The class certificates
A_i = p_i(B) read the same residues under their own bounds, up to 2^43.
CI diffs both --json reports against the records beside this script:

    python scripts/make_weighted_circulant.py > weighted_circulant.mat
    PYTHONPATH=src python -m schemeforge scheme weighted_circulant.mat --json \\
        | diff scripts/scheme_weighted_circulant.json -
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from schemeforge.io import serialize_matrix
from schemeforge.matrix import RationalMatrix

N = 7
WEIGHTS = {0: 9000, 1: 7, N - 1: 7}  # by shift y - x mod N
SCALE = Fraction(2, 5)


def main() -> None:
    rows = [[SCALE * WEIGHTS.get((y - x) % N, 0) for y in range(N)] for x in range(N)]
    comment = "(2/5) (9000 I + 7 P_7 + 7 P_7^-1)"
    sys.stdout.write(serialize_matrix(RationalMatrix(rows), comment=comment))


if __name__ == "__main__":
    main()
