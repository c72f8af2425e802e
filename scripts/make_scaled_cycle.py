#!/usr/bin/env python3
"""Print the matrix file of (3/7) (10^30 I + P_6), P_6 the directed 6-cycle.

Its primitive integer matrix C = 10^30 I + P_6 has entries past int64 and
its scale is s = 3/7, so `scheme` and `predistance` on it run the Python-int
product path and apply a non-integer scale. The matrix is accepted with
d = D = 5. CI diffs both --json reports against the records beside this
script:

    python scripts/make_scaled_cycle.py > scaled_cycle.mat
    PYTHONPATH=src python -m schemeforge scheme scaled_cycle.mat --json \\
        | diff scripts/scheme_scaled_cycle.json -
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from schemeforge.io import serialize_matrix
from schemeforge.matrix import RationalMatrix

N = 6
DIAGONAL = 10**30
SCALE = Fraction(3, 7)


def main() -> None:
    rows = [
        [SCALE * (DIAGONAL * (x == y) + (y == (x + 1) % N)) for y in range(N)] for x in range(N)
    ]
    sys.stdout.write(serialize_matrix(RationalMatrix(rows), comment="(3/7) (10^30 I + P_6)"))


if __name__ == "__main__":
    main()
