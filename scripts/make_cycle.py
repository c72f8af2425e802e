#!/usr/bin/env python3
"""Print the matrix file of the N-cycle C_N: its adjacency P + P^T, or P alone
with --directed, P the directed N-cycle.

Both are accepted by `scheme`, with d = D = N // 2 undirected and d = D =
N - 1 directed, so the class certificate runs on D + 1 classes at once. CI
compares the sha256 of the --json reports on C_100 and the directed C_96
with the records beside this script (a full record would take several MB):

    python scripts/make_cycle.py 100 > c100.mat
    PYTHONPATH=src python -m schemeforge scheme c100.mat --json | sha256sum
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from schemeforge.io import serialize_matrix
from schemeforge.matrix import RationalMatrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="the number of vertices, at least 3")
    parser.add_argument("--directed", action="store_true", help="the directed cycle P alone")
    args = parser.parse_args()
    n = args.n
    if n < 3:
        parser.error("n must be at least 3")
    arcs = {1} if args.directed else {1, n - 1}
    rows = [[int((y - x) % n in arcs) for y in range(n)] for x in range(n)]
    name = f"directed C_{n}" if args.directed else f"C_{n}"
    sys.stdout.write(serialize_matrix(RationalMatrix(rows), comment=name))


if __name__ == "__main__":
    main()
