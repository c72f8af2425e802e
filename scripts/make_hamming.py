#!/usr/bin/env python3
"""Print the matrix file of the Hamming graph H(d, q): its 0/1 adjacency on the
q^d words of length d over q symbols, adjacent at Hamming distance 1.

H(d, q) is distance-regular with diameter d, so `scheme` accepts it with d +
1 classes. CI compares the sha256 of the --json reports on H(3,8) (n = 512)
and on the hypercube Q_10 = H(10,2) (n = 1024) with the records in
`hamming.sha256` beside this script (a full record would take several MB):

    python scripts/make_hamming.py 3 8 > h38.mat
    PYTHONPATH=src python -m schemeforge scheme h38.mat --json | sha256sum
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from schemeforge.io import serialize_matrix
from schemeforge.matrix import RationalMatrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("d", type=int, help="the word length, at least 1")
    parser.add_argument("q", type=int, help="the number of symbols, at least 2")
    args = parser.parse_args()
    if args.d < 1 or args.q < 2:
        parser.error("need d >= 1 and q >= 2")
    # the digits of each word, one column per position
    words = np.indices((args.q,) * args.d).reshape(args.d, -1).T
    adjacency = ((words[:, None, :] != words[None, :, :]).sum(axis=2) == 1).astype(int)
    name = f"H({args.d},{args.q})"
    sys.stdout.write(serialize_matrix(RationalMatrix(adjacency.tolist()), comment=name))


if __name__ == "__main__":
    main()
