#!/usr/bin/env python3
"""Survey random lambda-doubly stochastic matrices through the full pipeline.

Samples seeded instances, tabulates how often they are irreducible, normal,
and scheme-generating, and prints the certificate of each accepted one.

Usage: python scripts/survey_random_instances.py [--count 300] [--base-seed 0]
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from schemeforge.scheme import detect_scheme
from schemeforge.stochastic import classify, random_lambda_ds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=300, help="number of instances")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--max-order", type=int, default=10)
    args = parser.parse_args()

    tally: Counter[str] = Counter()
    accepted = []
    for seed in range(args.base_seed, args.base_seed + args.count):
        rng = random.Random(seed * 7919 + 13)
        n = rng.randint(2, args.max_order)
        k = rng.randint(1, 4)
        b = random_lambda_ds(n, k, seed=seed)
        cls = classify(b)
        tally["total"] += 1
        if cls.irreducible:
            tally["irreducible"] += 1
        if cls.normal:
            tally["normal"] += 1
        certificate = detect_scheme(b)
        if certificate.accepted:
            tally["accepted"] += 1
            accepted.append((seed, n, k, certificate))
        else:
            tally[f"rejected:{certificate.reason.code.value}"] += 1

    print("pipeline survey")
    for key in sorted(tally):
        print(f"  {key:32s} {tally[key]}")
    print()
    for seed, n, k, certificate in accepted:
        print(
            f"accepted: seed={seed} n={n} k={k} "
            f"d=D={certificate.d} classes={certificate.d + 1} "
            f"transpose_map={list(certificate.transpose_perm)}"
        )


if __name__ == "__main__":
    main()
