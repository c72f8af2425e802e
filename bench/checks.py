"""Independent checks of the `--json` reports, run outside the timed region.

Every check works from the instance's own construction (corpus.Instance)
and plain integer or Fraction arithmetic; nothing here imports schemeforge.
A check returns None when the report holds and a one-line complaint when
it does not.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from corpus import Grid, Instance


def poly_at_is_ones(coeffs: list, grid: Grid) -> bool:
    """Whether P(B) = J, for P given by ascending coefficients (report strings or Fractions).

    Horner evaluation in exact rational arithmetic, carried as integers:
    with B = M / delta and P = sum_k (e_k / L) t^k it checks
    sum_k e_k delta^(K-k) M^k = L delta^K J, which is P(B) = J multiplied
    through by L delta^K.
    """
    n = len(grid)
    c = [Fraction(s) for s in coeffs]
    big_k = len(c) - 1
    delta = lcm(*(v.denominator for row in grid for v in row))
    m = [[int(v * delta) for v in row] for row in grid]
    big_l = lcm(*(v.denominator for v in c))
    e = [int(v * big_l) for v in c]
    cols = list(zip(*m))
    acc = [[e[big_k] if x == y else 0 for y in range(n)] for x in range(n)]
    for k in range(big_k - 1, -1, -1):
        term = e[k] * delta ** (big_k - k)
        acc = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in acc]
        for x in range(n):
            acc[x][x] += term
    target = big_l * delta**big_k
    return all(v == target for row in acc for v in row)


def poly_value(coeffs: list[str], t: Fraction) -> Fraction:
    acc = Fraction(0)
    for s in reversed(coeffs):
        acc = acc * t + Fraction(s)
    return acc


def _polynomial_checks(h, polys, inst: Instance) -> Optional[str]:
    """h(B) = J for a Hoffman polynomial and sum_i p_i(B) = J for a predistance family."""
    if h is not None and not poly_at_is_ones(h, inst.grid):
        return "h(B) != J"
    if polys is not None:
        if inst.d is not None and len(polys) != inst.d + 1:
            return f"{len(polys)} predistance polynomials, expected d + 1 = {inst.d + 1}"
        if any(len(p) != i + 1 or Fraction(p[-1]) == 0 for i, p in enumerate(polys)):
            return "deg p_i != i"
        total = [sum((Fraction(p[k]) for p in polys[k:]), Fraction(0)) for k in range(len(polys))]
        if not poly_at_is_ones(total, inst.grid):
            return "sum_i p_i(B) != J"
    return None


def check_scheme(report: dict, inst: Instance) -> Optional[str]:
    lam = str(inst.lam) if inst.lam is not None else None
    if report.get("lambda") != lam:
        return f"lambda {report.get('lambda')} != {lam}"
    if inst.reason is not None:
        if report.get("verdict") != "rejected" or report.get("reason") != inst.reason:
            return f"verdict {report.get('verdict')} ({report.get('reason')}), expected rejected ({inst.reason})"
        if report.get("classes") is not None:
            return "a rejection carries class matrices"
        if inst.d is not None and (report.get("d"), report.get("D")) != (inst.d, inst.diameter):
            return f"(d, D) = ({report.get('d')}, {report.get('D')}), expected ({inst.d}, {inst.diameter})"
        return _polynomial_checks(report.get("hoffman"), report.get("predistance"), inst)
    if report.get("verdict") != "accepted":
        return f"verdict {report.get('verdict')} ({report.get('reason')}), expected accepted"
    if (report.get("d"), report.get("D")) != (inst.d, inst.diameter):
        return f"(d, D) = ({report.get('d')}, {report.get('D')}), expected ({inst.d}, {inst.diameter})"
    classes = report.get("classes") or []
    n = len(inst.dist)
    if len(classes) != inst.diameter + 1:
        return f"{len(classes)} classes, expected D + 1 = {inst.diameter + 1}"
    for i, grid in enumerate(classes):
        if grid != [[int(inst.dist[x][y] == i) for y in range(n)] for x in range(n)]:
            return f"class {i} is not the distance-{i} matrix"
    tensor = report.get("intersection_numbers") or []
    if len(tensor) < 2 or tensor[1] != inst.t1:
        return "intersection row t[1][j][h] differs from the closed-form intersection array"
    transpose = [None] * (inst.diameter + 1)
    for x in range(n):
        for y in range(n):
            transpose[inst.dist[x][y]] = inst.dist[y][x]
    if report.get("transpose_map") != transpose:
        return f"transpose map {report.get('transpose_map')}, expected {transpose}"
    return _polynomial_checks(report.get("hoffman"), report.get("predistance"), inst)


def check_hoffman(report: dict, inst: Instance) -> Optional[str]:
    section = report.get("hoffman") or {}
    if section.get("lambda") != str(inst.lam):
        return f"lambda {section.get('lambda')} != {inst.lam}"
    if section.get("verified") is not True:
        return "report does not claim h(B) = J"
    return _polynomial_checks(section["h"], None, inst)


def check_predistance(report: dict, inst: Instance) -> Optional[str]:
    section = report.get("predistance") or {}
    if section.get("lambda") != str(inst.lam):
        return f"lambda {section.get('lambda')} != {inst.lam}"
    if section.get("hoffman_sum_verified") is not True:
        return "report does not claim sum_i p_i(B) = J"
    polys = section["polynomials"]
    norms = section["norms_squared"]
    if any(Fraction(v) != poly_value(p, inst.lam) for p, v in zip(polys, norms)) or len(norms) != len(polys):
        return "|p_i|^2 != p_i(lambda)"
    return _polynomial_checks(None, polys, inst)


def check_spectrum(report: dict, inst: Instance, minimal_degree: Optional[int]) -> Optional[str]:
    """Advisory floats: only the structure is checked (eigenvalue count = deg m)."""
    values = (report.get("spectrum") or {}).get("eigenvalues")
    if not values:
        return "no eigenvalues"
    if minimal_degree is not None and len(values) != minimal_degree:
        return f"{len(values)} eigenvalues, expected deg m = {minimal_degree}"
    return None


CHECKS = {
    "scheme": check_scheme,
    "hoffman": check_hoffman,
    "predistance": check_predistance,
}
