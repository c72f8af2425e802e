"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All exact assertions are zero-tolerance; numeric assertions state
their tolerance inline.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from schemeforge.cli import run_command
from schemeforge.digraph import distance_structure, underlying_digraph
from schemeforge.exact import Polynomial
from schemeforge.hoffman import hoffman_polynomial, minimal_polynomial
from schemeforge.matrix import MatrixPowerBasis, RationalMatrix
from schemeforge.predistance import predistance_basis
from schemeforge.scheme import RejectionCode, detect_scheme
from schemeforge.spectral import idempotents, roots
from schemeforge.stochastic import classify, random_lambda_ds

from conftest import FIXTURES, load_fixture
from oracles import (
    add,
    algebra_membership,
    all_ones,
    charpoly_leverrier,
    class_matrices,
    count_walks_dfs,
    divides,
    naive_poly_at,
    poly_scale,
    poly_value,
    product_form_discrepancy,
    trace_form_inner,
    vanishing_product_check,
    zeros,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def iter_random_instances():
    """Deterministic stream of (seed, matrix, classification) draws."""
    seed = 0
    while True:
        rng = random.Random(seed * 7919 + 13)
        n = rng.randint(2, 10)
        k = rng.randint(1, 4)
        b = random_lambda_ds(n, k, seed=seed)
        yield seed, b, classify(b)
        seed += 1


FIG1_Q = Polynomial(
    [
        0,
        Fraction(-32, 243),
        Fraction(8, 27),
        Fraction(-8, 27),
        Fraction(5, 27),
        Fraction(1, 3),
        Fraction(-1, 3),
        1,
    ]
)


def test_criterion_1_fig1_hoffman(capsys):
    with criterion(1, "fig1 Hoffman polynomial"):
        started = time.monotonic()
        info = hoffman_polynomial(load_fixture("fig1.mat"))
        assert info.q == FIG1_Q
        assert info.h == Polynomial(poly_scale(Fraction(8) / poly_value(FIG1_Q.coeffs, 1), FIG1_Q.coeffs))
        b = load_fixture("fig1.mat")
        basis = MatrixPowerBasis(b)
        assert basis.evaluate(info.h) == all_ones(8)
        code = run_command(["hoffman", str(FIXTURES / "fig1.mat")])
        elapsed = time.monotonic() - started
        out = capsys.readouterr().out
        assert code == 0
        assert "0 -32/243 8/27 -8/27 5/27 1/3 -1/3 1" in out
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_fig2_pipeline(capsys):
    with criterion(2, "fig2 pipeline"):
        started = time.monotonic()
        fig2 = load_fixture("fig2.mat")
        family = predistance_basis(fig2)
        assert family.polys == (
            Polynomial([1]),
            Polynomial([-2, 4]),
            Polynomial([2, -8, 8]),
            Polynomial([-3, 12, -24, 16]),
        )
        assert hoffman_polynomial(fig2).h == Polynomial([-2, 8, -16, 16])
        grid = [list(row) for row in fig2.rows]
        total = zeros(6)
        for p in family.polys:
            value = fig2.powers.evaluate(p)
            assert [list(row) for row in value.rows] == naive_poly_at(p, grid)
            total = add(total, value)
        assert total == all_ones(6)
        code = run_command(["scheme", str(FIXTURES / "fig2.mat"), "--json"])
        elapsed = time.monotonic() - started
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "accepted"
        assert report["d"] == 3 and report["D"] == 3
        tensor = report["intersection_numbers"]
        for i in range(4):
            for j in range(4):
                for h in range(4):
                    assert isinstance(tensor[i][j][h], int) and tensor[i][j][h] >= 0
                    assert tensor[i][j][h] == tensor[j][i][h]
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_property_suite():
    with criterion(3, "property suite over random instances"):
        instances = iter_random_instances()
        collected = 0
        normal_seen = 0
        while collected < 200:
            _, b, cls = next(instances)
            if not cls.irreducible:
                continue
            collected += 1
            n = b.order
            basis = MatrixPowerBasis(b)
            info = hoffman_polynomial(b)
            # h(B) = J exactly
            assert basis.evaluate(info.h) == all_ones(n)
            # minimality: no lower-degree polynomial reaches J
            assert algebra_membership(all_ones(n), b, degree=info.h.degree - 1) is None
            if cls.normal:
                normal_seen += 1
                family = predistance_basis(b)
                # the trace form on naive evaluations, each polynomial evaluated once
                grid = [list(row) for row in b.rows]
                h_at = naive_poly_at(info.h, grid)
                at = [naive_poly_at(p, grid) for p in family.polys]
                for i, p in enumerate(family.polys):
                    assert family.norms_sq[i] == poly_value(p.coeffs, family.lam)
                    assert trace_form_inner(h_at, at[i]) == family.norms_sq[i]
                    for j in range(i):
                        assert trace_form_inner(at[j], at[i]) == 0
                total = zeros(n)
                for p, expected in zip(family.polys, at):
                    value = basis.evaluate(p)
                    assert [list(row) for row in value.rows] == expected
                    total = add(total, value)
                assert total == all_ones(n)
        assert normal_seen > 0


def test_criterion_4_oracle_equivalence():
    with criterion(4, "oracle equivalence"):
        # (a) minimal polynomial divides the Leverrier-Faddeev charpoly
        for path in sorted(FIXTURES.glob("*.mat")):
            b = load_fixture(path.name)
            if b.order > 8:
                continue
            assert divides(minimal_polynomial(b), charpoly_leverrier(b))
        # (b) walk counts match exhaustive DFS enumeration
        rng = random.Random(20240)
        for _ in range(20):
            adjacency = [[rng.randint(0, 1) for _ in range(5)] for _ in range(5)]
            basis = MatrixPowerBasis(RationalMatrix(adjacency))
            for length in (1, 2, 3, 4):
                counted = basis.evaluate(Polynomial([0] * length + [1]))
                for x in range(5):
                    for y in range(5):
                        assert counted[x][y] == count_walks_dfs(adjacency, x, y, length)
        # (c) the A_D = p_D(B) equality agrees with the membership solver on
        # every input that reaches that pipeline stage
        stage_inputs = [
            load_fixture("fig2.mat"),
            load_fixture("complete_4.mat"),
            load_fixture("complete_5.mat"),
        ]
        stage_inputs += [load_fixture(f"cyclic_{n}.mat") for n in range(3, 9)]
        # the one known AD-rejected instance
        stage_inputs.append(
            RationalMatrix(
                [
                    [Fraction(1, 3) if (y - x) % 8 in (1, 4, 5) else 0 for y in range(8)]
                    for x in range(8)
                ]
            )
        )
        instances = iter_random_instances()
        added = 0
        while added < 25:
            _, b, cls = next(instances)
            if not (cls.irreducible and cls.normal and cls.lam):
                continue
            structure = distance_structure(underlying_digraph(b))
            if minimal_polynomial(b).degree - 1 != structure.diameter:
                continue
            stage_inputs.append(b)
            added += 1
        for b in stage_inputs:
            structure = distance_structure(underlying_digraph(b))
            d = minimal_polynomial(b).degree - 1
            if d != structure.diameter:
                continue
            family = predistance_basis(b)
            distance_d = class_matrices(structure.dist)[d]
            mask = [[int(v == d) for v in row] for row in structure.dist]
            [single_equality] = b.powers.evaluates_to([family.polys[d]], b.powers.class_moments(d, [mask]))
            assert single_equality == (distance_d == b.powers.evaluate(family.polys[d]))
            member = algebra_membership(distance_d, b, degree=d)
            assert single_equality == (member is not None)
            if member is not None:
                assert member == family.polys[d]


def test_criterion_5_cyclic_family_and_fig1_rejection():
    with criterion(5, "cyclic family / fig1 rejection"):
        for n in range(3, 9):
            cert = detect_scheme(load_fixture(f"cyclic_{n}.mat"))
            assert cert.accepted
            assert cert.d == n - 1 and cert.diameter == n - 1
            for i in range(n):
                for j in range(n):
                    for h in range(n):
                        expected = 1 if (i + j) % n == h else 0
                        assert cert.intersection_tensor[i][j][h] == expected
        cert = detect_scheme(load_fixture("fig1.mat"))
        assert not cert.accepted
        assert cert.reason.code is RejectionCode.NOT_NORMAL


def product_form_sidecar(b):
    """The certified h against n prod(t - r) / prod(lambda - r) over the numeric
    eigenvalues r after lambda, which `roots` puts first."""
    info = hoffman_polynomial(b)
    return product_form_discrepancy(info.h, info.lam, b.order, roots(minimal_polynomial(b)).eigenvalues[1:])


def test_criterion_6_numeric_sidecar():
    with criterion(6, "numeric sidecar"):
        fig2 = load_fixture("fig2.mat")
        spectrum = roots(minimal_polynomial(fig2))
        s = 3 ** 0.5 / 4
        expected = [1.0, 0.5, complex(0.25, s), complex(0.25, -s)]
        remaining = list(expected)
        for z in spectrum.eigenvalues:
            best = min(remaining, key=lambda w: abs(w - z))
            assert abs(best - z) < 1e-9
            remaining.remove(best)
        family = idempotents(fig2, spectrum)
        assert family.residuals["mutual"] < 1e-9
        assert family.residuals["sum"] < 1e-9
        assert family.residuals["reconstruction"] < 1e-9
        # product form on fig1, fig2, and 20 random normal instances
        for name in ("fig1.mat", "fig2.mat"):
            b = load_fixture(name)
            assert product_form_sidecar(b) < 1e-9
        instances = iter_random_instances()
        checked = 0
        while checked < 20:
            _, b, cls = next(instances)
            if not (cls.normal and cls.irreducible and cls.lam):
                continue
            assert product_form_sidecar(b) < 1e-9
            checked += 1


def test_criterion_7_vanishing_lemmas():
    with criterion(7, "vanishing lemmas"):
        fig2 = load_fixture("fig2.mat")
        assert vanishing_product_check(fig2, distance_structure(underlying_digraph(fig2)).dist)
        for n in (5, 6, 7):
            b = load_fixture(f"cyclic_{n}.mat")
            assert vanishing_product_check(b, distance_structure(underlying_digraph(b)).dist)
