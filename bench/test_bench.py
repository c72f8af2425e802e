"""Tests of the benchmark's own code: corpus generators, report checks, tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
from tracer import Span, Tracer  # noqa: E402


def brute_t1(dist: list[list[int]]) -> list[list[int]]:
    """t[1][j][h] by counting: for one (x, y) at distance h, the z with d(x,z)=1, d(z,y)=j."""
    n = len(dist)
    big_d = max(max(row) for row in dist)
    rows = [[0] * (big_d + 1) for _ in range(big_d + 1)]
    for h in range(big_d + 1):
        x, y = next((x, y) for x in range(n) for y in range(n) if dist[x][y] == h)
        for z in range(n):
            if dist[x][z] == 1:
                rows[dist[z][y]][h] += 1
    return rows


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_generators_are_deterministic_and_vary_by_pass(workload):
    generate = corpus.WORKLOADS[workload]
    first = [i.text for i in generate(3, 0)]
    assert first == [i.text for i in generate(3, 0)]
    assert first != [i.text for i in generate(3, 1)]
    assert first != [i.text for i in generate(4, 0)]


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_generated_matrices_are_irreducible_lambda_ds(workload):
    for inst in corpus.WORKLOADS[workload](0, 0):
        if inst.grid is None:
            continue
        assert corpus.line_sum(inst.grid) == inst.lam and inst.lam > 0
        assert corpus.distances(inst.grid) is not None


def test_drg_corpus_matches_closed_forms():
    instances = corpus.scheme_drg(0, 0)
    assert len(instances) == 11
    for inst in instances:
        assert inst.dist == corpus.distances(inst.grid)
        assert inst.diameter == max(max(row) for row in inst.dist) == inst.d
        assert brute_t1(inst.dist) == inst.t1, inst.name
        assert corpus.is_normal(inst.grid)
    largest = [i for i in instances if i.meta["largest"]]
    assert [(i.name, i.order) for i in largest] == [("cH(3,4)", 64)]


def test_closed_form_arrays_of_named_graphs():
    assert corpus.intersection_array("hamming", 3, 4) == ([9, 6, 3, 0], [0, 1, 2, 3])
    assert corpus.intersection_array("johnson", 7, 3) == ([12, 6, 2, 0], [0, 1, 4, 9])
    assert corpus.intersection_array("cycle", 20)[1][-1] == 2
    assert corpus.t1_rows(*corpus.intersection_array("complete", 8)) == [[0, 1], [7, 6]]


def test_reject_corpus_expectations():
    instances = {i.name: i for i in corpus.scheme_reject(0, 0)}
    for n in (9, 12, 16, 20):
        inst = instances[f"circ{n}"]
        assert inst.order == n and corpus.is_normal(inst.grid)
        assert inst.diameter == max(max(row) for row in corpus.distances(inst.grid))
        assert inst.d != inst.diameter
    for n in (12, 20):
        assert not corpus.is_normal(instances[f"nonnormal{n}"].grid)
    assert instances["malformed"].expect_exit == {"scheme": 2}
    assert instances["huge"].expect_exit == {"scheme": None}


def test_circulant_eigencount_of_the_plain_cycle():
    # C_n has eigenvalues 2 cos(2 pi j / n): floor(n / 2) + 1 distinct values
    assert corpus.circulant_eigencount(12, {1: Fraction(1), 11: Fraction(1)}) == 7
    assert corpus.circulant_eigencount(9, {1: Fraction(1), 8: Fraction(1)}) == 5


def test_random_lambda_ds_matches_the_program_generator():
    from schemeforge.stochastic import random_lambda_ds

    assert [list(r) for r in random_lambda_ds(9, 3, 7).rows] == corpus.random_lambda_ds(9, 3, 7)


def test_poly_at_is_ones():
    # B = J_2 / 2 satisfies B^2 = B, so h(t) = 2t gives h(B) = J
    half = [[Fraction(1, 2)] * 2 for _ in range(2)]
    assert checks.poly_at_is_ones(["0", "2"], half)
    assert not checks.poly_at_is_ones(["0", "1"], half)
    # directed 3-cycle P: I + P + P^2 = J
    p = [[Fraction(int(y == (x + 1) % 3)) for y in range(3)] for x in range(3)]
    assert checks.poly_at_is_ones(["1", "1", "1"], p)
    assert not checks.poly_at_is_ones(["1", "1", "1/2"], p)


def test_scheme_check_accepts_the_program_report_and_catches_a_wrong_row(tmp_path):
    from schemeforge.cli import run_command

    inst = next(i for i in corpus.scheme_drg(0, 0) if i.name == "Paley13")
    path = tmp_path / "paley13.mat"
    path.write_text(inst.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(["scheme", str(path), "--json"]) == 0
    report = json.loads(out.getvalue())
    assert checks.check_scheme(report, inst) is None
    report["intersection_numbers"][1][1] = [6, 3, 0]
    assert "intersection row" in checks.check_scheme(report, inst)


def test_self_times_subtract_children_and_bookkeeping():
    tracer = Tracer()
    tracer.spans.extend(
        [
            Span("cli.run_command", 0.0, 10.0, -1, 0),
            Span("scheme.detect_scheme", 1.0, 7.0, 0, 0),
            Span("matrix.matmul", 2.0, 4.0, 1, 0, book=0.5),
            Span("matrix.matmul", 5.0, 6.0, 1, 0, book=0.25),
            Span("io.parse_matrix", 8.0, 9.0, 0, 0),
        ]
    )
    assert tracer.self_times() == [3.0, 2.25, 2.0, 1.0, 1.0]
    totals = tracer.totals()
    assert totals["matrix.matmul"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0, "book_s": 0.75}
    assert totals["scheme.detect_scheme"]["total_s"] == 6.0
    tracer.check_accounting()
    tracer.spans.append(Span("matrix.solve", 11.0, 12.0, -1, 0))
    with pytest.raises(AssertionError):
        tracer.check_accounting()


def test_tracer_wraps_every_binding_and_restores_them():
    from schemeforge import cli, hoffman, predistance, scheme
    from schemeforge.matrix import RationalMatrix

    originals = (cli.minimal_polynomial, RationalMatrix.__matmul__)
    fixture = BENCH.parent / "fixtures" / "cyclic_4.mat"
    tracer = Tracer()
    tracer.begin_instance(name="cyclic_4", command="scheme")
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert scheme.minimal_polynomial is hoffman.minimal_polynomial is predistance.minimal_polynomial
        assert cli.run_command(["scheme", str(fixture), "--json"]) == 0
    assert (cli.minimal_polynomial, RationalMatrix.__matmul__) == originals
    assert not tracer.missing
    tracer.check_accounting()
    totals = tracer.totals()
    assert totals["cli.run_command"]["calls"] == 1
    assert totals["hoffman.minimal_polynomial"]["calls"] == 3
    assert totals["scheme.intersection_numbers"]["calls"] == 1
    assert totals["matrix.matmul"]["calls"] > 0
    assert tracer.max_entry_bits() > 0
