import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import FIXTURES

from schemeforge.cli import _exact_digits, _report_json, build_parser, run_command
from schemeforge.hoffman import minimal_polynomial
from schemeforge.io import MAX_DIGITS, MAX_ORDER, MatrixParseError, _shown, parse_matrix, serialize_matrix
from schemeforge.matrix import MatrixPowerBasis, RationalMatrix, _bits, _prime
from schemeforge.stochastic import classify, random_lambda_ds

from oracles import fraction_parse_matrix, identity


def test_parse_one_by_one():
    assert parse_matrix("1\n1/3\n") == RationalMatrix([[Fraction(1, 3)]])


def test_parse_fig2_fixture(fixtures_dir, fig2):
    text = (fixtures_dir / "fig2.mat").read_text(encoding="utf-8")
    b = parse_matrix(text)
    assert b == fig2
    assert all(b[i][i] == Fraction(1, 2) for i in range(6))


def test_parse_decimals_exactly():
    b = parse_matrix("2\n0.25 0.75\n0.75 0.25\n")
    assert b == RationalMatrix(
        [[Fraction(1, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(1, 4)]]
    )


def test_parse_skips_comments():
    b = parse_matrix("# heading\n2\n# middle\n1 0\n0 1\n")
    assert b == identity(2)


def test_parse_reports_ragged_row():
    with pytest.raises(MatrixParseError) as excinfo:
        parse_matrix("2\n1 0 0\n0 1\n")
    assert excinfo.value.line == 2


def test_parse_reports_bad_token_position():
    with pytest.raises(MatrixParseError) as excinfo:
        parse_matrix("2\n1 0\n0 x\n")
    assert (excinfo.value.line, excinfo.value.column) == (3, 2)


def test_parse_rejects_nonpositive_order():
    with pytest.raises(MatrixParseError):
        parse_matrix("0\n")
    with pytest.raises(MatrixParseError):
        parse_matrix("")


def test_parse_rejects_missing_rows():
    with pytest.raises(MatrixParseError):
        parse_matrix("3\n1 0 0\n0 1 0\n")


def parse_outcome(parse, text):
    """(order, scale, dtype, entries) of a parsed matrix's s C, or the (line, column,
    message) of its MatrixParseError."""
    try:
        b = parse(text)
    except MatrixParseError as exc:
        return ("error", exc.line, exc.column, str(exc))
    return ("matrix", b.order, b.scale, b.entries.dtype, b.entries.tolist())


signs = st.sampled_from(("", "+", "-"))
ascii_digits = st.builds(
    lambda zeros, value: "0" * zeros + str(value), st.integers(0, 3), st.integers(0, 10**30)
)
entry_tokens = st.one_of(
    st.builds(str.__add__, signs, ascii_digits),
    st.builds(lambda sign, p, q: f"{sign}{p}/{q}", signs, ascii_digits, ascii_digits),
    st.builds(lambda sign, p: f"{sign}{p}/0", signs, ascii_digits),
    st.builds(lambda sign, a, b: f"{sign}{a}.{b}", signs, st.integers(0, 99), st.integers(0, 999)),
    st.builds(lambda a, e: f"{a}e{e}", st.integers(-9, 9), st.integers(-30, 30)),
    st.sampled_from(
        (
            "+3", "-0/5", "3/-4", "+-3", "1_000", "1__0", "\u0663", "\u0663/\u0664", "\uff11\uff12",
            "1/2/3", "/5", "5/", "+", "-", "0x10", "1e10001", "0.5", "-.5", ".", "x",
            "1" * 4300, "1" * 4301, "-" + "9" * 5000, "1" * 5000, "7/" + "3" * 5000,
            "0" * 5000 + "1", "1" * 4300 + "/" + "7" * 4300,
            "1" * 10001, "-" + "1" * 10002, "3/" + "7" * 10002, "9" * 10002 + "/0",
        )
    ),
)


@st.composite
def pooled_grids(draw):
    """An n x n grid, n <= 5, drawn from a pool of at most three tokens: a bad token recurs."""
    pool = draw(st.lists(entry_tokens, min_size=1, max_size=3))
    n = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.sampled_from(pool), min_size=n, max_size=n), min_size=n, max_size=n))


@given(
    st.one_of(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(st.lists(entry_tokens, min_size=n, max_size=n), min_size=n, max_size=n)
        ),
        pooled_grids(),
    )
)
@settings(max_examples=300, deadline=None)
def test_parse_matrix_matches_fraction_reference(grid):
    text = f"{len(grid)}\n" + "".join(" ".join(row) + "\n" for row in grid)
    assert parse_outcome(parse_matrix, text) == parse_outcome(fraction_parse_matrix, text)


@pytest.mark.parametrize(
    "text",
    [
        "2\n1/2 -3\n0004/6 +5\n",  # every token on the integer path
        "2\n1/2 0.25\n\u0663 1e-3\n",  # mixed with the Fraction path
        "1\n-0/5\n",
        "2\n1 3/-4\n1 1\n",
        "2\n1 2/0\n1 1\n",
        "1\n" + "1" * 4301 + "\n",
        "1\n" + "1" * 10002 + "\n",
        "3\n1 -2 +3\n04 5 -06\n7 80 999999999\n",  # all distinct, read by one regex search
    ],
)
def test_parse_matrix_matches_fraction_reference_on_examples(text):
    assert parse_outcome(parse_matrix, text) == parse_outcome(fraction_parse_matrix, text)


@pytest.mark.parametrize("last", ["1/2", "x"])
def test_parse_matrix_matches_fraction_reference_on_a_late_non_integer(last):
    """Distinct signed integers up to the last token: the integer search misses only at the end."""
    n = 16
    tokens = [str((-1) ** k * (10**8 + 7919 * k)) for k in range(n * n - 1)] + [last]
    text = f"{n}\n" + "".join(" ".join(tokens[x * n : x * n + n]) + "\n" for x in range(n))
    assert parse_outcome(parse_matrix, text) == parse_outcome(fraction_parse_matrix, text)


def test_parser_is_built_once_and_prints_the_same_usage(capsys):
    assert build_parser() is build_parser()
    assert run_command(["scheme"]) == 2
    first = capsys.readouterr().err
    assert first.startswith("usage: schemeforge scheme [-h] [--json] file\n")
    assert run_command(["scheme", "--tol", "1"]) == 2
    capsys.readouterr()
    assert run_command(["scheme"]) == 2  # a failed parse leaves the shared parser as it was
    assert capsys.readouterr().err == first
    assert run_command(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: schemeforge [-h]")


huge_ints = st.builds(lambda k, sign: sign * (10**4400 + k), st.integers(0, 10**9), st.sampled_from((1, -1)))
json_leaves = st.one_of(
    st.text(),
    st.integers(),
    huge_ints,
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def int_grids(draw, dims):
    """Rectangular nested lists of ints, each side 0..4 (so rows may be empty); some mix in bools."""
    shape = draw(st.lists(st.integers(0, 4), min_size=dims, max_size=dims))
    leaf = st.one_of(st.integers(), huge_ints, *([st.booleans()] if draw(st.booleans()) else []))

    def fill(sides):
        return [fill(sides[1:]) for _ in range(sides[0])] if sides else draw(leaf)

    return fill(shape)


json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        int_grids(2),
        int_grids(3),
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none(), st.floats()), children, max_size=3),
    ),
    max_leaves=25,
)


@given(json_values)
@settings(max_examples=400, deadline=None)
def test_report_writer_matches_json_dumps(value):
    with _exact_digits():  # ints past 4300 digits print in reports
        assert _report_json(value) == json.dumps(value, indent=2)


@given(
    hnp.arrays(
        st.sampled_from((np.int8, np.uint8, np.int32, np.int64, np.uint64, np.bool_)),
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
    )
)
@settings(max_examples=300, deadline=None)
def test_report_writer_lays_out_arrays_as_their_lists(array):
    # the class grids and the tensor of a scheme report are arrays; other
    # dtypes, 0-d and empty arrays are written as their tolist()
    assert _report_json(array) == json.dumps(array.tolist(), indent=2)
    assert _report_json({"a": [array]}) == json.dumps({"a": [array.tolist()]}, indent=2)


def test_huge_order_is_not_echoed(capsys, tmp_path):
    path = tmp_path / "order.mat"
    path.write_text("9" * 4000 + "\n1\n", encoding="utf-8")
    assert run_command(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert "exceeds 2048" in captured.err
    assert "(4000 characters)" in captured.err
    assert len(captured.err) < 200


def test_parse_bounds_the_order_at_the_header_line(capsys, tmp_path):
    # MAX_ORDER admits H(4, 6), n = 1296; one more is refused at the header, before any row is read
    assert MAX_ORDER == 2048
    for parse in (parse_matrix, fraction_parse_matrix):
        assert parse_outcome(parse, "# c\n2048\nx\n") == (
            "error", 3, 1, "line 3, entry 1: expected '2048' data rows, found 1"
        )
        assert parse_outcome(parse, "# c\n2049\nx\n") == (
            "error", 2, 1, "line 2, entry 1: matrix order '2049' exceeds 2048"
        )
    path = tmp_path / "order.mat"
    path.write_text("2049\n1\n", encoding="utf-8")
    assert run_command(["scheme", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 1, entry 1: matrix order '2049' exceeds 2048\n"


@pytest.mark.parametrize(
    "header, message",
    [
        ("9" * 5000, "matrix order {} exceeds 2048"),
        ("+" + "9_9" * 2500, "matrix order {} exceeds 2048"),
        ("-" + "9" * 5000, "matrix order must be positive, found {}"),
        ("0" * 5000 + "2049", "matrix order {} exceeds 2048"),
        ("-" + "0" * 5000, "matrix order must be positive, found {}"),
        ("0" * 5000 + "2", "expected {} data rows, found 0"),
        ("9" * 5000 + ".", "expected matrix order, found {}"),
    ],
)
def test_parse_header_past_the_digit_limit_has_one_message(header, message):
    # the header is read the same way whatever the interpreter's int-to-str digit limit is
    text = header + "\n"
    expected = ("error", 1, 1, "line 1, entry 1: " + message.format(_shown(header)))
    previous = sys.get_int_max_str_digits()
    try:
        for limit in (0, 4300, 640):
            sys.set_int_max_str_digits(limit)
            assert parse_outcome(parse_matrix, text) == expected
            assert parse_outcome(fraction_parse_matrix, text) == expected
    finally:
        sys.set_int_max_str_digits(previous)


cli_tokens = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
    st.builds(lambda a, b: f"{a}.{b}", st.integers(-999, 999), st.integers(0, 999)),
    st.builds(lambda a, e: f"{a}e{e}", st.integers(-9, 9), st.integers(-30, 30)),
)


@st.composite
def cli_matrix_texts(draw):
    """A matrix file of order n <= 4 over a pool of at most three tokens; half
    the draws are circulants, so lambda-doubly stochastic ones reach every stage."""
    pool = draw(st.lists(cli_tokens, min_size=1, max_size=3))
    n = draw(st.integers(1, 4))
    row = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    if draw(st.booleans()):
        first = draw(row)
        grid = [[first[(y - x) % n] for y in range(n)] for x in range(n)]
    else:
        grid = draw(st.lists(row, min_size=n, max_size=n))
    return f"{n}\n" + "".join(" ".join(r) + "\n" for r in grid)


@given(st.one_of(st.text(), cli_matrix_texts()))
@settings(max_examples=150, deadline=None)
def test_file_commands_exit_0_1_or_2_on_any_parsed_text(tmp_path_factory, text):
    # exit 3 is a crash; `spectrum` is left out, as exit 3 is its documented
    # numeric failure (test_crash_is_internal_error_not_rejection)
    path = tmp_path_factory.mktemp("cli") / "any.mat"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    for command in ("analyze", "hoffman", "predistance", "scheme", "decompose"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command([command, str(path), "--json"])
        assert code in (0, 1, 2), (command, code, err.getvalue())
        for shown in (out.getvalue(), err.getvalue()):
            assert "internal error" not in shown and "Traceback" not in shown


def test_parse_serialize_roundtrip_on_fixtures(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.mat")):
        b = parse_matrix(path.read_text(encoding="utf-8"))
        assert parse_matrix(serialize_matrix(b)) == b


def fixture_path(fixtures_dir, name):
    return str(fixtures_dir / name)


def test_scheme_fig2_json(capsys, fixtures_dir):
    code = run_command(["scheme", fixture_path(fixtures_dir, "fig2.mat"), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "accepted"
    assert report["reason"] is None
    assert report["lambda"] == "1"
    assert report["d"] == 3 and report["D"] == 3
    assert report["hoffman"] == ["-2", "8", "-16", "16"]
    assert report["predistance"] == [
        ["1"],
        ["-2", "4"],
        ["2", "-8", "8"],
        ["-3", "12", "-24", "16"],
    ]
    assert len(report["classes"]) == 4
    assert report["classes"][0] == [
        [1 if i == j else 0 for j in range(6)] for i in range(6)
    ]
    assert report["transpose_map"] == [0, 2, 1, 3]
    assert report["intersection_numbers"][1][1] == [0, 0, 2, 0]
    # report JSON round-trips losslessly
    assert json.loads(json.dumps(report)) == report


def test_scheme_fig1_rejected(capsys, fixtures_dir):
    code = run_command(["scheme", fixture_path(fixtures_dir, "fig1.mat")])
    out = capsys.readouterr().out
    assert code == 1
    assert "rejected" in out
    assert "NOT_NORMAL" in out


def test_hoffman_fig1_text(capsys, fixtures_dir):
    code = run_command(["hoffman", fixture_path(fixtures_dir, "fig1.mat")])
    out = capsys.readouterr().out
    assert code == 0
    assert "q coefficients (ascending): 0 -32/243 8/27 -8/27 5/27 1/3 -1/3 1" in out
    assert "verification: h(B) = J holds exactly" in out


def test_hoffman_rejects_reducible(capsys, tmp_path):
    path = tmp_path / "id.mat"
    path.write_text(serialize_matrix(identity(3)), encoding="utf-8")
    code = run_command(["hoffman", str(path)])
    assert code == 1
    assert "irreducible" in capsys.readouterr().out


def test_analyze_exit_codes(capsys, fixtures_dir, tmp_path):
    assert run_command(["analyze", fixture_path(fixtures_dir, "fig2.mat")]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.mat"
    bad.write_text("2\n1 0\n1 1\n", encoding="utf-8")
    assert run_command(["analyze", str(bad)]) == 1
    assert "doubly stochastic: False" in capsys.readouterr().out


def test_predistance_fig2_json(capsys, fixtures_dir):
    code = run_command(["predistance", fixture_path(fixtures_dir, "fig2.mat"), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    section = report["predistance"]
    assert section["hoffman_sum_verified"] is True
    assert section["polynomials"][1] == ["-2", "4"]
    assert section["norms_squared"] == ["1", "2", "2", "1"]


@pytest.mark.parametrize("command", ["hoffman", "predistance", "scheme"])
def test_json_reports_format_no_text_lines(capsys, fixtures_dir, monkeypatch, command):
    """A --json run never builds the text lines: no polynomial is written in
    human form or as a coefficient line, and the text run still is."""
    from schemeforge.exact import Polynomial

    path = fixture_path(fixtures_dir, "fig2.mat")
    assert run_command([command, path]) == 0
    text = capsys.readouterr().out
    for attr in ("__str__", "coefficient_line"):
        monkeypatch.setattr(Polynomial, attr, lambda self: pytest.fail("text line built for a JSON report"))
    assert run_command([command, path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) and "lambda: 1" in text


@pytest.mark.parametrize(
    "command, name, classifications, minimal_polynomials",
    [
        ("analyze", "fig2.mat", 1, 0),
        ("predistance", "fig2.mat", 1, 1),
        ("predistance", "fig1.mat", 1, 0),  # the gate rejects before any power is taken
        ("scheme", "fig2.mat", 1, 1),
        ("hoffman", "fig2.mat", 1, 1),
        ("spectrum", "fig2.mat", 1, 1),
        # the directed 5-cycle: d = 4, so K = n = 5 and its start vector is cyclic
        ("spectrum", "cyclic_5.mat", 1, 1),
        ("hoffman", "cyclic_5.mat", 1, 1),
        ("predistance", "cyclic_5.mat", 1, 1),
        ("scheme", "cyclic_5.mat", 1, 1),
    ],
)
def test_pipeline_intermediates_per_command(
    capsys, fixtures_dir, monkeypatch, command, name, classifications, minimal_polynomials
):
    # each stage's own work is counted, not the calls that return its stored result
    from schemeforge import hoffman, matrix, predistance, stochastic

    calls = dict.fromkeys(
        (
            "classification",
            "candidate",
            "certificates",
            "gram_schmidt",
            "invariants",
            "products",
            "evaluations",
            "gram",
            "class_certificates",
        ),
        0,
    )

    def count(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(stochastic, "is_strongly_connected", "classification")
    count(hoffman, "_candidate", "candidate")  # one per prime tried; fig2 needs one
    count(MatrixPowerBasis, "combinations", "certificates")  # the one residue kernel of sum_k w_k C^k
    count(predistance, "lambda_avoiding_gram_schmidt", "gram_schmidt")
    count(predistance, "_assert_invariants", "invariants")
    count(matrix, "integer_product", "products")  # normality's two products
    count(MatrixPowerBasis, "evaluate", "evaluations")
    count(matrix, "_symmetric_crt", "gram")  # the Gram matrix's one CRT (hoffman binds its own name)
    count(MatrixPowerBasis, "evaluates_to", "class_certificates")  # every A_i = p_i(B) in one batch
    # run_command parses the file afresh, so its analysis context starts empty
    run_command([command, fixture_path(fixtures_dir, name), "--json"])
    capsys.readouterr()
    family = minimal_polynomials if command in ("predistance", "scheme") else 0
    # classify takes B B^T and B^T B; fig2's minimal polynomial has degree 4 and is
    # found on residues, and the predistance family reads C's powers only modulo
    # primes, so no other exact product is made and no p_i is evaluated at B;
    # the residue kernel certifies m(B) = 0 and h(B) = J, and for scheme all of
    # A_0..A_3 = p_i(B) in one more call; spectrum certifies m(B) = 0 alone, as
    # it takes no Hoffman polynomial. On the 5-cycle (K = n) m and h are
    # certified on the start vector, and only scheme's classes take the kernel
    if name == "cyclic_5.mat":
        kernel_calls = int(command == "scheme")
    else:
        kernel_calls = {"spectrum": 1, "scheme": 3}.get(command, 2) * minimal_polynomials
    assert calls == {
        "classification": classifications,
        "candidate": minimal_polynomials,
        "certificates": kernel_calls,
        "gram_schmidt": family,
        "invariants": family,
        "products": 2,
        "evaluations": 0,
        "gram": family,
        "class_certificates": 1 if command == "scheme" else 0,
    }


def test_failed_hoffman_sum_is_an_internal_error(capsys, fixtures_dir, monkeypatch):
    # past the gate sum_i p_i = h is a theorem, so a failed check in the stage is a crash, never a rejection
    from schemeforge import predistance

    monkeypatch.setattr(predistance, "verify_hoffman_sum", lambda family, hoffman: False)
    assert run_command(["predistance", fixture_path(fixtures_dir, "fig2.mat"), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("internal error: ArithmeticError: ")


def test_predistance_rejects_fig1(capsys, fixtures_dir):
    assert run_command(["predistance", fixture_path(fixtures_dir, "fig1.mat")]) == 1
    assert "normal" in capsys.readouterr().out


def test_decompose_fig2(capsys, fixtures_dir):
    code = run_command(["decompose", fixture_path(fixtures_dir, "fig2.mat"), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["decomposition"]["coefficients"] == ["1/4", "1/2"]


def test_decompose_rejects_negative_entries(capsys, tmp_path):
    path = tmp_path / "neg.mat"
    path.write_text("2\n0 -1\n-1 0\n", encoding="utf-8")
    assert run_command(["decompose", str(path)]) == 1
    assert "rejected" in capsys.readouterr().out


def test_spectrum_tolerance_flags(capsys, fixtures_dir):
    code = run_command(
        ["spectrum", fixture_path(fixtures_dir, "cyclic_6.mat"), "--tol", "1e-10", "--json"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["spectrum"]["eigenvalues"]) == 6


@pytest.mark.parametrize("flag", ["--tol", "--check-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
def test_spectrum_rejects_invalid_tolerance(capsys, fixtures_dir, flag, value):
    code = run_command(["spectrum", fixture_path(fixtures_dir, "fig2.mat"), f"{flag}={value}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance must be a finite nonnegative number" in captured.err


def test_spectrum_fig2_json(capsys, fixtures_dir):
    code = run_command(["spectrum", fixture_path(fixtures_dir, "fig2.mat"), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    section = report["spectrum"]
    assert len(section["eigenvalues"]) == 4
    assert section["perron"]["modulus_matches"] is True
    assert all(v < 1e-9 for v in section["idempotent_residuals"].values())


def test_spectrum_idempotent_residuals_at_degree_64(capsys, tmp_path):
    # the Lagrange form divides by products of 63 root gaps: its residuals read up to 1e11 here
    path = tmp_path / "gen_64_3_seed5.mat"
    assert run_command(["gen", "64", "3", "--seed", "5", "--out", str(path)]) == 0
    assert run_command(["spectrum", str(path), "--json"]) == 0
    section = json.loads(capsys.readouterr().out)["spectrum"]
    assert len(section["eigenvalues"]) == 64
    residuals = section["idempotent_residuals"]
    assert all(residuals[key] < 1e-9 for key in ("mutual", "sum", "reconstruction"))


def test_spectrum_lapack_failure_skips_the_idempotents(capsys, fixtures_dir, monkeypatch):
    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    code = run_command(["spectrum", fixture_path(fixtures_dir, "fig2.mat"), "--json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    section = json.loads(captured.out)["spectrum"]
    assert section["idempotent_residuals"] is None
    assert "Singular matrix" in section["idempotent_note"]
    assert len(section["eigenvalues"]) == 4


def test_spectrum_when_lambda_is_not_sorted_first(capsys, fixtures_dir):
    # every eigenvalue of the scaled directed 5-cycle has modulus lambda
    code = run_command(["spectrum", fixture_path(fixtures_dir, "cyclic_5.mat"), "--json"])
    assert code == 0
    section = json.loads(capsys.readouterr().out)["spectrum"]
    assert len(section["eigenvalues"]) == 5


@pytest.mark.parametrize("name", sorted(path.name for path in FIXTURES.glob("*.mat")))
@pytest.mark.parametrize(
    "command",
    [["analyze"], ["hoffman"], ["predistance"], ["scheme"], ["decompose"], ["spectrum", "--json"]],
)
def test_every_command_on_every_fixture(capsys, fixtures_dir, name, command):
    code = run_command([command[0], fixture_path(fixtures_dir, name), *command[1:]])
    assert code in (0, 1)
    assert "internal error" not in capsys.readouterr().err


def test_hoffman_json_after_an_unlucky_prime(capsys, tmp_path):
    # B = identity mod p, the first residue prime at order 2
    p = 2**26 - 5
    assert _prime(_bits(2), 0) == p
    path = tmp_path / "unlucky.mat"
    path.write_text(f"2\n1 {p}\n{p} 1\n", encoding="utf-8")
    assert run_command(["hoffman", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["hoffman"] == {
        "lambda": str(p + 1),
        "q": [str(p - 1), "1"],
        "h": [f"{p - 1}/{p}", f"1/{p}"],
        "verified": True,
    }


def test_reports_are_byte_deterministic(capsys, fixtures_dir):
    run_command(["scheme", fixture_path(fixtures_dir, "fig2.mat"), "--json"])
    first = capsys.readouterr().out
    run_command(["scheme", fixture_path(fixtures_dir, "fig2.mat"), "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_missing_file_is_input_error(capsys):
    assert run_command(["scheme", "does-not-exist.mat"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.mat"
    path.write_text("2\n1 0\noops oops\n", encoding="utf-8")
    assert run_command(["analyze", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_command_is_input_error(capsys):
    assert run_command(["frobnicate", "x.mat"]) == 2


def test_gen_roundtrip_and_determinism(capsys, tmp_path):
    out_path = tmp_path / "gen.mat"
    assert run_command(["gen", "5", "2", "--seed", "7", "--out", str(out_path)]) == 0
    text = out_path.read_text(encoding="utf-8")
    b = parse_matrix(text)
    from schemeforge.stochastic import classify, random_lambda_ds

    assert b == random_lambda_ds(5, 2, seed=7)
    assert classify(b).doubly_stochastic


def test_gen_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SCHEMEFORGE_SEED", "99")
    assert run_command(["gen", "4", "2"]) == 0
    via_env = capsys.readouterr().out
    assert run_command(["gen", "4", "2", "--seed", "99"]) == 0
    via_flag = capsys.readouterr().out
    # the comment line names the seed; matrices must agree
    assert via_env.splitlines()[1:] == via_flag.splitlines()[1:]
    monkeypatch.delenv("SCHEMEFORGE_SEED")
    assert run_command(["gen", "4", "2"]) == 0
    default_out = capsys.readouterr().out
    assert default_out.splitlines()[1:] != via_flag.splitlines()[1:]


def test_gen_rejects_out_of_range_seed(capsys):
    assert run_command(["gen", "4", "2", "--seed", str(2**64)]) == 2


@pytest.mark.parametrize(
    "order, terms", [("100000", "3"), ("513", "3"), ("4", "1001"), ("4", str(10**18))]
)
def test_gen_bounds_order_and_terms_before_building_anything(capsys, monkeypatch, order, terms):
    # the huge cases would build a 10^10-entry grid or loop for hours: never run them
    from schemeforge import cli

    def unreachable(*args):
        raise AssertionError("random_lambda_ds called past the bounds")

    monkeypatch.setattr(cli, "random_lambda_ds", unreachable)
    assert run_command(["gen", order, terms]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gen: order must be at most {cli.MAX_GEN_ORDER} and terms at most {cli.MAX_GEN_TERMS}\n"


def test_gen_accepts_the_bounds_themselves(capsys):
    from schemeforge import cli

    for order, terms in ((2, cli.MAX_GEN_TERMS), (cli.MAX_GEN_ORDER, 1)):
        assert run_command(["gen", str(order), str(terms)]) == 0
        assert parse_matrix(capsys.readouterr().out).order == order


def test_module_entry_point_runs(fixtures_dir):
    result = subprocess.run(
        [sys.executable, "-m", "schemeforge", "scheme", fixture_path(fixtures_dir, "fig2.mat")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "accepted" in result.stdout


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_quietly(fixtures_dir, unbuffered):
    # the read end is closed before the spawn, so every write fails: no race;
    # buffered, the report would otherwise first reach the pipe at interpreter exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "schemeforge", "scheme", fixture_path(fixtures_dir, "fig2.mat")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == b""


HUGE = "1" + "0" * 5000  # 10^5000, past the default int-to-str digit limit


def test_huge_entries_get_exact_reports(capsys, tmp_path):
    path = tmp_path / "huge.mat"
    path.write_text("2\n1e5000 1e5000\n1e5000 1e5000\n", encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    reports = {}
    for command in ("analyze", "hoffman", "scheme", "predistance", "decompose"):
        assert run_command([command, str(path), "--json"]) == 0, command
        reports[command] = json.loads(capsys.readouterr().out)
        assert sys.get_int_max_str_digits() == limit, command
    lam = "2" + "0" * 5000
    assert reports["analyze"]["classification"]["lambda"] == lam
    assert reports["hoffman"]["hoffman"] == {
        "lambda": lam,
        "q": ["0", "1"],
        "h": ["0", f"1/{HUGE}"],
        "verified": True,
    }
    assert reports["scheme"]["verdict"] == "accepted"
    assert (reports["scheme"]["d"], reports["scheme"]["D"]) == (1, 1)
    assert reports["predistance"]["predistance"]["polynomials"] == [["1"], ["-1", f"1/{HUGE}"]]
    assert reports["predistance"]["predistance"]["hoffman_sum_verified"] is True
    assert reports["decompose"]["decomposition"]["coefficients"] == [HUGE]
    path.write_text("2\n-1e5000 1\n1 1\n", encoding="utf-8")
    assert run_command(["decompose", str(path), "--json"]) == 1
    rejected = json.loads(capsys.readouterr().out)["decomposition"]["rejected"]
    assert rejected.endswith(f"entry (0, 0) is -{HUGE}")
    assert sys.get_int_max_str_digits() == limit


def test_integer_literal_past_the_digit_limit_parses(capsys, tmp_path):
    # 5000 digits is past Python's int-to-str limit, but 10^4999 is a decimal token's value too
    token = "1" + "0" * 4999
    limit = sys.get_int_max_str_digits()
    assert parse_matrix(f"1\n{token}\n") == parse_matrix("1\n1e4999\n") == RationalMatrix([[10**4999]])
    assert parse_matrix(f"1\n-1/{token}\n") == RationalMatrix([[Fraction(-1, 10**4999)]])
    assert sys.get_int_max_str_digits() == limit
    path = tmp_path / "long.mat"
    path.write_text(f"2\n{token} 1\n1 {token}\n", encoding="utf-8")
    assert run_command(["analyze", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"]["lambda"] == "1" + "0" * 4998 + "1"
    assert sys.get_int_max_str_digits() == limit


def test_oversized_integer_literal_is_input_error(capsys, tmp_path):
    long = "1" * (MAX_DIGITS + 1)
    path = tmp_path / "long.mat"
    path.write_text(f"2\n1 1\n3/{long} 1\n", encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    assert run_command(["analyze", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    token = "3/" + long
    shown = f"{token[:32]!r}... ({len(token)} characters)"
    assert captured.err == f"error: line 3, entry 1: {shown} has more than {MAX_DIGITS} digits in one part\n"
    assert len(captured.err) < 200
    assert sys.get_int_max_str_digits() == limit
    # a part of MAX_DIGITS digits is still read
    assert parse_matrix(f"1\n3/{long[1:]}\n") == RationalMatrix([[Fraction(27, 10**MAX_DIGITS - 1)]])


def test_max_digits_bound_holds_without_an_int_limit(tmp_path):
    # with the interpreter's int-to-str limit lifted, int() would read any length
    path = tmp_path / "long.mat"
    path.write_text("1\n" + "7" * 20000 + "\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "schemeforge", "analyze", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": "0"},
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: line 2, entry 1: ")
    assert result.stderr.endswith(f"(20000 characters) has more than {MAX_DIGITS} digits in one part\n")


@pytest.mark.parametrize("token", ["1e1000000000", "1e-1000000000"])
def test_oversized_exponent_is_input_error(capsys, tmp_path, token):
    # read by Fraction, either token alone is an integer of 3.3 billion bits
    path = tmp_path / "exponent.mat"
    path.write_text(f"2\n1 {token}\n1 1\n", encoding="utf-8")
    started = time.monotonic()
    assert run_command(["scheme", str(path)]) == 2
    assert time.monotonic() - started < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 2, entry 2: exponent of {token!r} exceeds 10000 in absolute value\n"


def test_parse_exponent_bound():
    assert parse_matrix("1\n1e10_000\n") == RationalMatrix([[10**10000]])
    assert parse_matrix("1\n1E-0010000\n") == RationalMatrix([[Fraction(1, 10**10000)]])
    for token in ("1e10001", "1e-1_0001", "0.5E+99999", "1e" + "0" * 40 + "10001"):
        with pytest.raises(MatrixParseError, match="exceeds 10000"):
            parse_matrix(f"1\n{token}\n")


def test_crash_is_internal_error_not_rejection(capsys, tmp_path):
    # entries past the float range: the numeric sidecar's float() overflows
    path = tmp_path / "overflow.mat"
    path.write_text("2\n1e400 1e400\n1e400 1e400\n", encoding="utf-8")
    assert run_command(["spectrum", str(path), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "internal error: OverflowError: integer division result too large for a float"
    ]
    assert "Traceback" not in captured.err


def test_spectrum_without_convergence_is_not_a_rejection(capsys, tmp_path):
    path = tmp_path / "g28.mat"
    assert run_command(["gen", "28", "2", "--seed", "1", "--out", str(path)]) == 0
    assert run_command(["spectrum", str(path), "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["spectrum"]["eigenvalues"]) == 28
    # no float root meets this bound: a numeric failure of the sidecar, never a rejection
    assert run_command(["spectrum", str(path), "--json", "--tol", "1e-300"]) == 3
    captured = capsys.readouterr()
    section = json.loads(captured.out)["spectrum"]
    assert section["error"] == "residual above tol"
    assert len(section["residuals"]) == 28
    assert captured.err.splitlines() == ["error: spectrum root residual above --tol"]


def test_spectrum_overflow_writes_only_its_error_line(tmp_path):
    # (3^40 / 7) (10^30 I + P_9) with the last four diagonal entries zeroed: the
    # float coefficients of m overflow in the Newton step and the residuals;
    # numpy's warnings would go to stderr ahead of the one error line
    n, content = 9, Fraction(3**40, 7)
    rows = [[content * (10**30 * (x == y < 5) + (y == (x + 1) % n)) for y in range(n)] for x in range(n)]
    path = tmp_path / "overflow.mat"
    path.write_text(serialize_matrix(RationalMatrix(rows)), encoding="utf-8")
    for extra in ([], ["--json"]):
        result = subprocess.run(
            [sys.executable, "-m", "schemeforge", "spectrum", str(path), *extra],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 3
        assert result.stderr == "error: spectrum root residual above --tol\n"


@pytest.mark.parametrize(
    "order, terms, seed",
    [(20, 2, 1), (20, 4, 1), (20, 5, 1), (24, 4, 3), (24, 5, 3), (28, 2, 1), (28, 2, 2), (28, 4, 1)],
)
def test_spectrum_of_random_draws(capsys, tmp_path, order, terms, seed):
    path = tmp_path / "draw.mat"
    assert run_command(["gen", str(order), str(terms), "--seed", str(seed), "--out", str(path)]) == 0
    assert run_command(["spectrum", str(path), "--json"]) == 0
    section = json.loads(capsys.readouterr().out)["spectrum"]
    values = [complex(z["re"], z["im"]) for z in section["eigenvalues"]]
    b = random_lambda_ds(order, terms, seed)
    assert len(values) == minimal_polynomial(b).degree
    assert sorted((z.real, z.imag) for z in values) == sorted((z.real, -z.imag) for z in values)
    lam = float(classify(b).lam)
    assert values[0].imag == 0 and abs(values[0].real - lam) < 1e-9 * lam


@given(st.integers(1, 30), st.integers(1, 5), st.integers(0, 2**64 - 1))
@settings(max_examples=20, deadline=None)
def test_spectrum_exits_0_with_one_eigenvalue_per_degree(order, terms, seed):
    b = random_lambda_ds(order, terms, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "draw.mat")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_matrix(b))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_command(["spectrum", path, "--json"]) == 0
    eigenvalues = json.loads(out.getvalue())["spectrum"]["eigenvalues"]
    assert len(eigenvalues) == minimal_polynomial(b).degree


def test_directory_as_input_is_input_error(capsys, tmp_path):
    assert run_command(["scheme", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_undecodable_input_is_input_error(capsys, tmp_path):
    path = tmp_path / "binary.mat"
    path.write_bytes(b"2\n1 0\n0 \xff\n")
    assert run_command(["scheme", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err and err.count("\n") == 1


def test_gen_out_to_a_directory_is_input_error(capsys, tmp_path):
    assert run_command(["gen", "4", "2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
