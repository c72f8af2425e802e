"""Command-line interface.

Exit codes: 0 for success or an accepted certificate, 1 for a mathematical
rejection (failed hypotheses, rejected scheme), 2 for input errors (bad
arguments, a malformed matrix, a file that cannot be read as UTF-8 text or
written), 3 for an internal error (any other exception, reported as one stderr line
"internal error: <Type>: <first line of message>", never a traceback) and
for a numeric failure of the `spectrum` sidecar (a root whose relative
residual exceeds `--tol`: the report with the residuals still goes to
stdout, plus one stderr line), and 141 (128 + SIGPIPE) with nothing on
stderr when stdout is closed before the report is written, as in `| head`. That split lets
shell pipelines tell "the matrix is not a scheme" apart from "the file is
broken" and from a crash.

Reports print every rational exactly, however many digits it has: Python's
int-to-str digit limit is lifted while a report is built and written, and
only then, so parsing still rejects oversized integer literals. A --json
report is byte for byte json.dumps(report, indent=2), written by
`_report_json`, which joins each list of plain ints in one step, lays out
each integer array in one join and hands every subtree with neither to
one json.dumps: the class grids and the intersection tensor, handed over
as arrays, are almost all of a scheme report, and indent turns json's C
encoder off. The argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import Iterable

import numpy as np

from . import io
from .hoffman import hoffman_polynomial, minimal_polynomial
from .matrix import RationalMatrix
from .predistance import predistance_basis
from .scheme import detect_scheme
from .spectral import (
    ASSERTION_TOL,
    RESIDUAL_TOL,
    RootConvergenceError,
    SpectrumDegeneracyError,
    idempotents,
    perron_check,
    roots,
)
from .stochastic import (
    HypothesisError,
    MatrixClassification,
    classify,
    entry_decomposition,
    random_lambda_ds,
)

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer killed by it

DEFAULT_SEED = 0
SEED_ENV_VAR = "SCHEMEFORGE_SEED"
# gen builds all n^2 exact entries before it writes any: at n = 512 that is
# about 40 MB and a 0.5 MB file, already past what the analysis commands take
MAX_GEN_ORDER = 512
# each term adds one permutation matrix, n entry updates: 1000 terms at the
# largest order take a few seconds
MAX_GEN_TERMS = 1000


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _tolerance_value(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError("tolerance must be a finite nonnegative number")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="schemeforge",
        description="Exact analysis of lambda-doubly stochastic rational matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def file_command(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="matrix file")
        cmd.add_argument("--json", action="store_true", help="emit a JSON report")
        return cmd

    file_command("analyze", "classify the matrix (nonnegativity, lambda, normality, irreducibility)")
    file_command("hoffman", "compute and verify the Hoffman polynomial")
    file_command("predistance", "compute the predistance polynomial basis")
    file_command("scheme", "decide whether the matrix generates a commutative association scheme")
    file_command("decompose", "split the matrix over its distinct positive entries")
    spectrum = file_command("spectrum", "numeric eigenvalues, idempotents, Perron report")
    spectrum.add_argument(
        "--tol", type=_tolerance_value, default=RESIDUAL_TOL, help="bound on each root's relative residual"
    )
    spectrum.add_argument(
        "--check-tol", type=_tolerance_value, default=ASSERTION_TOL, help="tolerance for invariant checks"
    )
    gen = sub.add_parser("gen", help="generate a random lambda-doubly stochastic matrix")
    gen.add_argument(
        "order",
        type=int,
        help=f"matrix order n, at most {MAX_GEN_ORDER}: all n^2 exact entries are built in memory",
    )
    gen.add_argument(
        "terms",
        type=int,
        help=f"number of permutation terms k, at most {MAX_GEN_TERMS}: each term costs n entry updates",
    )
    gen.add_argument("--seed", type=_seed_value, default=None, help="64-bit unsigned seed")
    gen.add_argument("--out", default=None, help="output file (default: stdout)")
    return parser


class InputFileError(Exception):
    """A file named on the command line cannot be read as text or written."""


def _load_matrix(path: str) -> RationalMatrix:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputFileError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{path!r} is not UTF-8 text: {exc}") from None
    return io.parse_matrix(text)


@contextlib.contextmanager
def _exact_digits():
    """Lift the int-to-str digit limit for the enclosed report code only."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _grid_json(grid: np.ndarray, indent: str) -> str:
    """json.dumps(grid.tolist(), indent=2) at `indent`, for an integer array
    with at least one axis and no empty one, laid out by one join.

    The text between two leaves depends only on how many axes end at the
    first of them: a comma and a new line if none does, and for e >= 1
    the e lists to close, a comma, and e lists to open. Each distinct value
    is written once, with each of those separators after it, and every
    leaf's piece is read from that table.
    """
    k = grid.ndim
    levels = [indent + "  " * t for t in range(k + 1)]
    separators = []
    for e in range(k + 1):
        close = "".join(f"\n{levels[t - 1]}]" for t in range(k, k - e, -1))
        opened = "".join(f"[\n{levels[t]}" for t in range(k - e + 1, k + 1))
        separators.append(close if e == k else f"{close},\n{levels[k - e]}{opened}")
    low, high = int(grid.min()), int(grid.max())
    if low >= 0 and high < grid.size:  # counts and 0/1 grids: each value indexes the table
        values, index = range(high + 1), grid.astype(np.intp)
    else:
        values, index = np.unique(grid, return_inverse=True)
        values, index = values.tolist(), index.reshape(grid.shape)
    texts = list(map(int.__repr__, values))
    # a leaf that ends e axes takes the piece with separator e: add e len(texts) to its index
    for e in range(1, k + 1):
        index[(Ellipsis,) + (-1,) * e] += len(texts)
    table = np.array([text + separator for separator in separators for text in texts], dtype=object)
    opened = "".join(f"[\n{levels[t]}" for t in range(1, k + 1))
    return opened + "".join(table[index.ravel()].tolist())


def _report_json(value, indent: str = "") -> str:
    """json.dumps(value, indent=2) for a value nested at `indent`, laid out here.

    json.dumps turns its C encoder off whenever indent is set, and its
    Python encoder writes each int of a list on a line of its own. So the
    writer lays out itself only the paths down to a list of plain ints
    (bools excluded), which is one str.join, or to a numpy array. Every
    other subtree, a leaf included, is one json.dumps(v, indent=2), its
    later lines shifted by `indent`.
    """
    text = _layout(value, indent)
    return _dumps(value, indent) if text is None else text


def _dumps(value, indent: str) -> str:
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


_LEAF_TYPES = {str, int, float, bool, type(None)}


def _layout(value, indent: str):
    """The text of `value` at `indent` when it holds a list of plain ints or a
    numpy array, and None when json.dumps lays it out alone.

    A numpy integer array stands for its tolist(): a nonempty one is laid
    out by `_grid_json`, in one join. Dicts with str keys, lists and tuples
    are laid out as json.dumps lays them out; an empty dict or one with
    other keys is left to json.dumps.
    """
    inner = indent + "  "
    if isinstance(value, np.ndarray):
        if value.ndim and value.size and value.dtype.kind in "iu":
            return _grid_json(value, indent)
        return _report_json(value.tolist(), indent)
    if isinstance(value, (list, tuple)):
        if value and set(map(type, value)) == {int}:  # plain ints only, no bools
            return f"[\n{inner}" + f",\n{inner}".join(map(int.__repr__, value)) + f"\n{indent}]"
        children, brackets = value, "[]"
    elif isinstance(value, dict):
        children, brackets = value.values(), "{}"
    else:
        return None
    if set(map(type, children)) <= _LEAF_TYPES:
        return None
    if brackets == "{}" and not all(isinstance(k, str) for k in value):
        return None
    texts = [_layout(v, inner) for v in children]
    if all(text is None for text in texts):
        return None
    items = [_dumps(v, inner) if text is None else text for v, text in zip(children, texts)]
    if brackets == "{}":
        items = [f"{json.dumps(k)}: {item}" for k, item in zip(value, items)]
    separator = ",\n" + inner
    return f"{brackets[0]}\n{inner}{separator.join(items)}\n{indent}{brackets[1]}"


def _emit(report: dict, as_json: bool, lines: Iterable[str]) -> None:
    """Print the report as JSON, or else the text lines: a generator of lines
    is never run for a JSON report."""
    if as_json:
        print(_report_json(report))
    else:
        for line in lines:
            print(line)


def _classification_report(cls) -> dict:
    return {
        "order": cls.order,
        "nonnegative": cls.nonnegative,
        "lambda": str(cls.lam) if cls.lam is not None else None,
        "doubly_stochastic": cls.doubly_stochastic,
        "normal": cls.normal,
        "irreducible": cls.irreducible,
    }


def _cmd_analyze(args) -> int:
    b = _load_matrix(args.file)
    cls = classify(b)
    with _exact_digits():
        report = {"classification": _classification_report(cls)}
        lam = str(cls.lam) if cls.lam is not None else "none"
        _emit(
            report,
            args.json,
            [
                f"order: {cls.order}",
                f"nonnegative: {cls.nonnegative}",
                f"lambda: {lam}",
                f"doubly stochastic: {cls.doubly_stochastic}",
                f"normal: {cls.normal}",
                f"irreducible: {cls.irreducible}",
            ],
        )
    return EXIT_OK if cls.hoffman_ready else EXIT_REJECTED


def _cmd_hoffman(args) -> int:
    b = _load_matrix(args.file)
    try:
        info = hoffman_polynomial(b)
    except HypothesisError as exc:
        _emit({"hoffman": {"rejected": exc.hypothesis}}, args.json, [f"rejected: {exc.hypothesis}"])
        return EXIT_REJECTED
    with _exact_digits():
        report = {
            "hoffman": {
                "lambda": str(info.lam),
                "q": io.poly_coefficients(info.q),
                "h": io.poly_coefficients(info.h),
                "verified": True,
            }
        }
        _emit(report, args.json, _hoffman_lines(info))
    return EXIT_OK


def _hoffman_lines(info):
    yield f"lambda: {info.lam}"
    yield f"h(t) = {info.h}"
    yield f"h coefficients (ascending): {info.h.coefficient_line()}"
    yield f"q coefficients (ascending): {info.q.coefficient_line()}"
    yield "verification: h(B) = J holds exactly"


def _cmd_predistance(args) -> int:
    b = _load_matrix(args.file)
    try:
        family = predistance_basis(b)
    except HypothesisError as exc:
        _emit(
            {"predistance": {"rejected": exc.hypothesis}}, args.json, [f"rejected: {exc.hypothesis}"]
        )
        return EXIT_REJECTED
    with _exact_digits():
        report = {
            "predistance": {
                "lambda": str(family.lam),
                "polynomials": [io.poly_coefficients(p) for p in family.polys],
                "norms_squared": [str(v) for v in family.norms_sq],
                "hoffman_sum_verified": True,
            }
        }
        _emit(report, args.json, _predistance_lines(family))
    return EXIT_OK


def _predistance_lines(family):
    yield f"lambda: {family.lam}"
    yield f"d: {family.d}"
    for i, p in enumerate(family.polys):
        yield f"p_{i}(t) = {p}"
        yield f"  coefficients (ascending): {p.coefficient_line()}"
        yield f"  p_{i}(lambda) = {family.norms_sq[i]}"
    yield "hoffman sum: verified"


def _scheme_report(b: RationalMatrix, cls: MatrixClassification, certificate) -> dict:
    # h and the family come from B's context: whatever detect_scheme built is not rebuilt
    hoffman_coeffs = None
    predistance_polys = None
    if cls.hoffman_ready:
        hoffman_coeffs = io.poly_coefficients(hoffman_polynomial(b).h)
        if cls.normal:
            predistance_polys = [io.poly_coefficients(p) for p in predistance_basis(b).polys]
    report = {
        "verdict": "accepted" if certificate.accepted else "rejected",
        "reason": certificate.reason.describe() if certificate.reason else None,
        "lambda": str(cls.lam) if cls.lam is not None else None,
        "d": certificate.d,
        "D": certificate.diameter,
        "hoffman": hoffman_coeffs,
        "predistance": predistance_polys,
        # the class grids and the tensor as arrays: the writer lays out each in one join
        "classes": (
            (certificate.labels == np.arange(certificate.d + 1)[:, None, None]).astype(np.int8)
            if certificate.labels is not None
            else None
        ),
        "intersection_numbers": (
            np.array(certificate.intersection_tensor) if certificate.intersection_tensor else None
        ),
        "transpose_map": (
            list(certificate.transpose_perm) if certificate.transpose_perm else None
        ),
    }
    return report


def _cmd_scheme(args) -> int:
    b = _load_matrix(args.file)
    cls = classify(b)
    certificate = detect_scheme(b)
    with _exact_digits():
        report = _scheme_report(b, cls, certificate)
        _emit(report, args.json, _scheme_lines(report, certificate))
    return EXIT_OK if certificate.accepted else EXIT_REJECTED


def _scheme_lines(report: dict, certificate):
    yield f"verdict: {report['verdict']}"
    if certificate.reason is not None:
        yield f"reason: {certificate.reason.describe()}"
    if report["lambda"] is not None:
        yield f"lambda: {report['lambda']}"
    if certificate.d is not None:
        yield f"d: {certificate.d}  D: {certificate.diameter}"
    if certificate.accepted:
        yield f"classes: {certificate.d + 1}"
        for i, p in enumerate(certificate.generator_polynomials):
            yield f"p_{i}(t) = {p}"
        yield f"transpose map: {list(certificate.transpose_perm)}"
        yield "intersection numbers (A_i A_j = sum_h p[h] A_h):"
        for i, plane in enumerate(certificate.intersection_tensor):
            for j, row in enumerate(plane):
                yield f"  ({i},{j}): {list(row)}"


def _cmd_decompose(args) -> int:
    b = _load_matrix(args.file)
    with _exact_digits():  # a rejection names the offending entry
        try:
            decomposition = entry_decomposition(b)
        except ValueError as exc:
            _emit({"decomposition": {"rejected": str(exc)}}, args.json, [f"rejected: {exc}"])
            return EXIT_REJECTED
        report = {
            "decomposition": {
                "coefficients": [str(c) for c in decomposition.coefficients],
                "indicators": [f.entries.tolist() for f in decomposition.indicators],
            }
        }
        lines = [f"distinct positive entries: {len(decomposition.coefficients)}"]
        for c, f in zip(decomposition.coefficients, decomposition.indicators):
            lines.append(f"coefficient {c}: {int(f.entries.sum())} positions")
        _emit(report, args.json, lines)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    b = _load_matrix(args.file)
    try:
        spectrum = roots(minimal_polynomial(b), tol=args.tol)
    except RootConvergenceError as exc:
        # a numeric failure of the sidecar, not a verdict on the matrix
        _emit(
            {"spectrum": {"error": "residual above tol", "residuals": list(exc.residuals)}},
            args.json,
            [f"root residual above --tol; residuals {list(exc.residuals)}"],
        )
        print("error: spectrum root residual above --tol", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    section: dict = {
        "eigenvalues": [{"re": z.real, "im": z.imag} for z in spectrum.eigenvalues],
        "residuals": list(spectrum.residuals),
    }
    lines = ["eigenvalues:"]
    for z, r in zip(spectrum.eigenvalues, spectrum.residuals):
        lines.append(f"  {z.real:+.12f} {z.imag:+.12f}i   |m| residual {r:.3e}")
    if classify(b).hoffman_ready:
        report_perron = perron_check(b, spectrum, tol=args.check_tol)
        section["perron"] = {
            "lambda": report_perron.lam,
            "max_modulus": report_perron.max_modulus,
            "modulus_matches": report_perron.modulus_matches,
            "perron_simple": report_perron.perron_simple,
        }
        lines.append(
            f"perron: modulus_matches={report_perron.modulus_matches} simple={report_perron.perron_simple}"
        )
    try:
        family = idempotents(b, spectrum, tol=args.check_tol)
        section["idempotent_residuals"] = family.residuals
        lines.append(
            "idempotent residuals: "
            + " ".join(f"{k}={v:.3e}" for k, v in family.residuals.items())
        )
    except SpectrumDegeneracyError as exc:
        section["idempotent_residuals"] = None
        section["idempotent_note"] = str(exc)
        lines.append(f"idempotents skipped: {exc}")
    _emit({"spectrum": section}, args.json, lines)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.order < 1 or args.terms < 1:
        print("gen: order and terms must be positive", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.order > MAX_GEN_ORDER or args.terms > MAX_GEN_TERMS:
        print(f"gen: order must be at most {MAX_GEN_ORDER} and terms at most {MAX_GEN_TERMS}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        try:
            seed = _seed_value(env) if env is not None else DEFAULT_SEED
        except (argparse.ArgumentTypeError, ValueError):
            print(f"gen: invalid {SEED_ENV_VAR} value {env!r}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    b = random_lambda_ds(args.order, args.terms, seed)
    text = io.serialize_matrix(b, comment=f"random lambda-DS matrix n={args.order} k={args.terms} seed={seed}")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputFileError(str(exc)) from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


_HANDLERS = {
    "analyze": _cmd_analyze,
    "hoffman": _cmd_hoffman,
    "predistance": _cmd_predistance,
    "scheme": _cmd_scheme,
    "decompose": _cmd_decompose,
    "spectrum": _cmd_spectrum,
    "gen": _cmd_gen,
}


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT_ERROR
    handler = _HANDLERS[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early: exit quietly, with the final flush going nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (InputFileError, io.MatrixParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        first_line = next(iter(str(exc).splitlines()), "")
        print(f"internal error: {type(exc).__name__}: {first_line}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
