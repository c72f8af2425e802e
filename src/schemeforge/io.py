"""Matrix file parsing and exact serialization.

File format: '#' comment lines anywhere, then the order n on its own line,
then n rows of n whitespace-separated tokens. Tokens are integers ("2"),
fractions ("1/3"), or decimals ("0.25", "1e-3"); decimals convert exactly,
never through a float. A decimal exponent above MAX_EXPONENT in absolute
value is an input error: 1e1000000 alone is a 3.3-million-bit integer.

Signed integers and p/q in ASCII digits, the tokens of almost every file,
are read with int() and go straight into the cleared integers of the
matrix under one common denominator; every other token (underscores,
other digits, decimals, exponents, p/0) is read by Fraction as before.
Both paths accept the same tokens, give the same values and raise the same
errors. Each part of such a token may have up to MAX_DIGITS digits, as
many as 10^MAX_EXPONENT, which a decimal token may already reach: a part
past Python's int-to-str digit limit (4300 by default) is read with that
limit lifted for its own int() call, and a longer part is an input error.
The length is measured only once int() has refused a part, so an
interpreter run with a higher limit, or none, reads what it allows.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm

from .matrix import RationalMatrix


class MatrixParseError(ValueError):
    """Malformed matrix file; carries 1-based line and token positions."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, entry {column}: {message}")


MAX_EXPONENT = 10_000
# the most digits in one part of a signed integer or p/q token: 10^MAX_EXPONENT has MAX_EXPONENT + 1
MAX_DIGITS = MAX_EXPONENT + 1
# the exponent of a decimal token, written as Fraction reads it: sign, digits, underscores
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\Z")


def _exponent_too_large(token: str) -> bool:
    match = _EXPONENT.search(token)
    if match is None:
        return False
    digits = match.group(1).replace("_", "").lstrip("0")
    return len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT


def _shown(token: str) -> str:
    """repr of a token for an error line; a long token is cut to 32 characters plus its length."""
    if len(token) <= 32:
        return repr(token)
    return f"{token[:32]!r}... ({len(token)} characters)"


# a signed integer or p/q in ASCII digits: int() reads its digits exactly as Fraction does
_PLAIN = re.compile(r"([-+]?)([0-9]+)(?:/([0-9]+))?")


class _TooManyDigits(ValueError):
    """A part of a _PLAIN token has more than MAX_DIGITS digits."""


def _long_parts(*parts: str) -> list[int]:
    """The parts of a _PLAIN token that int() refused at the int-to-str digit
    limit, read with the limit lifted when each has at most MAX_DIGITS digits."""
    if max(map(len, parts)) > MAX_DIGITS:
        raise _TooManyDigits
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return [int(part) for part in parts]
    finally:
        sys.set_int_max_str_digits(previous)


def _plain_entry(match: re.Match) -> tuple[int, int]:
    """(numerator, denominator) of a _PLAIN token; ZeroDivisionError for p/0, as Fraction raises."""
    sign, num, den = match.groups()
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # ASCII digits: only the int-to-str digit limit refuses them
        num, den = _long_parts(num, den or "1")
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    return (-num if sign == "-" else num), den


def parse_matrix(text: str) -> RationalMatrix:
    data: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data.append((lineno, stripped))
    if not data:
        raise MatrixParseError("no matrix data found", 1, 1)
    header_line, header = data[0]
    try:
        n = int(header)
    except ValueError:
        raise MatrixParseError(f"expected matrix order, found {_shown(header)}", header_line, 1) from None
    if n <= 0:
        raise MatrixParseError(
            f"matrix order must be positive, found {_shown(header)}", header_line, 1
        )
    body = data[1:]
    if len(body) != n:
        where = body[-1][0] if body else header_line
        raise MatrixParseError(f"expected {_shown(header)} data rows, found {len(body)}", where, 1)
    nums: list[int] = []
    dens: list[int] = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixParseError(f"expected {n} entries, found {len(tokens)}", lineno, len(tokens))
        for col, token in enumerate(tokens, start=1):
            plain = _PLAIN.fullmatch(token)
            if plain is None and _exponent_too_large(token):
                raise MatrixParseError(
                    f"exponent of {_shown(token)} exceeds {MAX_EXPONENT} in absolute value", lineno, col
                )
            try:
                if plain is not None:
                    num, den = _plain_entry(plain)
                else:
                    value = Fraction(token)
                    num, den = value.numerator, value.denominator
            except _TooManyDigits:
                raise MatrixParseError(
                    f"{_shown(token)} has more than {MAX_DIGITS} digits in one part", lineno, col
                ) from None
            except (ValueError, ZeroDivisionError):
                raise MatrixParseError(f"cannot parse entry {_shown(token)}", lineno, col) from None
            nums.append(num)
            dens.append(den)
    # one common denominator; _cleared reduces it to the lowest terms RationalMatrix(rows) keeps
    den = lcm(*dens)
    return RationalMatrix._cleared(den, [v * (den // d) for v, d in zip(nums, dens)], n)


def serialize_matrix(b: RationalMatrix, comment: str | None = None) -> str:
    """Matrix file text that parse_matrix maps back to the same matrix."""
    lines: list[str] = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(str(b.order))
    for row in b.rows:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def poly_coefficients(p) -> list[str]:
    """Ascending coefficient list in report form ("p/q", or "p" for integers)."""
    return [str(c) for c in p.coeffs]


def zero_one_grid(b: RationalMatrix) -> list[list[int]]:
    """Row-major 0/1 grid for indicator matrices."""
    return [[int(v) for v in row] for row in b.rows]
