"""Matrix file parsing and exact serialization.

File format: '#' comment lines anywhere, then the order n on its own line,
then n rows of n whitespace-separated tokens. Tokens are integers ("2"),
fractions ("1/3"), or decimals ("0.25", "1e-3"); decimals convert exactly,
never through a float. A decimal exponent above MAX_EXPONENT in absolute
value is an input error: 1e1000000 alone is a 3.3-million-bit integer.
An order above MAX_ORDER is refused at the header line, before any row is
read: a `scheme` run at n = 1296 already peaks near 520 MB. The header's
message depends neither on its length nor on the int-to-str digit limit.

Each distinct token of a file is read once, in order of first occurrence,
and the entries are filled in by lookup, so a file of a few distinct values
costs one split and one lookup per entry. When the distinct tokens are all
signed integers in ASCII digits, one regex search for the first token that
is not finds none and int() reads them; otherwise signed integers and p/q
in ASCII digits are read with int(), and every other token (underscores,
other digits, decimals, exponents, p/0) by Fraction. Both paths accept the
same tokens, give the same values and raise the same errors, at the first
bad token in row-major order. Each part of a signed integer or p/q token may have up to
MAX_DIGITS digits, as many as 10^MAX_EXPONENT, which a decimal token may
already reach. The length of each part is checked before int() reads it,
so the bound holds whatever the interpreter's int-to-str digit limit is; a
part past that limit (4300 digits by default) is read with the limit
lifted for its own int() call.
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
MAX_ORDER = 2048
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
# in "\n" + the newline join of the distinct tokens, the newline before the first token that is
# not a signed integer of at most MAX_DIGITS ASCII digits
_NOT_INTEGER = re.compile(rf"\n(?![-+]?[0-9]{{1,{MAX_DIGITS}}}(?:\n|\Z))")


class _BadToken(ValueError):
    """A token that is not a matrix entry; the message names it, without its position."""

    def __init__(self, token: str, message: str):
        self.token = token
        super().__init__(message)


def _long_int(part: str) -> int:
    """int(part) for a part of at most MAX_DIGITS ASCII digits, with the
    int-to-str digit limit lifted for this call only."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(part)
    finally:
        sys.set_int_max_str_digits(previous)


def _entry(token: str) -> tuple[int, int]:
    """(numerator, denominator) of one token, with the denominator positive; _BadToken otherwise."""
    plain = _PLAIN.fullmatch(token)
    if plain is None:
        if _exponent_too_large(token):
            raise _BadToken(token, f"exponent of {_shown(token)} exceeds {MAX_EXPONENT} in absolute value")
        try:
            value = Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise _BadToken(token, f"cannot parse entry {_shown(token)}") from None
        return value.numerator, value.denominator
    sign, *parts = plain.groups()
    parts = [part or "1" for part in parts]
    if max(map(len, parts)) > MAX_DIGITS:
        raise _BadToken(token, f"{_shown(token)} has more than {MAX_DIGITS} digits in one part")
    try:
        num, den = map(int, parts)
    except ValueError:  # ASCII digits: only the int-to-str digit limit refuses them
        num, den = map(_long_int, parts)
    if den == 0:  # p/0, which Fraction refuses too
        raise _BadToken(token, f"cannot parse entry {_shown(token)}")
    return (-num if sign == "-" else num), den


def _cleared_values(tokens: list[str]) -> tuple[int, list[int]]:
    """(den, [den * value of each token]) for distinct tokens, den the lcm of their denominators.

    When every token is a signed integer of at most MAX_DIGITS digits, one
    regex search for the first token that is not finds none, and int()
    reads them all; the search stops at the first such token. Otherwise
    each token is read on its own, in the given order, so the first bad
    one raises.
    """
    if _NOT_INTEGER.search("\n" + "\n".join(tokens)) is None:
        try:
            return 1, list(map(int, tokens))
        except ValueError:  # a token past the int-to-str digit limit
            pass
    entries = [_entry(token) for token in tokens]
    den = lcm(*(d for _, d in entries))
    return den, [v * (den // d) for v, d in entries]


def parse_matrix(text: str) -> RationalMatrix:
    """The matrix of a file's text; MatrixParseError at the first fault's line and entry.

    Each distinct token is read once, in order of first occurrence, so the
    first bad token in row-major order is the one reported; the entries are
    then filled in by lookup.
    """
    data: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data.append((lineno, stripped))
    if not data:
        raise MatrixParseError("no matrix data found", 1, 1)
    header_line, header = data[0]
    match = re.fullmatch(r"([-+]?)(\d+(?:_\d+)*)", header)  # the headers int() reads
    if match is None:
        raise MatrixParseError(f"expected matrix order, found {_shown(header)}", header_line, 1)
    sign, digits = match.groups()
    digits = digits.replace("_", "")
    # int() reads at most the last len(str(MAX_ORDER)) digits, so the interpreter's
    # int-to-str digit limit cannot change the message
    width = len(str(MAX_ORDER))
    n = MAX_ORDER + 1 if any(map(int, digits[:-width])) else int(digits[-width:])
    n = -n if sign == "-" else n
    if n <= 0:
        raise MatrixParseError(
            f"matrix order must be positive, found {_shown(header)}", header_line, 1
        )
    if n > MAX_ORDER:
        raise MatrixParseError(f"matrix order {_shown(header)} exceeds {MAX_ORDER}", header_line, 1)
    body = data[1:]
    if len(body) != n:
        where = body[-1][0] if body else header_line
        raise MatrixParseError(f"expected {_shown(header)} data rows, found {len(body)}", where, 1)
    tokens: list[str] = []
    ragged = None  # (line, entries) of the first row of the wrong length
    for lineno, line in body:
        row = line.split()
        if len(row) != n:
            ragged = lineno, len(row)
            break
        tokens += row
    distinct = list(dict.fromkeys(tokens))
    try:
        den, values = _cleared_values(distinct)
    except _BadToken as exc:
        k = tokens.index(exc.token)
        raise MatrixParseError(str(exc), body[k // n][0], k % n + 1) from None
    if ragged is not None:
        lineno, found = ragged
        raise MatrixParseError(f"expected {n} entries, found {found}", lineno, found)
    if len(distinct) < len(tokens):  # otherwise the values are in row-major order already
        values = list(map(dict(zip(distinct, values)).__getitem__, tokens))
    return RationalMatrix._scaled(Fraction(1, den), values, n)


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
