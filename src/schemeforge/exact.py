"""Exact rational scalars, the polynomial value type, and synthetic division.

Rationals are stdlib ``fractions.Fraction`` values, which already maintain
the canonical form we need (reduced, positive denominator, 0 == 0/1).
`Polynomial` is the value the stages return and the reports print: its
ascending Fraction coefficients, degree, equality and display forms. It
has no arithmetic; the stages work on integer coefficient lists and
residues (see `matrix`), and build a Polynomial only for their results.
`divide_linear` divides a coefficient list by (t - root).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class Polynomial:
    """Dense univariate polynomial over Fraction, coefficients ascending: a value, with no arithmetic.

    Immutable. Trailing zero coefficients are stripped on construction; the
    zero polynomial stores an empty tuple and reports degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]  # a Fraction is kept as is
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def coefficient_line(self) -> str:
        """Ascending coefficient report form: "c0 c1 c2 ..."."""
        if not self.coeffs:
            return "0"
        return " ".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        """Human form in descending powers, e.g. "16t^3 - 16t^2 + 8t - 2"."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if mag == 1 else f"{mag} {var}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def divide_linear(coeffs: Sequence[Scalar], root: Scalar) -> list[Scalar]:
    """The quotient of sum_k coeffs_k t^k by (t - root), by synthetic division.

    Coefficients ascending; integer coefficients and an integer root give
    integer quotients, with no Fraction built. Requires root to actually be
    a root; a nonzero remainder raises ValueError since it means the
    caller's factorization premise failed.
    """
    quotient: list[Scalar] = []
    carry: Scalar = 0
    for c in reversed(coeffs[1:]):
        carry = c + carry * root
        quotient.append(carry)
    remainder = coeffs[0] + carry * root if coeffs else 0
    if remainder != 0:
        raise ValueError(f"{root} is not a root (remainder {remainder})")
    return quotient[::-1]
