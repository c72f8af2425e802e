"""Exact rational scalars and dense univariate polynomials.

Everything downstream (matrix algebra, minimal polynomials, the scheme
pipeline) runs on these two types, so all results are exact: no tolerance
enters until the floating-point spectral sidecar.

Rationals are stdlib ``fractions.Fraction`` values, which already maintain
the canonical form we need (reduced, positive denominator, 0 == 0/1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class Polynomial:
    """Dense univariate polynomial over Fraction, coefficients ascending.

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

    @classmethod
    def monomial(cls, k: int, coeff: Scalar = 1) -> "Polynomial":
        """coeff * t^k"""
        return cls([0] * k + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Polynomial(out)
        return Polynomial([c * Fraction(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __call__(self, x: Scalar) -> Fraction:
        """Exact Horner evaluation."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
