from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from schemeforge.exact import Polynomial, divide_linear

from oracles import monic, poly_add, poly_mul, poly_value

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
coeff_lists = st.lists(rationals, max_size=7)


@given(rationals, rationals, rationals)
def test_field_axioms_on_random_triples(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_eval_cubic_at_one():
    p = Polynomial([-2, 8, -16, 16])  # 16t^3 - 16t^2 + 8t - 2
    assert poly_value(p.coeffs, 1) == 6


def test_eval_zero_polynomial():
    assert poly_value(Polynomial().coeffs, Fraction(7, 3)) == 0
    assert Polynomial().degree == -1


def test_eval_at_rational_root():
    p = Polynomial([-2, 4])  # 4t - 2
    assert poly_value(p.coeffs, Fraction(1, 2)) == 0


@given(coeff_lists, coeff_lists, rationals)
def test_eval_is_ring_homomorphism(cs, ds, x):
    p, q = Polynomial(cs).coeffs, Polynomial(ds).coeffs
    assert poly_value(poly_mul(p, q), x) == poly_value(p, x) * poly_value(q, x)
    assert poly_value(poly_add(p, q), x) == poly_value(p, x) + poly_value(q, x)


def test_divide_linear_simple():
    assert divide_linear([-1, 0, 1], 1) == [1, 1]


def test_divide_linear_monomial():
    assert divide_linear([0, 0, 0, 1], 0) == [0, 0, 1]


def test_divide_linear_recovers_cubic_factor():
    h_monic = monic(Polynomial([-2, 8, -16, 16]))
    product = poly_mul([-1, 1], h_monic.coeffs)  # (t - 1) * monic cubic
    assert divide_linear(product, 1) == list(h_monic.coeffs)


def test_divide_linear_rejects_non_root():
    with pytest.raises(ValueError):
        divide_linear([1, 1], 1)


@given(coeff_lists, rationals)
def test_divide_linear_roundtrip(cs, root):
    p = Polynomial(cs)
    product = poly_mul([-root, 1], p.coeffs)
    assert Polynomial(divide_linear(product, root)) == p


def test_trailing_zeros_stripped():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (Fraction(1), Fraction(2))


def test_monomial_and_monic():
    p = Polynomial([0, 0, 0, Fraction(2, 3)])
    assert p.degree == 3
    assert monic(p) == Polynomial([0, 0, 0, 1])


def test_human_form():
    assert str(Polynomial([-2, 8, -16, 16])) == "16 t^3 - 16 t^2 + 8 t - 2"
    assert str(Polynomial([0, -1])) == "-t"
    assert str(Polynomial()) == "0"


def test_coefficient_line_is_ascending():
    assert Polynomial([-2, 8, -16, 16]).coefficient_line() == "-2 8 -16 16"
    assert Polynomial([Fraction(1, 3)]).coefficient_line() == "1/3"
