import dataclasses
import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from schemeforge import predistance
from schemeforge.cli import run_command
from schemeforge.exact import Polynomial
from schemeforge.hoffman import hoffman_polynomial, minimal_polynomial
from schemeforge.matrix import MatrixPowerBasis, RationalMatrix
from schemeforge.predistance import (
    _assert_invariants,
    lambda_avoiding_gram_schmidt,
    predistance_basis,
    verify_hoffman_sum,
)
from schemeforge.scheme import detect_scheme
from schemeforge.stochastic import HypothesisError, classify, random_lambda_ds

from conftest import FIXTURES, load_fixture
from oracles import (
    add,
    all_ones,
    identity,
    naive_poly_at,
    oracle_minimal_polynomial,
    oracle_predistance,
    poly_add,
    poly_inner,
    poly_scale,
    poly_value,
    scaled,
    trace_form_inner,
)

FIG2_PREDISTANCE = (
    Polynomial([1]),
    Polynomial([-2, 4]),
    Polynomial([2, -8, 8]),
    Polynomial([-3, 12, -24, 16]),
)


def directed_cycle_matrix(n, scale=1):
    return RationalMatrix(
        [[scale if y == (x + 1) % n else 0 for y in range(n)] for x in range(n)]
    )


def weighted_circulant(n, weights, scale=1):
    """scale * sum_k weights[k] P_n^k, with weights keyed by the shift y - x mod n."""
    return RationalMatrix([[Fraction(scale) * weights.get((y - x) % n, 0) for y in range(n)] for x in range(n)])


def scaled_cycle():
    """(3/7) (10^30 I + P_6): a primitive integer matrix past int64 under s = 3/7."""
    return weighted_circulant(6, {0: 10**30, 1: 1}, Fraction(3, 7))


def heavy_circulant():
    """(2/5) (9000 I + 7 P_7 + 7 P_7^-1), the weighted circulant of scripts/make_weighted_circulant.py."""
    return weighted_circulant(7, {0: 9000, 1: 7, 6: 7}, Fraction(2, 5))


def monic_on_c(w):
    """q_j,C = sum_k w_k t^k / w_j, the monic orthogonal polynomial of C that the weights w stand for."""
    return Polynomial([Fraction(v, w[-1]) for v in w])


def test_inner_product_of_constants(fig1, fig2):
    one = Polynomial([1])
    for b in (fig1, fig2, all_ones(3)):
        assert poly_inner(one, one, b) == 1


def test_inner_product_first_predistance_norm(fig2):
    p1 = FIG2_PREDISTANCE[1]
    assert poly_inner(p1, p1, fig2) == 2


def test_inner_product_orthogonality(fig2):
    assert poly_inner(FIG2_PREDISTANCE[1], FIG2_PREDISTANCE[2], fig2) == 0


def test_inner_product_matches_trace_form_oracle(fig2):
    p, q = FIG2_PREDISTANCE[2], FIG2_PREDISTANCE[3]
    grid = [list(row) for row in fig2.rows]
    expected = trace_form_inner(naive_poly_at(p, grid), naive_poly_at(q, grid))
    assert poly_inner(p, q, fig2) == expected


def test_gram_schmidt_degree_zero(fig2):
    # fig2 = C / 4: w_0 = (1), so q_0,C = 1, and N_0 = C^0 . C^0 = n |q_0,C|^2 = 6
    one = Polynomial([1])
    assert lambda_avoiding_gram_schmidt(fig2, 0) == ([[1]], [6])
    assert monic_on_c([1]) == one
    assert fig2.order * poly_inner(one, one, scaled(4, fig2)) == 6


def test_gram_schmidt_fig2_avoids_lambda(fig2):
    # fig2 = C / 4 with C primitive, so lambda_C = 4 lambda = 4
    c = scaled(4, fig2)
    weights, gram_norms = lambda_avoiding_gram_schmidt(fig2, 3)
    assert len(weights) == len(gram_norms) == 4
    qs = [monic_on_c(w) for w in weights]
    for i, (w, q) in enumerate(zip(weights, qs)):
        assert math.gcd(*w) == 1
        assert q.degree == i
        assert poly_value(q.coeffs, 4) != 0
        assert gram_norms[i] == fig2.order * poly_inner(Polynomial(w), Polynomial(w), c)
    for i in range(4):
        for j in range(i + 1, 4):
            assert poly_inner(qs[i], qs[j], c) == 0


def test_gram_schmidt_past_the_minimal_degree_is_a_value_error(fig2):
    # deg m_B = 4 on fig2, so B^4 lies in the span of I, B, B^2, B^3
    d = minimal_polynomial(fig2).degree
    with pytest.raises(ValueError, match=f"degree 4: d = {d} is not below deg m_B") as excinfo:
        lambda_avoiding_gram_schmidt(fig2, d)
    assert not isinstance(excinfo.value, HypothesisError)


def test_gram_schmidt_on_cycle_gives_orthogonal_triple():
    # the directed 3-cycle is its own primitive integer matrix: C = B
    b = directed_cycle_matrix(3)
    weights, _ = lambda_avoiding_gram_schmidt(b, 2)
    qs = [monic_on_c(w) for w in weights]
    for i in range(3):
        for j in range(3):
            inner = poly_inner(qs[i], qs[j], b)
            assert (inner == 0) == (i != j)


@st.composite
def normal_circulants(draw):
    """sum_s w_s P^s for 2-3 distinct shifts s of Z_n, n <= 7, small positive weights."""
    n = draw(st.integers(min_value=3, max_value=7))
    shift = st.integers(min_value=0, max_value=n - 1)
    shifts = draw(st.lists(shift, min_size=2, max_size=3, unique=True))
    weight = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3)
    grid = [[Fraction(0)] * n for _ in range(n)]
    for s in shifts:
        w = draw(weight)
        for x in range(n):
            grid[x][(x + s) % n] += w
    return RationalMatrix(grid)


S3 = tuple(itertools.permutations(range(3)))


def s3_inverse(g):
    return tuple(sorted(range(3), key=g.__getitem__))


@st.composite
def s3_cayley_digraphs(draw):
    """sum_g w_g R_g over S_3 with R_g(x, y) = 1 when y = x g.

    w is constant on conjugacy classes (B central) or has w_g = w_{g^-1}
    (B symmetric), so B is normal.
    """
    weight = st.fractions(min_value=0, max_value=3, max_denominator=3)
    if draw(st.booleans()):
        # the conjugacy class of g is its number of fixed points
        by_class = {k: draw(weight) for k in (0, 1, 3)}
        w = {g: by_class[sum(g[k] == k for k in range(3))] for g in S3}
    else:
        w = {}
        for g in S3:
            if g not in w:
                w[g] = w[s3_inverse(g)] = draw(weight)
    # entry (x, y) is w at x^-1 y, the permutation k -> x^-1(y(k))
    return RationalMatrix([[w[tuple(s3_inverse(x)[v] for v in y)] for y in S3] for x in S3])


gated_normal_draws = st.one_of(
    normal_circulants(),
    normal_circulants().map(lambda b: add(b, b.transpose())),
    s3_cayley_digraphs(),
)


@given(gated_normal_draws)
@settings(max_examples=40, deadline=None)
def test_gram_schmidt_never_vanishes_at_lambda_past_the_gate(b):
    cls = classify(b)
    assume(cls.failed_hypothesis() is None)
    grid = [list(row) for row in b.rows]
    d = minimal_polynomial(b).degree - 1
    weights, _ = lambda_avoiding_gram_schmidt(b, d)
    # q_j(lambda) = s^j q_j,C(lambda_C), lambda_C = lambda / s, for B = s C
    lam_c = cls.lam / b.powers.scale
    assert all(poly_value(monic_on_c(w).coeffs, lam_c) != 0 for w in weights)
    expected, norms = oracle_predistance(grid, cls.lam, d)
    family = predistance_basis(b)
    assert family.polys == tuple(expected)
    assert family.norms_sq == tuple(norms)


def at_scaled_argument(p: Polynomial, c: Fraction) -> Polynomial:
    """p(t / c)."""
    return Polynomial([a / c**k for k, a in enumerate(p.coeffs)])


@given(
    gated_normal_draws,
    st.sampled_from([Fraction(2), Fraction(2**64 + 13), Fraction(1, 2**61 - 1), Fraction(3**40, 7)]),
)
@settings(max_examples=50, deadline=None)
def test_every_stage_is_invariant_under_scaling(b, c):
    # B and cB generate one algebra: p_i^(cB)(t) = p_i^B(t / c) with equal norms
    # and evaluations, h^(cB)(t) = h^B(t / c), and the scheme verdict is the same;
    # both share the primitive integer matrix C, so their Gram matrices agree
    assume(classify(b).failed_hypothesis() is None)
    cb = scaled(c, b)
    family, scaled_family = predistance_basis(b), predistance_basis(cb)
    assert scaled_family.polys == tuple(at_scaled_argument(p, c) for p in family.polys)
    assert scaled_family.norms_sq == family.norms_sq
    assert cb.powers.gram(family.d) == b.powers.gram(family.d)
    for p, q in zip(family.polys, scaled_family.polys):
        assert cb.powers.evaluate(q) == b.powers.evaluate(p)
    assert hoffman_polynomial(cb).h == at_scaled_argument(hoffman_polynomial(b).h, c)
    assert detect_scheme(cb).accepted == detect_scheme(b).accepted


def test_vanishing_q_at_lambda_is_an_invariant_violation(fig2, monkeypatch, capsys):
    # fig2 = C / 4: q_1,C = t - 4 vanishes at lambda_C = 4, so p_1 = 0: the degree check traps it
    weights, gram_norms = lambda_avoiding_gram_schmidt(fig2, 3)
    weights[1] = [-4, 1]
    q = Polynomial(weights[1])
    gram_norms[1] = int(fig2.order * poly_inner(q, q, scaled(4, fig2)))
    monkeypatch.setattr(predistance, "lambda_avoiding_gram_schmidt", lambda b, d: (weights, gram_norms))
    with pytest.raises(ArithmeticError, match=r"deg\(p_1\) != 1"):
        predistance_basis(fig2)
    path = str(FIXTURES / "fig2.mat")
    for command in ("scheme", "predistance"):
        assert run_command([command, path, "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: ArithmeticError: ")


@given(normal_circulants())
@settings(max_examples=30, deadline=None)
def test_predistance_basis_matches_fraction_gram_schmidt(b):
    cls = classify(b)
    assume(cls.failed_hypothesis() is None)
    grid = [list(row) for row in b.rows]
    d = oracle_minimal_polynomial(grid).degree - 1
    polys, norms = oracle_predistance(grid, cls.lam, d)
    family = predistance_basis(b)
    assert family.polys == tuple(polys)
    assert family.norms_sq == tuple(norms)


def test_predistance_basis_fig2(fig2):
    family = predistance_basis(fig2)
    assert family.polys == FIG2_PREDISTANCE
    assert family.norms_sq == (1, 2, 2, 1)
    assert family.lam == 1


def test_predistance_basis_complete_graph():
    b = load_fixture("complete_5.mat")
    family = predistance_basis(b)
    assert family.polys == (Polynomial([1]), Polynomial([0, 1]))
    assert family.norms_sq == (1, 4)


def test_predistance_basis_scaled_allones():
    n = 5
    jn = scaled(Fraction(1, n), all_ones(n))
    family = predistance_basis(jn)
    assert family.polys == (Polynomial([1]), Polynomial([-1, n]))
    assert family.norms_sq[1] == poly_value(family.polys[1].coeffs, 1)


def test_predistance_invariants_on_cycles():
    for n in (3, 4, 6):
        b = directed_cycle_matrix(n, scale=Fraction(3, 2))
        family = predistance_basis(b)
        lam = family.lam
        assert lam == Fraction(3, 2)
        for i, p in enumerate(family.polys):
            assert p.degree == i
            assert family.norms_sq[i] == poly_value(p.coeffs, lam) > 0
            for j in range(i):
                assert poly_inner(family.polys[j], p, b) == 0


def with_poly(family, i, p):
    """The family with p_i replaced by p and its norm cached as p(lambda), so the
    degree and |p_i|^2 = p_i(lambda) checks still pass."""
    polys, norms = list(family.polys), list(family.norms_sq)
    polys[i], norms[i] = p, poly_value(p.coeffs, family.lam)
    return dataclasses.replace(family, polys=tuple(polys), norms_sq=tuple(norms))


@pytest.mark.parametrize(
    "tamper, message",
    [
        # 2 p_1, cached as 2 p_1(lambda) = 4, has norm 8
        (lambda f: with_poly(f, 1, Polynomial(poly_scale(2, f.polys[1].coeffs))), "cached norm of p_1"),
        # a bumped constant coefficient: p_1 + 1 is no longer orthogonal to p_0 = 1
        (lambda f: with_poly(f, 1, Polynomial(poly_add(f.polys[1].coeffs, [1]))), "<p_0, p_1> != 0"),
        # p_1 / 2, cached as 1, has norm 1/2
        (lambda f: with_poly(f, 1, Polynomial(poly_scale(Fraction(1, 2), f.polys[1].coeffs))), "violated: cached norm of p_1"),
        # a wrong cached norm that agrees with p_1 at a wrong lambda: p_1(2) = 6, not 2
        (lambda f: with_poly(dataclasses.replace(f, lam=Fraction(2)), 1, f.polys[1]), "cached norm of p_1"),
        # a wrong cached norm alone
        (
            lambda f: dataclasses.replace(f, norms_sq=(1, 3, *f.norms_sq[2:])),
            "|p_1|^2 != p_1(lambda) > 0",
        ),
    ],
)
def test_invariants_are_checked_on_the_evaluated_matrices(fig2, tamper, message):
    # the family is re-verified on p_i(B) through the Gram images G w_i of its
    # weights, so a tampered polynomial or norm is caught with no evaluation
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        _assert_invariants(tamper(predistance_basis(fig2)), fig2)


def test_orthogonality_is_checked_for_every_lower_degree(fig2):
    # p_2 + p_1 is still orthogonal to p_0, but not to p_1
    family = predistance_basis(fig2)
    with pytest.raises(ArithmeticError, match="<p_1, p_2> != 0"):
        _assert_invariants(with_poly(family, 2, Polynomial(poly_add(family.polys[2].coeffs, family.polys[1].coeffs))), fig2)


@pytest.mark.parametrize("build", [lambda: load_fixture("fig2.mat"), heavy_circulant], ids=["fig2", "circulant"])
def test_every_coefficient_of_every_p_i_is_checked(build):
    # the check reads the emitted polynomials, not the integer form they came
    # from: bumping any one coefficient of any p_i, with its norm re-cached as
    # p_i(lambda), breaks p_0 = 1, the degree, orthogonality or the cached norm
    b = build()
    family = predistance_basis(b)
    assert b.powers.scale != 1
    for i, p in enumerate(family.polys):
        for k in range(len(p.coeffs)):
            bumped = Polynomial([c + (j == k) for j, c in enumerate(p.coeffs)])
            with pytest.raises(ArithmeticError, match="internal invariant violated"):
                _assert_invariants(with_poly(family, i, bumped), b)


def test_the_family_takes_no_polynomial_arithmetic(monkeypatch):
    # the family is built and checked on integers: no Polynomial sum, product
    # or evaluation (Polynomial has none; any put back would be forbidden here),
    # and no rescaled polynomial, once the stages it reads are kept
    cases = [load_fixture("fig2.mat"), scaled_cycle(), heavy_circulant()]
    for b in cases:
        hoffman_polynomial(b)

    def forbidden(*args):
        raise AssertionError("polynomial arithmetic in the predistance stage")

    for name in ("__call__", "__mul__", "__rmul__", "__add__"):
        monkeypatch.setattr(Polynomial, name, forbidden, raising=False)
    monkeypatch.setattr(MatrixPowerBasis, "rescaled", forbidden)
    for b in cases:
        assert predistance_basis(b).d == minimal_polynomial(b).degree - 1


def test_exact_identities_build_no_fraction_matrix(fig2, monkeypatch):
    # the classification, h(B) = J, the family's invariants and the Hoffman
    # sum all run on the matrices' integers: no matrix is built from rows
    built = []
    init = RationalMatrix.__init__

    def counting_init(self, rows):
        built.append(self)
        init(self, rows)

    monkeypatch.setattr(RationalMatrix, "__init__", counting_init)
    classify(fig2)
    minimal_polynomial(fig2)
    info = hoffman_polynomial(fig2)
    family = predistance_basis(fig2)
    assert verify_hoffman_sum(family, info)
    assert not built


def test_fourier_identity(fig2):
    family = predistance_basis(fig2)
    h = hoffman_polynomial(fig2).h
    for j, p in enumerate(family.polys):
        assert poly_inner(h, p, fig2) == family.norms_sq[j]


def test_hoffman_sum_fig2(fig2):
    family = predistance_basis(fig2)
    assert verify_hoffman_sum(family, hoffman_polynomial(fig2))
    total: list = []
    for p in family.polys:
        total = poly_add(total, p.coeffs)
    assert Polynomial(total) == Polynomial([-2, 8, -16, 16])


def test_hoffman_sum_fails_on_any_changed_coefficient(fig2):
    family, h = predistance_basis(fig2), hoffman_polynomial(fig2)
    for i, p in enumerate(family.polys):
        for k in range(len(p.coeffs)):
            bumped = Polynomial([c + Fraction(1, 3) * (j == k) for j, c in enumerate(p.coeffs)])
            assert not verify_hoffman_sum(with_poly(family, i, bumped), h)
    # a sum of lower degree than h, and one of higher degree
    assert not verify_hoffman_sum(dataclasses.replace(family, polys=family.polys[:-1]), h)
    longer = (*family.polys, Polynomial([0] * (family.d + 1) + [1]))
    assert not verify_hoffman_sum(dataclasses.replace(family, polys=longer), h)
    # a zero coefficient sum matches h's zero coefficient
    zero_sum = dataclasses.replace(family, polys=(Polynomial([1]), Polynomial([-1, 1])))
    assert verify_hoffman_sum(zero_sum, dataclasses.replace(h, h=Polynomial([0, 1])))


def test_hoffman_sum_degenerate_order_one():
    b = RationalMatrix([[Fraction(5, 7)]])
    family = predistance_basis(b)
    assert family.polys == (Polynomial([1]),)
    assert verify_hoffman_sum(family, hoffman_polynomial(b))


def test_hoffman_sum_on_random_normal_instance():
    seed = 0
    found = 0
    while found < 3:
        b = random_lambda_ds(6, 1, seed=seed)
        seed += 1
        cls = classify(b)
        if not (cls.normal and cls.irreducible and cls.lam):
            continue
        found += 1
        family = predistance_basis(b)
        assert verify_hoffman_sum(family, hoffman_polynomial(b))


def test_predistance_rejects_non_normal(fig1):
    with pytest.raises(HypothesisError) as excinfo:
        predistance_basis(fig1)
    assert "normal" in str(excinfo.value)


def test_predistance_rejects_reducible():
    with pytest.raises(HypothesisError):
        predistance_basis(identity(3))


def test_predistance_rejects_missing_line_sum():
    with pytest.raises(HypothesisError):
        predistance_basis(RationalMatrix([[1, 0], [1, 1]]))
