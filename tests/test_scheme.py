import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from schemeforge.digraph import UnreachablePairError, distance_structure, underlying_digraph
from schemeforge import scheme
from schemeforge.exact import Polynomial
from schemeforge.hoffman import minimal_polynomial
from schemeforge.matrix import MatrixPowerBasis, RationalMatrix, solve_rational_system
from schemeforge.scheme import (
    Rejection,
    RejectionCode,
    SchemeAxiomError,
    detect_scheme,
    intersection_numbers,
    transpose_map,
)
from schemeforge.predistance import predistance_basis
from schemeforge.stochastic import random_lambda_ds, classify

from conftest import load_fixture
from oracles import (
    add,
    algebra_membership,
    all_ones,
    class_matrices,
    coherent_closure_rank,
    distance_one_products,
    flat,
    hamming_adjacency,
    hamming_intersection_array,
    identity,
    johnson_adjacency,
    johnson_intersection_array,
    labels_of,
    naive_mat_mul,
    naive_poly_at,
    oracle_intersection_tensor,
    popcount_intersection_tensor,
    scaled,
    set_transpose_map,
    sub,
    vanishing_product_check,
    verify_scheme_axioms,
    zeros,
)

# frozen from a hand-checked run: tensor[i][j] lists p^h_{ij} for h = 0..3
FIG2_TENSOR = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 1, 0, 0), (0, 0, 2, 0), (2, 0, 0, 2), (0, 1, 0, 0)),
    ((0, 0, 1, 0), (2, 0, 0, 2), (0, 2, 0, 0), (0, 0, 1, 0)),
    ((0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)),
)


def directed_cycle_matrix(n, scale=1):
    return RationalMatrix(
        [[scale if y == (x + 1) % n else 0 for y in range(n)] for x in range(n)]
    )


def circulant(n, offsets, weight):
    return RationalMatrix(
        [[weight if (y - x) % n in offsets else 0 for y in range(n)] for x in range(n)]
    )


def test_fig2_accepted(fig2):
    cert = detect_scheme(fig2)
    assert cert.accepted
    assert cert.d == 3 and cert.diameter == 3
    assert cert.transpose_perm == (0, 2, 1, 3)
    tensor_ints = tuple(
        tuple(tuple(int(v) for v in row) for row in plane)
        for plane in cert.intersection_tensor
    )
    assert tensor_ints == FIG2_TENSOR
    assert cert.generator_polynomials == (
        Polynomial([1]),
        Polynomial([-2, 4]),
        Polynomial([2, -8, 8]),
        Polynomial([-3, 12, -24, 16]),
    )
    assert cert.labels.tolist() == distance_structure(underlying_digraph(fig2)).dist.tolist()


def test_fig1_rejected_not_normal(fig1):
    cert = detect_scheme(fig1)
    assert not cert.accepted
    assert cert.reason.code is RejectionCode.NOT_NORMAL


@pytest.mark.parametrize("n", range(3, 9))
def test_scaled_cycles_accepted_with_group_tensor(n):
    cert = detect_scheme(directed_cycle_matrix(n, scale=Fraction(3, 2)))
    assert cert.accepted
    assert cert.d == n - 1 and cert.diameter == n - 1
    for i in range(n):
        for j in range(n):
            for h in range(n):
                expected = 1 if (i + j) % n == h else 0
                assert cert.intersection_tensor[i][j][h] == expected
    assert cert.transpose_perm == tuple((-i) % n for i in range(n))


def test_one_by_one_positive_matrix_is_degenerate_scheme():
    cert = detect_scheme(RationalMatrix([[Fraction(2, 3)]]))
    assert cert.accepted
    assert cert.d == 0 and cert.diameter == 0
    assert cert.intersection_tensor == (((1,),),)


def test_rejection_not_nonnegative():
    cert = detect_scheme(RationalMatrix([[0, -1], [-1, 0]]))
    assert cert.reason.code is RejectionCode.NOT_NONNEGATIVE


def test_rejection_not_irreducible():
    cert = detect_scheme(identity(3))
    assert cert.reason.code is RejectionCode.NOT_IRREDUCIBLE


def test_rejection_not_doubly_stochastic(fig2):
    grid = [list(row) for row in fig2.rows]
    grid[0][1] = Fraction(1, 3)  # keeps nonnegativity and irreducibility
    cert = detect_scheme(RationalMatrix(grid))
    assert cert.reason.code is RejectionCode.NOT_DOUBLY_STOCHASTIC


def test_rejection_lambda_zero():
    cert = detect_scheme(RationalMatrix([[0]]))
    assert cert.reason.code is RejectionCode.LAMBDA_ZERO


def test_rejection_eigencount_ne_diameter():
    # undirected circulant on Z_7 with connections {1,2}: diameter 2 but 4
    # distinct eigenvalues
    b = circulant(7, (1, 2, 5, 6), Fraction(1, 4))
    cert = detect_scheme(b)
    assert cert.reason.code is RejectionCode.EIGENCOUNT_NE_DIAMETER
    assert cert.reason.d == 3 and cert.reason.diameter == 2
    assert cert.d == 3 and cert.diameter == 2
    assert "EIGENCOUNT_NE_DIAMETER(d=3, D=2)" == cert.reason.describe()


def test_rejection_ad_not_polynomial():
    # circulant digraph on Z_8 with connections {1,4,5}: normal, lambda-DS,
    # d = D = 3, but the distance-3 matrix is outside the polynomial algebra
    b = circulant(8, (1, 4, 5), Fraction(1, 3))
    cert = detect_scheme(b)
    assert cert.reason.code is RejectionCode.AD_NOT_POLYNOMIAL
    assert cert.reason.d == 3 and cert.reason.diameter == 3
    assert cert.d == 3 and cert.diameter == 3
    # the general membership solver agrees with the single-equality test
    structure = distance_structure(underlying_digraph(b))
    assert algebra_membership(class_matrices(structure.dist)[3], b, degree=3) is None


# weighted circulants on Z_n with d = D whose distance-D class is not in the
# algebra: weights by shift
AD_REJECTED = ((6, {1: 2, 3: 1}), (8, {1: 1, 4: 1, 5: 1}), (10, {3: 2, 5: 1, 7: 2}))


@st.composite
def circulants_with_d_equal_to_diameter(draw):
    """sum_s w_s P^s + w_0 I on Z_n with d = D: a weighted directed or symmetric
    cycle (accepted) or an AD_NOT_POLYNOMIAL base, with a drawn diagonal (up to
    10^30, which leaves the algebra unchanged) and content."""
    kind = draw(st.sampled_from(("directed", "symmetric", "ad_rejected")))
    weight = st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=3)
    if kind == "ad_rejected":
        n, base = draw(st.sampled_from(AD_REJECTED))
        w = draw(weight)
        weights = {s: w * v for s, v in base.items()}
    else:
        n = draw(st.integers(3, 8))
        w = draw(weight)
        weights = {1: w, n - 1: w} if kind == "symmetric" else {1: w}
    weights[0] = draw(st.sampled_from((0, 1, Fraction(7, 2), 10**30)))
    content = draw(st.sampled_from((1, Fraction(2**64 + 13), Fraction(1, 2**61 - 1))))
    return [[content * Fraction(weights.get((y - x) % n, 0)) for y in range(n)] for x in range(n)]


@given(circulants_with_d_equal_to_diameter())
@settings(max_examples=40, deadline=None)
def test_residue_class_certificate_agrees_with_exact_evaluation(grid):
    # A_i = p_i(B) on G and the class moments, against p_i(B) evaluated over
    # Fractions, for every class of accepted and AD_NOT_POLYNOMIAL draws
    # alike: all classes in one batch, and each class alone on its own moments
    b = RationalMatrix(grid)
    dist = distance_structure(underlying_digraph(b)).dist
    family = predistance_basis(b)
    assert family.d == max(map(max, dist))
    masks = [[[int(v == i) for v in row] for row in dist] for i in range(family.d + 1)]
    pairs = list(zip(family.polys, masks))
    exact = [naive_poly_at(p, grid) == [list(map(Fraction, row)) for row in mask] for p, mask in pairs]
    assert b.powers.evaluates_to(family.polys, b.powers.class_moments(family.d, masks)) == exact
    alone = [b.powers.evaluates_to([p], b.powers.class_moments(p.degree, [mask])) for p, mask in pairs]
    assert alone == [[v] for v in exact]
    assert detect_scheme(b).accepted == all(exact)


@pytest.mark.parametrize(
    "failing, reason",
    [
        (-1, Rejection(RejectionCode.AD_NOT_POLYNOMIAL, d=3, diameter=3)),
        (0, Rejection(RejectionCode.AXIOM_FAILURE, d=3, diameter=3, axiom="CLASS_POLYNOMIALITY", witness=(0,))),
    ],
    ids=["class_D", "class_0"],
)
def test_batched_class_certificate_keeps_the_order_of_verdicts(monkeypatch, fig2, failing, reason):
    # all classes are certified in one batch, and A_D = p_D(B) is read first: a
    # failure there is AD_NOT_POLYNOMIAL, and one below D alone is an axiom failure
    certify = MatrixPowerBasis.evaluates_to

    def fails_one(self, polys, moments):
        holds = certify(self, polys, moments)
        assert holds == [True] * 4
        holds[failing] = False
        return holds

    monkeypatch.setattr(MatrixPowerBasis, "evaluates_to", fails_one)
    cert = detect_scheme(fig2)
    assert not cert.accepted and cert.reason == reason


def test_analysis_context_keeps_no_residue_stack(fig2):
    # the Gram matrix and the class moments read C's power residues in one
    # pass and keep Python ints: past a scheme run, C's integers are the one
    # array the context holds
    def arrays(value):
        if isinstance(value, np.ndarray):
            return 1
        return sum(map(arrays, value)) if isinstance(value, (tuple, list)) else 0

    assert detect_scheme(fig2).accepted
    held = {name: arrays(value) for name, value in vars(fig2.powers).items()}
    assert {name: count for name, count in held.items() if count} == {"entries": 1}


def test_rejection_monotonicity_under_entry_perturbation(fig2):
    base = detect_scheme(fig2)
    assert base.accepted
    grid = [list(row) for row in fig2.rows]
    grid[2][3] += Fraction(1, 8)
    cert = detect_scheme(RationalMatrix(grid))
    assert not cert.accepted


def test_intersection_numbers_trivial_scheme():
    n = 6
    eye = identity(n)
    rest = sub(all_ones(n), eye)
    tensor = intersection_numbers(labels_of([eye, rest]))
    assert tensor[1][1][0] == n - 1
    assert tensor[1][1][1] == n - 2


def test_intersection_numbers_cyclic_three():
    classes = [
        identity(3),
        directed_cycle_matrix(3),
        directed_cycle_matrix(3) @ directed_cycle_matrix(3),
    ]
    tensor = intersection_numbers(labels_of(classes))
    for i in range(3):
        for j in range(3):
            for h in range(3):
                assert tensor[i][j][h] == (1 if (i + j) % 3 == h else 0)


def test_intersection_numbers_fig2_brute_force(fig2):
    dist = distance_structure(underlying_digraph(fig2)).dist
    tensor = intersection_numbers(dist)
    assert all(type(v) is int for plane in tensor for row in plane for v in row)
    classes = class_matrices(dist)
    for i in range(4):
        for j in range(4):
            product = classes[i] @ classes[j]
            recombined = zeros(6)
            for h in range(4):
                recombined = add(recombined, scaled(tensor[i][j][h], classes[h]))
            assert recombined == product


def test_intersection_numbers_non_commutative_group_scheme():
    # the thin scheme of S_3: A_g holds (x, y) with y = x g, and A_g A_h = A_gh
    elements = list(itertools.permutations(range(3)))

    def compose(p, q):
        return tuple(q[p[k]] for k in range(3))

    classes = [
        RationalMatrix([[1 if y == compose(x, g) else 0 for y in elements] for x in elements])
        for g in elements
    ]
    tensor = intersection_numbers(labels_of(classes))
    assert [[list(row) for row in plane] for plane in tensor] == oracle_intersection_tensor(classes)
    assert any(tensor[i][j] != tensor[j][i] for i in range(6) for j in range(6))


def test_intersection_numbers_flag_non_constant_products():
    # arcs of a directed path do not close into a coherent partition
    eye = identity(3)
    arc = RationalMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    rest = sub(all_ones(3), eye, arc)
    with pytest.raises(SchemeAxiomError) as excinfo:
        intersection_numbers(labels_of([eye, arc, rest]))
    assert excinfo.value.axiom == "AS4"


@pytest.mark.parametrize(
    "b,rows",
    [
        pytest.param(
            scaled(Fraction(1, 6), RationalMatrix(hamming_adjacency(3, 3))),
            distance_one_products(*hamming_intersection_array(3, 3)),
            id="H(3,3)",
        ),
        pytest.param(
            scaled(Fraction(1, 9), RationalMatrix(johnson_adjacency(6, 3))),
            distance_one_products(*johnson_intersection_array(6, 3)),
            id="J(6,3)",
        ),
        pytest.param(
            directed_cycle_matrix(8, scale=Fraction(3, 2)),
            [[1 if h == (j + 1) % 8 else 0 for h in range(8)] for j in range(8)],
            id="directed-C8",
        ),
    ],
)
def test_closed_form_schemes_match_oracle_tensor(b, rows):
    cert = detect_scheme(b)
    assert cert.accepted
    assert cert.d == cert.diameter == len(rows) - 1
    oracle = oracle_intersection_tensor(class_matrices(cert.labels))
    assert [[list(row) for row in plane] for plane in cert.intersection_tensor] == oracle
    assert [list(row) for row in cert.intersection_tensor[1]] == rows


def kernel_outcome(kernel, labels):
    """The tensor a kernel returns, or the axiom and witness of its SchemeAxiomError."""
    try:
        return ("tensor", kernel(labels))
    except SchemeAxiomError as exc:
        return (exc.axiom, exc.witness)


def compact(grid):
    """The grid with its labels renumbered 0..r-1 in increasing order, so no class is empty."""
    used = sorted({v for row in grid for v in row})
    return [[used.index(v) for v in row] for row in grid]


@st.composite
def label_grids(draw):
    """Label grids of schemes (cyclic, directed cyclic, Hamming) and of non-schemes.

    Non-schemes are random grids and merges of the cyclic classes; every
    grid is then conjugated by a random point permutation and its classes
    renamed by a random permutation.
    """
    kind = draw(st.sampled_from(("random", "directed", "cycle", "merged", "hamming")))
    if kind == "hamming":
        d, q = draw(st.sampled_from(((1, 3), (2, 2), (2, 3), (3, 2))))
        words = list(itertools.product(range(q), repeat=d))
        grid = [[sum(a != b for a, b in zip(u, v)) for v in words] for u in words]
    else:
        n = draw(st.integers(1, 7))
        if kind == "random":
            cell = st.integers(0, draw(st.integers(0, 4)))
            grid = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
        else:
            shift = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            label = {
                "directed": lambda k: k,
                "cycle": lambda k: min(k, n - k),
                "merged": lambda k: shift[k],
            }[kind]
            grid = [[label((y - x) % n) for y in range(n)] for x in range(n)]
    grid = compact(grid)
    n, r = len(grid), max(map(max, grid)) + 1
    points = draw(st.permutations(range(n)))
    names = draw(st.permutations(range(r)))
    return [[names[grid[points[x]][points[y]]] for y in range(n)] for x in range(n)]


@given(label_grids())
@settings(max_examples=200, deadline=None)
def test_intersection_numbers_match_popcount_reference_and_oracle(labels):
    outcome = kernel_outcome(intersection_numbers, labels)
    assert outcome == kernel_outcome(popcount_intersection_tensor, labels)
    if outcome[0] == "tensor":
        tensor = outcome[1]
        assert all(type(v) is int for plane in tensor for row in plane for v in row)
        oracle = oracle_intersection_tensor(class_matrices(labels))
        assert [[list(row) for row in plane] for plane in tensor] == oracle
    else:
        with pytest.raises(AssertionError, match="leaves the span"):
            oracle_intersection_tensor(class_matrices(labels))


@given(label_grids())
@settings(max_examples=200, deadline=None)
def test_transpose_map_matches_set_reference(labels):
    # scheme grids have a transpose map; the random and merged grids mostly fail AS3
    outcome = kernel_outcome(transpose_map, labels)
    assert outcome == kernel_outcome(set_transpose_map, labels)
    if outcome[0] == "tensor":
        assert all(type(i) is int for i in outcome[1])


def test_intersection_numbers_digit_groups_reach_two_to_the_53():
    # n = 7 packs 17 counts per float64 group since 8^17 <= 2^53 < 8^18 (21
    # under int64's 8^21 = 2^63); with each of the 49 pairs its own class,
    # every digit of every group holds a count
    n = 7
    assert (n + 1) ** 17 <= 2**53 < (n + 1) ** 18 and (n + 1) ** 21 == 2**63
    labels = [[x * n + y for y in range(n)] for x in range(n)]
    tensor = intersection_numbers(labels)
    assert tensor == popcount_intersection_tensor(labels)
    # A_(x,z) A_(z,y) = A_(x,y): each class holds one pair, so each product is one class
    for x, z, y in itertools.product(range(n), repeat=3):
        assert tensor[x * n + z][z * n + y][x * n + y] == 1


def test_intersection_numbers_in_two_groups_under_two_to_the_53():
    # the orbitals of Z_4 acting regularly on {3, 4, 5, 6} and fixing 0, 1 and
    # 2: 9 + 3 + 3 + 4 = 19 classes on n = 7 points, a coherent configuration,
    # so AS4 holds; 19 counts take one group under 2^63 but two under 2^53
    n = 7
    group = [[*range(3), *(3 + (i + k) % 4 for i in range(4))] for k in range(4)]
    orbit = {}
    for x, y in itertools.product(range(n), repeat=2):
        orbit.setdefault(min((g[x], g[y]) for g in group), len(orbit))
    labels = [[orbit[min((g[x], g[y]) for g in group)] for y in range(n)] for x in range(n)]
    assert len(orbit) == 19 and (n + 1) ** 17 <= 2**53 < (n + 1) ** 19 <= 2**63
    tensor = intersection_numbers(labels)
    assert tensor == popcount_intersection_tensor(labels)
    assert [[list(row) for row in plane] for plane in tensor] == oracle_intersection_tensor(
        class_matrices(labels)
    )


@pytest.mark.parametrize(
    "b",
    [
        pytest.param(RationalMatrix(hamming_adjacency(3, 4)), id="H(3,4)"),
        pytest.param(RationalMatrix(johnson_adjacency(8, 4)), id="J(8,4)"),
        pytest.param(circulant(60, (1, 59), 1), id="C60"),
        pytest.param(directed_cycle_matrix(48), id="directed-C48"),
    ],
)
def test_intersection_numbers_match_popcount_reference_on_large_schemes(b):
    labels = distance_structure(underlying_digraph(b)).dist
    assert intersection_numbers(labels) == popcount_intersection_tensor(labels)


@pytest.mark.parametrize("kernel", [intersection_numbers, transpose_map])
def test_label_kernels_reject_empty_class(kernel):
    # labels 0 and 2 with no pair labelled 1
    labels = [[0 if x == y else 2 for y in range(4)] for x in range(4)]
    with pytest.raises(ValueError, match="empty support"):
        kernel(labels)


def test_transpose_map_rejects_shared_transpose_class():
    # A^T and B^T both land in C, so i -> i' is not a bijection; A is the
    # first class whose image is shared
    def arcs(pairs):
        return RationalMatrix([[1 if (x, y) in pairs else 0 for y in range(4)] for x in range(4)])

    eye = identity(4)
    a, b, c = arcs({(0, 1)}), arcs({(2, 3)}), arcs({(1, 0), (3, 2)})
    rest = sub(all_ones(4), eye, a, b, c)
    with pytest.raises(SchemeAxiomError) as excinfo:
        transpose_map(labels_of([eye, a, b, c, rest]))
    assert excinfo.value.axiom == "AS3"
    assert excinfo.value.witness == (1,)


def test_transpose_map_symmetric_scheme():
    eye = identity(5)
    rest = sub(all_ones(5), eye)
    assert transpose_map(labels_of([eye, rest])) == (0, 1)


def test_transpose_map_cyclic_three():
    c = directed_cycle_matrix(3)
    assert transpose_map(labels_of([identity(3), c, c @ c])) == (0, 2, 1)


def test_transpose_map_fig2(fig2):
    dist = distance_structure(underlying_digraph(fig2)).dist
    assert transpose_map(dist) == (0, 2, 1, 3)


def test_transpose_map_reports_missing_transpose():
    eye = identity(3)
    single_arc = RationalMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    rest = sub(all_ones(3), eye, single_arc)
    with pytest.raises(SchemeAxiomError) as excinfo:
        transpose_map(labels_of([eye, single_arc, rest]))
    assert excinfo.value.axiom == "AS3"


def test_vanishing_product_check_fig2(fig2):
    structure = distance_structure(underlying_digraph(fig2))
    assert vanishing_product_check(fig2, structure.dist)


@pytest.mark.parametrize("n", (5, 6, 7))
def test_vanishing_product_check_cycles(n):
    b = directed_cycle_matrix(n, scale=Fraction(3, 2))
    structure = distance_structure(underlying_digraph(b))
    assert vanishing_product_check(b, structure.dist)


def test_vanishing_product_check_vacuous_small_diameter():
    b = scaled(Fraction(1, 4), all_ones(4))
    structure = distance_structure(underlying_digraph(b))
    assert structure.diameter <= 2
    assert vanishing_product_check(b, structure.dist)


def test_accepted_certificates_pass_brute_force_axioms(fig2):
    candidates = [
        fig2,
        directed_cycle_matrix(5, scale=Fraction(3, 2)),
        load_fixture("complete_4.mat"),
        scaled(Fraction(1, 6), all_ones(6)),
    ]
    for b in candidates:
        cert = detect_scheme(b)
        assert cert.accepted
        assert verify_scheme_axioms(class_matrices(cert.labels)) is None


def test_accepted_span_equals_power_span(fig2):
    cert = detect_scheme(fig2)
    # each class is a polynomial in B ...
    classes = class_matrices(cert.labels)
    for a in classes:
        assert algebra_membership(a, fig2, degree=cert.d) is not None
    # ... and each power lies in the span of the classes
    class_vectors = [flat(a) for a in classes]
    grid = [list(row) for row in fig2.rows]
    power = [[Fraction(int(x == y)) for y in range(6)] for x in range(6)]
    for k in range(cert.d + 1):
        assert solve_rational_system(class_vectors, [v for row in power for v in row]) is not None
        power = naive_mat_mul(power, grid)


@pytest.mark.parametrize(
    "theta0,theta1", [(Fraction(1, 3), Fraction(1, 6)), (Fraction(2), Fraction(5, 4))]
)
def test_recombinations_of_scheme_classes_are_accepted(fig2, theta0, theta1):
    cert = detect_scheme(fig2)
    classes = class_matrices(cert.labels)
    recombined = add(scaled(theta0, classes[0]), scaled(theta1, classes[1]))
    again = detect_scheme(recombined)
    assert again.accepted
    assert again.labels.tolist() == cert.labels.tolist()


def test_recombinations_of_cyclic_classes_are_accepted():
    base = detect_scheme(directed_cycle_matrix(5))
    classes = class_matrices(base.labels)
    recombined = add(scaled(Fraction(1, 2), classes[0]), scaled(Fraction(7, 3), classes[1]))
    cert = detect_scheme(recombined)
    assert cert.accepted
    assert cert.labels.tolist() == base.labels.tolist()


def test_random_accepted_instances_pass_brute_force():
    found = 0
    seed = 0
    while found < 3 and seed < 400:
        b = random_lambda_ds(4 + seed % 5, 1 + seed % 3, seed=seed)
        seed += 1
        if not classify(b).irreducible:
            continue
        cert = detect_scheme(b)
        if cert.accepted:
            found += 1
            assert verify_scheme_axioms(class_matrices(cert.labels)) is None
    assert found == 3


def r_cubed_as5_witness(tensor):
    """The first row-major (i, j, h) with p^h_ij != p^h_ji, entry by entry; None when commutative."""
    r = len(tensor)
    for i in range(r):
        for j in range(r):
            for h in range(r):
                if tensor[i][j][h] != tensor[j][i][h]:
                    return (i, j, h)
    return None


index = st.integers(min_value=0, max_value=3)


@given(st.lists(st.tuples(index, index, index), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_as5_row_check_reports_the_first_entrywise_witness(bumps):
    # fig2's true tensor with a few entries raised by one: AS5 sees the rows
    # p_ij, p_ji above the diagonal and must name the r^3 loop's first witness
    fig2 = load_fixture("fig2.mat")
    tensor = [[list(row) for row in plane] for plane in detect_scheme(fig2).intersection_tensor]
    for i, j, h in bumps:
        tensor[i][j][h] += 1
    tensor = tuple(tuple(map(tuple, plane)) for plane in tensor)
    expected = r_cubed_as5_witness(tensor)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheme, "intersection_numbers", lambda labels: tensor)
        cert = detect_scheme(fig2)
    if expected is None:
        assert cert.accepted and cert.intersection_tensor == tensor
    else:
        assert not cert.accepted
        assert (cert.reason.axiom, cert.reason.witness) == ("AS5", expected)


@st.composite
def theorem_2_draws(draw):
    """A nonnegative circulant on Z_n, n <= 10: weights on up to three shifts,
    directed or mirrored to a symmetric matrix, a positive combination of the
    n-cycle's distance classes, or a scaled AD_REJECTED base with a drawn
    diagonal, where deg m_B = D + 1 and only the rank of W(B) tells. Shift
    weights may be 0, so reducible draws and the 1 x 1 zero matrix occur."""
    n = draw(st.integers(1, 10))
    positive = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3)
    kind = draw(st.sampled_from(("directed", "symmetric", "distance", "ad_rejected")))
    weights = {}
    if kind == "ad_rejected":
        n, base = draw(st.sampled_from(AD_REJECTED))
        w = draw(positive)
        weights = {s: w * v for s, v in base.items()}
        weights[0] = draw(st.one_of(st.just(Fraction(0)), positive))
    elif kind == "distance":
        # the distance-i class of the undirected n-cycle holds the shifts i and -i
        for i in draw(st.sets(st.integers(0, n // 2), min_size=1)):
            w = draw(positive)
            weights.update({i: w, -i % n: w})
    else:
        for s in draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)):
            weights[s] = draw(st.one_of(st.just(Fraction(0)), positive))
            if kind == "symmetric":
                weights[-s % n] = weights[s]
    return [[weights.get((y - x) % n, Fraction(0)) for y in range(n)] for x in range(n)]


@given(theorem_2_draws())
@settings(max_examples=150, deadline=None)
def test_theorem_2_accepted_exactly_when_the_coherent_closure_has_rank_d_plus_1(grid):
    # Theorem 2 against the coherent closure: the algebra of B, of dimension
    # deg m_B, lies in W(B), and it is the Bose-Mesner algebra of a D-class
    # scheme iff it is all of W(B) and deg m_B = D + 1. Every draw is
    # nonnegative, lambda-doubly stochastic and normal; a reducible one has no
    # diameter and is rejected. The 1 x 1 zero matrix is the one divergence:
    # rank W(B) = deg m_B = D + 1 = 1, yet the gate rejects it with
    # LAMBDA_ZERO, as test_stochastic.py::test_every_stage_reports_the_gates_first_failure
    # and test_rejection_lambda_zero pin.
    assume(grid != [[0]])
    b = RationalMatrix(grid)
    try:
        diameter = distance_structure(underlying_digraph(b)).diameter
    except UnreachablePairError:
        closed = False
    else:
        closed = coherent_closure_rank(grid) == minimal_polynomial(b).degree == diameter + 1
    assert detect_scheme(b).accepted == closed
