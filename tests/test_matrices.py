import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrealize import (
    Algebra,
    OperatorMatrix,
    Scalar,
    commutator,
    matrix_vector_commutators,
    outer_commutator,
    row_commutator,
    scalar_vec_commutator,
)
from qrealize.algebra import CommutationMatrix
from qrealize.scalars import block_diag, grid, grid_conj, grid_neg

from helpers import polynomials, random_poly


@pytest.fixture
def alg():
    return Algebra(2)


def mode_vector(a):
    return OperatorMatrix.column(a, [a.annihilator(j) for j in range(1, a.modes + 1)])


def doubled_vector(a):
    return OperatorMatrix.column(
        a,
        [a.annihilator(j) for j in range(1, a.modes + 1)]
        + [a.creator(j) for j in range(1, a.modes + 1)],
    )


def random_matrix(rng, a, rows, cols):
    return OperatorMatrix(
        a, rows, cols, [random_poly(rng, a, max_terms=2, max_degree=2) for _ in range(rows * cols)]
    )


def test_outer_commutator_recovers_theta():
    theta = grid([[2, Scalar(0, 1)], [Scalar(0, -1), 1]])
    a = Algebra(2, CommutationMatrix(theta))
    got = outer_commutator(mode_vector(a), mode_vector(a))
    assert got == OperatorMatrix.from_scalars(a, theta)


def test_outer_commutator_doubled_is_graded(alg):
    abar = doubled_vector(alg)
    got = outer_commutator(abar, abar)
    target = block_diag(alg.theta.theta, grid_neg(grid_conj(alg.theta.theta)))
    assert got == OperatorMatrix.from_scalars(alg, target)


def test_outer_commutator_of_constants_is_zero(alg):
    u = OperatorMatrix.column(alg, [alg.scalar(3), alg.scalar(Scalar(0, 2))])
    assert outer_commutator(u, u).is_zero


def test_row_commutator_antisymmetry(alg):
    rng = random.Random(5)
    u = random_matrix(rng, alg, 3, 1)
    w = random_matrix(rng, alg, 2, 1)
    got = row_commutator(u, w)
    for j in range(3):
        for k in range(2):
            assert got.entry(j, k) == -commutator(w.entry(k, 0), u.entry(j, 0))


def test_row_commutator_of_constants_vanishes(alg):
    u = OperatorMatrix.column(alg, [alg.one(), alg.scalar(7)])
    assert row_commutator(u, mode_vector(alg)).is_zero


def test_scalar_vec_commutator_number_operator(alg):
    s = alg.creator(1) * alg.annihilator(1)
    v = OperatorMatrix.column(alg, [alg.annihilator(1)])
    got = scalar_vec_commutator(s, v)
    assert got.entry(0, 0) == -alg.annihilator(1)


def test_scalar_vec_commutator_constant_gives_zero(alg):
    got = scalar_vec_commutator(alg.scalar(4), mode_vector(alg))
    assert got.is_zero


def test_matmul_shapes_and_identity(alg):
    rng = random.Random(9)
    m = random_matrix(rng, alg, 2, 3)
    assert m @ OperatorMatrix.identity(alg, 3) == m
    with pytest.raises(ValueError):
        m @ random_matrix(rng, alg, 2, 2)


def test_product_adjoint_law(alg):
    rng = random.Random(21)
    for _ in range(10):
        m = random_matrix(rng, alg, 2, 2)
        n = random_matrix(rng, alg, 2, 2)
        assert (m @ n).adjoint() == n.adjoint() @ m.adjoint()


def test_adjoint_involution(alg):
    rng = random.Random(23)
    m = random_matrix(rng, alg, 2, 3)
    assert m.adjoint().adjoint() == m


def test_matrix_vector_commutators_names(alg):
    m = OperatorMatrix(
        alg, 1, 2, [alg.creator(1), alg.one()]
    )
    residuals = matrix_vector_commutators(m, mode_vector(alg))
    assert len(residuals) == 1
    (i, j, k), poly = residuals[0]
    assert (i, j, k) == (1, 1, 1)
    assert poly == alg.scalar(-1)


def test_order_preserving_product(alg):
    # entries multiply left-to-right: a1 then a1' keeps the rewrite term
    left = OperatorMatrix(alg, 1, 1, [alg.annihilator(1)])
    right = OperatorMatrix(alg, 1, 1, [alg.creator(1)])
    got = (left @ right).entry(0, 0)
    assert got == alg.creator(1) * alg.annihilator(1) + 1


@st.composite
def sparse_matrix_pairs(draw):
    """(a, b) with a.cols == b.rows, over 1-2 modes, about half the entries zero."""
    alg = Algebra(draw(st.integers(1, 2)))
    entry = st.one_of(st.just(alg.zero()), polynomials(alg, max_terms=2, max_exponent=2))
    rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(3))

    def matrix(r, c):
        return OperatorMatrix(alg, r, c, [draw(entry) for _ in range(r * c)])

    return matrix(rows, inner), matrix(inner, cols)


@settings(max_examples=40, deadline=None)
@given(pair=sparse_matrix_pairs())
def test_matmul_skipping_zero_entries_equals_full_sum(pair):
    a, b = pair
    got = a @ b
    for i in range(a.rows):
        for j in range(b.cols):
            full = a.algebra.zero()
            for k in range(a.cols):
                full = full + a.entry(i, k) * b.entry(k, j)
            assert got.entry(i, j).terms == full.terms
