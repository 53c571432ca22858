import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrealize import (
    Algebra,
    OperatorMatrix,
    Scalar,
    matrix_vector_commutators,
    outer_commutator,
    row_commutator,
    scalar_vec_commutator,
)
from qrealize.algebra import CommutationMatrix, Monomial, OperatorPolynomial, render
from qrealize.matrices import block_diag as operator_block_diag
from qrealize.scalars import grid

from helpers import (block_diag, grid_conj, grid_neg, polynomials, random_poly, scalar_matrix,
                     sign_grid)


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
    assert (got - scalar_matrix(a, theta)).is_zero


def test_outer_commutator_doubled_is_graded(alg):
    abar = doubled_vector(alg)
    got = outer_commutator(abar, abar)
    target = block_diag(alg.theta.theta, grid_neg(grid_conj(alg.theta.theta)))
    assert (got - scalar_matrix(alg, target)).is_zero


def test_block_diag_matches_the_grid_form():
    theta = grid([[2, Scalar(0, 1)], [Scalar(0, -1), 1]])
    a = Algebra(2, CommutationMatrix(theta))
    top = scalar_matrix(a, theta)
    bottom = scalar_matrix(a, grid([[3]]))
    got = operator_block_diag(top, bottom)
    want = scalar_matrix(a, block_diag(theta, grid([[3]])))
    assert (got.rows, got.cols) == (3, 3)
    assert list(got.nonzero) == list(want.nonzero) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    assert (got - want).is_zero
    sign = operator_block_diag(OperatorMatrix.identity(a, 2), -OperatorMatrix.identity(a, 2))
    assert (sign - scalar_matrix(a, sign_grid(2))).is_zero


def test_repr_shows_the_shape_and_the_nonzero_entries(alg):
    m = OperatorMatrix(alg, 2, 2, [alg.zero(), alg.annihilator(1), alg.scalar(3), alg.zero()])
    assert repr(m) == "<OperatorMatrix 2x2 {(0,1): (1+0i)*a1, (1,0): (3+0i)}>"
    assert repr(OperatorMatrix.column(alg, [alg.zero()])) == "<OperatorMatrix 1x1 {}>"


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
            assert got.entry(j, k) == -w.entry(k, 0).commutator(u.entry(j, 0))


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
    assert (m @ OperatorMatrix.identity(alg, 3) - m).is_zero
    with pytest.raises(ValueError):
        m @ random_matrix(rng, alg, 2, 2)


def test_product_adjoint_law(alg):
    rng = random.Random(21)
    for _ in range(10):
        m = random_matrix(rng, alg, 2, 2)
        n = random_matrix(rng, alg, 2, 2)
        assert ((m @ n).adjoint() - n.adjoint() @ m.adjoint()).is_zero


def test_adjoint_involution(alg):
    rng = random.Random(23)
    m = random_matrix(rng, alg, 2, 3)
    assert (m.adjoint().adjoint() - m).is_zero


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


FLOAT_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5]),
    st.floats(min_value=-8, max_value=8, allow_subnormal=False),
)


def float_polynomials(alg):
    """Float-coefficient polynomials, ±0.0 parts included, at most 2 terms."""
    exponents = st.tuples(*[st.integers(0, 2)] * alg.modes)
    coeffs = st.builds(Scalar, FLOAT_PARTS, FLOAT_PARTS)
    terms = st.lists(st.tuples(exponents, exponents, coeffs), max_size=2)
    return terms.map(lambda ts: OperatorPolynomial(
        alg, {Monomial(cre, ann): c for cre, ann, c in ts}))


class DenseMatrix:
    """Reference: the list-backed matrix that stored every entry and looped
    over all of them, as OperatorMatrix did before it kept only nonzeros."""

    def __init__(self, alg, rows, cols, entries):
        self.algebra, self.rows, self.cols, self.entries = alg, rows, cols, list(entries)

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def like(self, entries, rows=None, cols=None):
        return DenseMatrix(self.algebra, rows or self.rows, cols or self.cols, entries)

    def __add__(self, other):
        return self.like([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.like([-e for e in self.entries])

    def __matmul__(self, other):
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = self.algebra.zero()
                for k in range(self.cols):
                    left, right = self.entry(i, k), other.entry(k, j)
                    if not (left.is_zero or right.is_zero):
                        acc = acc + left * right
                out.append(acc)
        return self.like(out, self.rows, other.cols)

    def scale(self, c):
        return self.like([e.scale(c) for e in self.entries])

    def transpose(self):
        return self.like([self.entry(i, j) for j in range(self.cols) for i in range(self.rows)],
                         self.cols, self.rows)

    def conj(self):
        return self.like([e.adjoint() for e in self.entries])

    def adjoint(self):
        return self.conj().transpose()

    @property
    def is_zero(self):
        return all(e.is_zero for e in self.entries)

    def sparse(self):
        return OperatorMatrix(self.algebra, self.rows, self.cols, self.entries)


def dense_vector_commutators(m, w, dagger=False):
    """The all-pairs loop ``matrix_vector_commutators`` replaced."""
    targets = [p.adjoint() for p in w.entries] if dagger else w.entries
    return [((i + 1, j + 1, k + 1), c)
            for i in range(m.rows) for j in range(m.cols)
            for k, t in enumerate(targets)
            for c in [m.entry(i, j).commutator(t)] if not c.is_zero]


def component_reprs(p):
    return [(mono, repr(c.re), repr(c.im)) for mono, c in p.terms.items()]


def matrix_reprs(m):
    return (m.rows, m.cols, [component_reprs(e) for e in m.entries])


@st.composite
def sparse_matrix_pairs(draw, floats=False):
    """Dense (a, b, c) with a.cols == b.rows and c shaped like a, over 1-2
    modes, about half the entries zero; with ``floats`` the coefficients are
    floats with ±0.0 parts."""
    alg = Algebra(draw(st.integers(1, 2)))
    poly = float_polynomials(alg) if floats else polynomials(alg, max_terms=2, max_exponent=2)
    entry = st.one_of(st.just(alg.zero()), poly.filter(lambda p: not p.is_zero))
    rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(3))

    def matrix(r, c):
        return DenseMatrix(alg, r, c, [draw(entry) for _ in range(r * c)])

    return matrix(rows, inner), matrix(inner, cols), matrix(rows, inner)


@settings(max_examples=40, deadline=None)
@given(pair=st.booleans().flatmap(sparse_matrix_pairs))
def test_matmul_skipping_zero_entries_equals_full_sum(pair):
    da, db, _ = pair
    a, b = da.sparse(), db.sparse()
    got = a @ b
    for i in range(a.rows):
        for j in range(b.cols):
            full = a.algebra.zero()
            for k in range(a.cols):
                full = full + a.entry(i, k) * b.entry(k, j)
            assert got.entry(i, j).terms == full.terms
    assert matrix_reprs(got) == matrix_reprs(da @ db)


@settings(max_examples=60, deadline=None)
@given(triple=st.booleans().flatmap(sparse_matrix_pairs), c=st.builds(Scalar, FLOAT_PARTS))
def test_sparse_matrix_matches_dense_reference(triple, c):
    da, db, dc = triple
    a, b, m = da.sparse(), db.sparse(), dc.sparse()
    assert matrix_reprs(a) == matrix_reprs(da)
    assert [e is a.algebra.zero() for e in a.entries] == [e.is_zero for e in da.entries]
    for got, want in [
        (a @ b, da @ db), (a + m, da + dc), (a - m, da - dc), (-a, -da),
        (a.scale(c), da.scale(c)), (a.scale(2), da.scale(2)), (a.conj(), da.conj()),
        (a.adjoint(), da.adjoint()), (a.transpose(), da.transpose()),
    ]:
        assert matrix_reprs(got) == matrix_reprs(want)
        assert got.is_zero == want.is_zero
        assert [render(e) for e in got.entries] == [render(e) for e in want.entries]
    assert (a - a.adjoint().adjoint()).is_zero
    vector = DenseMatrix(a.algebra, a.algebra.modes, 1,
                         [a.algebra.annihilator(j) for j in range(1, a.algebra.modes + 1)])
    vector.entries[-1] = vector.entries[-1] + b.entry(0, 0)
    for dagger in (False, True):
        got = matrix_vector_commutators(a, vector.sparse(), dagger=dagger)
        want = dense_vector_commutators(da, vector, dagger=dagger)
        assert [(label, component_reprs(p)) for label, p in got] == [
            (label, component_reprs(p)) for label, p in want]
