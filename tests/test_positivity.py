"""The LL-phi-nonneg pivot rule against independent references: every principal
minor, as an exact determinant, in exact mode, and numpy's smallest eigenvalue
in binary64."""

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrealize import Algebra, Scalar
from qrealize.checks import CONDITIONS

NONNEG = next(build for cid, _, _, build in CONDITIONS if cid == "LL-phi-nonneg")
FILL_IN = [[(1, 0), (1, 0), (1, 0)], [(1, 0), (1, 0), (1, 0)], [(1, 0), (1, 0), (2, 0)]]


def form(p, floating=False):
    """sum_ij P_ij a_i' a_j for P given as rows of (re, im) Gaussian integers."""
    alg = Algebra(len(p))
    phi = alg.zero()
    for i, j in np.ndindex(len(p), len(p)):
        coeff = Scalar(*map(float, p[i][j])) if floating else Scalar(*p[i][j])
        phi = phi + (alg.creator(i + 1) * alg.annihilator(j + 1)).scale(coeff)
    return phi


def passes(phi) -> bool:
    _, failures = NONNEG(None, phi)
    return not failures


def determinant(p, idx) -> Fraction:
    """The principal minor of p on the indices idx, by the Leibniz formula."""
    total_re, total_im = Fraction(0), Fraction(0)
    for perm in permutations(range(len(idx))):
        sign = (-1) ** sum(a > b for a, b in combinations(perm, 2))
        re, im = Fraction(sign), Fraction(0)
        for r, c in enumerate(perm):
            x, y = p[idx[r]][idx[c]]
            re, im = re * x - im * y, re * y + im * x
        total_re, total_im = total_re + re, total_im + im
    assert total_im == 0  # a Hermitian minor is real
    return total_re


def minors_nonnegative(p) -> bool:
    n = len(p)
    return all(determinant(p, idx) >= 0
               for size in range(1, n + 1) for idx in combinations(range(n), size))


gaussian = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def hermitian(draw):
    """A Hermitian Gaussian-integer matrix with entries in -3..3, n <= 4."""
    n = draw(st.integers(1, 4))
    p = [[None] * n for _ in range(n)]
    for i in range(n):
        p[i][i] = (draw(st.integers(-3, 3)), 0)
        for j in range(i + 1, n):
            re, im = draw(gaussian)
            p[i][j], p[j][i] = (re, im), (re, -im)
    return p


@st.composite
def gram(draw):
    """G' G for a Gaussian-integer G of m <= n rows: PSD, singular when m < n."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    g = [[draw(gaussian) for _ in range(n)] for _ in range(m)]
    return [[(sum(g[k][i][0] * g[k][j][0] + g[k][i][1] * g[k][j][1] for k in range(m)),
              sum(g[k][i][0] * g[k][j][1] - g[k][i][1] * g[k][j][0] for k in range(m)))
             for j in range(n)] for i in range(n)]


matrices = st.one_of(hermitian(), gram())


@settings(max_examples=300, deadline=None)
@given(matrices)
@example(FILL_IN)
def test_exact_pivot_rule_is_every_principal_minor_nonnegative(p):
    assert passes(form(p)) is minors_nonnegative(p)


@settings(max_examples=300, deadline=None)
@given(matrices)
@example(FILL_IN)
def test_float_pivot_rule_agrees_with_the_smallest_eigenvalue(p):
    dense = np.array([[complex(*x) for x in row] for row in p])
    smallest = float(np.linalg.eigvalsh(dense).min())
    if abs(smallest) > 1e-6:
        assert passes(form(p, floating=True)) is (smallest > 0)


@pytest.mark.parametrize("floating", [False, True], ids=["exact", "float"])
def test_a_cancelled_fill_in_leaves_with_its_zero_pivot(floating):
    # the first step leaves the entry (2,3) at exactly 0 in both rows; the zero
    # pivot of a2 must take it out of row 3 too
    phi = form(FILL_IN, floating)
    assert NONNEG(None, phi) == ("positive semidefinite quadratic form", [])
