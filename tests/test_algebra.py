import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrealize.algebra
import reference_kernel
from helpers import polynomials, random_poly
from qrealize import (
    Algebra,
    ParseError,
    Scalar,
    normal_order,
    parse_expression,
    render,
    wirtinger_gradient,
)
from qrealize.algebra import (
    ONE,
    ZERO,
    CommutationMatrix,
    Monomial,
    OperatorPolynomial,
    _poly,
)


@pytest.fixture
def one_mode():
    return Algebra(1)


@pytest.fixture
def two_modes():
    return Algebra(2)


# -- normal ordering ----------------------------------------------------------

def monomial_word(m):
    """m as a factor sequence of (mode, dagger) pairs, 1-based modes."""
    cre = [(i + 1, True) for i, h in enumerate(m.creation) for _ in range(h)]
    return cre + [(i + 1, False) for i, k in enumerate(m.annihilation) for _ in range(k)]


def rewrite_word(alg, word, strategy="leftmost"):
    """Reference normal form of a word of 1-based ``(mode, dagger)`` pairs:
    the fixpoint of the rewrite a_j a_k' -> a_k' a_j + theta_jk, applied at
    the leftmost or the rightmost out-of-order pair."""
    out = defaultdict(lambda: ZERO)
    stack = [(ONE, tuple((mode - 1, bool(dag)) for mode, dag in word))]
    while stack:
        coeff, w = stack.pop()
        bad = [i for i in range(len(w) - 1) if not w[i][1] and w[i + 1][1]]
        if not bad:
            cre, ann = [0] * alg.modes, [0] * alg.modes
            for mode, dag in w:
                (cre if dag else ann)[mode] += 1
            mono = Monomial(tuple(cre), tuple(ann))
            out[mono] = out[mono] + coeff
            continue
        i = bad[0] if strategy == "leftmost" else bad[-1]
        (j, _), (k, _) = w[i], w[i + 1]
        stack.append((coeff, w[:i] + (w[i + 1], w[i]) + w[i + 2:]))
        theta_jk = alg.theta.entry(j, k)
        if not theta_jk.is_zero(0.0):
            stack.append((coeff * theta_jk, w[:i] + w[i + 2:]))
    return OperatorPolynomial(alg, dict(out))


def test_single_forced_rewrite(one_mode):
    got = normal_order(one_mode, [(1, False), (1, True)])
    expected = one_mode.creator(1) * one_mode.annihilator(1) + 1
    assert got == expected


def test_double_rewrite(one_mode):
    word = [(1, False), (1, True), (1, False), (1, True)]
    a, ad = one_mode.annihilator(1), one_mode.creator(1)
    assert normal_order(one_mode, word) == ad**2 * a**2 + 3 * ad * a + 1


def test_already_ordered_word_unchanged(two_modes):
    got = normal_order(two_modes, [(2, True), (1, False)])
    assert got == two_modes.creator(2) * two_modes.annihilator(1)


def test_mode_index_out_of_range(two_modes):
    with pytest.raises(ValueError):
        normal_order(two_modes, [(3, False)])


def test_confluence_on_random_words(two_modes):
    rng = random.Random(7)
    for _ in range(60):
        word = [
            (rng.randint(1, 2), rng.random() < 0.5) for _ in range(rng.randint(1, 6))
        ]
        left = rewrite_word(two_modes, word, "leftmost")
        right = rewrite_word(two_modes, word, "rightmost")
        assert left.terms == right.terms
        assert normal_order(two_modes, word).terms == left.terms


def test_normal_order_respects_theta():
    alg = Algebra(2, CommutationMatrix([[2, Scalar(0, 1)], [Scalar(0, -1), 3]]))
    got = normal_order(alg, [(1, False), (2, True)])
    assert got == alg.creator(2) * alg.annihilator(1) + alg.scalar(Scalar(0, 1))


# a symmetric theta, and a triangular one whose theta_21 = 0 tells the rows
# of theta from its columns
@pytest.mark.parametrize("theta", [[[2, Fraction(1, 3)], [Fraction(1, 3), 1]],
                                   [[1, Fraction(1, 2)], [0, 2]]])
def test_wick_product_at_rational_non_diagonal_theta(theta):
    # a1^2 * a2'^2 = a2'^2 a1^2 + 4 theta_12 a2' a1 + 2 theta_12^2
    alg = Algebra(2, theta)
    t12 = theta[0][1]
    a1, a2d = alg.annihilator(1), alg.creator(2)
    expected = a2d**2 * a1**2 + (a2d * a1).scale(4 * t12) + alg.scalar(2 * t12**2)
    assert (a1**2 * a2d**2).terms == expected.terms
    assert a1.commutator(a2d) == alg.scalar(t12)
    assert (a1**2).commutator(a2d**2).terms == (expected - a2d**2 * a1**2).terms


# -- products, adjoints, commutators ------------------------------------------

def test_multiply_identity(one_mode):
    p = one_mode.creator(1) * one_mode.annihilator(1) + 2
    assert one_mode.one() * p == p


def test_multiply_no_rewrite_needed(one_mode):
    assert one_mode.creator(1) * one_mode.annihilator(1) == one_mode.monomial((1,), (1,))


def test_multiply_cross_mode(two_modes):
    lhs = two_modes.creator(1) * two_modes.annihilator(2) ** 2
    got = lhs * two_modes.creator(2)
    expected = (
        two_modes.monomial((1, 1), (0, 2))
        + two_modes.monomial((1, 0), (0, 1), Scalar(2))
    )
    assert got == expected


def test_multiply_rejects_mode_mismatch(one_mode, two_modes):
    with pytest.raises(ValueError):
        one_mode.annihilator(1) * two_modes.annihilator(1)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_algebra_refuses_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        Algebra(1, tol=tol)


# (re, im, whether Scalar(re, im).is_zero(1e-9)): a binary64 coefficient is
# zero when its modulus is at most the tolerance, and a NaN never is
ZERO_RULE_ROWS = [
    (8e-10, 8e-10, False),  # each part is within 1e-9, the modulus is not
    (7e-10, 7e-10, True),
    (math.nan, 0.0, False),
    (math.inf, 0.0, False),
    (0.0, -0.0, True),
]


@pytest.mark.parametrize("re, im, zero", ZERO_RULE_ROWS)
def test_one_zero_rule_for_binary64_coefficients(re, im, zero):
    c = Scalar(re, im)
    assert c.is_zero(1e-9) is zero
    alg = Algebra(1, tol=1e-9)
    word = Monomial((0,), (1,))
    # the constructor prunes c, and so does a sum that lands on c
    assert OperatorPolynomial(alg, {word: c}).is_zero is zero
    assert _poly(alg, {word: Scalar(0.0)})._plus(alg, [(word, c)]).is_zero is zero
    # the parser folds k*1 to c: it drops c where it is zero and refuses it
    # where it is not finite, but never reads a NaN as zero
    if math.isfinite(re):
        assert parse_expression("k*1", alg, {"k": c}).is_zero is zero
    else:
        with pytest.raises(ParseError, match="number too large for binary64"):
            parse_expression("k*1", alg, {"k": c})


def test_coeff_norm_is_nan_wherever_the_nan_coefficient_stands(one_mode):
    words = [Monomial((0,), (0,)), Monomial((1,), (0,)), Monomial((0,), (1,))]
    coeffs = [Scalar(math.nan, 0.0), Scalar(3.0), Scalar(1.0)]
    for k in range(len(coeffs)):
        p = OperatorPolynomial(one_mode, dict(zip(words, coeffs[k:] + coeffs[:k])))
        assert len(p.terms) == 3 and math.isnan(p.coeff_norm()), k


def test_adjoint_rules(two_modes):
    p = two_modes.creator(1) * two_modes.annihilator(2) ** 2
    assert p.adjoint() == two_modes.creator(2) ** 2 * two_modes.annihilator(1)
    q = two_modes.annihilator(1).scale(Scalar(0, 1))
    assert q.adjoint() == two_modes.creator(1).scale(Scalar(0, -1))
    number = two_modes.creator(1) * two_modes.annihilator(1)
    assert number.adjoint() == number


def test_commutator_ccr(one_mode):
    assert one_mode.annihilator(1).commutator(one_mode.creator(1)) == one_mode.one()


def test_commutator_self_is_zero(two_modes):
    p = random_poly(random.Random(3), two_modes)
    assert p.commutator(p).is_zero


def test_commutator_creator_squared(one_mode):
    got = (one_mode.creator(1) ** 2).commutator(one_mode.annihilator(1))
    assert got == one_mode.creator(1).scale(Scalar(-2))


# -- algebraic law property suites --------------------------------------------

def test_ring_laws_random(two_modes):
    rng = random.Random(11)
    for _ in range(40):
        p = random_poly(rng, two_modes)
        q = random_poly(rng, two_modes)
        r = random_poly(rng, two_modes)
        assert ((p * q) * r - p * (q * r)).is_zero
        assert (p * (q + r) - (p * q + p * r)).is_zero
        assert (two_modes.one() * p - p).is_zero


def test_commutator_laws_random(two_modes):
    rng = random.Random(13)
    for _ in range(25):
        p = random_poly(rng, two_modes)
        q = random_poly(rng, two_modes)
        r = random_poly(rng, two_modes)
        assert (p.commutator(q) + q.commutator(p)).is_zero
        leibniz = (p * q).commutator(r) - (p * q.commutator(r) + p.commutator(r) * q)
        assert leibniz.is_zero
        jacobi = (
            p.commutator(q.commutator(r))
            + q.commutator(r.commutator(p))
            + r.commutator(p.commutator(q))
        )
        assert jacobi.is_zero


def test_adjoint_laws_random(two_modes):
    rng = random.Random(17)
    for _ in range(30):
        p = random_poly(rng, two_modes)
        q = random_poly(rng, two_modes)
        assert ((p * q).adjoint() - q.adjoint() * p.adjoint()).is_zero
        assert (p.commutator(q).adjoint() - q.adjoint().commutator(p.adjoint())).is_zero
        assert (p.adjoint().adjoint() - p).is_zero


# -- gradients ----------------------------------------------------------------

def test_gradient_of_number_form(two_modes):
    phi = (
        two_modes.creator(1) * two_modes.annihilator(1)
        + two_modes.creator(2) * two_modes.annihilator(2)
    ).scale(Scalar(2))
    grad = wirtinger_gradient(phi)
    expected = [
        two_modes.annihilator(1).scale(Scalar(2)),
        two_modes.annihilator(2).scale(Scalar(2)),
        two_modes.creator(1).scale(Scalar(2)),
        two_modes.creator(2).scale(Scalar(2)),
    ]
    assert all((g - e).is_zero for g, e in zip(grad, expected))


def test_gradient_of_constant_is_zero(two_modes):
    grad = wirtinger_gradient(two_modes.scalar(5))
    assert all(g.is_zero for g in grad)


def test_gradient_degree_rule(one_mode):
    phi = one_mode.creator(1) ** 2 * one_mode.annihilator(1)
    grad = wirtinger_gradient(phi)
    assert grad[0] == (one_mode.creator(1) * one_mode.annihilator(1)).scale(Scalar(2))
    assert grad[1] == one_mode.creator(1) ** 2


# -- rendering ----------------------------------------------------------------

def test_render_golden_order(two_modes):
    h = two_modes.monomial((2, 0), (0, 2), Scalar(0, 1)) + two_modes.monomial(
        (0, 2), (2, 0), Scalar(0, -1)
    )
    assert render(h) == "(0+1i)*a1'^2*a2^2 + (0-1i)*a2'^2*a1^2"


def test_render_constant_and_zero(one_mode):
    assert render(one_mode.zero()) == "0"
    assert render(one_mode.scalar(Scalar(Fraction(1, 2), -1))) == "(1/2-1i)"


def test_render_degree_ordering(one_mode):
    p = one_mode.creator(1) + one_mode.one() + one_mode.creator(1) ** 2
    assert render(p) == "(1+0i) + (1+0i)*a1' + (1+0i)*a1'^2"


# -- the contraction-weight product and the direct commutator -----------------

# theta per kind: identity; a non-identity diagonal (one entry exactly 1)
# and a diagonal with a zero and a complex entry, both cut to the drawn mode
# count; the two-mode non-diagonal theta of test_normal_order_respects_theta;
# and a triangular two-mode theta, whose zero pattern is not symmetric, so
# that rows and columns of theta cannot be confused unseen.
THETAS = {
    "identity": None,
    "diagonal": [2, Fraction(1, 3), 1],
    "diagonal-zero": [0, -1, Scalar(0, 1)],
    "non-diagonal": [[2, Scalar(0, 1)], [Scalar(0, -1), 3]],
    "triangular": [[1, Fraction(1, 2)], [0, 2]],
}
PROPERTY = settings(max_examples=40, deadline=None)


def draw_algebra(draw, theta):
    """An algebra at ``theta``: a full matrix as given, or a diagonal (a flat
    list) cut to a drawn mode count."""
    if theta is not None and isinstance(theta[0], list):
        return Algebra(len(theta), CommutationMatrix(theta))
    n = draw(st.integers(1, 3))
    if theta is not None:
        theta = [[theta[j] if j == k else 0 for k in range(n)] for j in range(n)]
    return Algebra(n, theta)


@st.composite
def polynomial_pairs(draw, kind, max_exponent=3):
    alg = draw_algebra(draw, THETAS[kind])
    poly = polynomials(alg, max_exponent=max_exponent)
    return draw(poly), draw(poly)


def product_by_rewriting(p, q):
    """p * q term by term through ``rewrite_word`` of the concatenated words."""
    alg = p.algebra
    out = alg.zero()
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            word = monomial_word(m1) + monomial_word(m2)
            out = out + rewrite_word(alg, word).scale(c1 * c2)
    return out


@pytest.mark.parametrize("kind", ["identity", "diagonal", "diagonal-zero", "triangular"])
@PROPERTY
@given(data=st.data())
def test_commutator_equals_difference_of_products(kind, data):
    p, q = data.draw(polynomial_pairs(kind))
    assert p.commutator(q).terms == (p * q - q * p).terms


@PROPERTY
@given(pair=polynomial_pairs("non-diagonal", max_exponent=2))
def test_commutator_equals_difference_of_products_non_diagonal(pair):
    p, q = pair
    assert p.commutator(q).terms == (p * q - q * p).terms


@pytest.mark.parametrize("kind", THETAS)
@PROPERTY
@given(data=st.data())
def test_product_matches_word_rewriting(kind, data):
    max_exponent = 2 if kind in ("non-diagonal", "triangular") else 3
    p, q = data.draw(polynomial_pairs(kind, max_exponent))
    assert (p * q).terms == product_by_rewriting(p, q).terms


@PROPERTY
@given(
    diag=st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    off=st.integers(-2, 2),
)
def test_compatible_compares_theta_of_distinct_algebras(diag, off):
    n = len(diag)
    theta = [[diag[j] if j == k else (off if j < k else 0) for k in range(n)]
             for j in range(n)]
    a, b = Algebra(n, theta), Algebra(n, theta)
    assert a is not b
    assert a.compatible(b) and b.compatible(a)
    assert (a.annihilator(1) + b.creator(1)).algebra is a
    changed = [row[:] for row in theta]
    changed[0][0] += 1
    other = Algebra(n, changed)
    assert not a.compatible(other) and not other.compatible(a)
    with pytest.raises(ValueError):
        a.annihilator(1).commutator(other.creator(1))


def grid_fields(g):
    return [[(repr(t.re_num), repr(t.im_num), t.den) for t in row] for row in g]


@pytest.mark.parametrize("theta", [
    [[1, 0], [0, 1]],
    [[1.0, 0.0], [0.0, 1.0]],
    [[1.0, 0], [0, 1]],  # binary64 and exact entries: Gauss-Jordan makes row 1 binary64
    [[1, 0], [0, 1 + 1e-12]],
    [[2, 0], [0, 1]],
    [[1, 1], [1, 2]],
    [[Fraction(1, 2), 0], [0, 1]],
])
def test_inverse_and_unit_flags_match_gauss_jordan_and_comparison(theta):
    cm = CommutationMatrix(theta)
    assert grid_fields(cm.inverse()) == grid_fields(qrealize.algebra.grid_inverse(cm.theta))
    for j, row in enumerate(cm.row_entries):
        assert [(l, unit) for l, _, unit in row] == [
            (l, t == ONE) for l, t in enumerate(cm.theta[j]) if not t.is_zero(0.0)]
    assert cm.is_identity == qrealize.algebra.grid_is_identity(cm.theta)


# -- the commutator's contraction filter --------------------------------------

def all_pairs_commutator(p, q):
    """[p, q] visiting every pair of terms in both orders, through the frozen
    reference product of ``reference_kernel``; returns its term dict."""
    alg = p.algebra
    out = defaultdict(lambda: ZERO)
    for m1, c1 in reference_kernel.terms_of(p).items():
        for m2, c2 in reference_kernel.terms_of(q).items():
            c = c1 * c2
            reference_kernel.accumulate_product(alg, m1, c, m2, out, contracted=True)
            reference_kernel.accumulate_product(alg, m2, -c, m1, out, contracted=True)
    return reference_kernel.prune(alg, dict(out))


component_reprs = reference_kernel.component_reprs


FLOAT_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.25]),
    st.floats(min_value=-8, max_value=8, allow_subnormal=False),
)
FLOAT_THETAS = {
    "identity": None,
    "diagonal": [2, Fraction(1, 3), 1],
    "float-diagonal": [2.0, -0.5, 1.0],
}


@st.composite
def float_polynomial_pairs(draw, kind):
    alg = draw_algebra(draw, FLOAT_THETAS[kind])
    exponents = st.tuples(*[st.integers(0, 2)] * alg.modes)
    coeffs = st.builds(Scalar, FLOAT_PARTS, FLOAT_PARTS)
    terms = st.lists(st.tuples(exponents, exponents, coeffs), max_size=4)

    def poly():
        return OperatorPolynomial(
            alg, {Monomial(cre, ann): c for cre, ann, c in draw(terms)})

    return poly(), poly()


@pytest.mark.parametrize("kind", FLOAT_THETAS)
@PROPERTY
@given(data=st.data())
def test_float_commutator_matches_all_pairs_loop(kind, data):
    p, q = data.draw(float_polynomial_pairs(kind))
    assert component_reprs(p.commutator(q)) == component_reprs(all_pairs_commutator(p, q))
    assert component_reprs(q.commutator(p)) == component_reprs(all_pairs_commutator(q, p))


def test_commutator_with_a_constant_forms_no_product(monkeypatch):
    alg = Algebra(2)
    p = alg.annihilator(1) * alg.creator(2) ** 2 + alg.creator(1) + alg.scalar(3)
    c = alg.scalar(Scalar(2, -1))
    calls = []
    original = qrealize.algebra._accumulate_product
    monkeypatch.setattr(qrealize.algebra, "_accumulate_product",
                        lambda *args, **kw: calls.append(args) or original(*args, **kw))
    assert c.commutator(p).is_zero and p.commutator(c).is_zero
    assert calls == []
    # a pair that contracts in one order only forms that order
    assert alg.annihilator(1).commutator(alg.creator(1)) == alg.one()
    assert len(calls) == 1


# -- commutators against a generator ------------------------------------------

GENERATOR_THETAS = {
    "identity": None,
    "diagonal": THETAS["diagonal"],
    "diagonal-zero": THETAS["diagonal-zero"],
    "float-diagonal": FLOAT_THETAS["float-diagonal"],
    "non-diagonal": THETAS["non-diagonal"],
    "triangular": THETAS["triangular"],
}


@st.composite
def generator_pairs(draw, kind, floats):
    """(p, g): p with exact or float coefficients (±0.0 parts among the
    floats), g = a_j or a_j' of the same algebra."""
    alg = draw_algebra(draw, GENERATOR_THETAS[kind])
    n = alg.modes
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    parts = FLOAT_PARTS if floats else st.integers(-3, 3)
    coeffs = st.builds(Scalar, parts, parts)
    terms = draw(st.lists(st.tuples(exponents, exponents, coeffs), max_size=4))
    p = OperatorPolynomial(alg, {Monomial(cre, ann): c for cre, ann, c in terms})
    j = draw(st.integers(1, n))
    return p, alg.creator(j) if draw(st.booleans()) else alg.annihilator(j)


@pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("kind", GENERATOR_THETAS)
@PROPERTY
@given(data=st.data())
def test_generator_commutator_matches_all_pairs_loop(kind, floats, data):
    p, g = data.draw(generator_pairs(kind, floats))
    assert component_reprs(p.commutator(g)) == component_reprs(all_pairs_commutator(p, g))
    assert component_reprs(g.commutator(p)) == component_reprs(all_pairs_commutator(g, p))


def test_generator_commutator_forms_no_product(monkeypatch):
    alg = Algebra(2, [[2, 0], [0, Scalar(0, 1)]])
    p = alg.creator(1) ** 2 * alg.annihilator(2) + alg.annihilator(1) * alg.creator(2)
    calls = []
    original = qrealize.algebra._accumulate_product
    monkeypatch.setattr(qrealize.algebra, "_accumulate_product",
                        lambda *args, **kw: calls.append(args) or original(*args, **kw))
    for j in (1, 2):
        for g in (alg.annihilator(j), alg.creator(j)):
            assert not p.commutator(g).is_zero
            assert g.commutator(p) == -p.commutator(g)
    assert calls == []
    # [p, a_1'] = theta_11 dp/da_1 and [p, a_2] = -theta_22 dp/da_2'
    assert p.commutator(alg.creator(1)) == alg.creator(2).scale(2)
    assert p.commutator(alg.annihilator(2)) == alg.annihilator(1).scale(Scalar(0, -1))
