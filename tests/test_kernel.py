"""The polynomial kernel against its frozen reference, and the Monomial API.

``reference_kernel`` is the kernel as it stood with frozen-dataclass
monomials and no fast paths.  Products, commutators, sums, differences,
negations, adjoints and the matrix sum and product must give the same terms
in the same order with the same components, compared through ``repr``.
"""

import copy
import gc
import pickle
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernel as ref
from reference_kernel import component_reprs as reprs
from helpers import load_workloads
from qrealize import Algebra, CommutationMatrix, Scalar, parse_model, run_checks
from qrealize.algebra import Monomial, OperatorPolynomial
from qrealize.matrices import OperatorMatrix

PROPERTY = settings(max_examples=40, deadline=None)

THETAS = {
    "identity": None,
    "diagonal": [2, Fraction(1, 3), 1],
    "float-diagonal": [2.0, -0.5, 1.0],
    "non-diagonal": [[2, Scalar(0, 1)], [Scalar(0, -1), 3]],
}
FLOAT_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.25]),
    st.floats(min_value=-8, max_value=8, allow_subnormal=False),
)
EXACT_PARTS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def draw_algebra(draw, kind):
    theta = THETAS[kind]
    if theta is not None and isinstance(theta[0], list):
        return Algebra(len(theta), CommutationMatrix(theta))
    n = draw(st.integers(1, 3))
    if theta is not None:
        theta = [[theta[j] if j == k else 0 for k in range(n)] for j in range(n)]
    return Algebra(n, theta)


def draw_poly(draw, alg, floats, creates=True, annihilates=True):
    exponents = st.tuples(*[st.integers(0, 2)] * alg.modes)
    none = st.just((0,) * alg.modes)
    parts = FLOAT_PARTS if floats else EXACT_PARTS
    terms = draw(st.lists(st.tuples(exponents if creates else none,
                                    exponents if annihilates else none,
                                    st.builds(Scalar, parts, parts)), max_size=4))
    return OperatorPolynomial(alg, {Monomial(cre, ann): c for cre, ann, c in terms})


@st.composite
def kernel_pairs(draw, kind, floats, contracts):
    """(p, q) over one algebra.  Without ``contracts`` p only creates and q
    only annihilates, so no term pair of p * q contracts; with it q is
    sometimes a generator a_j or a_j'."""
    alg = draw_algebra(draw, kind)
    p = draw_poly(draw, alg, floats, annihilates=contracts)
    q = draw_poly(draw, alg, floats, creates=contracts)
    if contracts and draw(st.booleans()):
        j = draw(st.integers(1, alg.modes))
        q = alg.creator(j) if draw(st.booleans()) else alg.annihilator(j)
    return p, q


@pytest.mark.parametrize("contracts", [True, False], ids=["contracting", "one-word"])
@pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("kind", THETAS)
@PROPERTY
@given(data=st.data())
def test_kernel_matches_frozen_reference(kind, floats, contracts, data):
    p, q = data.draw(kernel_pairs(kind, floats, contracts))
    alg, tp, tq = p.algebra, ref.terms_of(p), ref.terms_of(q)
    assert reprs(p * q) == reprs(ref.mul(alg, tp, tq))
    assert reprs(q * p) == reprs(ref.mul(alg, tq, tp))
    assert reprs(p.commutator(q)) == reprs(ref.commutator(alg, tp, tq))
    assert reprs(q.commutator(p)) == reprs(ref.commutator(alg, tq, tp))
    assert reprs(p + q) == reprs(ref.add(alg, tp, tq))
    assert reprs(q + p) == reprs(ref.add(alg, tq, tp))
    assert reprs(p - q) == reprs(ref.sub(alg, tp, tq))
    assert reprs(-p) == reprs(ref.neg(alg, tp))
    assert reprs(p.adjoint()) == reprs(ref.adjoint(alg, tp))


@pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
@pytest.mark.parametrize("kind", ["identity", "non-diagonal"])
@PROPERTY
@given(data=st.data())
def test_matrix_sum_and_product_match_frozen_reference(kind, floats, data):
    alg = draw_algebra(data.draw, kind)

    def matrix():
        return OperatorMatrix(alg, 2, 2, [
            draw_poly(data.draw, alg, floats) if data.draw(st.booleans()) else alg.zero()
            for _ in range(4)])

    a, b = matrix(), matrix()

    def entries(m):
        return [(key, reprs(e)) for key, e in m.nonzero.items()]

    def ref_entries(terms):
        return [(key, reprs(t)) for key, t in terms.items()]

    assert entries(a + b) == ref_entries(ref.matadd(a, b))
    assert entries(a @ b) == ref_entries(ref.matmul(a, b))


# -- the Monomial API ---------------------------------------------------------

def test_monomials_built_apart_are_one_key():
    a, b = Monomial((1, 0), (0, 2)), Monomial(tuple([1, 0]), tuple([0, 2]))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    slots = {a: 1}
    slots[b] = 2
    assert slots == {a: 2}
    assert a != Monomial((0, 1), (0, 2))


def test_monomial_fields():
    m = Monomial((2, 0), (0, 1))
    assert m.creation == (2, 0) and m.annihilation == (0, 1)
    assert m.degree == 3 and not m.is_unit
    assert m.sort_key() == (3, (-2, 0), (0, -1))
    assert repr(m) == "Monomial(creation=(2, 0), annihilation=(0, 1))"
    # the benchmark's guard rule reads the largest exponent this way
    assert max(m.creation + m.annihilation) == 2
    unit = Monomial.unit(2)
    assert unit == Monomial((0, 0), (0, 0)) and unit.is_unit and unit.degree == 0
    alg = Algebra(2)
    p = alg.creator(1) ** 2 * alg.annihilator(2)
    (key,) = p.terms
    assert type(key) is Monomial and key == m
    assert copy.copy(m) == m and type(pickle.loads(pickle.dumps(m))) is Monomial
    assert pickle.loads(pickle.dumps(p)).terms == p.terms


def test_word_table_reads_masks_and_generators():
    alg = Algebra(3)
    assert alg.word(Monomial((0, 1, 0), (0, 0, 0))) == (0, 0b010, (1, True))
    assert alg.word(Monomial((0, 0, 0), (0, 0, 1))) == (0b100, 0, (2, False))
    assert alg.word(Monomial((2, 0, 0), (0, 1, 1))) == (0b110, 0b001, None)
    assert alg.word(Monomial.unit(3)) == (0, 0, None)


def test_word_table_lives_no_longer_than_its_algebra():
    alg = Algebra(2)
    p = (alg.creator(1) * alg.annihilator(2)).commutator(alg.creator(2) ** 2)
    assert not p.is_zero
    dropped = weakref.ref(alg)
    del alg, p
    gc.collect()
    assert dropped() is None


def _container_sizes():
    """Sizes of the dicts, lists and sets held by qrealize's modules and by
    the classes they define."""
    sizes = {}
    for name, mod in list(sys.modules.items()):
        if name != "qrealize" and not name.startswith("qrealize."):
            continue
        owners = [(name, vars(mod))] + [
            (f"{name}.{cls.__name__}", vars(cls)) for cls in vars(mod).values()
            if isinstance(cls, type) and cls.__module__ == name]
        for owner, namespace in owners:
            for attr, value in namespace.items():
                if not attr.startswith("__") and isinstance(value, (dict, list, set)):
                    sizes[owner, attr] = len(value)
    return sizes


def test_no_module_level_container_grows_across_models():
    workloads = load_workloads()
    assert run_checks(parse_model(workloads.chain_text(2))).overall
    before = _container_sizes()
    for i in range(50):
        text = workloads.chain_text(2 + i % 3, k=Fraction(i + 1, 2), with_phi=i % 2 == 0)
        run_checks(parse_model(text))
    assert _container_sizes() == before
