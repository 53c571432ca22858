"""The mirrored halves of the doubled residuals against their direct forms.

At Hermitian theta the checks form each doubled residual from the half that
carries its information and take the other half by adjoint (``mirror``).
The references here are the direct forms: ``[abar, Abar']`` and the bottom
rows of ``[Abar, abar']`` as outer commutators, ``abar' G^-1 Abar`` as a
matrix product, and the class identity's second term as the commutator of
that bracket with abar.  Each mirrored polynomial must equal its reference
field for field, ``(re_num, im_num, den)`` with the sign of a zero part and
the order of the terms, in exact and in float mode.
"""

from fractions import Fraction

import pytest

from qrealize import parse_model
from qrealize.checks import _brackets, _ccr_sum, generator_identity_parts
from qrealize.matrices import OperatorMatrix, mirror, outer_commutator, scalar_vec_commutator
from qrealize.model import double
from qrealize.scalars import Scalar, block_diag, grid_conj, grid_inverse, grid_neg

from conftest import CAVITY_PATH, MUTATIONS, golden_models, mutate
from helpers import load_workloads

WORKLOADS = load_workloads()


def fields(p):
    """Each term of p in order, with the exact fields of its coefficient;
    ``repr`` tells -0.0 from 0.0."""
    return [((m.creation, m.annihilation), repr(c.re_num), repr(c.im_num), c.den)
            for m, c in p.terms.items()]


def model_texts():
    cavity = CAVITY_PATH.read_text()
    out = golden_models()
    # a non-diagonal complex theta, where only the brackets are formed directly
    out += [(f"cavity {name} at [[2, i], [-i, 2]]",
             mutate(cavity, old, new, name).replace("theta: identity", "theta: [[2, i], [-i, 2]]"))
            for name, old, new in MUTATIONS]
    for n in (2, 3, 4):
        out.append((f"chain({n})", WORKLOADS.chain_text(n, 2)))
        out += [(f"chain({n}) {kind}@{mode}", WORKLOADS.chain_mutant_text(n, kind, mode))
                for kind in WORKLOADS.CHAIN_EDIT_KINDS for mode in (1, n)]
    return out


MODELS = model_texts()


def direct_bracket(dm):
    """abar' G^-1 Abar for G = diag(theta, -theta*), formed as a product."""
    theta = dm.algebra.theta
    inv = OperatorMatrix.from_scalars(dm.algebra, block_diag(
        theta.inverse(), grid_inverse(grid_neg(grid_conj(theta.theta)))))
    return (dm.abar.adjoint() @ inv @ dm.Abar).entry(0, 0)


@pytest.fixture(params=["exact", "float"])
def doubled(request):
    def build(text):
        model = parse_model(text)
        model = model.to_float() if request.param == "float" else model
        return model, double(model)
    return build


def test_the_ccr_sum_mirrors_its_direct_form(doubled):
    for name, text in MODELS:
        _, dm = doubled(text)
        n = dm.n
        forward = outer_commutator(dm.Abar, dm.abar)   # [Abar, abar']
        backward = outer_commutator(dm.abar, dm.Abar)  # [abar, Abar']
        for i in range(n):
            for k in range(2 * n):
                bottom = forward.entry(n + i, (k + n) % (2 * n))
                assert fields(mirror(forward.entry(i, k), True)) == fields(bottom), name
        for j in range(2 * n):
            for k in range(2 * n):
                assert fields(mirror(forward.entry(k, j))) == fields(backward.entry(j, k)), name
        direct = (forward + backward + dm.Bbar
                  @ OperatorMatrix.from_scalars(dm.algebra, dm.Ibar) @ dm.Bbar_adjoint)
        assert [fields(p) for p in _ccr_sum(dm).entries] == [
            fields(p) for p in direct.entries], name


def test_the_brackets_and_class_identity_mirror_their_direct_forms(doubled):
    for name, text in MODELS:
        model, dm = doubled(text)
        s1, s2 = _brackets(dm)
        reference = direct_bracket(dm)
        assert fields(s2) == fields(reference), name
        if dm.algebra.theta.is_diagonal:
            assert fields(mirror(s1)) == fields(reference), name
        second = scalar_vec_commutator(reference, dm.abar)
        first = scalar_vec_commutator(s1, dm.abar)
        if dm.algebra.theta.is_diagonal:
            for j in range(2 * dm.n):
                mirrored = mirror(first.entry((j + dm.n) % (2 * dm.n), 0), True)
                assert fields(mirrored) == fields(second.entry(j, 0)), name
        factor = Scalar(Fraction(1, 2 * (dm.nbar or 1)))
        _, term2, _ = generator_identity_parts(model, dm)
        assert [fields(p) for p in term2.entries] == [
            fields(p) for p in second.scale(factor).entries], name
