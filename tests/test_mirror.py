"""The mirrored halves of the doubled residuals against their direct forms.

At Hermitian theta the checks form each doubled residual from the half that
carries its information and take the other half by adjoint.
The references here are the direct forms: ``[abar, Abar']`` and the bottom
rows of ``[Abar, abar']`` as outer commutators, and the class identity's
``i[H, abar]`` as the commutator of the extracted H with every generator.
Each mirrored polynomial must equal its reference field for field,
``(re_num, im_num, den)``, in exact and in float mode; the CCR sum also in
the order of its terms, while an adjoint reorders a polynomial's terms, so
H and ``i[H, abar]`` are compared unordered.  No binary64 part is ever
-0.0, so the plain adjoint needs no settling to match.
"""

import pytest

from qrealize import (check_storage_condition, extract_hamiltonian, generator_identity_parts,
                      parse_model, wirtinger_gradient)
from qrealize.checks import _ccr_sum, _storage_candidate
from qrealize.matrices import (OperatorMatrix, outer_commutator, row_commutator,
                               scalar_vec_commutator)
from qrealize.model import double
from qrealize.scalars import I

from conftest import CAVITY_PATH, MUTATIONS, golden_models, mutate
from helpers import (bracket_terms, grid_neg, grid_scale, grid_transpose, load_workloads,
                     sign_grid, zero_grid)

WORKLOADS = load_workloads()


def fields(p):
    """Each term of p in order, with the exact fields of its coefficient;
    ``repr`` would tell a -0.0 from 0.0."""
    return [((m.creation, m.annihilation), repr(c.re_num), repr(c.im_num), c.den)
            for m, c in p.terms.items()]


def model_texts():
    cavity = CAVITY_PATH.read_text()
    out = golden_models()
    # a non-diagonal complex theta
    out += [(f"cavity {name} at [[2, i], [-i, 2]]",
             mutate(cavity, old, new, name).replace("theta: identity", "theta: [[2, i], [-i, 2]]"))
            for name, old, new in MUTATIONS]
    for n in (2, 3, 4):
        out.append((f"chain({n})", WORKLOADS.chain_text(n, 2)))
        out += [(f"chain({n}) {kind}@{mode}", WORKLOADS.chain_mutant_text(n, kind, mode))
                for kind in WORKLOADS.CHAIN_EDIT_KINDS for mode in (1, n)]
    return out


MODELS = model_texts()


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
                assert fields(-forward.entry(i, k).adjoint()) == fields(bottom), name
        for j in range(2 * n):
            for k in range(2 * n):
                assert fields(forward.entry(k, j).adjoint()) == fields(backward.entry(j, k)), name
        direct = (forward + backward + dm.Bbar
                  @ OperatorMatrix.from_scalars(dm.algebra, sign_grid(dm.m)) @ dm.Bbar_adjoint)
        assert [fields(p) for p in _ccr_sum(dm).entries] == [
            fields(p) for p in direct.entries], name


def test_the_hamiltonian_and_class_identity_mirror_their_direct_forms(doubled):
    for name, text in MODELS:
        model, dm = doubled(text)
        hbar = extract_hamiltonian(model, dm=dm)
        assert sorted(fields(hbar.adjoint())) == sorted(fields(hbar)), name
        lhs, _ = generator_identity_parts(model, dm)
        direct = scalar_vec_commutator(hbar, dm.abar).scale(I)
        assert [sorted(fields(p)) for p in lhs.entries] == [
            sorted(fields(p)) for p in direct.entries], name
        if model.algebra.theta.exact:  # the restatement of term1 - term2 changes no value
            term1, term2 = bracket_terms(dm)
            assert (lhs - (term1 - term2)).is_zero, name


def test_the_storage_target_has_the_bits_of_its_grid_form(doubled):
    # [[0, 2 theta], [-2 theta^T, 0]] as a scalar grid, at every theta of MODELS
    for name, text in MODELS:
        model, dm = doubled(text)
        alg, n = model.algebra, model.n
        phi = model.phi if model.phi is not None else _storage_candidate(alg)
        two_theta, zeros = grid_scale(alg.theta.theta, 2), zero_grid(n, n)
        target = tuple(z + t for z, t in zip(zeros, two_theta)) + tuple(
            t + z for t, z in zip(grid_neg(grid_transpose(two_theta)), zeros))
        grad = OperatorMatrix.column(alg, wirtinger_gradient(phi))
        direct = row_commutator(grad, dm.abar) - OperatorMatrix.from_scalars(alg, target)
        cond = check_storage_condition(phi, dm=dm).condition("ST-gradient-commutator")
        # the row keeps its nonzero residuals, or one zero when it has none
        assert [fields(p) for p in cond.residuals] == [
            fields(p) for p in direct.nonzero.values() or [alg.zero()]], name
