import math
import random

import numpy as np
import pytest

from conftest import CAVITY_PATH, FIXTURE_DIR
from helpers import load_workloads, random_poly
from qrealize import (
    Algebra,
    Scalar,
    guarded_indices,
    parse_model,
    psd_check,
    represent,
    run_checks,
    verify_identity,
)
from qrealize.algebra import CommutationMatrix
from qrealize.fock import _guarded_block, residual_deviation


@pytest.fixture
def one_mode():
    return Algebra(1)


@pytest.fixture
def two_modes():
    return Algebra(2)


# -- representation -----------------------------------------------------------

def test_annihilator_matrix(one_mode):
    m = represent(one_mode.annihilator(1), 3)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2)
    assert np.max(np.abs(m - expected)) == 0.0


def test_identity_and_constant(one_mode):
    assert np.array_equal(represent(one_mode.one(), 4), np.eye(4))
    m = represent(one_mode.scalar(Scalar(0, 3)), 4)
    assert np.max(np.abs(m - 3j * np.eye(4))) == 0.0


def test_number_operator_diagonal(one_mode):
    number = one_mode.creator(1) * one_mode.annihilator(1)
    m = represent(number, 4)
    assert np.max(np.abs(m - np.diag([0.0, 1.0, 2.0, 3.0]))) < 1e-12


def test_adjoint_maps_to_conjugate_transpose(two_modes):
    rng = random.Random(29)
    for _ in range(10):
        p = random_poly(rng, two_modes, max_degree=3)
        mp = represent(p, 6)
        mq = represent(p.adjoint(), 6)
        assert np.max(np.abs(mq - mp.conj().T)) < 1e-9


def test_multiplication_homomorphism_on_guarded_subspace(two_modes):
    rng = random.Random(31)
    idx = guarded_indices(2, 8, 6)
    sub = np.ix_(idx, idx)
    for _ in range(8):
        p = random_poly(rng, two_modes, max_degree=3)
        q = random_poly(rng, two_modes, max_degree=3)
        lhs = represent(p * q, 8)
        rhs = represent(p, 8) @ represent(q, 8)
        assert np.max(np.abs(lhs[sub] - rhs[sub])) < 1e-7


def test_represent_rejects_nonidentity_theta():
    alg = Algebra(1, CommutationMatrix([[2]]))
    with pytest.raises(ValueError, match="theta"):
        represent(alg.annihilator(1), 4)


def test_represent_rejects_small_truncation(one_mode):
    p = one_mode.creator(1) ** 3
    with pytest.raises(ValueError, match="truncation"):
        represent(p, 4)


def test_represent_rejects_huge_dimension():
    alg = Algebra(4)
    with pytest.raises(ValueError, match="dimension"):
        represent(alg.annihilator(1), 10)


# -- guarded subspace ---------------------------------------------------------

def test_guarded_indices_single_mode():
    assert list(guarded_indices(1, 5, 2)) == [0, 1, 2]


def test_guarded_indices_two_modes():
    idx = guarded_indices(2, 3, 1)
    assert list(idx) == [0, 1, 3, 4]


def test_negative_guard_keeps_every_state():
    # a negative guard compares the whole truncated space, as guard 0 does
    assert list(guarded_indices(1, 3, -1)) == list(guarded_indices(1, 3, 0)) == [0, 1, 2]


def test_guard_band_too_large():
    with pytest.raises(ValueError, match="guard"):
        guarded_indices(1, 4, 4)


# -- identity verification ----------------------------------------------------

def test_verify_ccr(one_mode):
    a, ad = one_mode.annihilator(1), one_mode.creator(1)
    lhs = a * ad - ad * a
    passed, dev = verify_identity(lhs, one_mode.one(), 8, 2)
    assert passed and dev == 0.0


def test_verify_reports_exact_deviation(one_mode):
    passed, dev = verify_identity(one_mode.one(), one_mode.scalar(2), 6, 2)
    assert not passed
    assert dev == pytest.approx(1.0)


def test_verify_guard_must_cover_degree(one_mode):
    p = one_mode.creator(1) ** 3
    with pytest.raises(ValueError, match="guard"):
        verify_identity(p, p, 8, 2)


def test_verify_random_rewrites(two_modes):
    # normal ordering is invisible to the oracle: a word and its normal form
    # agree on the guarded subspace
    rng = random.Random(37)
    for _ in range(10):
        p = random_poly(rng, two_modes, max_degree=3)
        q = random_poly(rng, two_modes, max_degree=3)
        passed, dev = verify_identity(p * q, q * p + p.commutator(q), 8, 6)
        assert passed, dev


# -- positivity ---------------------------------------------------------------

def test_psd_number_operator(one_mode):
    number = one_mode.creator(1) * one_mode.annihilator(1)
    passed, min_eig = psd_check(number)
    assert passed and min_eig == pytest.approx(0.0)


def test_psd_shifted_number_operator_fails(one_mode):
    shifted = one_mode.creator(1) * one_mode.annihilator(1) - 1
    passed, min_eig = psd_check(shifted)
    assert not passed
    assert min_eig == pytest.approx(-1.0)


def test_psd_requires_self_adjoint(one_mode):
    with pytest.raises(ValueError, match="self-adjoint"):
        psd_check(one_mode.annihilator(1))


def test_psd_sees_up_to_the_degree_in_each_touched_mode():
    # <n|phi|n> = n(n-1)(n-2) - 2n(n-1) is -4 at n = 2 and -6 at n = 3; a
    # touched mode gets cap 6, and the eleven untouched modes none
    alg = Algebra(12)
    cre, ann = alg.creator(1), alg.annihilator(1)
    phi = cre**3 * ann**3 - (cre**2 * ann**2).scale(2)
    passed, min_eig = psd_check(phi)
    assert not passed and min_eig == pytest.approx(-6.0)


def test_psd_refuses_beyond_the_dimension_bound():
    alg = Algebra(13)
    phi = sum((alg.creator(j) * alg.annihilator(j) for j in range(1, 14)), alg.zero())
    with pytest.raises(ValueError, match="dimension 8192 exceeds 4096"):
        psd_check(phi * phi)


# -- differential check against the dense tensor-product construction --------

def dense_reference(p, truncation):
    """Matrix of p built from kron-lifted truncated mode matrices."""
    n = p.algebra.modes
    single = np.diag(np.sqrt(np.arange(1, truncation)), k=1).astype(complex)
    modes = []
    for i in range(n):
        full = np.eye(1)
        for j in range(n):
            full = np.kron(full, single if j == i else np.eye(truncation))
        modes.append(full)
    out = np.zeros((truncation**n, truncation**n), dtype=complex)
    for mono, coeff in p.terms.items():
        term = np.eye(truncation**n, dtype=complex)
        for i, h in enumerate(mono.creation):
            term = term @ np.linalg.matrix_power(modes[i].conj().T, h)
        for i, k in enumerate(mono.annihilation):
            term = term @ np.linalg.matrix_power(modes[i], k)
        out += coeff.to_complex() * term
    return out


@pytest.mark.parametrize("n_modes, truncation, guard", [
    (1, 4, 1), (1, 7, 3), (2, 5, 2), (2, 6, 4), (3, 4, 1), (3, 5, 3),
])
def test_blocks_match_dense_reference(n_modes, truncation, guard):
    rng = random.Random(41 + 7 * n_modes + truncation)
    alg = Algebra(n_modes)
    sub = np.ix_(*[guarded_indices(n_modes, truncation, guard)] * 2)
    for _ in range(6):
        p = random_poly(rng, alg, max_degree=truncation - 2)
        dense = dense_reference(p, truncation)
        assert np.max(np.abs(represent(p, truncation) - dense)) < 1e-12
        block = _guarded_block(p, truncation, guard)
        assert np.max(np.abs(block - dense[sub])) < 1e-12
        # psd_check's block, up to d quanta per mode, is the dense product's
        # at truncation 2d + 1 on the states it guards with guard d
        phi = p + p.adjoint()
        d = phi.max_degree
        psd = np.ix_(*[guarded_indices(n_modes, 2 * d + 1, d)] * 2)
        _, min_eig = psd_check(phi)
        expected = np.linalg.eigvalsh(dense_reference(phi, 2 * d + 1)[psd]).min()
        assert abs(min_eig - expected) < 1e-12


# -- residual_deviation against the block on every mode ----------------------

@pytest.fixture(scope="module")
def check_residuals():
    """The distinct residuals, exact and float, of the fixture, the theta = I
    goldens, chain(2..5) and every chain edit kind at modes 1 and n."""
    workloads = load_workloads()
    texts = [CAVITY_PATH.read_text()] + [
        (FIXTURE_DIR / "golden" / f"{name}.qsde").read_text()
        for name in ("chain3", "cavity_b11_sign_flip")
    ]
    for n in range(2, 6):
        texts.append(workloads.chain_text(n))
        texts += [workloads.chain_mutant_text(n, kind, mode)
                  for kind in workloads.CHAIN_EDIT_KINDS for mode in sorted({1, n})]
    distinct = {}
    for text in texts:
        model = parse_model(text)
        for m in (model, model.to_float()):
            for cond in run_checks(m).conditions:
                for p in cond.residuals:
                    # equal terms in equal order give equal blocks
                    distinct.setdefault((p.algebra.modes, tuple(p.terms.items())), p)
    return list(distinct.values())


@pytest.mark.parametrize("truncation, guard", [(6, 4), (8, 5)])
def test_touched_mode_deviation_equals_full_block(check_residuals, truncation, guard):
    assert sum(not p.is_zero for p in check_residuals) > 100
    for p in check_residuals:
        eff_guard = max(guard, p.max_degree)
        eff_trunc = max(truncation, p.max_degree + 2, eff_guard + 1)
        full = float(np.max(np.abs(_guarded_block(p, eff_trunc, eff_guard))))
        assert residual_deviation([p], truncation, guard) == full


def test_zero_residual_is_held_to_the_dimension_bound():
    # no block is built for a zero residual, but (cap+1)^n is still bounded
    alg = Algebra(13)
    assert residual_deviation([Algebra(12).zero()], 6, 4) == 0.0
    with pytest.raises(ValueError, match="dimension 8192"):
        residual_deviation([alg.zero()], 6, 4)


def test_residual_deviation_is_nan_wherever_the_nan_residual_stands(one_mode):
    # max() keeps a NaN only in first place; the oracle must fail it anywhere
    a1 = one_mode.annihilator(1)
    residuals = [a1, a1.scale(Scalar(math.nan, 0.0)), a1.scale(Scalar(5.0)), one_mode.zero()]
    for k in range(len(residuals)):
        assert math.isnan(residual_deviation(residuals[k:] + residuals[:k], 6, 4)), k


def test_zero_residuals_share_one_bound_check(monkeypatch):
    # every zero residual passes _cap the same arguments, so only the first
    # one of a call is checked, at its place among the nonzero residuals
    import qrealize.fock as fock

    calls = []
    original = fock._cap

    def counting(p, truncation, guard):
        calls.append(p.is_zero)
        return original(p, truncation, guard)

    monkeypatch.setattr(fock, "_cap", counting)
    alg = Algebra(2)
    a1 = alg.annihilator(1)
    residuals = [a1, alg.zero(), alg.zero(), a1 + a1, alg.zero()]
    assert residual_deviation(residuals, 6, 4) == 2.0
    assert calls == [False, True, False]
