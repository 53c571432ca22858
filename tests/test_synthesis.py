"""Storage synthesis in closed form against the least-squares solver it replaced.

Synthesis proposes the one candidate ``phi* = 2 sum_j a_j' a_j``.  The
solver it replaced solved ``B' P = -Lambda`` (C = Lambda a) for the
coefficient matrix of ``phi = 2 a' P a`` with numpy ``lstsq``, or exactly
through ``(B')^-1`` when B is square, and verified the result with the same
lossless and storage conditions.  It is kept here as the reference.
"""

import numpy as np
import pytest

from qrealize import (
    Scalar,
    check_lossless,
    check_storage_condition,
    parse_expression,
    parse_model,
    render,
    run_checks,
    synthesize_storage,
)
from qrealize.scalars import grid_conj, grid_inverse, grid_neg, grid_transpose

from conftest import CAVITY_PATH, FIXTURE_DIR, MUTATIONS, golden_models, mutate
from helpers import grid_matmul, load_workloads

WORKLOADS = load_workloads()
DECOUPLED_PATH = FIXTURE_DIR / "decoupled_mode.qsde"
ZERO_COUPLING = "modes: 1\nchannels: 1\nA[1] = 0\nB = [[0]]\nC[1] = 0\n"


def reference_synthesis(model):
    """The least-squares storage synthesis, verified as ``synthesize_storage`` is."""
    alg = model.algebra
    n, m = model.n, model.m
    if not all(e.is_constant for e in model.B.nonzero.values()):
        return None
    b_grid = tuple(tuple(e.constant_value() for e in model.B.row(i)) for i in range(n))
    lam = [[Scalar(0)] * n for _ in range(m)]
    for v in range(m):
        for mono, coeff in model.C.entry(v, 0).terms.items():
            if mono.degree != 1 or sum(mono.annihilation) != 1:
                return None
            lam[v][mono.annihilation.index(1)] = coeff
    b_adj = grid_transpose(grid_conj(b_grid))
    b_dag = np.array([[x.to_complex() for x in row] for row in b_adj])
    lam_c = np.array([[x.to_complex() for x in row] for row in lam])
    try:
        p_mat = np.linalg.lstsq(b_dag, -lam_c, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None
    if np.max(np.abs(b_dag @ p_mat + lam_c)) > alg.tol:
        return None
    if np.max(np.abs(p_mat - p_mat.conj().T)) > alg.tol:
        return None
    exact = None
    if m == n:
        try:
            exact = grid_matmul(grid_inverse(b_adj), grid_neg(tuple(map(tuple, lam))))
        except ValueError:
            pass
    phi = alg.zero()
    for i in range(n):
        for j in range(n):
            p_ij = exact[i][j] if exact is not None else Scalar.of(complex(p_mat[i, j]))
            cre = tuple(int(t == i) for t in range(n))
            ann = tuple(int(t == j) for t in range(n))
            phi = phi + alg.monomial(cre, ann, p_ij * Scalar(2))
    try:
        if not check_lossless(model, phi).overall:
            return None
        return phi if check_storage_condition(phi).overall else None
    except ValueError:
        return None


def comparison_models():
    """(name, text) of every model the closed form is compared on, phi removed."""
    out = golden_models()
    out += [("decoupled_mode", DECOUPLED_PATH.read_text()), ("zero_coupling", ZERO_COUPLING)]
    for n in range(2, 6):
        out += [(f"chain({n}) k={k}", WORKLOADS.chain_text(n, k))
                for k in WORKLOADS.DAMPING_RATES + (3,)]
        out += [(f"chain({n}) {kind}@{mode}", WORKLOADS.chain_mutant_text(n, kind, mode))
                for kind in WORKLOADS.CHAIN_EDIT_KINDS for mode in (1, n)]
    cavity = CAVITY_PATH.read_text()
    out += [(f"cavity {name}", mutate(cavity, old, new, name)) for name, old, new in MUTATIONS]
    return [(name, WORKLOADS.strip_phi(text)) for name, text in out]


def coefficient_gap(p, q):
    """Largest coefficient difference of two polynomials over their monomials."""
    monos = set(p.terms) | set(q.terms)
    zero = Scalar(0)
    return max(((p.terms.get(m, zero) - q.terms.get(m, zero)).magnitude() for m in monos),
               default=0.0)


@pytest.mark.parametrize("floating", [False, True], ids=["exact", "float"])
def test_closed_form_matches_least_squares_reference(floating):
    closed_only = []
    for name, text in comparison_models():
        model = parse_model(text)
        if floating:
            model = model.to_float()
        ref, got = reference_synthesis(model), synthesize_storage(model)
        if ref is None:
            if got is not None:
                closed_only.append(name)
            continue
        assert got is not None, name
        assert coefficient_gap(got, ref) <= model.algebra.tol, name
    assert closed_only == ["decoupled_mode", "zero_coupling"]


def test_decoupled_mode_passes_with_synthesized_phi():
    model = parse_model(DECOUPLED_PATH.read_text())
    report = run_checks(model)
    assert [c.condition_id for c in report.conditions if not c.passed] == []
    assert report.derived["storage_synthesized"]
    expected = parse_expression("2*a1'*a1 + 2*a2'*a2", model.algebra)
    assert report.derived["storage_function"].terms == expected.terms


@pytest.mark.parametrize("n", [2, 3])
def test_irrational_damping_synthesizes_exact_phi(n):
    # k = 3 makes sqrt(2*k) binary64 in exact mode; phi stays exact
    declared = parse_model(WORKLOADS.chain_text(n, 3))
    phi = synthesize_storage(parse_model(WORKLOADS.chain_text(n, 3, with_phi=False)))
    assert phi is not None and phi.terms == declared.phi.terms
    assert all(c.is_exact for c in phi.terms.values())


@pytest.mark.parametrize("n", [2, 3])
def test_irrational_damping_synthesizes_binary64_two_in_float_mode(n):
    model = parse_model(WORKLOADS.chain_text(n, 3, with_phi=False)).to_float()
    phi = synthesize_storage(model)
    assert render(phi) == " + ".join(f"(2.0+0.0i)*a{j}'*a{j}" for j in range(1, n + 1))
