"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line directly to the terminal, bypassing output capture.
"""

import random
import time
from fractions import Fraction

import pytest

from helpers import bracket_terms, random_poly, scalar_matrix, sign_grid
from qrealize import (
    Algebra,
    OperatorMatrix,
    Scalar,
    check_class,
    check_lossless,
    check_physical_realizability,
    check_storage_condition,
    double,
    extract_hamiltonian,
    generator_identity_parts,
    outer_commutator,
    parse_expression,
    reconstruct_generator,
    row_commutator,
    run_checks,
    synthesize_storage,
    wirtinger_gradient,
)
from qrealize.fock import residual_deviation

from conftest import MUTATIONS

ORACLE_N = 6
ORACLE_GUARD = 4


@pytest.fixture
def announce(request, capfd):
    """Print one [PASS]/[FAIL] line for the criterion after the test runs."""
    outcome = {"ok": False}
    number, description = request.node.get_closest_marker("criterion").args

    yield outcome

    mark = "PASS" if outcome["ok"] else "FAIL"
    with capfd.disabled():
        print(f"[{mark}] criterion {number}: {description}")


def expr_column(alg, sources):
    return OperatorMatrix.column(alg, [parse_expression(s, alg) for s in sources])


def expr_matrix(alg, rows):
    entries = [parse_expression(s, alg) for row in rows for s in row]
    return OperatorMatrix(alg, len(rows), len(rows[0]), entries)


def oracle_zero(residuals):
    """Max guarded-subspace deviation of residual polynomials from zero."""
    return residual_deviation(residuals, ORACLE_N, ORACLE_GUARD)


@pytest.mark.criterion(1, "class membership passes on the golden fixture with "
                          "the exact printed drift commutator, in under 1 s")
def test_criterion_1_class_membership(cavity, announce):
    start = time.perf_counter()
    report = check_class(cavity)
    alg = cavity.algebra
    a_vec = OperatorMatrix.column(alg, [alg.annihilator(1), alg.annihilator(2)])
    drift_comm = row_commutator(cavity.A, a_vec)
    elapsed = time.perf_counter() - start

    assert report.overall
    assert all(c.residual_norm == 0.0 for c in report.conditions)
    assert (drift_comm - expr_matrix(alg, [["-2*a2^2", "0"], ["0", "2*a1^2"]])).is_zero
    assert elapsed < 1.0
    announce["ok"] = True


@pytest.mark.criterion(2, "the graded commutator identity reproduces its "
                          "printed bracket terms and right-hand side exactly")
def test_criterion_2_generator_identity(cavity, announce):
    alg = cavity.algebra
    dm = double(cavity)
    term1, term2 = bracket_terms(dm)
    lhs, rhs = generator_identity_parts(cavity, dm)
    assert (term1 - expr_column(
        alg, ["a1'*a2^2", "-a2'*a1^2", "a2'^2*a1", "-a1'^2*a2"]
    )).is_zero
    assert (term2 + term1).is_zero
    assert (rhs - expr_column(
        alg, ["2*a1'*a2^2", "-2*a2'*a1^2", "2*a2'^2*a1", "-2*a1'^2*a2"]
    )).is_zero
    assert (term1 - term2 - lhs).is_zero
    assert (lhs - rhs).is_zero
    assert (rhs - (dm.Abar - (dm.Bbar @ dm.Cbar).scale(Scalar(Fraction(1, 2))))).is_zero
    announce["ok"] = True


@pytest.mark.criterion(3, "physical realizability passes with every printed "
                          "4x4 intermediate matrix matching entry for entry")
def test_criterion_3_realizability(cavity, announce):
    report = check_physical_realizability(cavity)
    assert report.overall
    assert all(c.residual_norm == 0.0 for c in report.conditions)

    alg = cavity.algebra
    dm = double(cavity)
    assert (outer_commutator(dm.Abar, dm.abar) - expr_matrix(alg, [
        ["-2", "4*a1'*a2", "-2*a2^2", "0"],
        ["-4*a2'*a1", "-2", "0", "2*a1^2"],
        ["2*a2'^2", "0", "2", "-4*a2'*a1"],
        ["0", "-2*a1'^2", "4*a1'*a2", "2"],
    ])).is_zero
    assert (outer_commutator(dm.abar, dm.Abar) - expr_matrix(alg, [
        ["-2", "-4*a1'*a2", "2*a2^2", "0"],
        ["4*a2'*a1", "-2", "0", "-2*a1^2"],
        ["-2*a2'^2", "0", "2", "4*a2'*a1"],
        ["0", "2*a1'^2", "-4*a1'*a2", "2"],
    ])).is_zero
    ibar = scalar_matrix(alg, sign_grid(2))
    # diag(2 k1, 2 k2, -2 k1, -2 k2) with k1 = k2 = 2
    assert (dm.Bbar @ ibar @ dm.Bbar.adjoint() - expr_matrix(alg, [
        ["4", "0", "0", "0"],
        ["0", "4", "0", "0"],
        ["0", "0", "-4", "0"],
        ["0", "0", "0", "-4"],
    ])).is_zero
    announce["ok"] = True


@pytest.mark.criterion(4, "the extracted Hamiltonian is exactly "
                          "i*a1'^2*a2^2 - i*a2'^2*a1^2 with nbar = 4, "
                          "self-adjoint")
def test_criterion_4_hamiltonian(cavity, announce):
    dm = double(cavity)
    assert dm.nbar == 4
    h = extract_hamiltonian(cavity, dm=dm)
    assert h == parse_expression("i*a1'^2*a2^2 - i*a2'^2*a1^2", cavity.algebra)
    assert h.adjoint() == h
    announce["ok"] = True


@pytest.mark.criterion(5, "reconstructing the generator from the Hamiltonian "
                          "and coupling reproduces the drift exactly")
def test_criterion_5_round_trip(cavity, announce):
    dm = double(cavity)
    rec = reconstruct_generator(extract_hamiltonian(cavity, dm=dm), dm.Cbar)
    assert (rec - dm.Abar).is_zero
    announce["ok"] = True


@pytest.mark.criterion(6, "the lossless and storage-gradient conditions hold "
                          "with the declared storage function, matching the "
                          "printed gradient and dissipation values")
def test_criterion_6_lossless(cavity, announce):
    alg = cavity.algebra
    assert check_lossless(cavity).overall
    assert check_storage_condition(cavity.phi).overall

    grad = wirtinger_gradient(cavity.phi)
    expected = ["2*a1", "2*a2", "2*a1'", "2*a2'"]
    assert all(g == parse_expression(s, alg) for g, s in zip(grad, expected))

    dm = double(cavity)
    grad_col = OperatorMatrix.column(alg, grad)
    lhs = (grad_col.adjoint() @ dm.Abar).entry(0, 0)
    # -2 k1 (a1 a1' + a1' a1) - 2 k2 (a2 a2' + a2' a2), normal ordered
    assert lhs == parse_expression("-8*a1'*a1 - 8*a2'*a2 - 8", alg)

    abar = dm.abar
    actual = row_commutator(grad_col, abar)
    assert (actual - expr_matrix(alg, [
        ["0", "0", "2", "0"],
        ["0", "0", "0", "2"],
        ["-2", "0", "0", "0"],
        ["0", "-2", "0", "0"],
    ])).is_zero
    announce["ok"] = True


@pytest.mark.criterion(7, "every single-edit mutation fails a named condition "
                          "and admits no quadratic storage witness")
def test_criterion_7_mutation_suite(cavity_text, mutated_models, announce):
    assert len(MUTATIONS) >= 10
    for name, model in mutated_models:
        report = run_checks(model)
        failing = [c.condition_id for c in report.conditions if not c.passed]
        assert failing, f"mutation {name} passed every condition"
        if not check_physical_realizability(model).overall:
            assert synthesize_storage(model) is None, \
                f"mutation {name} has a storage witness"
    announce["ok"] = True


@pytest.mark.criterion(8, "500 randomized exact-mode ring, commutator and "
                          "adjoint law cases have residual exactly 0 in "
                          "under 30 s")
def test_criterion_8_property_suite(announce):
    rng = random.Random(2026)
    algebras = [Algebra(n) for n in (1, 2, 3)]
    start = time.perf_counter()
    for case in range(500):
        alg = algebras[case % 3]
        p = random_poly(rng, alg, max_degree=4)
        q = random_poly(rng, alg, max_degree=4)
        r = random_poly(rng, alg, max_degree=4)
        law = case % 5
        if law == 0:
            residual = (p * q) * r - p * (q * r)
        elif law == 1:
            residual = p * (q + r) - (p * q + p * r)
        elif law == 2:
            residual = p.commutator(q) + q.commutator(p)
        elif law == 3:
            residual = (p * q).commutator(r) - (
                p * q.commutator(r) + p.commutator(r) * q
            )
        else:
            residual = (p * q).adjoint() - q.adjoint() * p.adjoint()
        assert residual.is_zero
        assert residual.coeff_norm() == 0.0
        assert all(c.is_exact for c in p.terms.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce["ok"] = True


@pytest.mark.criterion(9, "the Fock oracle confirms every symbolic identity "
                          "of criteria 1-6 with max deviation at most 1e-9 "
                          "in under 60 s")
def test_criterion_9_oracle_concordance(cavity, announce):
    start = time.perf_counter()
    report = run_checks(cavity)
    residuals = [p for cond in report.conditions for p in cond.residuals]
    assert residuals

    # identities asserted directly by criteria 1-6, beyond the check families
    alg = cavity.algebra
    dm = double(cavity)
    h = extract_hamiltonian(cavity, dm=dm)
    residuals.append(h - parse_expression("i*a1'^2*a2^2 - i*a2'^2*a1^2", alg))
    residuals.append(h.adjoint() - h)
    rec = reconstruct_generator(h, dm.Cbar)
    residuals.extend(
        (rec - dm.Abar).entry(j, 0) for j in range(4)
    )
    lhs, rhs = generator_identity_parts(cavity, dm)
    diff = lhs - rhs
    residuals.extend(diff.entry(j, 0) for j in range(4))

    assert oracle_zero(residuals) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce["ok"] = True
