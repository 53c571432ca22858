import pytest

from qrealize import (
    OperatorMatrix,
    OperatorPolynomial,
    Scalar,
    check_class,
    check_lossless,
    check_physical_realizability,
    check_preservation,
    check_storage_condition,
    double,
    extract_hamiltonian,
    generator_identity_parts,
    parse_expression,
    parse_model,
    reconstruct_generator,
    run_checks,
    synthesize_storage,
)
import qrealize.checks
from qrealize import fock
from qrealize.checks import realization_derived

from conftest import FIXTURE_DIR, mutate
from helpers import chain_text


def expr_column(alg, sources):
    return OperatorMatrix.column(alg, [parse_expression(s, alg) for s in sources])


def expr_matrix(alg, rows):
    entries = [parse_expression(s, alg) for row in rows for s in row]
    return OperatorMatrix(alg, len(rows), len(rows[0]), entries)


# -- class membership ---------------------------------------------------------

def test_class_fixture_passes(cavity):
    report = check_class(cavity)
    assert report.overall
    assert all(c.residual_norm == 0.0 for c in report.conditions)


def test_generator_identity_values(cavity):
    alg = cavity.algebra
    lhs, rhs = generator_identity_parts(cavity)
    expected = expr_column(alg, ["2*a1'*a2^2", "-2*a2'*a1^2", "2*a2'^2*a1", "-2*a1'^2*a2"])
    assert (lhs - expected).is_zero
    assert (rhs - expected).is_zero
    # the left side is i[H, abar] for the extracted H
    hbar = extract_hamiltonian(cavity)
    assert (lhs - OperatorMatrix.column(
        alg, [hbar.commutator(a).scale(Scalar(0, 1)) for a in double(cavity).abar.col(0)]
    )).is_zero


def test_class_fails_with_creation_in_output(cavity_text):
    model = parse_model(
        mutate(cavity_text, "C[1] = sqrt(2*k1)*a1", "C[1] = a1'")
    )
    report = check_class(model)
    assert not report.condition("CLASS-C-commutes").passed
    assert report.condition("CLASS-C-commutes").witness


def test_class_fails_when_drift_scaled(cavity_text):
    model = parse_model(
        mutate(cavity_text, "A[1] = -k1*a1 + 2*a1'*a2^2",
               "A[1] = -2*k1*a1 + 4*a1'*a2^2")
    )
    cond = check_class(model).condition("CLASS-generator-identity")
    assert not cond.passed
    assert cond.residual_norm > 0


# -- preservation -------------------------------------------------------------

def test_preservation_fixture(cavity):
    report = check_preservation(cavity)
    assert report.overall


def test_preservation_intermediates_match_worked_example(cavity):
    from qrealize.matrices import outer_commutator

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
    ibar = dm.Ibar_matrix
    assert (dm.Bbar @ ibar @ dm.Bbar.adjoint() - expr_matrix(alg, [
        ["4", "0", "0", "0"],
        ["0", "4", "0", "0"],
        ["0", "0", "-4", "0"],
        ["0", "0", "0", "-4"],
    ])).is_zero


def test_preservation_trivial_zero_model():
    model = parse_model(
        "modes: 1\nchannels: 1\nA[1] = 0\nB = [[0]]\nC[1] = 0\n"
    )
    assert check_preservation(model).overall


# -- physical realizability ---------------------------------------------------

def test_realizability_fixture(cavity):
    report = check_physical_realizability(cavity)
    assert report.overall
    assert report.derived["nbar"] == 4
    assert report.derived["hamiltonian_self_adjoint"]


def test_realizability_b_sign_flip(cavity_text):
    model = parse_model(
        mutate(cavity_text, "B = [[-sqrt(2*k1), 0],", "B = [[sqrt(2*k1), 0],")
    )
    report = check_physical_realizability(model)
    cond = report.condition("PR-B-match")
    assert not cond.passed
    assert cond.residual_norm == pytest.approx(4.0)  # 2*sqrt(2*k1) with k1 = 2
    assert any(w["entry"] == "(1,1)" for w in cond.witness)


def test_realizability_d_scaled(cavity_text):
    model = parse_model(mutate(cavity_text, "D = identity", "D = [[2,0],[0,2]]"))
    report = check_physical_realizability(model)
    assert not report.condition("PR-D-identity").passed


# -- Hamiltonian extraction and reconstruction --------------------------------

def test_extract_hamiltonian_fixture(cavity):
    h = extract_hamiltonian(cavity)
    assert h == parse_expression("i*a1'^2*a2^2 - i*a2'^2*a1^2", cavity.algebra)
    assert h.adjoint() == h


def test_extract_hamiltonian_linear_drift_self_adjoint():
    model = parse_model(
        "modes: 1\nchannels: 1\nA[1] = -3*i*a1\nB = [[0]]\nC[1] = 0\n"
    )
    h = extract_hamiltonian(model)
    assert h.adjoint() == h


def test_extract_hamiltonian_zero_drift_errors():
    model = parse_model("modes: 1\nchannels: 1\nA[1] = 0\nB = [[1]]\nC[1] = a1\n")
    with pytest.raises(ValueError):
        extract_hamiltonian(model)


def test_reconstruction_round_trip(cavity):
    dm = double(cavity)
    rec = reconstruct_generator(extract_hamiltonian(cavity), dm.Cbar)
    assert (rec - dm.Abar).is_zero


def test_reconstruction_pure_hamiltonian():
    from qrealize import Algebra

    alg = Algebra(1)
    omega = Scalar(5)
    h = (alg.creator(1) * alg.annihilator(1)).scale(omega)
    lbar = OperatorMatrix.column(alg, [alg.zero(), alg.zero()])
    rec = reconstruct_generator(h, lbar)
    assert rec.entry(0, 0) == alg.annihilator(1).scale(Scalar(0, -5))
    assert rec.entry(1, 0) == alg.creator(1).scale(Scalar(0, 5))


def test_reconstruction_zero_inputs(cavity):
    alg = cavity.algebra
    lbar = OperatorMatrix.column(alg, [alg.zero()] * 4)
    rec = reconstruct_generator(alg.zero(), lbar)
    assert rec.is_zero


# -- lossless and storage conditions ------------------------------------------

def test_lossless_fixture(cavity):
    report = check_lossless(cavity)
    assert report.overall
    alg = cavity.algebra
    dm = double(cavity)
    from qrealize import wirtinger_gradient

    grad = OperatorMatrix.column(alg, wirtinger_gradient(cavity.phi))
    lhs = (grad.adjoint() @ dm.Abar).entry(0, 0)
    # -2k1(a1a1' + a1'a1) - 2k2(a2a2' + a2'a2), normal ordered, k = 2
    assert lhs == parse_expression("-8*a1'*a1 - 8*a2'*a2 - 8", alg)


def test_lossless_zero_phi_with_nonzero_output(cavity):
    report = check_lossless(cavity, cavity.algebra.zero())
    assert not report.condition("LL-B-gradient").passed


def test_lossless_wrong_weights(cavity):
    phi = parse_expression("4*a1'*a1 + 2*a2'*a2", cavity.algebra)
    cond = check_lossless(cavity, phi).condition("LL-B-gradient")
    assert not cond.passed
    assert cond.residual_norm == pytest.approx(2.0)  # sqrt(2*k1) with k1 = 2


def test_lossless_requires_phi():
    model = parse_model("modes: 1\nchannels: 1\nA[1] = -a1\nB = [[1]]\nC[1] = a1\n")
    with pytest.raises(ValueError, match="storage function"):
        check_lossless(model)


CAVITY_PHI = "2*a1'*a1 + 2*a2'*a2"
QUARTIC_PHI = CAVITY_PHI + " + a1'^2*a1^2"
DIAG_THETA = "[[1/4, 0], [0, 1]]"

# (theta, declared phi, LL-phi-nonneg passes, its note), one row per route
# through the positivity decision
NONNEG_CASES = [
    ("identity", "0", True, "zero storage function"),
    ("identity", "1 + " + CAVITY_PHI, False, "nonzero vacuum value"),
    ("identity", CAVITY_PHI + " + a1'*a2", False, "quadratic form is not Hermitian"),
    # Hermitian only up to 1e-12, which the exact test does not round away
    ("identity", "a1'*a1 + a2'*a2 + a1'*a2 + 1000000000001/1000000000000*a2'*a1", False,
     "quadratic form is not Hermitian"),
    ("identity", "-2*a1'*a1 - 2*a2'*a2", False, "quadratic form has negative eigenvalue -2"),
    ("identity", QUARTIC_PHI, True, "truncated-representation minimum eigenvalue 0"),
    # negative at 2 and 3 quanta (<3|phi|3> = -6), beyond one quantum per mode
    ("identity", "a1'^3*a1^3 - 2*a1'^2*a1^2", False,
     "truncated-representation minimum eigenvalue -6"),
    ("identity", "a1'^4*a1^4 - 12*a1'^3*a1^3 + 36*a1'^2*a1^2", False,
     "truncated-representation minimum eigenvalue -336"),
    # not quadratic and not self-adjoint: no eigenvalue to compute
    ("identity", "a1'^2*a1 + 2*a2'*a2", False, "storage function is not self-adjoint"),
    (DIAG_THETA, QUARTIC_PHI, False, "positivity not established for non-identity theta"),
    (DIAG_THETA, "8*a1'*a1 + 2*a2'*a2", True, "positive semidefinite quadratic form"),
    # a fixture: chain(13) with a quartic phi, too many modes for one quantum each
    (None, "chain13_quartic_phi.qsde", False,
     "positivity not established: representation dimension 8192 exceeds 4096"),
    # an exact coefficient beyond binary64, on the quadratic route and on the
    # truncated representation
    (None, "huge_phi.qsde", False,
     "positivity not established: a coefficient is beyond binary64"),
    ("identity", "1e400*a1'^2*a1^2 + 2*a2'*a2", False,
     "positivity not established: a coefficient is beyond binary64"),
]


@pytest.mark.parametrize("theta, phi, passed, note", NONNEG_CASES)
def test_phi_nonneg_verdict_and_note(cavity_text, theta, phi, passed, note):
    if theta is None:
        model = parse_model((FIXTURE_DIR / phi).read_text())
    else:
        text = mutate(cavity_text, "theta: identity", f"theta: {theta}")
        model = parse_model(mutate(text, f"phi = {CAVITY_PHI}", f"phi = {phi}"))
    cond = check_lossless(model).condition("LL-phi-nonneg")
    assert cond.passed is passed
    assert cond.description == f"the storage function is non-negative ({note})"
    assert cond.witness == ([] if passed else [{"entry": "phi", "residual": note}])


def test_phi_nonneg_fails_only_on_the_dimension_refusal(cavity_text, monkeypatch):
    def refuse(phi):
        raise ValueError("some other refusal")

    monkeypatch.setattr(fock, "psd_check", refuse)
    model = parse_model(mutate(cavity_text, f"phi = {CAVITY_PHI}", f"phi = {QUARTIC_PHI}"))
    with pytest.raises(ValueError, match="some other refusal"):
        check_lossless(model)


def test_storage_condition_fixture(cavity):
    assert check_storage_condition(cavity.phi).overall


def test_storage_condition_halved_phi(cavity):
    phi = parse_expression("a1'*a1 + a2'*a2", cavity.algebra)
    cond = check_storage_condition(phi).condition("ST-gradient-commutator")
    assert not cond.passed


def test_storage_condition_quartic_phi_nonconstant_witness(cavity):
    phi = parse_expression("a1'^2*a1^2", cavity.algebra)
    cond = check_storage_condition(phi).condition("ST-gradient-commutator")
    assert not cond.passed
    assert any("a1" in w["residual"] for w in cond.witness)


# -- synthesis ----------------------------------------------------------------

def test_synthesize_fixture(cavity):
    phi = synthesize_storage(cavity)
    assert phi is not None
    assert phi == cavity.phi
    assert all(c.is_exact for c in phi.terms.values())


def test_synthesize_none_for_broken_model(cavity_text):
    model = parse_model(
        mutate(cavity_text, "B = [[-sqrt(2*k1), 0],", "B = [[sqrt(2*k1), 0],")
    )
    assert synthesize_storage(model) is None


def test_synthesize_zero_coupling_edge_case():
    # A = B = C = 0 and D = I is trivially lossless; 2*a1'*a1 certifies it
    model = parse_model(
        "modes: 1\nchannels: 1\nA[1] = 0\nB = [[0]]\nC[1] = 0\n"
    )
    phi = synthesize_storage(model)
    assert phi is not None and phi.terms == parse_expression("2*a1'*a1", model.algebra).terms
    assert check_lossless(model, phi).overall
    assert check_storage_condition(phi).overall


# -- aggregate runner ---------------------------------------------------------

def test_run_checks_merges_all(cavity):
    report = run_checks(cavity)
    assert report.overall
    ids = [c.condition_id for c in report.conditions]
    assert "CLASS-generator-identity" in ids
    assert "PR-B-match" in ids
    assert "ST-gradient-commutator" in ids
    assert report.derived["storage_function"] == cavity.phi


def test_run_checks_without_phi_synthesizes(cavity_text):
    text = cavity_text.replace("phi = 2*a1'*a1 + 2*a2'*a2", "")
    model = parse_model(text)
    report = run_checks(model)
    assert report.overall
    assert report.derived["storage_synthesized"]


def test_run_checks_reports_missing_phi(cavity_text):
    model = parse_model(
        mutate(cavity_text, "B = [[-sqrt(2*k1), 0],", "B = [[sqrt(2*k1), 0],")
        .replace("phi = 2*a1'*a1 + 2*a2'*a2", "")
    )
    report = run_checks(model, ("lossless",))
    assert not report.overall
    assert not report.condition("LL-phi-available").passed


@pytest.mark.parametrize("selected, message", [
    (("clas",), "unknown check 'clas'; choose from class, preserve, realize, lossless, storage"),
    (("class", "lossles"), "unknown check 'lossles'; choose from"),
    ((), "empty check selection"),
    ("realiz", "unknown check 'realiz'; choose from"),
])
def test_run_checks_refuses_a_selection_it_cannot_run(cavity, selected, message):
    with pytest.raises(ValueError) as raised:
        run_checks(cavity, selected)
    assert str(raised.value).startswith(message)


def test_run_checks_reads_a_bare_string_as_one_family(cavity):
    # not as a string to search family names in
    ids = [c.condition_id for c in run_checks(cavity, "realize").conditions]
    assert ids == [c.condition_id for c in run_checks(cavity, ("realize",)).conditions]
    assert ids[0] == "PR-CCR-sum" and len(ids) == 5


def test_report_json_schema(cavity):
    payload = run_checks(cavity, model_id="fixture").to_dict()
    assert payload["model_id"] == "fixture"
    assert payload["overall"] is True
    for entry in payload["checks"]:
        assert set(entry) == {
            "condition_id", "description", "pass", "residual_norm", "witness",
        }
    assert payload["derived"]["hamiltonian"] == (
        "(0+1i)*a1'^2*a2^2 + (0-1i)*a2'^2*a1^2"
    )


# -- one doubled model per run -------------------------------------------------

@pytest.fixture
def double_calls(monkeypatch):
    calls = []
    original = qrealize.checks.double

    def counting(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(qrealize.checks, "double", counting)
    return calls


def test_run_checks_doubles_the_model_once(cavity, double_calls):
    assert run_checks(cavity).overall
    assert len(double_calls) == 1


@pytest.mark.parametrize("old, new", [
    ("D = identity", "D = identity"),  # synthesis finds phi
    ("B = [[-sqrt(2*k1), 0],", "B = [[sqrt(2*k1), 0],"),  # synthesis finds none
])
def test_run_checks_doubles_once_when_synthesizing(cavity_text, double_calls, old, new):
    text = mutate(cavity_text, old, new).replace("phi = 2*a1'*a1 + 2*a2'*a2", "")
    report = run_checks(parse_model(text))
    assert report.overall is (old == new)
    assert len(double_calls) == 1


def test_run_checks_verifies_a_synthesized_phi_once(cavity_text, monkeypatch):
    calls = []
    for name in ("check_lossless", "check_storage_condition"):
        original = getattr(qrealize.checks, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(qrealize.checks, name, counting)
    text = cavity_text.replace("phi = 2*a1'*a1 + 2*a2'*a2", "")
    report = run_checks(parse_model(text))
    assert report.overall and report.derived["storage_synthesized"]
    assert sorted(calls) == ["check_lossless", "check_storage_condition"]
    # synthesis decides on phi*'s three pre-tests and builds no report itself
    calls.clear()
    assert synthesize_storage(parse_model(text)) is not None and calls == []



def test_run_checks_takes_each_adjoint_once(cavity, monkeypatch):
    # Bbar' (16 entries on the fixture) is built once per doubled model, and
    # the adjoints of abar and Cbar are taken once per commutator construction,
    # not once per entry pair: rebuilding them made 182 calls
    calls = []
    original = OperatorPolynomial.adjoint

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(OperatorPolynomial, "adjoint", counting)
    assert run_checks(cavity).overall
    assert len(calls) <= 78


def test_a_doubled_model_of_another_model_is_refused(cavity, cavity_text):
    # with the fixture's doubled model the sign-flipped B[1,1] went unseen:
    # realize and class passed, and extraction returned the fixture's H
    bad = parse_model(mutate(cavity_text, "B = [[-sqrt(2*k1), 0],", "B = [[sqrt(2*k1), 0],"))
    assert not check_physical_realizability(bad).overall and not check_class(bad).overall
    for call in (check_class, check_preservation, check_physical_realizability,
                 realization_derived, extract_hamiltonian, generator_identity_parts,
                 check_lossless, synthesize_storage):
        with pytest.raises(ValueError, match="^the doubled model was built from another model$"):
            call(bad, dm=double(cavity))
        call(cavity, dm=double(cavity))  # its own doubled model is accepted


def test_ccr_and_pr_ccr_residuals_agree(cavity, mutated_models):
    for name, model in [("fixture", cavity)] + mutated_models:
        report = run_checks(model, ("preserve", "realize"))
        for suffix in ("sum", "B-left", "B-right"):
            ccr = report.condition(f"CCR-{suffix}")
            pr = report.condition(f"PR-CCR-{suffix}")
            assert ccr.residuals == pr.residuals, (name, suffix)
            assert (ccr.passed, ccr.residual_norm, ccr.witness) == (
                pr.passed, pr.residual_norm, pr.witness), (name, suffix)


# -- mutation sweep and the equivalence property ------------------------------

def test_every_mutation_breaks_a_condition(mutated_models):
    for name, model in mutated_models:
        report = run_checks(model)
        failing = [c.condition_id for c in report.conditions if not c.passed]
        assert failing, f"mutation {name} passed all checks"


def test_realizability_lossless_equivalence(cavity, mutated_models):
    # positive direction: realizable fixture admits a verified witness
    assert check_physical_realizability(cavity).overall
    phi = synthesize_storage(cavity)
    assert phi is not None
    assert check_lossless(cavity, phi).overall
    assert check_storage_condition(phi).overall
    # negative direction: every mutation kills realizability and the witness
    for name, model in mutated_models:
        realizable = check_physical_realizability(model).overall
        assert not realizable, f"mutation {name} unexpectedly realizable"
        assert synthesize_storage(model) is None, f"mutation {name} has a witness"


# -- chains past the fixture --------------------------------------------------

@pytest.mark.parametrize("n", [8, 16])
def test_chain_passes_every_condition_with_zero_residual(n):
    model = parse_model(chain_text(n))
    report = run_checks(model)
    assert [c.condition_id for c in report.conditions if not c.passed] == []
    assert all(c.residual_norm == 0 for c in report.conditions)
    alg = model.algebra
    a, ad = alg.annihilator, alg.creator
    h = sum(
        (ad(j) ** 2 * a(j + 1) ** 2 - ad(j + 1) ** 2 * a(j) ** 2 for j in range(1, n)),
        alg.zero(),
    ).scale(Scalar(0, 1))
    assert report.derived["hamiltonian"].terms == h.terms
    assert extract_hamiltonian(model).terms == h.terms


def test_run_checks_forms_no_commutator_with_a_constant(monkeypatch):
    # a constant commutes with everything, so the commutator constructions
    # skip such a pair before any call; chain(8) made 8,704 of its 9,888
    # commutator calls with a constant operand when they did not
    model = parse_model(chain_text(8))
    calls = []
    original = OperatorPolynomial.commutator

    def counting(self, other):
        calls.append(self.is_constant or other.is_constant)
        return original(self, other)

    monkeypatch.setattr(OperatorPolynomial, "commutator", counting)
    assert run_checks(model).overall
    assert calls and not any(calls)


def test_run_checks_takes_no_norm_of_a_zero_residual(monkeypatch):
    # a zero polynomial's norm is 0.0, so residual_norm is taken over the
    # nonzero residuals only; chain(8) took 1,640 norms, all of zero
    # residuals, when it was taken over every entry
    model = parse_model(chain_text(8))
    zero_norms = []
    original = OperatorPolynomial.coeff_norm

    def counting(self):
        zero_norms.append(self.is_zero)
        return original(self)

    monkeypatch.setattr(OperatorPolynomial, "coeff_norm", counting)
    assert run_checks(model).overall
    assert sum(zero_norms) == 0
