"""The failing path builds nothing it throws away, and reports stay the same.

Storage synthesis decides phi* on its three pre-tests and builds no report;
``format_scalar`` formats exact parts from their integer fields; ``CCR-sum``
and ``PR-CCR-sum`` read one summary; exact real scalars skip imaginary
arithmetic; matrix subtraction and the doubled row adjoints are formed
without the intermediate matrices.  Each is compared
here with the plain rule it replaces, field for field where bits matter.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrealize import (
    Algebra,
    Monomial,
    OperatorPolynomial,
    Scalar,
    check_lossless,
    check_storage_condition,
    format_scalar,
    parse_model,
    run_checks,
    synthesize_storage,
)
from qrealize.matrices import doubled_adjoint
from qrealize.model import double

from conftest import CAVITY_PATH, FIXTURE_DIR, MUTATIONS, golden_models, mutate
from helpers import load_workloads

WORKLOADS = load_workloads()
REFUSED_FIXTURES = {"malformed_cavity", "nonhermitian_theta", "late_theta", "singular_theta",
                    "reserved_param", "mixed_theta_overflow"}


def fields(p):
    """Each term of p in order, with the exact fields of its coefficient."""
    return [((m.creation, m.annihilation), repr(c.re_num), repr(c.im_num), c.den)
            for m, c in p.terms.items()]


def synthesis_models():
    """(name, text) with phi removed: cavity mutants, chain edits, goldens, fixtures."""
    cavity = CAVITY_PATH.read_text()
    out = [(f"cavity {name}", mutate(cavity, old, new, name)) for name, old, new in MUTATIONS]
    for n in (2, 3, 4):
        out.append((f"chain({n})", WORKLOADS.chain_text(n, 2)))
        out += [(f"chain({n}) {kind}@{mode}", WORKLOADS.chain_mutant_text(n, kind, mode))
                for kind in WORKLOADS.CHAIN_EDIT_KINDS for mode in (1, n)]
    out += golden_models()
    out += [(p.stem, p.read_text()) for p in sorted(FIXTURE_DIR.glob("*.qsde"))
            if p.stem not in REFUSED_FIXTURES]
    return [(name, WORKLOADS.strip_phi(text)) for name, text in out]


def reference_synthesis(model):
    """The rule synthesis decided by before: the ``Bbar' abar + Cbar`` pre-test,
    then the full lossless and storage reports on phi*, each on its own
    doubled model, so that nothing is shared with the code under test."""
    dm = double(model)
    if not (dm.Bbar_adjoint @ dm.abar + dm.Cbar).is_zero:
        return None
    alg = model.algebra
    exact = all(x.is_exact for row in alg.theta.theta for x in row)
    pairs = (alg.creator(j) * alg.annihilator(j) for j in range(1, alg.modes + 1))
    phi = sum(pairs, alg.zero()).scale(2 if exact else 2.0)
    lossless = check_lossless(model, phi, dm=double(model))
    storage = check_storage_condition(phi, dm=double(model))
    return (phi, lossless, storage) if lossless.overall and storage.overall else None


@pytest.mark.parametrize("floating", [False, True], ids=["exact", "float"])
def test_synthesis_decides_as_the_full_reports_would(floating):
    found = 0
    for name, text in synthesis_models():
        model = parse_model(text)
        if floating:
            try:
                model = model.to_float()
            except (OverflowError, ValueError):  # beyond binary64, or a theta it cannot invert
                continue
        ref, got = reference_synthesis(model), synthesize_storage(model)
        assert (ref is None) == (got is None), name
        report = [c.to_dict() for c in run_checks(model).conditions
                  if c.condition_id.startswith(("LL-", "ST-"))]
        if ref is None:
            assert [c["condition_id"] for c in report] == ["LL-phi-available"], name
            continue
        found += 1
        assert fields(got) == fields(ref[0]), name
        assert report == [c.to_dict() for c in ref[1].conditions + ref[2].conditions], name
    assert found >= 4  # the passing chains and the decoupled-mode fixture


@pytest.mark.parametrize("floating", [False, True], ids=["exact", "float"])
def test_overflowing_bbar_gradient_leaves_no_candidate(floating):
    # exact mode rejects phi* at LL-gradient-A; in binary64 that residual's
    # inf - inf is NaN, never zero, and (1/2) Bbar' grad(phi*) overflows to -inf
    model = parse_model((FIXTURE_DIR / "overflow_synthesis.qsde").read_text())
    model = model.to_float() if floating else model
    assert synthesize_storage(model) is None
    report = run_checks(model, ("lossless", "storage"))
    assert [c.condition_id for c in report.conditions] == ["LL-phi-available"]
    assert not report.overall


def reference_format(c, parsable=False):
    """``format_scalar`` as it read the parts through ``Fraction``."""
    def part(x):
        return str(x) if isinstance(x, Fraction) else repr(x)
    re, im = c.re, c.im
    if parsable and im == 0:
        return f"({part(re)})"
    sign = "+" if im >= 0 else "-"
    return f"({part(re)}{sign}{part(im if im >= 0 else -im)}{'*i' if parsable else 'i'})"


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12), st.integers(1, 10**6))
def test_exact_format_matches_fraction_reference(re, im, den):
    # the fields share no factor of all three, but a part may share one with den
    c = Scalar(Fraction(re, den), Fraction(im, den))
    for parsable in (False, True):
        assert format_scalar(c, parsable) == reference_format(c, parsable)


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -2.5])


@settings(max_examples=300, deadline=None)
@given(st.floats() | SPECIAL, st.floats() | SPECIAL)
def test_binary64_format_matches_reference(re, im):
    c = Scalar(re, im)
    for parsable in (False, True):
        assert format_scalar(c, parsable) == reference_format(c, parsable)


def test_ccr_and_pr_ccr_witnesses_are_equal_copies(cavity_text):
    model = parse_model(mutate(cavity_text, "A[1] = -k1*a1 + ", "A[1] = k1*a1 + "))
    report = run_checks(model)
    ccr, pr = report.condition("CCR-sum"), report.condition("PR-CCR-sum")
    assert not ccr.passed and ccr.witness
    assert ccr.witness == pr.witness and ccr.residual_norm == pr.residual_norm
    assert ccr.witness is not pr.witness
    assert all(a is not b for a, b in zip(ccr.witness, pr.witness))
    assert ccr.residuals is not pr.residuals
    # a run without realize builds the summary for CCR-sum alone, and reads the same
    alone = run_checks(model, ("preserve",))
    assert alone.condition("CCR-sum").to_dict() == ccr.to_dict()


@pytest.mark.parametrize("value", [Scalar(3), Scalar(Fraction(-7, 4)), Scalar(0)])
def test_conjugate_of_an_exact_real_is_itself(value):
    conj = value.conjugate()
    assert conj == value
    assert (conj.re_num, conj.im_num, conj.den) == (value.re_num, value.im_num, value.den)


def test_conjugate_of_a_binary64_real_keeps_a_positive_zero():
    conj = Scalar(2.0, 0.0).conjugate()
    assert conj.re_num == 2.0 and conj.im_num == 0.0
    assert math.copysign(1.0, conj.im_num) == +1.0


ALG = Algebra(2)
WORDS = [Monomial(cre, ann) for cre in ((0, 0), (1, 0), (0, 2)) for ann in ((0, 0), (0, 1))]
PARTS = st.sampled_from([0.0, -0.0, 1.5, -2.0]) | st.integers(-2, 2)
COEFFS = st.tuples(PARTS, PARTS).filter(lambda parts: any(parts)).map(
    lambda parts: Scalar(*parts) if all(type(x) is int for x in parts)
    else Scalar(float(parts[0]), float(parts[1])))
POLYS = st.dictionaries(st.sampled_from(WORDS), COEFFS, max_size=4).map(
    lambda terms: OperatorPolynomial(ALG, terms))


@settings(max_examples=300, deadline=None)
@given(POLYS, POLYS)
def test_polynomial_subtraction_has_the_bits_of_adding_the_negation(p, q):
    # no binary64 part is -0.0, so p - q and p + (-q) agree in every bit
    assert fields(p - q) == fields(p + (-q))


@pytest.mark.parametrize("floating", [False, True], ids=["exact", "float"])
def test_matrix_plumbing_matches_the_direct_forms(floating):
    cavity = CAVITY_PATH.read_text()
    texts = [text for _, text in golden_models()]
    texts += [mutate(cavity, old, new, name) for name, old, new in MUTATIONS]
    for text in texts:
        model = parse_model(text)
        dm = double(model.to_float() if floating else model)
        for v in (dm.Abar, dm.Cbar):
            mirrored, direct = doubled_adjoint(v), v.conj().transpose()
            assert list(mirrored.nonzero) == list(direct.nonzero)
            assert [fields(p) for p in mirrored.nonzero.values()] == [
                fields(p) for p in direct.nonzero.values()]
            assert [fields(p) for p in v.adjoint().nonzero.values()] == [
                fields(p) for p in direct.nonzero.values()]
        for a, b in ((dm.Dbar, dm.identity), (dm.Bbar, dm.Bbar), (dm.identity, dm.Dbar)):
            diff, plus = a - b, a + (-b)
            assert list(diff.nonzero) == list(plus.nonzero)
            assert [fields(p) for p in diff.nonzero.values()] == [
                fields(p) for p in plus.nonzero.values()]
