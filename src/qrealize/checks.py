"""Verification engines: class membership, commutation preservation,
physical realizability, Hamiltonian extraction, lossless and storage
conditions, and storage-function synthesis.

Every condition id is one row of ``CONDITIONS``, judged by ``_judge``; each
``check_*`` function judges its family's rows in table order, on the doubled
model it is given or builds (:func:`double`).  A judged row is kept on the
doubled model, with what several rows read (``Bbar'``, the Hamiltonian,
``I - Dbar' Dbar``, phi's gradient residuals), so a run forms each once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import OperatorPolynomial, render, wirtinger_gradient
from .matrices import (
    OperatorMatrix,
    block_diag,
    commutator_table,
    doubled_adjoint,
    matrix_vector_commutators,
    outer_commutator,
    row_commutator,
    scalar_vec_commutator,
)
from .model import (
    DoubledModel,
    QsdeModel,
    double,
    doubled_generators,
    sign_matrix,
    structural_class_check,
)
from .scalars import HALF, I, Scalar, largest


@dataclass
class Condition:
    condition_id: str
    description: str
    passed: bool
    residual_norm: float
    witness: list
    # the nonzero residual polynomials, or one zero, kept for the Fock oracle
    residuals: list = field(default_factory=list, repr=False)

    def to_dict(self):
        return {
            "condition_id": self.condition_id,
            "description": self.description,
            "pass": self.passed,
            "residual_norm": self.residual_norm,
            "witness": self.witness,
        }


@dataclass
class CheckReport:
    model_id: str
    conditions: list
    derived: dict | None = None

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, condition_id: str) -> Condition:
        for c in self.conditions:
            if c.condition_id == condition_id:
                return c
        raise KeyError(condition_id)

    def to_dict(self):
        out = {
            "model_id": self.model_id,
            "overall": self.overall,
            "checks": [c.to_dict() for c in self.conditions],
        }
        if self.derived is not None:
            out["derived"] = {key: _rendered(v) for key, v in self.derived.items()}
        return out


def _rendered(value):
    """JSON form of a derived value: polynomials rendered, also inside lists."""
    if isinstance(value, OperatorPolynomial):
        return render(value)
    if isinstance(value, list):
        return [_rendered(v) for v in value]
    return value


# -- the doubled model of a run, and what it keeps ----------------------------

def _doubled(model: QsdeModel, dm: DoubledModel | None) -> DoubledModel:
    """``dm``, or the doubled model of ``model`` when none is given."""
    if dm is None:
        return double(model)
    if dm.model is not model:
        raise ValueError("the doubled model was built from another model")
    return dm


def _kept(dm: DoubledModel | None, phi, key, build):
    """``build()``, cached on the doubled model under (key, id(phi)).  phi is kept
    with it, so its id is not reused while the doubled model lives."""
    return build() if dm is None else dm.cached((key, id(phi)), lambda: (phi, build()))[1]


# -- residuals that several rows or synthesis read ----------------------------
# At Hermitian theta a doubled residual's bottom half mirrors its top half by
# adjoint: [Abar, abar'] has entry (n+i, k+n mod 2n) = -(entry (i, k))' and
# [abar, Abar'] = [Abar, abar']^dagger.  No binary64 part of a coefficient is
# ever -0.0, so a mirrored polynomial has the bits of its direct form.

def _modes(dm: DoubledModel) -> OperatorMatrix:
    """The column (a_1, ..., a_n), the top half of abar."""
    return dm.cached("a", lambda: OperatorMatrix.column(dm.algebra, dm.abar.col(0)[:dm.n]))


def _ccr_sum(dm: DoubledModel, _=None) -> OperatorMatrix:
    """[Abar, abar'] + [abar, Abar'] + Bbar Ibar Bbar', for ``CCR-sum`` and ``PR-CCR-sum``."""
    n, alg = dm.n, dm.algebra
    top = outer_commutator(dm.model.A, dm.abar).nonzero  # A is the top half of Abar
    left = {**top, **{(n + i, (k + n) % (2 * n)): -p.adjoint() for (i, k), p in top.items()}}
    right = {(k, j): p.adjoint() for (j, k), p in left.items()}
    return (OperatorMatrix.from_nonzero(alg, 2 * n, 2 * n, left)
            + OperatorMatrix.from_nonzero(alg, 2 * n, 2 * n, right)
            + dm.Bbar @ dm.Ibar_matrix @ dm.Bbar_adjoint)


def _unitary_residual(dm: DoubledModel, _=None) -> OperatorMatrix:
    """I - Dbar' Dbar, the ``LL-D-unitary`` residual, once per doubled model."""
    return dm.cached("I - Dbar' Dbar", lambda: dm.identity - dm.Dbar.adjoint() @ dm.Dbar)


def _gradient(dm: DoubledModel | None, phi: OperatorPolynomial) -> OperatorMatrix:
    """grad(phi), read by the lossless and storage rows."""
    return _kept(dm, phi, "gradient",
                 lambda: OperatorMatrix.column(phi.algebra, wirtinger_gradient(phi)))


def _gradient_a(dm: DoubledModel, phi: OperatorPolynomial) -> OperatorPolynomial:
    """grad(phi)' Abar + Cbar' Cbar, the ``LL-gradient-A`` residual; synthesis
    and ``check_lossless`` read phi*'s."""
    return _kept(dm, phi, "LL-gradient-A", lambda: (
        (_gradient(dm, phi).adjoint() @ dm.Abar).entry(0, 0)
        + (doubled_adjoint(dm.Cbar) @ dm.Cbar).entry(0, 0)))


def _b_gradient(dm: DoubledModel, phi: OperatorPolynomial) -> OperatorMatrix:
    """(1/2) Bbar' grad(phi) + Cbar, the ``LL-B-gradient`` residual, read likewise."""
    return _kept(dm, phi, "LL-B-gradient",
                 lambda: (dm.Bbar_adjoint @ _gradient(dm, phi)).scale(HALF) + dm.Cbar)


def coupling_commutator_matrix(lbar: OperatorMatrix, abar: OperatorMatrix) -> OperatorMatrix:
    """The matrix [Lbar', abar] with entry (j, k) = [Lbar_k*, abar_j]."""
    table = commutator_table(lbar.conj().nonzero, abar.nonzero)
    entries = {(j, k): c for ((k, _), (j, _)), c in table.items()}
    return OperatorMatrix.from_nonzero(abar.algebra, abar.rows, lbar.rows, entries)


def generator_identity_parts(model: QsdeModel, dm: DoubledModel | None = None):
    """The two sides (i[H, abar], Abar - (1/2) Bbar Cbar) of the class identity,
    H the extracted Hamiltonian (0 for a zero drift).  As H = H', the bottom
    half mirrors the top: i[H, a_j'] = (i[H, a_j])'."""
    dm = _doubled(model, dm)
    n = dm.n
    h = dm.algebra.zero() if model.A.is_zero else extract_hamiltonian(model, dm)
    top = scalar_vec_commutator(h, _modes(dm)).scale(I)
    lhs = OperatorMatrix.from_nonzero(dm.algebra, 2 * n, 1, {
        **top.nonzero, **{(j + n, 0): p.adjoint() for (j, _), p in top.nonzero.items()}})
    return lhs, dm.Abar - (dm.Bbar @ dm.Cbar).scale(HALF)


# -- row builders ---------------------------------------------------------------

def _commuting(label: str, m: OperatorMatrix, w: OperatorMatrix, dagger: bool = False):
    """The nonzero [m_ij, w_k] (w_k' if ``dagger``), labelled by ``label`` formatted
    with (i, j, k), or one zero when there are none."""
    named = matrix_vector_commutators(m, w, dagger)
    return [(label.format(*ijk), p) for ijk, p in named] or [("all", m.algebra.zero())]


def _nonnegative(_, phi: OperatorPolynomial):
    passed, note = _phi_nonnegative(phi)
    return note, [] if passed else [("phi", note)]


def _phi_nonnegative(phi: OperatorPolynomial):
    """(passed, note): phi is a positive semidefinite Hermitian quadratic form, or
    else, at theta = I, self-adjoint with no negative truncated eigenvalue; past
    the truncation's dimension bound, or with a coefficient beyond binary64,
    positivity is not established."""
    alg = phi.algebra
    if phi.is_zero:
        return True, "zero storage function"
    if alg.unit in phi.terms:  # a kept coefficient is nonzero
        return False, "nonzero vacuum value"
    quad = {}  # (i, j): the coefficient of a_i' a_j
    for mono, coeff in phi.terms.items():
        if mono.degree == 2 and sum(mono.creation) == 1 == sum(mono.annihilation):
            quad[mono.creation.index(1), mono.annihilation.index(1)] = coeff
    quadratic = len(quad) == len(phi.terms)  # a quadratic form, vanishing at the vacuum
    if (quadratic or alg.theta.is_identity) and not (phi.adjoint() - phi).is_zero:
        return False, ("quadratic form is not Hermitian" if quadratic
                       else "storage function is not self-adjoint")
    import numpy as np

    from .fock import DimensionError, psd_check

    try:
        if quadratic:
            p = np.zeros((alg.modes, alg.modes), dtype=complex)
            for ij, coeff in quad.items():
                p[ij] = coeff.to_complex()
            min_eig = float(np.linalg.eigvalsh(p).min())
            if min_eig >= -alg.tol:
                return True, "positive semidefinite quadratic form"
            return False, f"quadratic form has negative eigenvalue {min_eig:.3g}"
        if alg.theta.is_identity:
            passed, min_eig = psd_check(phi)
            return passed, f"truncated-representation minimum eigenvalue {min_eig:.3g}"
    except DimensionError as exc:  # too many touched modes for one quantum each
        return False, f"positivity not established: {exc}"
    except OverflowError:  # from to_complex, or psd_check's refusal of an infinite entry
        return False, "positivity not established: a coefficient is beyond binary64"
    return False, "positivity not established for non-identity theta"


def _storage_residual(dm: DoubledModel | None, phi: OperatorPolynomial):
    """[grad(phi), abar^T] minus the target [[0, 2 theta], [-2 theta^T, 0]], with
    the target's name; without a doubled model abar is built from phi's algebra."""
    alg = phi.algebra
    n = alg.modes
    abar = dm.abar if dm is not None else doubled_generators(alg)
    actual = row_commutator(_gradient(dm, phi), abar)
    # [[0, 2 theta], [-2 theta^T, 0]], from the nonzero entries of 2 theta
    two_theta = [(j, l, alg.scalar(Scalar(2) * t))
                 for j, row in enumerate(alg.theta.row_entries) for l, t, _ in row]
    target = OperatorMatrix.from_nonzero(alg, 2 * n, 2 * n, {
        **{(j, n + l): p for j, l, p in two_theta}, **{(n + l, j): -p for j, l, p in two_theta}})
    if alg.theta.is_identity:
        return "constant block matrix [[0, 2I], [-2I, 0]]", actual - target
    return ("theta-scaled block matrix [[0, 2*theta], [-2*theta^T, 0]] (generalized target "
            "for non-identity theta)", actual - target)


# -- the condition table --------------------------------------------------------

_CCR = (
    ("CCR-sum", "preserve", "[Abar, abar'] + [abar, Abar'] + Bbar Ibar Bbar' vanishes",
     _ccr_sum),
    ("CCR-B-left", "preserve",
     "every entry of Bbar commutes with every doubled creation generator",
     lambda dm, _: _commuting("Bbar[{0},{1}] vs abar{2}'", dm.Bbar, dm.abar, dagger=True)),
    ("CCR-B-right", "preserve", "every doubled generator commutes with every entry of Bbar'",
     lambda dm, _: _commuting("Bbar'[{0},{1}] vs abar{2}", dm.Bbar_adjoint, dm.abar)),
)

# (condition id, family, description, builder) in report order; ``_ROWS`` maps a
# family to its rows.  Where a description holds "{}", the builder returns
# (note, result) and the note fills it.  ``run_checks`` reports the "phi" row in
# place of the lossless and storage families when no storage function is found.
CONDITIONS = (
    ("CLASS-B-commutes", "class", "every entry of B commutes with every mode operator",
     lambda dm, _: _commuting("B[{0},{1}] vs a{2}", dm.model.B, _modes(dm))),
    ("CLASS-C-commutes", "class", "every entry of C commutes with every mode operator",
     lambda dm, _: _commuting("C[{0}] vs a{2}", dm.model.C, _modes(dm))),
    ("CLASS-A-antisymmetry", "class", "the drift commutator matrix [A_j, a_k] is symmetric",
     lambda dm, _: (row_a := row_commutator(dm.model.A, _modes(dm))) - row_a.transpose()),
    ("CLASS-structure", "class",
     "drift and output monomials have the admissible single-mode form",
     lambda dm, _: [(v, "structural") for v in structural_class_check(dm.model)]),
    ("CLASS-generator-identity", "class",
     "the graded commutator identity reproduces Abar - (1/2) Bbar Cbar",
     lambda dm, _: operator.sub(*generator_identity_parts(dm.model, dm))),
    *_CCR,
    *((f"PR-{cid}", "realize", desc, build) for cid, _, desc, build in _CCR),
    ("PR-B-match", "realize", "Bbar equals the coupling commutator matrix [Cbar', abar] Ibar",
     lambda dm, _: dm.Bbar - coupling_commutator_matrix(dm.Cbar, dm.abar) @ dm.Ibar_matrix),
    ("PR-D-identity", "realize", "Dbar is the identity", lambda dm, _: dm.Dbar - dm.identity),
    ("LL-gradient-A", "lossless", "grad(phi)' Abar equals -Cbar' Cbar",
     lambda dm, phi: [("scalar", _gradient_a(dm, phi))]),
    ("LL-B-gradient", "lossless", "(1/2) Bbar' grad(phi) equals -Cbar", _b_gradient),
    ("LL-D-unitary", "lossless", "I - Dbar' Dbar vanishes", _unitary_residual),
    ("LL-phi-selfadjoint", "lossless", "the storage function is self-adjoint",
     lambda _, phi: [("phi' - phi", phi.adjoint() - phi)]),
    ("LL-phi-nonneg", "lossless", "the storage function is non-negative ({})", _nonnegative),
    ("ST-gradient-commutator", "storage", "[grad(phi), abar^T] equals the {}", _storage_residual),
    ("LL-phi-available", "phi", "a storage function is available (declared or synthesized)",
     lambda _, phi: [] if phi is not None else [("phi", "no candidate found")]),
)
_ROWS = {row[1]: [r for r in CONDITIONS if r[1] == row[1]] for row in CONDITIONS}


def _judge(cid: str, desc: str, result) -> Condition:
    """A builder's result as a condition: a residual matrix, whose nonzero entries
    are kept labelled (i,j), or one zero when it has none; labelled residuals, all
    kept; or a verdict's failures."""
    if isinstance(result, tuple):  # (note, result): the note fills the description
        note, result = result
        desc = desc.format(note)
    if isinstance(result, OperatorMatrix):
        zero = [("all", result.algebra.zero())]
        result = [(f"({i + 1},{j + 1})", p) for (i, j), p in result.nonzero.items()] or zero
    elif result and isinstance(result[0][1], str):  # a verdict: no residual polynomials
        return Condition(cid, desc, False, 0.0,
                         [{"entry": entry, "residual": reason} for entry, reason in result])
    residuals = [p for _, p in result]
    nonzero = [(label, p) for label, p in result if not p.is_zero]
    norm = largest(p.coeff_norm() for _, p in nonzero)
    return Condition(cid, desc, not nonzero, norm,
                     [{"entry": label, "residual": render(p)} for label, p in nonzero], residuals)


def _condition(row, dm: DoubledModel | None, phi) -> Condition:
    """One row judged on (dm, phi) and kept, so a builder two ids share is built
    and judged once; the other id gets a copy with its own witness list."""
    cid, _, desc, build = row
    first = _kept(dm, phi, build, lambda: _judge(cid, desc, build(dm, phi)))
    if first.condition_id == cid:
        return first
    return Condition(cid, first.description, first.passed, first.residual_norm,
                     [dict(w) for w in first.witness], list(first.residuals))


def _report(family: str, model_id: str, dm: DoubledModel | None, phi=None) -> CheckReport:
    """The rows of one family, judged in table order."""
    return CheckReport(model_id, [_condition(row, dm, phi) for row in _ROWS[family]])


# -- the check families ---------------------------------------------------------

def check_class(
    model: QsdeModel, model_id: str = "model", dm: DoubledModel | None = None
) -> CheckReport:
    """Membership conditions for the admissible model class."""
    return _report("class", model_id, _doubled(model, dm))


def check_preservation(
    model: QsdeModel, model_id: str = "model", dm: DoubledModel | None = None
) -> CheckReport:
    """Differential conditions for preservation of the commutation relations."""
    return _report("preserve", model_id, _doubled(model, dm))


def check_physical_realizability(
    model: QsdeModel, model_id: str = "model", dm: DoubledModel | None = None
) -> CheckReport:
    """Necessary and sufficient realizability conditions, plus extraction."""
    dm = _doubled(model, dm)
    report = _report("realize", model_id, dm)
    if report.overall and not model.A.is_zero:
        report.derived = realization_derived(model, dm)
    return report


def realization_derived(model: QsdeModel, dm: DoubledModel | None = None) -> dict:
    """nbar, the extracted Hamiltonian, its self-adjointness and the coupling."""
    dm = _doubled(model, dm)
    hbar = extract_hamiltonian(model, dm=dm)
    return {
        "nbar": dm.nbar,
        "hamiltonian": hbar,
        "hamiltonian_self_adjoint": hbar.adjoint() == hbar,
        "coupling": dm.Cbar.col(0),
    }


def extract_hamiltonian(model: QsdeModel, dm: DoubledModel | None = None) -> OperatorPolynomial:
    """H = (i / 2 nbar) (s' - s), once per doubled model, for s = Abar' J^-1 abar and
    J^-1 = diag(T, -conj(T)), T = theta^-1; s' - s is anti-self-adjoint
    coefficient by coefficient, so H = H' term for term."""
    if model.A.is_zero:
        raise ValueError("Hamiltonian extraction needs a nonzero drift")
    dm = _doubled(model, dm)

    def build():
        t = OperatorMatrix.from_scalars(dm.algebra, dm.algebra.theta.inverse())
        s = (doubled_adjoint(dm.Abar) @ block_diag(t, -t.conj()) @ dm.abar).entry(0, 0)
        return (s.adjoint() - s).scale(Scalar(0, Fraction(1, 2 * dm.nbar)))
    return dm.cached("hamiltonian", build)


def reconstruct_generator(hbar: OperatorPolynomial, lbar: OperatorMatrix) -> OperatorMatrix:
    """Drift vector of the oscillator (hbar, lbar), with entry j (1/2) (row j of
    [Lbar', abar] Ibar) Lbar + i [hbar, abar_j]; for a physically realizable
    model this reproduces Abar exactly."""
    alg = hbar.algebra
    alg.require_compatible(lbar.algebra)
    if lbar.cols != 1 or lbar.rows % 2 != 0:
        raise ValueError("coupling vector must be a column of even length")
    abar = doubled_generators(alg)
    ibar = sign_matrix(alg, lbar.rows // 2)
    dissipative = (coupling_commutator_matrix(lbar, abar) @ ibar @ lbar).scale(HALF)
    return dissipative + scalar_vec_commutator(hbar, abar).scale(I)


def check_lossless(
    model: QsdeModel,
    phi: OperatorPolynomial | None = None,
    model_id: str = "model",
    dm: DoubledModel | None = None,
) -> CheckReport:
    """Differential lossless conditions for a given storage function."""
    phi = phi if phi is not None else model.phi
    if phi is None:
        raise ValueError("a storage function is required (model phi or argument)")
    return _report("lossless", model_id, _doubled(model, dm), phi)


def check_storage_condition(
    phi: OperatorPolynomial, model_id: str = "model", dm: DoubledModel | None = None
) -> CheckReport:
    """Gradient commutator condition characterizing admissible storage functions."""
    return _report("storage", model_id, dm, phi)


def _storage_candidate(alg) -> OperatorPolynomial:
    """phi* = 2 sum_j a_j' a_j (2.0 when theta is binary64), the only candidate:
    the target's top-right block 2 theta admits only P = I at invertible theta."""
    pairs = (alg.creator(j) * alg.annihilator(j) for j in range(1, alg.modes + 1))
    return sum(pairs, alg.zero()).scale(2 if alg.theta.exact else 2.0)


def synthesize_storage(
    model: QsdeModel, dm: DoubledModel | None = None
) -> OperatorPolynomial | None:
    """phi* = 2 sum_j a_j' a_j when it certifies the lossless property, else None,
    decided on its ``LL-D-unitary``, ``LL-gradient-A`` and ``LL-B-gradient`` residuals:
    phi* is self-adjoint, its form is 2I and [2 abar_j, abar_k] is the storage target.
    ``Bbar' abar + Cbar``, the last at grad(phi*) = 2 abar unhalved, rejects most first."""
    dm = _doubled(model, dm)
    if not (dm.Bbar_adjoint @ dm.abar + dm.Cbar).is_zero or not _unitary_residual(dm).is_zero:
        return None
    phi = _storage_candidate(model.algebra)
    return phi if _gradient_a(dm, phi).is_zero and _b_gradient(dm, phi).is_zero else None


# -- aggregate runner -----------------------------------------------------------

CHECK_NAMES = ("class", "preserve", "realize", "lossless", "storage")


def run_checks(model: QsdeModel, selected=CHECK_NAMES, model_id: str = "model") -> CheckReport:
    """Run the selected families of ``CHECK_NAMES`` (a bare string names one) on
    one doubled model; an unknown name or an empty selection is a ValueError."""
    selected = (selected,) if isinstance(selected, str) else tuple(selected)
    for name in selected:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(CHECK_NAMES)}")
    if not selected:
        raise ValueError("empty check selection")
    dm = double(model)
    conditions, derived = [], {}

    def add(report: CheckReport):
        conditions.extend(report.conditions)
        derived.update(report.derived or {})

    if "class" in selected:
        add(check_class(model, model_id, dm))
    if "preserve" in selected:
        add(check_preservation(model, model_id, dm))
    if "realize" in selected:
        add(check_physical_realizability(model, model_id, dm))
    if "lossless" in selected or "storage" in selected:
        phi = model.phi if model.phi is not None else synthesize_storage(model, dm)
        if phi is None:
            add(_report("phi", model_id, dm))
        else:
            if "lossless" in selected:
                add(check_lossless(model, phi, model_id, dm))
            if "storage" in selected:
                add(check_storage_condition(phi, model_id, dm))
            derived["storage_function"] = phi
            derived["storage_synthesized"] = model.phi is None
    return CheckReport(model_id=model_id, conditions=conditions, derived=derived or None)
