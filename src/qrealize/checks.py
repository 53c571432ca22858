"""Verification engines: class membership, commutation preservation,
physical realizability, Hamiltonian extraction, generator reconstruction,
lossless and storage-function conditions.

Every engine returns a :class:`CheckReport` whose conditions carry symbolic
residuals; in exact mode a passing condition has residual exactly zero.

All engines read one doubled model (:func:`double`).  ``run_checks`` builds
it once per run and hands it to every family and to ``synthesize_storage``;
each public ``check_*`` function takes it as an optional ``dm`` and builds
its own only when not given one.  The doubled model caches what a run
reads twice: ``Bbar'``, the ``Bbar`` commutators and the CCR summary
(``CCR-*`` and ``PR-CCR-*``), the Hamiltonian (the class identity and
extraction), and ``I - Dbar' Dbar`` and the last phi's gradient
residuals (synthesis and ``check_lossless``).  theta is Hermitian, so each
doubled residual is formed from the half that carries its information.

Storage synthesis has one candidate, ``phi* = 2 sum_j a_j' a_j``: for
``phi = 2 a' P a`` the ``ST-gradient-commutator`` target's top-right block
``2 theta`` holds only at P = I when theta is invertible.  A synthesized
phi is checked like a declared one.
"""

from __future__ import annotations

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
from .scalars import HALF, I, Scalar


@dataclass
class Condition:
    condition_id: str
    description: str
    passed: bool
    residual_norm: float
    witness: list
    # asserted-zero residual polynomials, kept for numerical re-verification
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


def _residual_condition(cid, desc, labelled_residuals, residuals=None):
    """A condition over [(label, residual), ...], keeping ``residuals`` (default: all)."""
    nonzero = [(lab, p) for lab, p in labelled_residuals if not p.is_zero]
    return Condition(
        condition_id=cid,
        description=desc,
        passed=not nonzero,
        residual_norm=max((p.coeff_norm() for _, p in nonzero), default=0.0),
        witness=[{"entry": lab, "residual": render(p)} for lab, p in nonzero],
        residuals=[p for _, p in labelled_residuals] if residuals is None else residuals,
    )


def _matrix_residual(cid, desc, mat: OperatorMatrix):
    """Labels only the nonzero entries, which ``nonzero`` holds row-major."""
    labelled = [(f"({i + 1},{j + 1})", p) for (i, j), p in mat.nonzero.items()]
    return _residual_condition(cid, desc, labelled, mat.entries)


def _commutation_condition(cid, desc, label, named, alg):
    """Condition over the nonzero [m_ij, w_k] of ``matrix_vector_commutators``;
    ``label`` formats (i, j, k)."""
    labelled = [(label.format(i, j, k), p) for (i, j, k), p in named]
    return _residual_condition(cid, desc, labelled or [("all", alg.zero())])


def _verdict(cid, desc, failures):
    """A condition without residual polynomials; fails on [(entry, reason), ...]."""
    return Condition(
        condition_id=cid,
        description=desc,
        passed=not failures,
        residual_norm=0.0,
        witness=[{"entry": entry, "residual": reason} for entry, reason in failures],
    )


# -- residual matrices shared by several conditions, one per doubled model ----
# At Hermitian theta a doubled residual's bottom half mirrors its top half by
# adjoint: [Abar, abar'] has entry (n+i, k+n mod 2n) = -(entry (i, k))',
# [abar, Abar'] = [Abar, abar']^dagger and, as H = H', i[H, a_j'] = (i[H, a_j])'.
# No binary64 part of a coefficient is ever -0.0, so a mirrored polynomial
# has the bits of its direct form.

def _ccr_sum(dm: DoubledModel) -> OperatorMatrix:
    """[Abar, abar'] + [abar, Abar'] + Bbar Ibar Bbar', read once, by the cached CCR summary."""
    n, alg = dm.n, dm.algebra
    top = outer_commutator(OperatorMatrix.column(alg, dm.Abar.col(0)[:n]), dm.abar).nonzero
    left = {**top, **{(n + i, (k + n) % (2 * n)): -p.adjoint()
                      for (i, k), p in top.items()}}
    right = {(k, j): p.adjoint() for (j, k), p in left.items()}
    return (OperatorMatrix.from_nonzero(alg, 2 * n, 2 * n, left)
            + OperatorMatrix.from_nonzero(alg, 2 * n, 2 * n, right)
            + dm.Bbar @ dm.Ibar_matrix @ dm.Bbar_adjoint)


def _bbar_commutators(dm: DoubledModel):
    """The nonzero [Bbar_ij, abar_k'] and [Bbar'_ij, abar_k]."""
    return dm.cached("bbar-commutators", lambda: (
        matrix_vector_commutators(dm.Bbar, dm.abar, dagger=True),
        matrix_vector_commutators(dm.Bbar_adjoint, dm.abar),
    ))


def _hamiltonian(dm: DoubledModel) -> OperatorPolynomial:
    """H = (i / 2 nbar) (s' - s) for s = Abar' J^-1 abar and J = diag(theta,
    -theta*), whose inverse is diag(T, -conj(T)) with T = theta^-1; H = H'
    term for term, since s' - s is anti-self-adjoint coefficient by coefficient."""

    def build():
        t = OperatorMatrix.from_scalars(dm.algebra, dm.algebra.theta.inverse())
        s = (doubled_adjoint(dm.Abar) @ block_diag(t, -t.conj()) @ dm.abar).entry(0, 0)
        return (s.adjoint() - s).scale(Scalar(0, Fraction(1, 2 * (dm.nbar or 1))))

    return dm.cached("hamiltonian", build)


def coupling_commutator_matrix(lbar: OperatorMatrix, abar: OperatorMatrix) -> OperatorMatrix:
    """The matrix [Lbar', abar] with entry (j, k) = [Lbar_k*, abar_j]."""
    table = commutator_table(lbar.conj().nonzero, abar.nonzero)
    return OperatorMatrix.from_nonzero(
        abar.algebra, abar.rows, lbar.rows, {(j, k): c for ((k, _), (j, _)), c in table.items()}
    )


# -- Definition-class membership ----------------------------------------------

def generator_identity_parts(model: QsdeModel, dm: DoubledModel | None = None):
    """The two sides (i[H, abar], Abar - (1/2) Bbar Cbar) of the class identity,
    H the extracted Hamiltonian.  Since H = H', i[H, a_j'] = (i[H, a_j])', so
    the bottom half mirrors the top."""
    dm = dm or double(model)
    n = dm.n
    top = scalar_vec_commutator(
        _hamiltonian(dm), OperatorMatrix.column(dm.algebra, dm.abar.col(0)[:n])).scale(I)
    lhs = OperatorMatrix.from_nonzero(dm.algebra, 2 * n, 1, {
        **top.nonzero, **{(j + n, 0): p.adjoint() for (j, _), p in top.nonzero.items()}})
    return lhs, dm.Abar - (dm.Bbar @ dm.Cbar).scale(HALF)


def check_class(
    model: QsdeModel, model_id: str = "model", dm: DoubledModel | None = None
) -> CheckReport:
    """Membership conditions for the admissible model class."""
    alg = model.algebra
    dm = dm or double(model)
    a_vec = OperatorMatrix.column(alg, dm.abar.col(0)[: model.n])
    row_a = row_commutator(model.A, a_vec)
    lhs, rhs = generator_identity_parts(model, dm)
    conditions = [
        _commutation_condition(
            "CLASS-B-commutes",
            "every entry of B commutes with every mode operator",
            "B[{0},{1}] vs a{2}",
            matrix_vector_commutators(model.B, a_vec),
            alg,
        ),
        _commutation_condition(
            "CLASS-C-commutes",
            "every entry of C commutes with every mode operator",
            "C[{0}] vs a{2}",
            matrix_vector_commutators(model.C, a_vec),
            alg,
        ),
        _matrix_residual(
            "CLASS-A-antisymmetry",
            "the drift commutator matrix [A_j, a_k] is symmetric",
            row_a - row_a.transpose(),
        ),
        _verdict(
            "CLASS-structure",
            "drift and output monomials have the admissible single-mode form",
            [(v, "structural") for v in structural_class_check(model)],
        ),
        _matrix_residual(
            "CLASS-generator-identity",
            "the graded commutator identity reproduces Abar - (1/2) Bbar Cbar",
            lhs - rhs,
        ),
    ]
    return CheckReport(model_id=model_id, conditions=conditions)


# -- commutation preservation -------------------------------------------------

def check_preservation(
    model: QsdeModel,
    model_id: str = "model",
    id_prefix: str = "CCR",
    dm: DoubledModel | None = None,
) -> CheckReport:
    """Differential conditions for preservation of the commutation relations."""
    alg = model.algebra
    dm = dm or double(model)
    b_left, b_right = _bbar_commutators(dm)
    cid, desc = f"{id_prefix}-sum", "[Abar, abar'] + [abar, Abar'] + Bbar Ibar Bbar' vanishes"
    # CCR-sum and PR-CCR-sum share one summary, not one witness list
    ccr = dm.cached("ccr-summary", lambda: _matrix_residual(cid, desc, _ccr_sum(dm)))
    conditions = [
        Condition(cid, desc, ccr.passed, ccr.residual_norm,
                  [dict(w) for w in ccr.witness], list(ccr.residuals)),
        _commutation_condition(
            f"{id_prefix}-B-left",
            "every entry of Bbar commutes with every doubled creation generator",
            "Bbar[{0},{1}] vs abar{2}'",
            b_left,
            alg,
        ),
        _commutation_condition(
            f"{id_prefix}-B-right",
            "every doubled generator commutes with every entry of Bbar'",
            "Bbar'[{0},{1}] vs abar{2}",
            b_right,
            alg,
        ),
    ]
    return CheckReport(model_id=model_id, conditions=conditions)


# -- physical realizability ---------------------------------------------------

def check_physical_realizability(
    model: QsdeModel, model_id: str = "model", dm: DoubledModel | None = None
) -> CheckReport:
    """Necessary and sufficient realizability conditions, plus extraction."""
    dm = dm or double(model)
    report = check_preservation(model, model_id, id_prefix="PR-CCR", dm=dm)
    report.conditions += [
        _matrix_residual(
            "PR-B-match",
            "Bbar equals the coupling commutator matrix [Cbar', abar] Ibar",
            dm.Bbar - coupling_commutator_matrix(dm.Cbar, dm.abar) @ dm.Ibar_matrix,
        ),
        _matrix_residual(
            "PR-D-identity",
            "Dbar is the identity",
            dm.Dbar - dm.identity,
        ),
    ]
    if report.overall and not model.A.is_zero:
        report.derived = realization_derived(model, dm)
    return report


def realization_derived(model: QsdeModel, dm: DoubledModel | None = None) -> dict:
    """nbar, the extracted Hamiltonian, its self-adjointness and the coupling."""
    dm = dm or double(model)
    hbar = extract_hamiltonian(model, dm=dm)
    return {
        "nbar": dm.nbar,
        "hamiltonian": hbar,
        "hamiltonian_self_adjoint": hbar.adjoint() == hbar,
        "coupling": dm.Cbar.col(0),
    }


def extract_hamiltonian(model: QsdeModel, dm: DoubledModel | None = None) -> OperatorPolynomial:
    """Hamiltonian of the realizing oscillator.

    Uses the graded commutation matrix J = diag(theta, -theta*) where the
    doubled-theta inverse appears; the class identity reads the same H.
    """
    if model.A.is_zero:
        raise ValueError("Hamiltonian extraction needs a nonzero drift")
    return _hamiltonian(dm or double(model))


def reconstruct_generator(
    hbar: OperatorPolynomial, lbar: OperatorMatrix
) -> OperatorMatrix:
    """Drift vector of the oscillator defined by (hbar, lbar).

    Entry j is (1/2) (row j of [Lbar', abar] Ibar) Lbar + i [hbar, abar_j];
    for a physically realizable model this reproduces Abar exactly.
    """
    alg = hbar.algebra
    alg.require_compatible(lbar.algebra)
    if lbar.cols != 1 or lbar.rows % 2 != 0:
        raise ValueError("coupling vector must be a column of even length")
    abar = doubled_generators(alg)
    ibar = sign_matrix(alg, lbar.rows // 2)
    dissipative = (coupling_commutator_matrix(lbar, abar) @ ibar @ lbar).scale(HALF)
    return dissipative + scalar_vec_commutator(hbar, abar).scale(I)


# -- lossless and storage conditions ------------------------------------------

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
    dm = dm or double(model)
    gradient_residual, b_residual = _gradient_residuals(dm, phi)
    conditions = [
        _residual_condition(
            "LL-gradient-A",
            "grad(phi)' Abar equals -Cbar' Cbar",
            [("scalar", gradient_residual)],
        ),
        _matrix_residual("LL-B-gradient", "(1/2) Bbar' grad(phi) equals -Cbar", b_residual),
        _matrix_residual("LL-D-unitary", "I - Dbar' Dbar vanishes", _unitary_residual(dm)),
        _residual_condition(
            "LL-phi-selfadjoint",
            "the storage function is self-adjoint",
            [("phi' - phi", phi.adjoint() - phi)],
        ),
    ]
    nonneg, note = _phi_nonnegative(phi)
    conditions.append(
        _verdict(
            "LL-phi-nonneg",
            f"the storage function is non-negative ({note})",
            [] if nonneg else [("phi", note)],
        )
    )
    return CheckReport(model_id=model_id, conditions=conditions)


def _gradient_residuals(dm: DoubledModel, phi: OperatorPolynomial):
    """Yield phi's ``LL-gradient-A`` residual grad(phi)' Abar + Cbar' Cbar,
    then, formed when asked for, its ``LL-B-gradient`` residual
    (1/2) Bbar' grad(phi) + Cbar; both are kept for the last phi, so
    synthesis and ``check_lossless`` form phi*'s once."""
    if dm.memo.get("phi") is not phi:
        grad = OperatorMatrix.column(dm.algebra, wirtinger_gradient(phi))
        cc = (doubled_adjoint(dm.Cbar) @ dm.Cbar).entry(0, 0)
        dm.memo.update(phi=phi, gradient=[grad, (grad.adjoint() @ dm.Abar).entry(0, 0) + cc])
    kept = dm.memo["gradient"]
    yield kept[1]
    if len(kept) == 2:
        kept.append((dm.Bbar_adjoint @ kept[0]).scale(HALF) + dm.Cbar)
    yield kept[2]


def _unitary_residual(dm: DoubledModel) -> OperatorMatrix:
    """I - Dbar' Dbar, the ``LL-D-unitary`` residual, once per doubled model."""
    return dm.cached("I - Dbar' Dbar", lambda: dm.identity - dm.Dbar.adjoint() @ dm.Dbar)


def _phi_nonnegative(phi: OperatorPolynomial):
    """Structural positivity check with a numerical fallback.

    Returns (passed, note).  Structural route: phi vanishes at the vacuum
    and is a quadratic form with a positive semidefinite Hermitian
    coefficient matrix.  Otherwise, when theta is the identity, the
    truncated-representation eigenvalue check decides.
    """
    alg = phi.algebra
    if phi.is_zero:
        return True, "zero storage function"
    quad = {}  # (i, j): the coefficient of a_i' a_j
    for mono, coeff in phi.terms.items():
        if mono.is_unit and not coeff.is_zero(alg.tol):
            return False, "nonzero vacuum value"
        if mono.degree == 2 and sum(mono.creation) == 1 == sum(mono.annihilation):
            quad[mono.creation.index(1), mono.annihilation.index(1)] = coeff
    if len(quad) == len(phi.terms):  # a quadratic form, vanishing at the vacuum
        import numpy as np

        p = np.zeros((alg.modes, alg.modes), dtype=complex)
        for ij, coeff in quad.items():
            p[ij] = coeff.to_complex()
        if np.max(np.abs(p - p.conj().T)) > alg.tol:
            return False, "quadratic form is not Hermitian"
        min_eig = float(np.linalg.eigvalsh(p).min())
        if min_eig >= -alg.tol:
            return True, "positive semidefinite quadratic form"
        return False, f"quadratic form has negative eigenvalue {min_eig:.3g}"
    if alg.theta.is_identity:
        from .fock import psd_check

        passed, min_eig = psd_check(phi)
        return passed, f"truncated-representation minimum eigenvalue {min_eig:.3g}"
    return False, "positivity not established for non-identity theta"


def check_storage_condition(
    phi: OperatorPolynomial, model_id: str = "model", dm: DoubledModel | None = None
) -> CheckReport:
    """Gradient commutator condition characterizing admissible storage functions."""
    alg = phi.algebra
    n = alg.modes
    abar = dm.abar if dm is not None else doubled_generators(alg)
    grad = OperatorMatrix.column(alg, wirtinger_gradient(phi))
    actual = row_commutator(grad, abar)
    # [[0, 2 theta], [-2 theta^T, 0]], from the nonzero entries of 2 theta
    two_theta = [(j, l, alg.scalar(Scalar(2) * t))
                 for j, row in enumerate(alg.theta.row_entries) for l, t, _ in row]
    target = OperatorMatrix.from_nonzero(alg, 2 * n, 2 * n, {
        **{(j, n + l): p for j, l, p in two_theta}, **{(n + l, j): -p for j, l, p in two_theta}})
    desc = "[grad(phi), abar^T] equals the constant block matrix [[0, 2I], [-2I, 0]]"
    if not alg.theta.is_identity:
        desc = (
            "[grad(phi), abar^T] equals the theta-scaled block matrix "
            "[[0, 2*theta], [-2*theta^T, 0]] (generalized target for "
            "non-identity theta)"
        )
    cond = _matrix_residual("ST-gradient-commutator", desc, actual - target)
    return CheckReport(model_id=model_id, conditions=[cond])


def _storage_candidate(alg) -> OperatorPolynomial:
    """phi* = 2 sum_j a_j' a_j (2.0 when theta is binary64), the only candidate:
    the target's top-right block 2 theta admits only P = I at invertible theta."""
    pairs = (alg.creator(j) * alg.annihilator(j) for j in range(1, alg.modes + 1))
    return sum(pairs, alg.zero()).scale(2 if alg.theta.exact else 2.0)


# -- storage-function synthesis -----------------------------------------------

def synthesize_storage(
    model: QsdeModel, dm: DoubledModel | None = None
) -> OperatorPolynomial | None:
    """phi* = 2 sum_j a_j' a_j when it certifies the lossless property, else None.

    phi* is the one quadratic form the storage target admits at invertible
    theta.  It is decided on its ``LL-D-unitary``, ``LL-gradient-A`` and
    ``LL-B-gradient`` residuals as ``check_lossless`` forms them; its other
    conditions hold by construction (phi* is self-adjoint, its quadratic form
    is 2I, and ``[2 abar_j, abar_k]`` is the storage target term for term).
    ``Bbar' abar + Cbar``, that ``LL-B-gradient`` residual at grad(phi*) =
    2 abar without the factor 2 the halving undoes, rejects most models first.
    """
    dm = dm or double(model)
    if not (dm.Bbar_adjoint @ dm.abar + dm.Cbar).is_zero or not _unitary_residual(dm).is_zero:
        return None
    phi = _storage_candidate(model.algebra)
    return phi if all(r.is_zero for r in _gradient_residuals(dm, phi)) else None


# -- aggregate runner ---------------------------------------------------------

CHECK_NAMES = ("class", "preserve", "realize", "lossless", "storage")


def run_checks(model: QsdeModel, selected=CHECK_NAMES, model_id: str = "model") -> CheckReport:
    """Run the selected check families on one doubled model; merge their reports.

    ``selected`` names families of ``CHECK_NAMES`` (a bare string names one);
    an unknown name or an empty selection is a ValueError.
    """
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
        add(check_preservation(model, model_id, dm=dm))
    if "realize" in selected:
        add(check_physical_realizability(model, model_id, dm))
    if "lossless" in selected or "storage" in selected:
        phi = model.phi if model.phi is not None else synthesize_storage(model, dm)
        if phi is None:
            conditions.append(
                _verdict(
                    "LL-phi-available",
                    "a storage function is available (declared or synthesized)",
                    [("phi", "no candidate found")],
                )
            )
        else:
            if "lossless" in selected:
                add(check_lossless(model, phi, model_id, dm))
            if "storage" in selected:
                add(check_storage_condition(phi, model_id, dm))
            derived["storage_function"] = phi
            derived["storage_synthesized"] = model.phi is None
    return CheckReport(model_id=model_id, conditions=conditions, derived=derived or None)
