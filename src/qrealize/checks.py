"""Verification engines: class membership, commutation preservation,
physical realizability, Hamiltonian extraction, generator reconstruction,
lossless and storage-function conditions.

Every engine returns a :class:`CheckReport` whose conditions carry symbolic
residuals; in exact mode a passing condition has residual exactly zero.

All engines read one doubled model (:func:`double`).  ``run_checks`` builds
it once per run and hands it to every family and to ``synthesize_storage``;
``run_checks`` and each public ``check_*`` function take it as an optional
``dm`` and build their own only when not given one.  A residual matrix that
several condition ids read is built once per doubled model and cached on
it: the CCR sum at the default noise, its summary and the ``Bbar`` commutators
(``CCR-*`` and ``PR-CCR-*``), the ``J^-1`` brackets (the class identity and
Hamiltonian extraction), ``I - Dbar' Dbar`` and phi*'s ``LL-gradient-A``
residual (synthesis and ``check_lossless``), and a synthesized storage
function with the two reports that verified it.  theta is Hermitian, so each
doubled residual is formed from the half that carries its information.

Storage synthesis has one candidate, ``phi* = 2 sum_j a_j' a_j``: for
``phi = 2 a' P a`` the ``ST-gradient-commutator`` target's top-right block
``2 theta`` holds only at P = I when theta is invertible.  grad(phi*) is
``2 abar``, and phi* is self-adjoint and non-negative, so synthesis returns
None before any report where ``Bbar' abar + Cbar`` (``LL-B-gradient``),
``I - Dbar' Dbar`` or ``grad(phi*)' Abar + Cbar' Cbar`` is not zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import OperatorPolynomial, render, wirtinger_gradient
from .matrices import (
    OperatorMatrix,
    commutator_table,
    doubled_adjoint,
    matrix_vector_commutators,
    mirror,
    outer_commutator,
    row_commutator,
    scalar_vec_commutator,
)
from .model import (
    DoubledModel,
    NoiseSpec,
    QsdeModel,
    double,
    doubled_generators,
    sign_grid,
    structural_class_check,
)
from .scalars import (HALF, Scalar, block_diag, grid_conj, grid_inverse, grid_neg, grid_scale,
                      grid_transpose, identity_grid, zero_grid)


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


def _half(p_or_m):
    return p_or_m.scale(HALF)


# -- residual matrices shared by several conditions, one per doubled model ----
# At Hermitian theta a doubled residual's bottom half mirrors its top half
# (``mirror``): [Abar, abar'] has entry (n+i, k+n mod 2n) = -(entry (i, k))',
# [abar, Abar'] = [Abar, abar']^dagger and abar' G^-1 Abar = (Abar' G^-1 abar)'.

def _ccr_sum(dm: DoubledModel, t_grid=None) -> OperatorMatrix:
    """[Abar, abar'] + [abar, Abar'] + Bbar T Bbar', cached for T = Ibar."""

    def build():
        n, alg = dm.n, dm.algebra
        top = outer_commutator(OperatorMatrix.column(alg, dm.Abar.col(0)[:n]), dm.abar).nonzero
        left = {**top, **{(n + i, (k + n) % (2 * n)): mirror(p, True)
                          for (i, k), p in top.items()}}
        right = {(k, j): mirror(p) for (j, k), p in left.items()}
        return (OperatorMatrix.from_nonzero(alg, 2 * n, 2 * n, left)
                + OperatorMatrix.from_nonzero(alg, 2 * n, 2 * n, right)
                + dm.Bbar @ (OperatorMatrix.from_scalars(alg, t_grid) if t_grid
                             else dm.Ibar_matrix) @ dm.Bbar_adjoint)

    return dm.cached("ccr-sum", build) if t_grid is None else build()


def _bbar_commutators(dm: DoubledModel):
    """The nonzero [Bbar_ij, abar_k'] and [Bbar'_ij, abar_k]."""
    return dm.cached("bbar-commutators", lambda: (
        matrix_vector_commutators(dm.Bbar, dm.abar, dagger=True),
        matrix_vector_commutators(dm.Bbar_adjoint, dm.abar),
    ))


def _brackets(dm: DoubledModel, printed: bool = False):
    """(Abar' G^-1 abar, abar' G^-1 Abar) for G = J = diag(theta, -theta*), or
    with ``printed`` for the literal diag(theta, theta*), inverted blockwise."""

    def build():
        theta = dm.algebra.theta
        if theta.exact and theta.is_identity:  # G is its own inverse
            inv_grid = identity_grid(2 * dm.n) if printed else sign_grid(dm.n)
        else:
            lower = grid_conj(theta.theta)
            inv_grid = block_diag(theta.inverse(),
                                  grid_inverse(lower if printed else grid_neg(lower)))
        inv = OperatorMatrix.from_scalars(dm.algebra, inv_grid)
        s1 = (doubled_adjoint(dm.Abar) @ inv @ dm.abar).entry(0, 0)
        if dm.algebra.theta.is_diagonal:  # else the two group binary64 sums apart
            return s1, mirror(s1)
        return s1, (dm.abar.adjoint() @ inv @ dm.Abar).entry(0, 0)

    return dm.cached(("brackets", printed), build)


def coupling_commutator_matrix(lbar: OperatorMatrix, abar: OperatorMatrix) -> OperatorMatrix:
    """The matrix [Lbar', abar] with entry (j, k) = [Lbar_k*, abar_j]."""
    table = commutator_table(lbar.conj().nonzero, abar.nonzero)
    return OperatorMatrix.from_nonzero(
        abar.algebra, abar.rows, lbar.rows, {(j, k): c for ((k, _), (j, _)), c in table.items()}
    )


# -- Definition-class membership ----------------------------------------------

def generator_identity_parts(model: QsdeModel, dm: DoubledModel | None = None):
    """The two bracket terms and the right-hand side of the class identity.

    Returns (term1, term2, rhs) where the identity asserts
    term1 - term2 = rhs = Abar - (1/2) Bbar Cbar.
    """
    dm = dm or double(model)
    nbar = dm.nbar if dm.nbar is not None else 1
    s1, s2 = _brackets(dm)
    factor = Scalar(Fraction(1, 2 * nbar))
    first = scalar_vec_commutator(s1, dm.abar)
    # where _brackets mirrors s2 = s1', [s2, abar_j] = -([s1, abar_(j+n mod 2n)])'
    second = OperatorMatrix.from_nonzero(dm.algebra, 2 * dm.n, 1, {
        ((j + dm.n) % (2 * dm.n), 0): mirror(p, True) for (j, _), p in first.nonzero.items()
    }) if dm.algebra.theta.is_diagonal else scalar_vec_commutator(s2, dm.abar)
    term1, term2 = first.scale(factor), second.scale(factor)
    rhs = dm.Abar - _half(dm.Bbar @ dm.Cbar)
    return term1, term2, rhs


def check_class(
    model: QsdeModel, model_id: str = "model", dm: DoubledModel | None = None
) -> CheckReport:
    """Membership conditions for the admissible model class."""
    alg = model.algebra
    dm = dm or double(model)
    a_vec = OperatorMatrix.column(alg, dm.abar.col(0)[: model.n])
    row_a = row_commutator(model.A, a_vec)
    term1, term2, rhs = generator_identity_parts(model, dm)
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
            (term1 - term2) - rhs,
        ),
    ]
    return CheckReport(model_id=model_id, conditions=conditions)


# -- commutation preservation -------------------------------------------------

def check_preservation(
    model: QsdeModel,
    noise: NoiseSpec | None = None,
    model_id: str = "model",
    id_prefix: str = "CCR",
    dm: DoubledModel | None = None,
) -> CheckReport:
    """Differential conditions for preservation of the commutation relations."""
    alg = model.algebra
    dm = dm or double(model)
    b_left, b_right = _bbar_commutators(dm)
    cid, desc = f"{id_prefix}-sum", "[Abar, abar'] + [abar, Abar'] + Bbar T Bbar' vanishes"
    if noise is None:  # CCR-sum and PR-CCR-sum share one summary, not one witness list
        ccr = dm.cached("ccr-summary", lambda: _matrix_residual(cid, desc, _ccr_sum(dm)))
        ccr = Condition(cid, desc, ccr.passed, ccr.residual_norm,
                        [dict(w) for w in ccr.witness], list(ccr.residuals))
    conditions = [
        ccr if noise is None else _matrix_residual(cid, desc, _ccr_sum(dm, noise.T)),
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
    alg = model.algebra
    dm = dm or double(model)
    report = check_preservation(model, None, model_id, id_prefix="PR-CCR", dm=dm)
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
    if report.overall and not model.A.is_zero and alg.theta.invertible:
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


def extract_hamiltonian(
    model: QsdeModel,
    use_printed_theta_bar: bool = False,
    dm: DoubledModel | None = None,
) -> OperatorPolynomial:
    """Hamiltonian of the realizing oscillator.

    Uses the graded commutation matrix diag(theta, -theta*) where the
    doubled-theta inverse appears; set ``use_printed_theta_bar`` to audit
    the literal diag(theta, theta*) reading instead.
    """
    if model.A.is_zero:
        raise ValueError("Hamiltonian extraction needs a nonzero drift")
    dm = dm or double(model)
    s1, s2 = _brackets(dm, use_printed_theta_bar)
    return (s2 - s1).scale(Scalar(0, Fraction(1, 2 * dm.nbar)))


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
    ibar = OperatorMatrix.from_scalars(alg, sign_grid(lbar.rows // 2))
    dissipative = _half(coupling_commutator_matrix(lbar, abar) @ ibar @ lbar)
    hamiltonian_part = OperatorMatrix.column(
        alg, [hbar.commutator(a).scale(Scalar(0, 1)) for a in abar.col(0)]
    )
    return dissipative + hamiltonian_part


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
    grad, gradient_residual = _gradient_residual(dm, phi)
    conditions = [
        _residual_condition(
            "LL-gradient-A",
            "grad(phi)' Abar equals -Cbar' Cbar",
            [("scalar", gradient_residual)],
        ),
        _matrix_residual(
            "LL-B-gradient",
            "(1/2) Bbar' grad(phi) equals -Cbar",
            _half(dm.Bbar_adjoint @ grad) + dm.Cbar,
        ),
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


def _gradient_residual(dm: DoubledModel, phi: OperatorPolynomial):
    """(grad(phi), the ``LL-gradient-A`` residual grad(phi)' Abar + Cbar' Cbar),
    kept for the last phi, so synthesis and ``check_lossless`` form phi*'s once."""
    if dm.memo.get("phi") is not phi:
        grad = OperatorMatrix.column(dm.algebra, wirtinger_gradient(phi))
        cc = dm.cached("Cbar' Cbar", lambda: (doubled_adjoint(dm.Cbar) @ dm.Cbar).entry(0, 0))
        dm.memo.update(phi=phi, gradient=(grad, (grad.adjoint() @ dm.Abar).entry(0, 0) + cc))
    return dm.memo["gradient"]


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
    n = alg.modes
    const = None
    quad = [[None] * n for _ in range(n)]
    structural = True
    for mono, coeff in phi.terms.items():
        if mono.is_unit:
            const = coeff
            structural = False
            continue
        if mono.degree == 2 and sum(mono.creation) == 1 and sum(mono.annihilation) == 1:
            i = mono.creation.index(1)
            j = mono.annihilation.index(1)
            quad[i][j] = coeff
        else:
            structural = False
    if const is not None and not const.is_zero(alg.tol):
        return False, "nonzero vacuum value"
    if structural:
        import numpy as np

        p = np.array(
            [[(quad[i][j].to_complex() if quad[i][j] is not None else 0j) for j in range(n)]
             for i in range(n)]
        )
        if np.max(np.abs(p - p.conj().T)) > alg.tol:
            return False, "quadratic form is not Hermitian"
        min_eig = float(np.linalg.eigvalsh(p).min())
        if min_eig >= -alg.tol:
            return True, "positive semidefinite quadratic form"
        return False, f"quadratic form has negative eigenvalue {min_eig:.3g}"
    if alg.theta.is_identity:
        from .fock import psd_check

        degree = phi.max_degree
        truncation = max(degree + 2, 4)
        passed, min_eig = psd_check(phi, truncation, degree)
        note = f"truncated-representation minimum eigenvalue {min_eig:.3g}"
        return passed, note
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
    two_theta = grid_scale(alg.theta.theta, Scalar(2))
    zeros = zero_grid(n, n)
    target_grid = tuple(z + t for z, t in zip(zeros, two_theta)) + tuple(
        t + z for t, z in zip(grid_neg(grid_transpose(two_theta)), zeros)
    )
    desc = "[grad(phi), abar^T] equals the constant block matrix [[0, 2I], [-2I, 0]]"
    if not alg.theta.is_identity:
        desc = (
            "[grad(phi), abar^T] equals the theta-scaled block matrix "
            "[[0, 2*theta], [-2*theta^T, 0]] (generalized target for "
            "non-identity theta)"
        )
    cond = _matrix_residual(
        "ST-gradient-commutator",
        desc,
        actual - OperatorMatrix.from_scalars(alg, target_grid),
    )
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
    theta.  None comes at once where ``Bbar' abar + Cbar`` (``LL-B-gradient``
    at phi*), ``I - Dbar' Dbar`` or ``grad(phi*)' Abar + Cbar' Cbar`` is not
    zero; otherwise phi* must pass the full lossless and storage conditions.
    """
    found = _verified_synthesis(model, dm or double(model))
    return found[0] if found else None


def _verified_synthesis(model: QsdeModel, dm: DoubledModel):
    """(phi*, lossless report, storage report) when phi* certifies the model,
    or None; decided once per doubled model."""
    return dm.cached("synthesis", lambda: _synthesize(model, dm))


def _synthesize(model: QsdeModel, dm: DoubledModel):
    if not (dm.Bbar_adjoint @ dm.abar + dm.Cbar).is_zero or not _unitary_residual(dm).is_zero:
        return None
    phi = _storage_candidate(model.algebra)
    if not _gradient_residual(dm, phi)[1].is_zero:
        return None
    lossless = check_lossless(model, phi, dm=dm)
    if not lossless.overall:
        return None
    storage = check_storage_condition(phi, dm=dm)
    return (phi, lossless, storage) if storage.overall else None


# -- aggregate runner ---------------------------------------------------------

CHECK_NAMES = ("class", "preserve", "realize", "lossless", "storage")


def run_checks(
    model: QsdeModel,
    selected=CHECK_NAMES,
    noise: NoiseSpec | None = None,
    phi: OperatorPolynomial | None = None,
    model_id: str = "model",
    dm: DoubledModel | None = None,
) -> CheckReport:
    """Run the selected check families on one doubled model; merge their reports."""
    dm = dm or double(model)
    conditions, derived = [], {}

    def add(report: CheckReport):
        conditions.extend(report.conditions)
        derived.update(report.derived or {})

    if "class" in selected:
        add(check_class(model, model_id, dm))
    if "preserve" in selected:
        add(check_preservation(model, noise, model_id, dm=dm))
    if "realize" in selected:
        add(check_physical_realizability(model, model_id, dm))
    if "lossless" in selected or "storage" in selected:
        candidate = phi if phi is not None else model.phi
        synthesized = candidate is None
        reports = {}
        if synthesized:
            candidate = synthesize_storage(model, dm)
            if candidate is not None:
                # cached on dm: the reports synthesis verified its candidate with
                _, reports["lossless"], reports["storage"] = _verified_synthesis(model, dm)
        if candidate is None:
            conditions.append(
                _verdict(
                    "LL-phi-available",
                    "a storage function is available (declared, supplied or synthesized)",
                    [("phi", "no candidate found")],
                )
            )
        else:
            if "lossless" in selected:
                add(reports.get("lossless") or check_lossless(model, candidate, model_id, dm))
            if "storage" in selected:
                add(reports.get("storage") or check_storage_condition(candidate, model_id, dm))
            derived["storage_function"] = candidate
            derived["storage_synthesized"] = synthesized
    return CheckReport(model_id=model_id, conditions=conditions, derived=derived or None)
