"""Numerical oracle on truncated Fock space.

A normal-ordered monomial a'^h a^k sends a number state n to zero unless
n >= k in every mode, and otherwise to the state n - k + h with amplitude
prod_i sqrt(n_i!/(n_i-k_i)! * (n_i-k_i+h_i)!/(n_i-k_i)!).  ``_block`` builds
the matrix of a polynomial on the given modes, between the states whose
every occupation is at most ``cap``, from these index and amplitude arrays.
Identities are judged on the guarded block, cap = N - 1 - guard, which
excludes the truncation-corrupted top occupation levels and so makes the
truncation error exactly zero for polynomial identities.  With no guard the
block equals the dense truncated product, whose a' annihilates the top
level; positivity needs no guard, as ``_block`` is exact at any cap.  On a
mode that a residual does not touch every amplitude factor is 1.0, so ``residual_deviation`` skips zero residuals and builds the others
on their touched modes, (cap+1)^(2 x touched) entries, with the same largest
|entry| bit for bit.  ``MAX_DIMENSION`` bounds (cap+1)^n for every nonzero
residual all the same, and once per call for the zero ones, which all share
degree 0.  The oracle needs theta = I.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import OperatorPolynomial
from .scalars import largest

ORACLE_TOL = 1e-9
MAX_DIMENSION = 4096


class DimensionError(ValueError):
    """The refusal of ``psd_check`` to build a block of more than ``MAX_DIMENSION`` states."""


def _cap(p: OperatorPolynomial, truncation: int, guard: int) -> int:
    """Guarded occupation bound, once truncation, guard and (cap+1)^n are admissible."""
    if not p.algebra.theta.is_identity:
        raise ValueError("the oracle requires theta = I")
    if truncation < p.max_degree + 2:
        raise ValueError(f"truncation {truncation} too small for degree {p.max_degree}")
    if guard >= truncation:
        raise ValueError("guard band larger than the truncation")
    side = truncation - max(guard, 0)
    dim = side**p.algebra.modes
    if dim > MAX_DIMENSION:
        raise ValueError(f"representation dimension {dim} exceeds {MAX_DIMENSION}")
    return side - 1


def _flat(per_mode, base: int) -> np.ndarray:
    """Row-major flat indices of the product of per-mode occupation lists."""
    flat = np.zeros(1, dtype=np.intp)
    for occ in per_mode:
        flat = np.add.outer(flat * base, np.asarray(occ, dtype=np.intp)).ravel()
    return flat


def _block(p: OperatorPolynomial, cap: int, modes) -> np.ndarray:
    """Matrix of p on ``modes`` (0-based, ascending) between the states whose
    every occupation is at most cap; p must act as the identity elsewhere."""
    side = cap + 1
    dim = side**len(modes)
    out = np.zeros((dim, dim), dtype=complex)
    for mono, coeff in p.terms.items():
        sources, targets, amp = [], [], np.ones(1)
        for i in modes:
            h, k = mono.creation[i], mono.annihilation[i]
            src = range(k, side + min(0, k - h))
            sources.append(src)
            targets.append([n - k + h for n in src])
            amp = np.multiply.outer(amp, [
                math.sqrt(math.perm(n, k) * math.perm(n - k + h, h)) for n in src
            ]).ravel()
        try:
            value = coeff.to_complex()
        except OverflowError:  # an exact coefficient beyond binary64: as inf, |entry| inf
            value = complex(math.inf)
        with np.errstate(invalid="ignore"):  # inf * amp: NaN imaginary parts, |entry| inf
            out[_flat(targets, side), _flat(sources, side)] += value * amp
    return out


def _guarded_block(p: OperatorPolynomial, truncation: int, guard: int) -> np.ndarray:
    return _block(p, _cap(p, truncation, guard), range(p.algebra.modes))


def represent(p: OperatorPolynomial, truncation: int) -> np.ndarray:
    """Dense matrix of a polynomial at the given per-mode truncation."""
    return _guarded_block(p, truncation, 0)


def guarded_indices(n_modes: int, truncation: int, guard: int) -> np.ndarray:
    """State indices whose every mode occupation is at most N - 1 - guard."""
    if guard >= truncation:
        raise ValueError("guard band larger than the truncation")
    return _flat([range(truncation - max(guard, 0))] * n_modes, truncation)


def verify_identity(
    p: OperatorPolynomial,
    q: OperatorPolynomial,
    truncation: int,
    guard: int,
):
    """Compare two polynomials on the guarded subspace.

    Returns (passed, max_deviation).  The guard must dominate both total
    degrees so that no compared entry touches truncated levels.
    """
    p.algebra.require_compatible(q.algebra)
    if guard < max(p.max_degree, q.max_degree):
        raise ValueError("guard band smaller than the polynomial degree")
    diff = _guarded_block(p, truncation, guard) - _guarded_block(q, truncation, guard)
    deviation = float(np.max(np.abs(diff)))
    return deviation <= ORACLE_TOL, deviation


def _touched(p: OperatorPolynomial) -> list:
    """The modes (0-based, ascending) on which some monomial of p acts."""
    return [i for i in range(p.algebra.modes)
            if any(m.creation[i] or m.annihilation[i] for m in p.terms)]


def psd_check(phi: OperatorPolynomial):
    """Minimum eigenvalue of a self-adjoint polynomial between the states with up
    to c quanta in each mode it touches, c the largest cap up to its degree that
    ``MAX_DIMENSION`` admits; ``_block`` is exact at any cap, so no guard is needed."""
    if not phi.algebra.theta.is_identity:
        raise ValueError("the oracle requires theta = I")
    if not (phi.adjoint() - phi).is_zero:
        raise ValueError("positivity check needs a self-adjoint polynomial")
    touched = _touched(phi)
    cap = max(c for c in range(phi.max_degree + 1) if (c + 1) ** len(touched) <= MAX_DIMENSION)
    if touched and not cap:
        raise DimensionError(
            f"representation dimension {2 ** len(touched)} exceeds {MAX_DIMENSION}")
    block = _block(phi, cap, touched)
    if not np.isfinite(block).all():
        raise OverflowError("a coefficient is beyond binary64")
    min_eig = float(np.linalg.eigvalsh(block).min())
    return min_eig >= -ORACLE_TOL, min_eig


def residual_deviation(residuals, truncation: int, guard: int) -> float:
    """Largest guarded-subspace deviation of residual polynomials from zero,
    each with the guard raised to its degree and the truncation to fit both;
    NaN when one deviation is NaN."""
    deviations, zero_seen = [], False
    for p in residuals:
        if p.is_zero and zero_seen:
            continue  # every zero residual passes _cap the same arguments
        zero_seen = zero_seen or p.is_zero
        degree = p.max_degree
        eff_guard = max(guard, degree)
        cap = _cap(p, max(truncation, degree + 2, eff_guard + 1), eff_guard)
        if not p.is_zero:
            deviations.append(float(np.max(np.abs(_block(p, cap, _touched(p))))))
    return largest(deviations)


def oracle_results(report, model, truncation: int, guard: int) -> list:
    """Per condition with residuals: its id, the residuals' largest guarded
    deviation from zero, and whether that is within ``ORACLE_TOL``."""
    if truncation < 3:
        raise ValueError("oracle truncation must be at least 3")
    if guard < 0 or guard >= truncation:
        raise ValueError("oracle guard must satisfy 0 <= guard < truncation")
    if not model.algebra.theta.is_identity:
        raise ValueError("the oracle requires theta = I")
    results = []
    for cond in report.conditions:
        if not cond.residuals:
            continue
        for p in cond.residuals:
            model.algebra.require_compatible(p.algebra)
        worst = residual_deviation(cond.residuals, truncation, guard)
        results.append({"condition_id": cond.condition_id, "max_deviation": worst,
                        "pass": worst <= ORACLE_TOL})
    return results
