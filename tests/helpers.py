"""Shared random-instance generators for the property suites."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from qrealize import OperatorMatrix, Scalar, scalar_vec_commutator
from qrealize.matrices import commutator_table, doubled_adjoint
from qrealize.scalars import ZERO, grid_inverse, identity_grid


def random_poly(rng, alg, max_terms=3, max_degree=4, coeff_range=3):
    """Random exact-mode polynomial with bounded term count and degree."""
    p = alg.zero()
    n = alg.modes
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        cre = [0] * n
        ann = [0] * n
        for _ in range(degree):
            slot = rng.randrange(2 * n)
            if slot < n:
                cre[slot] += 1
            else:
                ann[slot - n] += 1
        coeff = Scalar(
            Fraction(rng.randint(-coeff_range, coeff_range)),
            Fraction(rng.randint(-coeff_range, coeff_range)),
        )
        p = p + alg.monomial(cre, ann, coeff)
    return p


def polynomials(alg, max_terms=4, max_exponent=3):
    """Hypothesis strategy: exact polynomials over ``alg`` with at most
    ``max_terms`` terms and every exponent at most ``max_exponent``."""
    exponents = st.tuples(*[st.integers(0, max_exponent)] * alg.modes)
    coeffs = st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3))
    terms = st.lists(st.tuples(exponents, exponents, coeffs), max_size=max_terms)
    return terms.map(lambda ts: sum(
        (alg.monomial(cre, ann, c) for cre, ann, c in ts), alg.zero()
    ))


# -- scalar-grid references for the constant operator matrices ----------------
# Grids are tuples of tuples of Scalar; the library builds these constants as
# operator matrices, so the tests keep the grid forms as independent references.

def zero_grid(rows, cols):
    return tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows))


def grid_neg(g):
    return tuple(tuple(-x for x in row) for row in g)


def grid_conj(g):
    return tuple(tuple(x.conjugate() for x in row) for row in g)


def grid_transpose(g):
    return tuple(tuple(g[i][j] for i in range(len(g))) for j in range(len(g[0])))


def grid_scale(g, c):
    c = Scalar.of(c)
    return tuple(tuple(c * x for x in row) for row in g)


def block_diag(a, b):
    """diag(a, b) of two grids."""
    top = tuple(row + (ZERO,) * len(b[0]) for row in a)
    return top + tuple((ZERO,) * len(a[0]) + row for row in b)


def sign_grid(m):
    """Ibar = diag(I_m, -I_m)."""
    return block_diag(identity_grid(m), grid_neg(identity_grid(m)))


def scalar_matrix(alg, g):
    """The constant operator matrix of a grid; its zero entries are dropped."""
    return OperatorMatrix.from_nonzero(alg, len(g), len(g[0]), {
        (i, j): alg.scalar(x) for i, row in enumerate(g) for j, x in enumerate(row)})


def grid_matmul(a, b):
    """Product of two scalar grids (tuples of tuples of Scalar)."""
    if len(a[0]) != len(b):
        raise ValueError("scalar matrix shape mismatch")
    cols = len(b[0])
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(cols))
        for i in range(len(a))
    )


def direct_bracket(dm):
    """abar' G^-1 Abar for G = diag(theta, -theta*), formed as a product."""
    theta = dm.algebra.theta
    inv = scalar_matrix(dm.algebra, block_diag(
        theta.inverse(), grid_inverse(grid_neg(grid_conj(theta.theta)))))
    return (dm.abar.adjoint() @ inv @ dm.Abar).entry(0, 0)


def product_hamiltonian(dm):
    """H = (i / 2 nbar) (s' - s) for s = Abar' J^-1 abar, formed as two products
    with J^-1 = diag(T, -conj(T)), T = theta^-1, as a constant matrix."""
    t = dm.algebra.theta.inverse()
    j_inv = scalar_matrix(dm.algebra, block_diag(t, grid_neg(grid_conj(t))))
    s = (doubled_adjoint(dm.Abar) @ j_inv @ dm.abar).entry(0, 0)
    return (s.adjoint() - s).scale(Scalar(0, Fraction(1, 2 * dm.nbar)))


def coupling_commutator_matrix(lbar, abar):
    """The matrix [Lbar', abar] with entry (j, k) = [Lbar_k*, abar_j], unsigned."""
    table = commutator_table(lbar.conj().nonzero, abar.nonzero)
    entries = {(j, k): c for ((k, _), (j, _)), c in table.items()}
    return OperatorMatrix.from_nonzero(abar.algebra, abar.rows, lbar.rows, entries)


def bracket_terms(dm):
    """The class identity's two bracket terms, [s', abar] / 2 nbar and
    [s, abar] / 2 nbar for s = ``direct_bracket``; in exact arithmetic their
    difference is i[H, abar] for the extracted H."""
    s, factor = direct_bracket(dm), Scalar(Fraction(1, 2 * (dm.nbar or 1)))
    return tuple(scalar_vec_commutator(b, dm.abar).scale(factor) for b in (s.adjoint(), s))


def chain_text(n):
    """``.qsde`` text of the realizable n-mode chain with k = 2 on every mode.

    A[j] = -2*aj + 2*aj'*a(j+1)^2 - 2*aj'*a(j-1)^2 with out-of-range terms
    dropped, B = -2 I, C[j] = 2*aj, D = I and phi = 2 * sum aj'*aj.  For
    n = 2 this is the cavity fixture.
    """
    lines = [f"modes: {n}", f"channels: {n}", "theta: identity"]
    for j in range(1, n + 1):
        drift = f"A[{j}] = -2*a{j}"
        if j < n:
            drift += f" + 2*a{j}'*a{j + 1}^2"
        if j > 1:
            drift += f" - 2*a{j}'*a{j - 1}^2"
        lines.append(drift)
    rows = [", ".join("-2" if r == c else "0" for c in range(n)) for r in range(n)]
    lines.append("B = [[" + "], [".join(rows) + "]]")
    lines.extend(f"C[{j}] = 2*a{j}" for j in range(1, n + 1))
    lines.append("D = identity")
    lines.append("phi = " + " + ".join(f"2*a{j}'*a{j}" for j in range(1, n + 1)))
    return "\n".join(lines) + "\n"


def load_workloads():
    """perfbench/workloads.py: the chain family, its edit kinds and mutants."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
