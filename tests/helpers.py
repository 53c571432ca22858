"""Shared random-instance generators for the property suites."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from qrealize import Scalar
from qrealize.scalars import ZERO


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


def grid_matmul(a, b):
    """Product of two scalar grids (tuples of tuples of Scalar)."""
    if len(a[0]) != len(b):
        raise ValueError("scalar matrix shape mismatch")
    cols = len(b[0])
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(cols))
        for i in range(len(a))
    )


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
