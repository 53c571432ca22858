"""Workload generators and known answers for the qrealize benchmark.

Every model is produced here as ``.qsde`` text from the workload seed, so
the program under test receives only generated inputs.  The cavity text and
its eleven single-edit mutations are this file's own copies: editing the
test suite cannot change a workload.

Known answers are stated independently of the code under test: the chain
Hamiltonian is written down term by term from its closed form, and a
mutant's verdict is FAIL by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

# The two-mode lossless cavity.  ``chain_text(2, 2)`` describes the same model.
CAVITY_TEXT = """\
# Two-mode nonlinear cavity with annihilation-only linear outputs.
modes: 2
channels: 2
theta: identity

param k1 = 2
param k2 = 2

A[1] = -k1*a1 + 2*a1'*a2^2
A[2] = -k2*a2 - 2*a2'*a1^2

B = [[-sqrt(2*k1), 0],
     [0, -sqrt(2*k2)]]

C[1] = sqrt(2*k1)*a1
C[2] = sqrt(2*k2)*a2

D = identity

phi = 2*a1'*a1 + 2*a2'*a2
"""

# Single-edit mutations of the cavity: (name, old text, new text).  Each one
# breaks at least one check condition and admits no quadratic storage function.
CAVITY_MUTATIONS = [
    ("B11-sign-flip",
     "B = [[-sqrt(2*k1), 0],", "B = [[sqrt(2*k1), 0],"),
    ("A1-scaled",
     "A[1] = -k1*a1 + 2*a1'*a2^2", "A[1] = -2*k1*a1 + 4*a1'*a2^2"),
    ("C1-creation-term",
     "C[1] = sqrt(2*k1)*a1", "C[1] = sqrt(2*k1)*a1 + a1'"),
    ("D-doubled",
     "D = identity", "D = [[2, 0], [0, 2]]"),
    ("A1-cubic-coeff",
     "2*a1'*a2^2", "3*a1'*a2^2"),
    ("C1-replaced",
     "C[1] = sqrt(2*k1)*a1", "C[1] = 3*a1"),
    ("A1-linear-sign",
     "A[1] = -k1*a1 + ", "A[1] = k1*a1 + "),
    ("B12-offdiag",
     "B = [[-sqrt(2*k1), 0],", "B = [[-sqrt(2*k1), 1],"),
    ("A2-cubic-sign",
     "A[2] = -k2*a2 - 2*a2'*a1^2", "A[2] = -k2*a2 + 2*a2'*a1^2"),
    ("C2-quadratic",
     "C[2] = sqrt(2*k2)*a2", "C[2] = sqrt(2*k2)*a2^2"),
    ("A1-cross-mode",
     "A[1] = -k1*a1 + 2*a1'*a2^2", "A[1] = -k1*a1 + 2*a1*a2"),
]

# Damping rates k with an exact sqrt(2*k), so exact mode stays rational.
DAMPING_RATES = (2, 8, 18, Fraction(1, 2), Fraction(9, 2))

FAMILY_CONDITIONS = 19  # class 5, preserve 3, realize 5, lossless 5, storage 1


# -- the chain family ---------------------------------------------------------

def _chain_lines(n: int, k) -> dict:
    """The statements of chain(n), keyed so that edits can target one of them.

    For j = 1..n: A[j] = -k*aj + 2*aj'*a(j+1)^2 - 2*aj'*a(j-1)^2 with
    out-of-range terms dropped, B = -sqrt(2*k) I, C[j] = sqrt(2*k)*aj,
    D = I and phi = 2 * sum aj'*aj.
    """
    lines = {"head": f"modes: {n}\nchannels: {n}\ntheta: identity\n"}
    lines["params"] = "".join(f"param k{j} = {k}\n" for j in range(1, n + 1))
    for j in range(1, n + 1):
        terms = [f"-k{j}*a{j}"]
        if j < n:
            terms.append(f"+ 2*a{j}'*a{j + 1}^2")
        if j > 1:
            terms.append(f"- 2*a{j}'*a{j - 1}^2")
        lines[f"A{j}"] = f"A[{j}] = " + " ".join(terms)
    for j in range(1, n + 1):
        row = ["0"] * n
        row[j - 1] = f"-sqrt(2*k{j})"
        lines[f"B{j}"] = ", ".join(row)
    for j in range(1, n + 1):
        lines[f"C{j}"] = f"C[{j}] = sqrt(2*k{j})*a{j}"
    lines["D"] = "D = identity"
    lines["phi"] = "phi = " + " + ".join(f"2*a{j}'*a{j}" for j in range(1, n + 1))
    return lines


def _render_chain(n: int, lines: dict, with_phi: bool = True) -> str:
    rows = [lines[f"B{j}"] for j in range(1, n + 1)]
    b_text = "B = [[" + "],\n     [".join(rows) + "]]"
    out = [lines["head"], lines["params"]]
    out.append("\n".join(lines[f"A{j}"] for j in range(1, n + 1)) + "\n")
    out.append(b_text + "\n")
    out.append("\n".join(lines[f"C{j}"] for j in range(1, n + 1)) + "\n")
    out.append(lines["D"] + "\n")
    if with_phi:
        out.append(lines["phi"] + "\n")
    return "\n".join(out)


def chain_text(n: int, k=2, with_phi: bool = True) -> str:
    """``.qsde`` text of chain(n) with damping rate k on every mode."""
    return _render_chain(n, _chain_lines(n, k), with_phi)


def _neighbour(n: int, j: int) -> int:
    return j + 1 if j < n else j - 1


def _cubic_term(n: int, j: int) -> str:
    """The first cubic term of A[j] as written by ``_chain_lines``."""
    return f"2*a{j}'*a{j + 1}^2" if j < n else f"2*a{j}'*a{j - 1}^2"


def _edit_line(lines, key, old, new):
    if old not in lines[key]:
        raise ValueError(f"edit {old!r} does not apply to {lines[key]!r}")
    lines[key] = lines[key].replace(old, new, 1)


def _diag_d(n: int, j: int) -> str:
    rows = ", ".join(
        "[" + ", ".join("2" if (r == c == j) else "1" if r == c else "0"
                        for c in range(1, n + 1)) + "]"
        for r in range(1, n + 1)
    )
    return f"D = [{rows}]"


# The eleven cavity edit kinds, each applied at mode j of chain(n).
CHAIN_EDIT_KINDS = {
    "B-diag-sign-flip": lambda L, n, j: _edit_line(
        L, f"B{j}", f"-sqrt(2*k{j})", f"sqrt(2*k{j})"),
    "A-scaled": lambda L, n, j: L.__setitem__(
        f"A{j}",
        L[f"A{j}"].replace(f"= -k{j}*", f"= -2*k{j}*").replace(f" 2*a{j}'", f" 4*a{j}'")),
    "C-creation-term": lambda L, n, j: _edit_line(
        L, f"C{j}", f"*a{j}", f"*a{j} + a{j}'"),
    "D-doubled": lambda L, n, j: L.__setitem__("D", _diag_d(n, j)),
    "A-cubic-coeff": lambda L, n, j: _edit_line(
        L, f"A{j}", _cubic_term(n, j), "3" + _cubic_term(n, j)[1:]),
    # 5 is no sqrt(2*k) of DAMPING_RATES, so the edit always changes C[j].
    "C-replaced": lambda L, n, j: L.__setitem__(f"C{j}", f"C[{j}] = 5*a{j}"),
    "A-linear-sign": lambda L, n, j: _edit_line(L, f"A{j}", f"= -k{j}", f"= k{j}"),
    "B-offdiag": lambda L, n, j: L.__setitem__(
        f"B{j}",
        ", ".join(
            f"-sqrt(2*k{j})" if c == j else "1" if c == _neighbour(n, j) else "0"
            for c in range(1, n + 1)
        )),
    "A-cubic-sign": lambda L, n, j: _edit_line(
        L, f"A{j}",
        f"+ {_cubic_term(n, j)}" if j < n else f"- {_cubic_term(n, j)}",
        f"- {_cubic_term(n, j)}" if j < n else f"+ {_cubic_term(n, j)}"),
    "C-quadratic": lambda L, n, j: _edit_line(L, f"C{j}", f"*a{j}", f"*a{j}^2"),
    "A-cross-mode": lambda L, n, j: _edit_line(
        L, f"A{j}", _cubic_term(n, j), f"2*a{j}*a{_neighbour(n, j)}"),
}


def chain_mutant_text(n: int, kind: str, mode: int, k=2, with_phi: bool = True) -> str:
    lines = _chain_lines(n, k)
    CHAIN_EDIT_KINDS[kind](lines, n, mode)
    return _render_chain(n, lines, with_phi)


def strip_phi(text: str) -> str:
    out = [line for line in text.splitlines() if not line.startswith("phi")]
    return "\n".join(out) + "\n"


def chain_hamiltonian_terms(n: int) -> dict:
    """Known answer: the terms of i * sum_{j<n} (aj'^2 a(j+1)^2 - a(j+1)'^2 aj^2).

    Keys are (creation multidegree, annihilation multidegree); values are
    (real, imaginary) Fractions.
    """
    terms = {}
    for j in range(n - 1):
        up = tuple(2 if t == j else 0 for t in range(n))
        down = tuple(2 if t == j + 1 else 0 for t in range(n))
        terms[(up, down)] = (Fraction(0), Fraction(1))
        terms[(down, up)] = (Fraction(0), Fraction(-1))
    return terms


# -- workload mixes -----------------------------------------------------------

class Case:
    """One model of a workload mix and the verdict it must reach."""

    __slots__ = ("label", "text", "expect", "n", "path")

    def __init__(self, label: str, text: str, expect: str, n: int):
        self.label = label
        self.text = text
        self.expect = expect  # "pass" or "fail"
        self.n = n
        self.path = None  # set when the model is written to a file


def mutate(text: str, old: str, new: str, name: str = "") -> str:
    if old not in text:
        raise ValueError(f"mutation {name or old!r} does not apply")
    return text.replace(old, new, 1)


# chain(n) copies per pass.  Eight chain(2) put the median on chain(2) and
# leave chain(3) and chain(4) as the slowest 5 of 13, where the tail lies.
CHAIN_MIX = {2: 8, 3: 4, 4: 1}


def chain_mix(seed: int):
    """chain(2), chain(3) and chain(4), exact, phi declared; k drawn per model."""
    rng = random.Random(seed)
    cases = []
    for n, copies in CHAIN_MIX.items():
        for _ in range(copies):
            k = rng.choice(DAMPING_RATES)
            cases.append(Case(f"chain({n}) k={k}", chain_text(n, k), "pass", n))
    return cases


# Copies of each cavity mutant per pass.  Two put the median on the cavity
# mutants and leave the chain(3) mutants as the slowest third, where the
# tail lies; with one copy each the median would fall between the groups.
CAVITY_COPIES = 2


def mutants_mix(seed: int):
    """The 11 cavity mutants and each edit kind at a drawn mode of chain(3).

    phi is removed from every model, so storage synthesis runs on each one.
    """
    rng = random.Random(seed)
    cases = [
        Case(f"cavity {name}", strip_phi(mutate(CAVITY_TEXT, old, new, name)), "fail", 2)
        for name, old, new in CAVITY_MUTATIONS
    ] * CAVITY_COPIES
    for kind in CHAIN_EDIT_KINDS:
        mode = rng.randint(1, 3)
        k = rng.choice(DAMPING_RATES)
        text = chain_mutant_text(3, kind, mode, k, with_phi=False)
        cases.append(Case(f"chain(3) {kind}@{mode} k={k}", text, "fail", 3))
    return cases


# Each kind fails a different set of conditions: PR-B-match; CLASS-C-commutes
# and CLASS-structure; the CCR sums through the linear drift; the CCR sums
# through a cubic term, whose nonzero residuals the guarded oracle reads as 0.
ORACLE_KINDS = ("B-diag-sign-flip", "C-creation-term", "A-linear-sign", "A-cubic-sign")


def oracle_mix(seed: int):
    """chain(3) and one mutant of each of four edit kinds at a drawn mode."""
    rng = random.Random(seed)
    k = rng.choice(DAMPING_RATES)
    cases = [Case(f"chain(3) k={k}", chain_text(3, k), "pass", 3)]
    for kind in ORACLE_KINDS:
        mode = rng.randint(1, 3)
        k = rng.choice(DAMPING_RATES)
        cases.append(Case(f"chain(3) {kind}@{mode} k={k}",
                          chain_mutant_text(3, kind, mode, k), "fail", 3))
    return cases


MIXES = {"chain": chain_mix, "mutants": mutants_mix, "oracle": oracle_mix}
