from pathlib import Path

import pytest

from qrealize import parse_model

FIXTURE_DIR = Path(__file__).parent / "fixtures"
CAVITY_PATH = FIXTURE_DIR / "lossless_cavity.qsde"
# golden models whose theta, diag(2, i/2), is not Hermitian: parsing refuses them
NOT_HERMITIAN_GOLDENS = {"cavity_theta_diag_complex", "cavity_theta_diag_complex_nophi"}


def golden_models():
    """(name, text) of the cavity fixture and of every golden model that parses."""
    paths = [CAVITY_PATH] + sorted((FIXTURE_DIR / "golden").glob("*.qsde"))
    return [(p.stem, p.read_text()) for p in paths if p.stem not in NOT_HERMITIAN_GOLDENS]

# Single-edit mutations of the cavity fixture.  Every one of them breaks at
# least one check condition; none of them admits a quadratic storage function.
MUTATIONS = [
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


@pytest.fixture(scope="session")
def cavity_text():
    return CAVITY_PATH.read_text()


@pytest.fixture(scope="session")
def cavity(cavity_text):
    return parse_model(cavity_text)


def mutate(text, old, new, name=""):
    assert old in text, f"mutation {name or old!r} does not apply"
    return text.replace(old, new, 1)


@pytest.fixture(scope="session")
def mutated_models(cavity_text):
    out = []
    for name, old, new in MUTATIONS:
        out.append((name, parse_model(mutate(cavity_text, old, new, name))))
    return out
