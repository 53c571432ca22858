"""CLI output pinned byte for byte.

``fixtures/golden`` holds the standard output and exit code of four
commands on three models: the cavity fixture, the three-mode chain and the
cavity with the sign of B[1,1] flipped, whose float report prints a signed
zero, ``(4.0+-0.0i)``.  The files were recorded with the Fraction-pair
scalars that preceded the integer Gaussian-rational ones, so they pin every
exact and every float rendering across that change.

It also holds the exact and float JSON reports of the cavity at the
non-unit diagonal thetas diag(2, 1/3) and diag(2, i/2), with and without
phi, where a generator commutator carries a theta weight other than 1.
They were recorded with dense operator matrices and generator commutators
formed through the general product, before the closed-form contraction.
diag(2, i/2) is not Hermitian, so since theta must be, those two models end
in a parse error: empty standard output and exit code 2.
The same two reports of the cavity at the non-diagonal thetas
[[2, 1], [1, 2]] and [[2, i], [-i, 2]], with and without phi, were recorded
while non-diagonal products still went through word rewriting, before the
one Wick contraction path.
"""

import json

import pytest

from qrealize.cli import main

from conftest import FIXTURE_DIR

GOLDEN_DIR = FIXTURE_DIR / "golden"
EXIT_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())

MODELS = {
    "lossless_cavity": "lossless_cavity.qsde",
    "chain3": "golden/chain3.qsde",
    "cavity_b11_sign_flip": "golden/cavity_b11_sign_flip.qsde",
}
COMMANDS = {
    "check": ["check"],
    "check-json": ["check", "--json"],
    "check-float-oracle-json": ["check", "--float", "--oracle", "--json"],
    "extract-force": ["extract", "--force"],
}
THETA_MODELS = {
    f"cavity_theta_{shape}_{kind}{phi}": f"golden/cavity_theta_{shape}_{kind}{phi}.qsde"
    for shape in ("diag", "offdiag")
    for kind in ("real", "complex")
    for phi in ("", "_nophi")
}
THETA_COMMANDS = {
    "check-json": ["check", "--json"],
    "check-float-json": ["check", "--float", "--json"],
}
CASES = {
    (model, command): (path, argv)
    for models, commands in ((MODELS, COMMANDS), (THETA_MODELS, THETA_COMMANDS))
    for model, path in models.items()
    for command, argv in commands.items()
}


def test_every_golden_output_is_compared():
    expected = {f"{model}.{command}" for model, command in CASES}
    assert set(EXIT_CODES) == expected
    assert {p.name[:-4] for p in GOLDEN_DIR.glob("*.out")} == expected


@pytest.mark.parametrize("model, command", CASES)
def test_cli_output_matches_golden(model, command, capsys, monkeypatch):
    # the report names the model by the path it was given, so run from the
    # fixture directory with the path the golden files were recorded with
    monkeypatch.chdir(FIXTURE_DIR)
    path, argv = CASES[model, command]
    code = main([argv[0], path] + argv[1:])
    out = capsys.readouterr().out
    key = f"{model}.{command}"
    assert out == (GOLDEN_DIR / f"{key}.out").read_text()
    assert code == EXIT_CODES[key]


def test_golden_float_report_shows_signed_zero():
    text = (GOLDEN_DIR / "cavity_b11_sign_flip.check-float-oracle-json.out").read_text()
    assert "(4.0+-0.0i)" in text
