"""Golden table of parse errors: one case per ``raise ParseError`` in model.py.

Each case edits the cavity fixture, runs ``qreal check`` on the result and
pins the exit code 2 and the exact ``line L, col C: message``.
"""

import pytest

from qrealize.cli import main

from conftest import CAVITY_PATH, FIXTURE_DIR, mutate

CAVITY = CAVITY_PATH.read_text()
B_LITERAL = "B = [[-sqrt(2*k1), 0],\n     [0, -sqrt(2*k2)]]"
THETA_TO_A1 = CAVITY[CAVITY.index("theta"):CAVITY.index("A[2]")]  # theta: ... A[1] = ...

# (id, old, new, message): ``old`` replaced once by ``new`` in the fixture
CASES = [
    # tokens and the expression grammar
    ("unexpected-character", "A[1] = -k1*a1", "A[1] = -k1*a1 $",
     "line 9, col 15: unexpected character '$'"),
    ("end-of-expression", "C[2] = sqrt(2*k2)*a2", "C[2] = sqrt(2*k2)*",
     "line 16, col 19: unexpected end of expression"),
    ("expected-symbol", "C[1] = sqrt(2*k1)*a1", "C[1] = sqrt 2*k1*a1",
     "line 15, col 13: expected '(', found '2'"),
    ("trailing-token", "C[1] = sqrt(2*k1)*a1", "C[1] = sqrt(2*k1)*a1)",
     "line 15, col 21: unexpected ')'"),
    ("division-by-operator", "C[1] = sqrt(2*k1)*a1", "C[1] = sqrt(2*k1)/a1",
     "line 15, col 18: division by a non-constant operator"),
    ("division-by-zero", "param k2 = 2", "param k2 = 2/(k1-2)",
     "line 7, col 13: division by zero"),
    ("juxtaposition", "A[2] = -k2*a2", "A[2] = -k2 a2",
     "line 10, col 12: juxtaposition is not multiplication; use '*'"),
    ("exponent-not-a-number", "2*a1'*a2^2", "2*a1'*a2^k1",
     "line 9, col 26: exponent must be a positive integer"),
    ("exponent-zero", "2*a1'*a2^2", "2*a1'*a2^0",
     "line 9, col 26: exponent must be a positive integer"),
    ("sqrt-of-operator", "C[1] = sqrt(2*k1)*a1", "C[1] = sqrt(2*a1)",
     "line 15, col 8: sqrt of a non-scalar expression"),
    ("unknown-mode", "C[2] = sqrt(2*k2)*a2", "C[2] = sqrt(2*k2)*a3",
     "line 16, col 19: unknown mode a3; model has 2 modes"),
    ("unknown-parameter", "C[2] = sqrt(2*k2)*a2", "C[2] = sqrt(2*k3)*a2",
     "line 16, col 15: unknown parameter 'k3'"),
    ("unexpected-token", "phi = 2*a1'*a1", "phi = *a1'*a1",
     "line 20, col 7: unexpected '*'"),
    ("expected-comma-or-bracket", "[0, -sqrt(2*k2)]]", "[0, -sqrt(2*k2)][",
     "line 13, col 22: expected ',' or ']', found '['"),
    ("ragged-matrix", "[0, -sqrt(2*k2)]]", "[0]]",
     "line 12, col 1: ragged matrix literal"),
    # statements
    ("algebra-before-header", "modes: 2\nchannels: 2\n", "modes: 2\n",
     "line 8, col 1: modes and channels must be declared first"),
    ("theta-not-scalar", "theta: identity", "theta: [[a1, 0], [0, 1]]",
     "line 4, col 1: theta entries must be scalars"),
    ("theta-shape", "theta: identity", "theta: [[1, 0, 0], [0, 1, 0]]",
     "line 4, col 1: theta must be 2x2"),
    ("theta-not-hermitian", "theta: identity", "theta: [[2, 1], [0, 2]]",
     "line 4, col 1: theta must be Hermitian"),
    ("theta-singular", "theta: identity", "theta: [[1, 1], [1, 1]]",
     "line 4, col 1: theta must be invertible"),
    ("param-not-scalar", "param k2 = 2", "param k2 = a1",
     "line 7, col 1: parameter 'k2' is not a scalar"),
    ("index-out-of-range", "C[2] = sqrt(2*k2)*a2", "C[3] = sqrt(2*k2)*a2",
     "line 16, col 1: C[3] out of range 1..2"),
    ("duplicate-entry", "C[2] = sqrt(2*k2)*a2", "C[1] = sqrt(2*k2)*a2",
     "line 16, col 1: duplicate C[1]"),
    ("b-identity", B_LITERAL, "B = identity",
     "line 12, col 1: B must be a matrix literal"),
    # a header before the first A, B, C, D or phi; each declaration once
    ("theta-after-drift", THETA_TO_A1, THETA_TO_A1.replace("theta: identity", "")
     + "theta: [[4, 0], [0, 4]]\n",
     "line 10, col 1: 'theta' must be declared before A, B, C, D and phi"),
    ("modes-after-drift", "A[2] =", "modes: 3\nA[2] =",
     "line 10, col 1: 'modes' must be declared before A, B, C, D and phi"),
    ("channels-after-phi", "phi = 2*a1'*a1 + 2*a2'*a2", "phi = 2*a1'*a1 + 2*a2'*a2\nchannels: 2",
     "line 21, col 1: 'channels' must be declared before A, B, C, D and phi"),
    ("duplicate-modes", "channels: 2", "modes: 2\nchannels: 2",
     "line 3, col 1: duplicate 'modes' declaration"),
    ("duplicate-channels", "theta: identity", "channels: 2\ntheta: identity",
     "line 4, col 1: duplicate 'channels' declaration"),
    ("duplicate-theta", "theta: identity", "theta: identity\n  theta: [[4, 0], [0, 4]]",
     "line 5, col 3: duplicate 'theta' declaration"),
    ("duplicate-b", "C[1] =", "B = [[1, 0], [0, 1]]\nC[1] =",
     "line 15, col 1: duplicate B"),
    ("duplicate-d", "D = identity", "D = identity\nD = [[1, 0], [0, 1]]",
     "line 19, col 1: duplicate D"),
    ("duplicate-phi", "phi = 2*a1'*a1 + 2*a2'*a2", "phi = 2*a1'*a1 + 2*a2'*a2\nphi = 2*a1'*a1",
     "line 21, col 1: duplicate phi"),
    # a second param k1 after A[1] has read the first
    ("duplicate-parameter", "A[2] =", "param k1 = 8\nA[2] =",
     "line 10, col 7: duplicate parameter 'k1'"),
    ("unrecognized-statement", "D = identity", "E = identity",
     "line 18, col 1: unrecognized statement 'E = identity'"),
    ("modes-not-positive", "modes: 2", "modes: 0",
     "line 2, col 1: modes must be a positive integer"),
    ("channels-not-integer", "channels: 2", "channels: two",
     "line 3, col 1: channels must be a positive integer"),
    # the model as a whole
    ("missing-modes", CAVITY[CAVITY.index("modes"):], "channels: 2\n",
     "missing 'modes:' declaration"),
    ("missing-channels", CAVITY[CAVITY.index("channels"):], "theta: identity\n",
     "missing 'channels:' declaration"),
    ("missing-drift", "A[2] = -k2*a2 - 2*a2'*a1^2\n", "",
     "missing drift entries A[2]"),
    ("missing-output", "C[2] = sqrt(2*k2)*a2\n", "",
     "missing output entries C[2]"),
    ("missing-b", B_LITERAL + "\n", "",
     "missing noise matrix B"),
    ("b-shape", "[0, -sqrt(2*k2)]]", "[0, -sqrt(2*k2)], [0, 0]]",
     "line 12, col 1: B must be 2x2"),
    ("d-shape", "D = identity", "D = [[1]]",
     "line 18, col 1: D must be 2x2"),
    # resource bounds, each just above its value
    ("modes-bound", "modes: 2", "modes: 129",
     "line 2, col 8: modes exceeds 128"),
    ("exponent-bound", "2*a1'*a2^2", "2*a1'*a2^65",
     "line 9, col 26: exponent exceeds 64"),
    ("power-degree-bound", "2*a1'*a2^2", "2*a1'*a2^33",
     "line 9, col 26: degree exceeds 32"),
    ("product-degree-bound", "C[1] = sqrt(2*k1)*a1", "C[1] = a1^32*a1",
     "line 15, col 13: degree exceeds 32"),
    ("term-pair-bound", "C[1] = sqrt(2*k1)*a1", "C[1] = (1+a1+a1')^13*(1+a2+a2')^13",
     "line 15, col 21: product exceeds 10000 term pairs"),
    ("nesting-bound", "C[1] = sqrt(2*k1)*a1", "C[1] = " + "(" * 65 + "a1" + ")" * 65,
     "line 15, col 72: brackets nested deeper than 64"),
    # numbers beyond binary64 where a sqrt made the arithmetic floating
    ("sqrt-overflow", "param k2 = 2", "param k2 = sqrt(2e400)",
     "line 7, col 12: number too large for binary64"),
    ("operator-overflow", "param k2 = 2", "param k2 = sqrt(2)*1e400",
     "line 7, col 19: number too large for binary64"),
    # a theta mixing binary64 entries with one beyond binary64, refused where
    # the Hermiticity test or the inverse overflows
    ("theta-mixed-overflow-hermitian", "theta: identity",
     "theta: [[sqrt(3), 1e400], [sqrt(2), 2]]",
     "line 4, col 1: number too large for binary64"),
    ("theta-mixed-overflow-inverse", "theta: identity",
     "theta: [[sqrt(3), 1e400], [1e400, 2]]",
     "line 4, col 1: number too large for binary64"),
    # a binary64 theta weighs every contraction of an operator product
    ("theta-product-overflow", THETA_TO_A1, THETA_TO_A1.replace(
        "identity", "[[sqrt(200), 0], [0, 1]]").replace("-k1*a1 + 2*a1'*a2^2", "1e308*a1*a1'"),
     "line 9, col 16: number too large for binary64"),
    # theta and params name no mode, whatever its number
    ("theta-other-mode", "theta: identity", "theta: [[a2, 0], [0, 1]]",
     "line 4, col 1: theta entries must be scalars"),
    ("param-other-mode", "param k2 = 2", "param k2 = a2",
     "line 7, col 1: parameter 'k2' is not a scalar"),
    # a parameter may not take a name an expression reads otherwise
    ("reserved-imaginary-unit", "param k2 = 2", "param i = 2",
     "line 7, col 7: 'i' is reserved and cannot name a parameter"),
    ("reserved-sqrt", "param k2 = 2", "param sqrt = 2",
     "line 7, col 7: 'sqrt' is reserved and cannot name a parameter"),
    ("reserved-generator", "param k2 = 2", "param a1 = 3",
     "line 7, col 7: 'a1' is reserved and cannot name a parameter"),
    # a character no token matches is reported first, at its own column
    ("character-before-statement-error", "modes: 2", "modes: 2!",
     "line 2, col 9: unexpected character '!'"),
    # a statement is quoted as its nonblank lines joined by single blanks
    ("unrecognized-continued-statement", "D = identity", "E = [[1,\n\n 0]]",
     "line 18, col 1: unrecognized statement 'E = [[1, 0]]'"),
    # the end of a statement is just past its last token
    ("end-after-blank-lines", "phi = 2*a1'*a1 + 2*a2'*a2", "phi = (2*a1'*a1 + 2*a2'*a2 +\n\n",
     "line 20, col 29: unexpected end of expression"),
    # a matrix literal ends its statement
    ("matrix-trailing-operator", "[0, -sqrt(2*k2)]]", "[0, -sqrt(2*k2)]] + junk",
     "line 13, col 24: unexpected '+'"),
    ("matrix-extra-bracket", "[0, -sqrt(2*k2)]]", "[0, -sqrt(2*k2)]]]",
     "line 13, col 23: unexpected ']'"),
    ("matrix-trailing-name", "[0, -sqrt(2*k2)]]", "[0, -sqrt(2*k2)]] a1",
     "line 13, col 24: unexpected 'a1'"),
    ("theta-trailing-name", "theta: identity", "theta: [[1, 0], [0, 1]] x",
     "line 4, col 25: unexpected 'x'"),
    # a number literal has at most MAX_DIGITS digits written out
    ("number-exponent-bound", "param k2 = 2", "param k2 = 1e2000000",
     "line 7, col 12: number exceeds 1000 digits"),
    ("number-digits-bound", "param k2 = 2", "param k2 = " + "1" * 5000,
     "line 7, col 12: number exceeds 1000 digits"),
    ("count-digits-bound", "modes: 2", "modes: " + "0" * 5000 + "2",
     "line 2, col 8: number exceeds 1000 digits"),
]


def run_check(capsys, tmp_path, text, *options):
    path = tmp_path / "model.qsde"
    path.write_text(text)
    code = main(["check", str(path), *options])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("old, new, message", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_parse_error_table(capsys, tmp_path, old, new, message):
    code, out, err = run_check(capsys, tmp_path, mutate(CAVITY, old, new))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_float_mode_rejects_a_number_beyond_binary64(capsys, tmp_path):
    text = mutate(CAVITY, "param k2 = 2", "param k2 = 2\nparam big = 1e400")
    assert run_check(capsys, tmp_path, text)[0] == 0
    code, out, err = run_check(capsys, tmp_path, text, "--float")
    assert (code, out) == (2, "")
    assert err == "error: a coefficient is beyond binary64\n"


def test_number_bound_admits_a_thousand_digits(capsys, tmp_path):
    for number in ("1e999", "9" * 1000, "0." + "5" * 999, "1.5e-998"):
        text = mutate(CAVITY, "param k2 = 2", f"param k2 = 2\nparam big = {number}")
        assert run_check(capsys, tmp_path, text)[0] == 0, number


def test_malformed_fixture(capsys):
    for name, message in [
        ("malformed_cavity", "line 14, col 22: juxtaposition is not multiplication; use '*'"),
        ("late_theta", "line 7, col 1: 'theta' must be declared before A, B, C, D and phi"),
        ("singular_theta", "line 6, col 1: theta must be invertible"),
        ("reserved_param", "line 8, col 7: 'i' is reserved and cannot name a parameter"),
        ("mixed_theta_overflow", "line 7, col 1: number too large for binary64"),
    ]:
        code = main(["check", str(FIXTURE_DIR / f"{name}.qsde")])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), name
