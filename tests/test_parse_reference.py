"""The parser against ``reference_parser``, its frozen predecessor.

On every input both give the same model, term for term in the same dict
order and with the same ``Scalar`` fields, or the same ParseError text.  The
one difference allowed is the refusal of a reserved parameter name, which
the reference accepts.  Term order matters: binary64 checks add
coefficients in term order, so a reordered polynomial can move a report's
last bits.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from conftest import CAVITY_PATH, FIXTURE_DIR
from helpers import chain_text
from qrealize import ParseError, parse_model
from test_parse_fuzz import STRAY, models, texts


def fields(c):
    if c.den is not None:
        return c.re_num, c.im_num, c.den
    return repr(c.re_num), repr(c.im_num)  # tells -0.0 from 0.0, and a nan equals itself


def terms(p):
    return [(m, fields(c)) for m, c in p.terms.items()]


def snapshot(model):
    def matrix(mat):
        return mat.rows, mat.cols, [(key, terms(e)) for key, e in mat.nonzero.items()]

    return {
        "shape": (model.n, model.m, model.algebra.modes, model.algebra.tol),
        "params": [(name, fields(c)) for name, c in model.params.items()],
        "theta": [[fields(t) for t in row] for row in model.algebra.theta.theta],
        **{key: matrix(getattr(model, key)) for key in "ABCD"},
        "phi": None if model.phi is None else terms(model.phi),
    }


def outcome(parse, text):
    try:
        return "model", snapshot(parse(text))
    except ParseError as exc:
        return "error", str(exc)


def assert_same(text):
    new = outcome(parse_model, text)
    if new[0] == "error" and "is reserved and cannot name a parameter" in new[1]:
        return
    assert new == outcome(reference_parser.parse_model, text)


@st.composite
def one_edit(draw):
    """A drawn model with one character deleted, replaced or a piece inserted."""
    text = draw(models())
    pos = draw(st.integers(0, len(text)))
    kind = draw(st.sampled_from(["delete", "replace", "insert"]))
    if kind == "insert":
        return text[:pos] + draw(st.sampled_from(STRAY)) + text[pos:]
    rest = text[pos + 1:]
    return text[:pos] + (draw(st.sampled_from(STRAY)) if kind == "replace" else "") + rest


@settings(max_examples=300, deadline=None)
@given(st.one_of(models(), texts(), one_edit()))
def test_parser_matches_reference_on_drawn_texts(text):
    assert_same(text)


# the reference ends in an OverflowError on a theta mixing binary64 entries with
# one beyond binary64; the parser refuses it with a positioned ParseError
REFERENCE_CRASHES = {"mixed_theta_overflow"}


def fixture_texts():
    paths = [*sorted(FIXTURE_DIR.glob("*.qsde")), *sorted((FIXTURE_DIR / "golden").glob("*.qsde"))]
    return [(p.stem, p.read_text()) for p in paths if p.stem not in REFERENCE_CRASHES]


@pytest.mark.parametrize("name, text", fixture_texts(), ids=[n for n, _ in fixture_texts()])
def test_parser_matches_reference_on_fixtures(name, text):
    assert_same(text)


@pytest.mark.parametrize("n", range(2, 17))
def test_parser_matches_reference_on_chains(n):
    assert_same(chain_text(n))


@pytest.mark.parametrize("text", [
    # lexical errors wait for the statements that end before their line
    "modes: 2\nchannels: 2\nE = 1\n$",
    "modes: 2\nchannels: 2\nB = [[1,\n 0], $\n",
    "modes: 1\nchannels: 1\nparam k = 1e2000\nA[1] = k*a1 $",
    # line breaks of str.splitlines, and blanks that are not
    "modes: 1\r\nchannels: 1\rA[1] = a1\x0bB = [[1]]\x0cC[1] = a1 phi = a1'*a1\x1f",
    "modes: 1\nchannels: 1\nA[1] = a1 $",
    # constants folded and pruned as one-term polynomials
    "modes: 1\nchannels: 1\nparam k = sqrt(2e-24)\nparam q = sqrt(2)*1e-12\nparam r = k^1\n"
    "A[1] = (k + q + r + sqrt(2)/3 - 0)*a1 + 0*a1' + (a1 - a1 + 2)*a1\n"
    "B = [[sqrt(3)^2 - 3]]\nC[1] = -0*a1 + 2/i*a1\nphi = 0\n",
    "modes: 1\nchannels: 1\nparam k = sqrt(2)*1e300*1e300\nA[1] = a1\nB = [[1]]\nC[1] = a1\n",
    "modes: 1\nchannels: 1\nparam k = 0/sqrt(1e-200)\nA[1] = a1\nB = [[1]]\nC[1] = a1\n",
    "modes: 1\nchannels: 1\nA[1] = sqrt(2)*a1/0\nB = [[1]]\nC[1] = a1\n",
    # ONE / q underflows to zero, yet the quotient still converts 1e312 to binary64
    "modes: 1\nchannels: 1\nparam q = sqrt(-2) - 1e300\nA[1] = (1e300/1e-12/q)*a1\n"
    "B = [[1]]\nC[1] = a1\n",
    # a binary64 theta makes an operator product binary64 and so checked
    "modes: 1\nchannels: 1\ntheta: [[sqrt(200)]]\nA[1] = 1e308*a1*a1'\nB = [[1]]\nC[1] = a1\n",
    "modes: 1\nchannels: 1\ntheta: [[sqrt(200)]]\nA[1] = (1e300*a1*a1')^2\nB = [[1]]\nC[1] = a1\n",
    "modes: 1\nchannels: 1\ntheta: [[sqrt(2)]]\nA[1] = (1e307*a1*a1' + 1e307*a1*a1')*1e1\n"
    "B = [[1]]\nC[1] = a1\n",
    "modes: 2\nchannels: 1\ntheta: [[sqrt(4), i], [-i, 2]]\nA[1] = a1\nA[2] = a2^2*a1'\n"
    "B = [[1], [0]]\nC[1] = a1\n",
    CAVITY_PATH.read_text().replace("param k1 = 2", "param k1 = 2\nparam i = 2"),
    # "²" passes str.isdigit but starts no number: a stray character, alone or not
    "modes: 1\nchannels: 1\nA[1] = a1\nB = [[²]]\nC[1] = a1\n",
    "modes: 1\nchannels: 1\nA[1] = a1\nB = [[2*²]]\nC[1] = a1\n",
    "modes: 1\nchannels: 1\nA[1] = ²*a1\nB = [[1]]\nC[1] = a1\n",
    # a Unicode decimal digit is a number
    "modes: 1\nchannels: 1\nA[1] = a1\nB = [[٣]]\nC[1] = a1\n",
    # a character outside the token set in a comment is no error
    CAVITY_PATH.read_text().replace("D = identity", "D = identity  # ∂"),
    # a lone entry of more than MAX_DIGITS digits, or followed by a stray
    # character, on a continuation line
    "modes: 1\nchannels: 2\nA[1] = a1\nB = [[1,\n " + "1" * 1001 + "]]\nC[1] = a1\n",
    "modes: 1\nchannels: 2\nA[1] = a1\nB = [[1,\n 2 $]]\nC[1] = a1\n",
    # lone numbers as entries of theta, B and D
    *(f"modes: 2\nchannels: 2\ntheta: [[2, {x}], [{x}, 2]]\nA[1] = a1\nA[2] = a2\n"
      f"B = [[{x}, 0], [1, {x}]]\nC[1] = a1\nC[2] = a2\nD = [[{x}, 1], [0, {x}]]\n"
      for x in ("0", "00", "0.0", "1e-400", "2.5e3", "1e400")),
])
def test_parser_matches_reference_on_edge_cases(text):
    assert_same(text)
