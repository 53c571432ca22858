import pytest

from qrealize import (
    Algebra,
    NoiseSpec,
    OperatorMatrix,
    ParseError,
    QsdeModel,
    Scalar,
    compute_nbar,
    double,
    parse_expression,
    parse_model,
    render_model,
    structural_class_check,
)
from qrealize.scalars import grid, grid_neg, identity_grid, block_diag, zero_grid


MINIMAL = """
modes: 1
channels: 1
A[1] = -a1
B = [[1]]
C[1] = a1
"""


# -- expression parsing -------------------------------------------------------

def test_expression_basics():
    alg = Algebra(2)
    p = parse_expression("-2*a1 + (1+3*i)*a1'*a2^2", alg)
    expected = alg.annihilator(1).scale(Scalar(-2)) + alg.monomial(
        (1, 0), (0, 2), Scalar(1, 3)
    )
    assert p == expected


def test_expression_sqrt_and_params():
    alg = Algebra(1)
    p = parse_expression("sqrt(2*k)*a1", alg, {"k": Scalar(2)})
    assert p == alg.annihilator(1).scale(Scalar(2))


def test_expression_juxtaposition_rejected():
    alg = Algebra(1)
    with pytest.raises(ParseError, match="juxtaposition"):
        parse_expression("2 a1", alg)


def test_expression_unknown_mode():
    alg = Algebra(2)
    with pytest.raises(ParseError, match="unknown mode a3"):
        parse_expression("a3", alg)


def test_expression_division_by_operator_rejected():
    alg = Algebra(1)
    with pytest.raises(ParseError, match="non-constant"):
        parse_expression("1/a1", alg)


# -- model parsing ------------------------------------------------------------

def test_parse_fixture(cavity):
    assert cavity.n == 2 and cavity.m == 2
    alg = cavity.algebra
    assert cavity.A.entry(0, 0) == parse_expression("-2*a1 + 2*a1'*a2^2", alg)
    assert cavity.B.entry(0, 0) == alg.scalar(-2)
    assert cavity.B.entry(0, 1).is_zero
    assert cavity.C.entry(0, 0) == alg.annihilator(1).scale(Scalar(2))
    assert cavity.phi is not None
    # exact mode end-to-end: sqrt(2*2) = 2 stays rational
    assert all(c.is_exact for c in cavity.A.entry(0, 0).terms.values())


def test_parse_unknown_mode_reports_position(cavity_text):
    broken = cavity_text.replace("A[1] = -k1*a1", "A[1] = -k1*a3")
    with pytest.raises(ParseError, match="unknown mode a3") as err:
        parse_model(broken)
    assert err.value.line > 0


def test_parse_missing_entries():
    with pytest.raises(ParseError, match="missing drift"):
        parse_model("modes: 2\nchannels: 1\nA[1] = a1\nB = [[1],[1]]\nC[1] = a1\n")


def test_parse_shape_mismatch():
    with pytest.raises(ParseError, match="B must be 1x1"):
        parse_model("modes: 1\nchannels: 1\nA[1] = a1\nB = [[1, 2]]\nC[1] = a1\n")


def test_parse_duplicate_entry():
    text = MINIMAL.replace("A[1] = -a1", "A[1] = -a1\nA[1] = a1")
    with pytest.raises(ParseError, match="duplicate"):
        parse_model(text)


def test_parse_non_square_theta():
    text = MINIMAL.replace("modes: 1", "modes: 2").replace(
        "A[1] = -a1", "theta: [[1, 0]]\nA[1] = -a1\nA[2] = -a2"
    ).replace("B = [[1]]", "B = [[1],[0]]")
    with pytest.raises(ParseError, match="theta must be 2x2"):
        parse_model(text)


def test_roundtrip_is_identity(cavity, cavity_text):
    rendered = render_model(cavity)
    again = parse_model(rendered)
    assert cavity.equals(again)
    assert render_model(again) == rendered


def test_default_d_is_identity():
    model = parse_model(MINIMAL)
    assert model.D.entry(0, 0) == model.algebra.one()


# -- doubling and derived constants -------------------------------------------

def test_double_blocks(cavity):
    dm = double(cavity)
    assert dm.Abar.rows == 4 and dm.Bbar.rows == 4 and dm.Bbar.cols == 4
    for j in range(cavity.n):
        assert dm.Abar.entry(cavity.n + j, 0) == cavity.A.entry(j, 0).adjoint()
        assert dm.Cbar.entry(cavity.m + j, 0) == cavity.C.entry(j, 0).adjoint()
    # off-diagonal blocks of Bbar vanish
    assert dm.Bbar.entry(0, 2).is_zero and dm.Bbar.entry(3, 1).is_zero


def test_double_refuses_a_theta_that_is_not_hermitian():
    # the checks mirror each doubled residual's bottom half from its top half,
    # which [a_j, a_k']' = [a_k, a_j'] allows only at theta = theta'
    alg = Algebra(1, [[Scalar(1, 1)]])
    one = OperatorMatrix.identity(alg, 1)
    a = OperatorMatrix.column(alg, [alg.annihilator(1)])
    model = QsdeModel(algebra=alg, n=1, m=1, A=-a, B=one, C=a, D=one, params={})
    with pytest.raises(ValueError, match="theta must be Hermitian"):
        double(model)


def test_double_zero_drift():
    text = MINIMAL.replace("A[1] = -a1", "A[1] = 0").replace("C[1] = a1", "C[1] = 0")
    dm = double(parse_model(text))
    assert dm.Abar.is_zero and dm.Cbar.is_zero
    assert dm.nbar is None


def test_nbar_fixture(cavity):
    assert compute_nbar(cavity) == 4


def test_nbar_linear_and_quadratic():
    assert compute_nbar(parse_model(MINIMAL)) == 2
    quad = parse_model(MINIMAL.replace("A[1] = -a1", "A[1] = a1^2"))
    assert compute_nbar(quad) == 3


def test_nbar_zero_drift_errors():
    model = parse_model(MINIMAL.replace("A[1] = -a1", "A[1] = 0"))
    with pytest.raises(ValueError, match="zero drift"):
        compute_nbar(model)


# -- structural class check ---------------------------------------------------

def test_structural_fixture_passes(cavity):
    assert structural_class_check(cavity) == []


def test_structural_flags_cross_mode_drift():
    model = parse_model(
        "modes: 2\nchannels: 1\nA[1] = a1*a2\nA[2] = a2\nB = [[1],[0]]\nC[1] = a1\n"
    )
    violations = structural_class_check(model)
    assert any("A[1]" in v for v in violations)


def test_structural_flags_creation_in_output():
    model = parse_model(MINIMAL.replace("C[1] = a1", "C[1] = a1'"))
    violations = structural_class_check(model)
    assert any("creation" in v for v in violations)


# -- noise defaults -----------------------------------------------------------

def test_noise_defaults():
    spec = NoiseSpec.default(2)
    assert spec.F == block_diag(identity_grid(2), zero_grid(2, 2))
    assert spec.T == block_diag(identity_grid(2), grid_neg(identity_grid(2)))


def test_float_mode_conversion(cavity):
    fm = cavity.to_float()
    assert all(
        not c.is_exact for c in fm.A.entry(0, 0).terms.values()
    )
    assert fm.equals(fm)


# -- parsable rendering, byte for byte -----------------------------------------

COMPLEX_MODEL = """
modes: 1
channels: 1
theta: [[2]]
A[1] = i*a1 - a1/2
B = [[-1]]
C[1] = a1
D = [[i]]
phi = a1'*a1
"""


def test_render_model_bytes(cavity):
    # The round trip cannot see a format change that still parses; pin the text.
    assert render_model(cavity) == (
        "modes: 2\nchannels: 2\ntheta: identity\n"
        "A[1] = (-2)*a1 + (2)*a1'*a2^2\n"
        "A[2] = (-2)*a2 + (-2)*a2'*a1^2\n"
        "B = [[(-2), 0], [0, (-2)]]\n"
        "C[1] = (2)*a1\nC[2] = (2)*a2\n"
        "D = identity\n"
        "phi = (2)*a1'*a1 + (2)*a2'*a2\n"
    )
    assert render_model(cavity.to_float()) == (
        "modes: 2\nchannels: 2\ntheta: identity\n"
        "A[1] = (-2.0)*a1 + (2.0)*a1'*a2^2\n"
        "A[2] = (-2.0)*a2 + (-2.0)*a2'*a1^2\n"
        "B = [[(-2.0), 0], [0, (-2.0)]]\n"
        "C[1] = (2.0)*a1\nC[2] = (2.0)*a2\n"
        "D = identity\n"
        "phi = (2.0)*a1'*a1 + (2.0)*a2'*a2\n"
    )


def test_render_model_bytes_complex_coefficients():
    model = parse_model(COMPLEX_MODEL)
    assert render_model(model) == (
        "modes: 1\nchannels: 1\ntheta: [[(2)]]\n"
        "A[1] = (-1/2+1*i)*a1\n"
        "B = [[(-1)]]\n"
        "C[1] = (1)*a1\n"
        "D = [[(0+1*i)]]\n"
        "phi = (1)*a1'*a1\n"
    )
    assert render_model(model.to_float()) == (
        "modes: 1\nchannels: 1\ntheta: [[(2.0)]]\n"
        "A[1] = (-0.5+1.0*i)*a1\n"
        "B = [[(-1.0)]]\n"
        "C[1] = (1.0)*a1\n"
        "D = [[(0.0+1.0*i)]]\n"
        "phi = (1.0)*a1'*a1\n"
    )
    assert parse_model(render_model(model)).equals(model)
