import json

import pytest

import qrealize.checks
import qrealize.cli
from qrealize.cli import main

from conftest import CAVITY_PATH, FIXTURE_DIR, mutate
from helpers import chain_text, load_workloads

GOLDEN_H = "(0+1i)*a1'^2*a2^2 + (0-1i)*a2'^2*a1^2"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def broken_path(tmp_path, cavity_text):
    path = tmp_path / "broken.qsde"
    path.write_text(
        mutate(cavity_text, "B = [[-sqrt(2*k1), 0],", "B = [[sqrt(2*k1), 0],")
    )
    return str(path)


# -- check --------------------------------------------------------------------

def test_check_passes_on_fixture(capsys):
    code, out, _ = run_cli(capsys, "check", str(CAVITY_PATH))
    assert code == 0
    assert "overall: PASS" in out
    assert "[FAIL]" not in out
    assert f"Hbar = {GOLDEN_H} (self-adjoint: yes)" in out
    assert "nbar = 4" in out


def test_check_fails_on_broken_model(capsys, broken_path):
    code, out, _ = run_cli(capsys, "check", broken_path)
    assert code == 1
    assert "[FAIL] PR-B-match" in out
    assert "overall: FAIL" in out


def test_check_subset_selection(capsys, tmp_path, cavity_text):
    # a broken D leaves the class conditions intact, so selecting only the
    # class family passes while the full run would not
    path = tmp_path / "bad_d.qsde"
    path.write_text(mutate(cavity_text, "D = identity", "D = [[2,0],[0,2]]"))
    code, out, _ = run_cli(capsys, "check", str(path), "--checks", "class")
    assert code == 0
    assert "CLASS-generator-identity" in out
    assert "PR-D-identity" not in out
    code, _, _ = run_cli(capsys, "check", str(path))
    assert code == 1


def test_check_unknown_selection_is_config_error(capsys):
    code, _, err = run_cli(capsys, "check", str(CAVITY_PATH), "--checks", "bogus")
    assert code == 2
    assert "unknown check" in err


def test_check_empty_selection_is_config_error(capsys):
    code, out, err = run_cli(capsys, "check", str(CAVITY_PATH), "--checks", " , ")
    assert (code, out, err) == (2, "", "error: empty check selection\n")


@pytest.mark.parametrize("options", [(), ("--checks", "realize"), ("--float",)])
def test_singular_theta_is_refused_at_its_statement(capsys, options):
    code, out, err = run_cli(capsys, "check", str(FIXTURE_DIR / "singular_theta.qsde"), *options)
    assert (code, out, err) == (2, "", "error: line 6, col 1: theta must be invertible\n")


def test_tiny_theta_fails_the_same_conditions_in_float_mode(capsys):
    failing = {}
    for options in ((), ("--float",)):
        code, out, err = run_cli(capsys, "check", str(FIXTURE_DIR / "tiny_theta.qsde"),
                                 "--json", *options)
        assert (code, err) == (1, ""), options
        failing[options] = [c["condition_id"] for c in json.loads(out)["checks"]
                            if not c["pass"]]
    assert failing[()] == failing[("--float",)] == [
        "CLASS-generator-identity", "CCR-sum", "PR-CCR-sum", "PR-B-match"]


# theta is invertible exactly but not in binary64: rounding makes it singular,
# or a pivot's |1e-200|^2 underflows; --float refuses it before any check runs
NEAR_SINGULAR_THETA = "[[1, 1], [1, 100000000000000000001/100000000000000000000]]"
FLOAT_RUNS = [("check", "--checks", name) for name in
              ("all", "class", "preserve", "realize", "lossless", "storage")]
FLOAT_RUNS.append(("extract", "--force"))


@pytest.mark.parametrize("run", FLOAT_RUNS, ids=" ".join)
@pytest.mark.parametrize("theta", ["near-singular", "underflow"])
def test_float_refuses_a_theta_it_cannot_invert(capsys, tmp_path, cavity_text, theta, run):
    path = FIXTURE_DIR / "underflow_theta.qsde"
    if theta == "near-singular":
        path = tmp_path / "near_singular.qsde"
        path.write_text(mutate(cavity_text, "theta: identity", f"theta: {NEAR_SINGULAR_THETA}"))
    command, *options = run
    code, out, err = run_cli(capsys, command, str(path), *options)
    assert code in (0, 1) and out and "error" not in err
    code, out, err = run_cli(capsys, command, str(path), *options, "--float")
    assert (code, out, err) == (2, "", "error: theta cannot be inverted in binary64\n")


def test_exact_theta_whose_binary64_pivot_underflows_is_refused_at_its_statement(
        capsys, tmp_path, cavity_text):
    path = tmp_path / "underflow.qsde"
    path.write_text(mutate(cavity_text, "theta: identity", "theta: [[sqrt(2)*1e-200, 0], [0, 1]]"))
    code, out, err = run_cli(capsys, "check", str(path), "--tol", "1e-300")
    assert (code, out, err) == (2, "", "error: line 4, col 1: theta must be invertible\n")


@pytest.mark.parametrize("run", [("check",), ("extract", "--force")], ids=" ".join)
def test_float_inverts_a_theta_past_a_pivot_whose_square_underflows(
        capsys, tmp_path, cavity_text, run):
    # det -1; the binary64 inverse [[0, 1], [1, -1e-200]] swaps past the 1e-200 pivot
    path = tmp_path / "swapped.qsde"
    path.write_text(mutate(cavity_text, "theta: identity", "theta: [[1e-200, 1], [1, 0]]"))
    command, *options = run
    for mode in ((), ("--float",)):
        code, out, err = run_cli(capsys, command, str(path), *options, *mode)
        assert code == 1 and out.endswith("overall: FAIL\n") and "error" not in err, mode


def test_check_all_flag_is_gone(capsys):
    # every check runs by default (--checks all); the flag that repeated it is removed
    code, out, err = run_cli(capsys, "check", str(CAVITY_PATH), "--all")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --all" in err


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "/no/such/model.qsde")
    assert code == 2
    assert "error:" in err


def test_check_parse_error_reports_position(capsys, tmp_path, cavity_text):
    path = tmp_path / "bad.qsde"
    path.write_text(cavity_text.replace("C[1] = sqrt(2*k1)*a1", "C[1] = sqrt(2*k1)*a9"))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "line 15, col 19: unknown mode a9" in err


@pytest.mark.parametrize("old, new, position", [
    # on the continuation line of B: its own line and column
    ("     [0, -sqrt(2*k2)]]", "     [0, -sqrt(2*k2) a1]]", "line 13, col 22"),
    # on the statement's first line
    ("B = [[-sqrt(2*k1), 0],", "B = [[-sqrt(2*k1) a1, 0],", "line 12, col 19"),
], ids=["continuation-line", "first-line"])
def test_check_parse_error_in_continued_statement(capsys, tmp_path, cavity_text,
                                                  old, new, position):
    path = tmp_path / "bad.qsde"
    path.write_text(mutate(cavity_text, old, new))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert f"{position}: juxtaposition is not multiplication" in err


def test_check_division_by_zero_is_parse_error(capsys, tmp_path, cavity_text):
    path = tmp_path / "div0.qsde"
    path.write_text(cavity_text.replace("param k1 = 2", "param k1 = 1/0"))
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "line 6, col 13: division by zero" in err


HUGE_PATH = CAVITY_PATH.parent / "huge_coefficient.qsde"


def test_check_reports_verdicts_on_a_coefficient_beyond_binary64(capsys):
    # -1e400*a1 in A[1] is exact; the residuals that carry it have an
    # infinite norm, and every condition still gets its verdict
    code, out, err = run_cli(capsys, "check", str(HUGE_PATH))
    assert code == 1 and err == ""
    assert "[FAIL] CLASS-generator-identity" in out and "(residual=inf)" in out
    assert "[PASS] LL-B-gradient" in out and "overall: FAIL" in out
    # the JSON is strict (RFC 8259 has no Infinity): an infinite norm is "inf"
    code, out, _ = run_cli(capsys, "check", str(HUGE_PATH), "--json")
    assert code == 1
    payload = json.loads(out, parse_constant=refuse_constant)
    norms = {c["condition_id"]: c["residual_norm"] for c in payload["checks"]}
    assert norms["CCR-sum"] == "inf" and norms["LL-B-gradient"] == 0.0


def refuse_constant(token):
    raise ValueError(f"non-JSON constant {token}")


# the oracle's inf * 0 in the overflowing block must not reach stderr as a warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_float_oracle_json_is_strict_where_a_deviation_overflows(capsys, tmp_path, cavity_text):
    # C[1] = 1e200*a1 is binary64, but C' C and the oracle's deviation are not
    path = tmp_path / "big.qsde"
    path.write_text(mutate(cavity_text, "C[1] = sqrt(2*k1)*a1", "C[1] = 1e200*a1"))
    code, out, err = run_cli(capsys, "check", str(path), "--float", "--oracle", "--json")
    assert code == 1 and err == ""
    payload = json.loads(out, parse_constant=refuse_constant)
    norms = {c["condition_id"]: c["residual_norm"] for c in payload["checks"]}
    deviations = {e["condition_id"]: e["max_deviation"] for e in payload["oracle"]}
    assert norms["LL-gradient-A"] == deviations["LL-gradient-A"] == "inf"
    assert norms["PR-B-match"] == 1e200 and deviations["CCR-sum"] == 0.0


NAN_PATH = FIXTURE_DIR / "nan_residual.qsde"
# the conditions whose residuals carry inf - inf, in report order
NAN_ROWS = ["CCR-sum", "PR-CCR-sum", "LL-gradient-A"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_nan_residual_fails_in_binary64_as_in_exact_mode(capsys):
    code, out, err = run_cli(capsys, "check", str(NAN_PATH), "--json")
    assert code == 1 and err == ""
    failed = [c["condition_id"] for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed == ["CLASS-generator-identity", *NAN_ROWS]
    # binary64 turns the infinite residuals of NAN_ROWS into NaN, which is never
    # zero; (1/2) Bbar' grad(phi) overflows in binary64 alone
    code, out, err = run_cli(capsys, "check", str(NAN_PATH), "--float", "--oracle", "--json")
    assert code == 1 and err == ""
    payload = json.loads(out, parse_constant=refuse_constant)
    norms = {c["condition_id"]: c["residual_norm"] for c in payload["checks"] if not c["pass"]}
    assert list(norms) == [*failed, "LL-B-gradient"]
    deviations = {e["condition_id"]: e for e in payload["oracle"]}
    for cid in NAN_ROWS:
        assert norms[cid] == deviations[cid]["max_deviation"] == "nan", cid
        assert deviations[cid]["pass"] is False, cid


# the oracle reads an exact coefficient beyond binary64 as an infinite |entry|
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["huge_coefficient", "overflow_coupling", "overflow_synthesis"])
def test_exact_oracle_reports_on_a_coefficient_beyond_binary64(capsys, name):
    path = str(FIXTURE_DIR / f"{name}.qsde")
    code, out, err = run_cli(capsys, "check", path, "--oracle", "--json")
    assert code == 1 and err == ""
    oracle = json.loads(out, parse_constant=refuse_constant)["oracle"]
    infinite = [e for e in oracle if e["max_deviation"] == "inf"]
    assert infinite and not any(e["pass"] for e in infinite)
    code, out, err = run_cli(capsys, "check", path, "--oracle")
    assert code == 1 and err == ""
    assert "max deviation inf" in out and "overall: FAIL" in out


def test_check_float_refuses_a_coefficient_beyond_binary64(capsys):
    # --float converts 1e400 itself, which binary64 cannot hold
    code, out, err = run_cli(capsys, "check", str(HUGE_PATH), "--float")
    assert code == 2 and out == ""
    assert err == "error: a coefficient is beyond binary64\n"


def test_check_json_schema_and_verdict(capsys):
    code, out, _ = run_cli(capsys, "check", str(CAVITY_PATH), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] is True
    assert payload["derived"]["hamiltonian"] == GOLDEN_H
    for entry in payload["checks"]:
        assert set(entry) == {
            "condition_id", "description", "pass", "residual_norm", "witness",
        }


def test_check_json_output_is_stable(capsys):
    _, first, _ = run_cli(capsys, "check", str(CAVITY_PATH), "--json")
    _, second, _ = run_cli(capsys, "check", str(CAVITY_PATH), "--json")
    assert first == second


def test_check_text_and_json_verdicts_agree(capsys, broken_path):
    text_code, _, _ = run_cli(capsys, "check", broken_path)
    json_code, out, _ = run_cli(capsys, "check", broken_path, "--json")
    assert text_code == json_code == 1
    assert json.loads(out)["overall"] is False


def test_check_float_mode(capsys):
    code, out, _ = run_cli(capsys, "check", str(CAVITY_PATH), "--float")
    assert code == 0
    assert "overall: PASS" in out


def test_check_env_tolerance(capsys, monkeypatch):
    # the tolerance comes from --tol alone; the environment does not set it
    monkeypatch.setenv("QREAL_TOL", "-1")
    code, _, _ = run_cli(capsys, "check", str(CAVITY_PATH), "--float", "--tol", "1e-6")
    assert code == 0
    for tol in ("-1", "nan", "inf"):
        for mode in ((), ("--float",)):
            code, out, err = run_cli(capsys, "check", str(CAVITY_PATH), "--tol", tol, *mode)
            assert (code, out) == (2, ""), (tol, mode)
            assert err.startswith("error: tolerance must be positive and finite"), (tol, mode)


def test_check_doubles_the_model_once(capsys, monkeypatch):
    calls = []
    original = qrealize.checks.double

    def counting(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(qrealize.checks, "double", counting)
    monkeypatch.setattr(qrealize.cli, "double", counting)
    code, _, _ = run_cli(capsys, "check", str(CAVITY_PATH))
    assert code == 0
    assert len(calls) == 1


def test_check_refuses_the_literal_theta_bar_option(capsys):
    code, out, err = run_cli(capsys, "check", str(CAVITY_PATH), "--literal-theta-bar")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --literal-theta-bar" in err


def test_check_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "check", str(CAVITY_PATH), "--oracle",
                           "--fock-n", "6", "--guard", "4")
    assert code == 0
    assert "oracle" in out
    assert "[FAIL]" not in out


# -- extract ------------------------------------------------------------------

def test_extract_prints_hamiltonian_and_coupling(capsys):
    code, out, _ = run_cli(capsys, "extract", str(CAVITY_PATH))
    assert code == 0
    assert f"Hbar = {GOLDEN_H}" in out
    assert "Lbar[1] = (2+0i)*a1" in out
    assert "Lbar[3] = (2+0i)*a1'" in out


def test_extract_refuses_unrealizable_without_force(capsys, broken_path):
    code, out, err = run_cli(capsys, "extract", broken_path)
    assert code == 1
    assert out == ""
    assert "--force" in err


def test_extract_force_warns_but_prints(capsys, broken_path):
    code, out, err = run_cli(capsys, "extract", broken_path, "--force")
    assert code == 1
    assert "Hbar =" in out
    assert "formal" in err


# -- oracle -------------------------------------------------------------------

def test_oracle_subcommand_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle", str(CAVITY_PATH), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]
    assert all(e["pass"] for e in payload["oracle"])
    assert all(e["max_deviation"] <= 1e-9 for e in payload["oracle"])


@pytest.mark.parametrize("n, mode", [(4, ()), (5, ("--float",))])
def test_oracle_passes_on_larger_chains(capsys, tmp_path, n, mode):
    # the guarded block has 2^n states at the defaults, far under the bound
    path = tmp_path / f"chain{n}.qsde"
    path.write_text(chain_text(n))
    code, out, err = run_cli(capsys, "oracle", str(path), "--json", *mode)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["oracle"]
    assert all(e["pass"] and e["max_deviation"] == 0.0 for e in payload["oracle"])


def test_oracle_rejects_block_over_dimension_bound(capsys):
    # cap = 69 - 1 - 4 = 64, so two modes give 65^2 = 4225 > 4096 states
    code, _, err = run_cli(capsys, "oracle", str(CAVITY_PATH),
                           "--fock-n", "69", "--guard", "4")
    assert code == 2
    assert "dimension 4225" in err


def test_oracle_scales_to_ten_modes(capsys, tmp_path):
    # each nonzero residual is represented on the modes it touches only
    path = tmp_path / "chain10.qsde"
    path.write_text(load_workloads().chain_text(10))
    code, out, err = run_cli(capsys, "check", str(path), "--float", "--oracle", "--json")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["oracle"]
    assert all(e["pass"] and e["max_deviation"] == 0.0 for e in payload["oracle"])


def test_oracle_fails_the_ccr_sums_of_a_ten_mode_mutant(capsys, tmp_path):
    path = tmp_path / "chain10_mutant.qsde"
    path.write_text(load_workloads().chain_mutant_text(10, "A-cubic-sign", 2))
    code, out, _ = run_cli(capsys, "check", str(path), "--oracle", "--json")
    assert code == 1
    failed = [e["condition_id"] for e in json.loads(out)["oracle"] if not e["pass"]]
    assert failed == ["CCR-sum", "PR-CCR-sum"]


def test_oracle_still_refuses_thirteen_modes(capsys, tmp_path):
    # cap = 6 - 1 - 4 = 1, so 13 modes give 2^13 = 8192 > 4096 states,
    # although no residual touches more than three of them
    path = tmp_path / "chain13.qsde"
    path.write_text(load_workloads().chain_text(13))
    code, out, err = run_cli(capsys, "oracle", str(path))
    assert (code, out) == (2, "")
    assert "dimension 8192" in err


def test_oracle_rejects_bad_guard(capsys):
    code, _, err = run_cli(capsys, "oracle", str(CAVITY_PATH), "--guard", "-1")
    assert code == 2
    assert "guard" in err


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "check")
    assert code == 2
