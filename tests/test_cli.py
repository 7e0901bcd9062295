import json
import subprocess
import sys

import numpy as np
import pytest

from paralie.cli import main, render_json, run_exp_grid, run_roundtrip_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- construct ---------------------------------------------------------------


def test_construct_f5_json(capsys):
    code, out, _ = run_cli(capsys, "construct", "--class", "f5", "--alpha", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    c = np.array(obj["C"])
    assert c[0, 1, 1] == 1.0
    assert c[0, 2, 2] == 1.0
    assert obj["jacobi_defect"] == 0.0


def test_construct_f0_zero(capsys):
    code, out, _ = run_cli(capsys, "construct", "--class", "f0", "--format", "json")
    assert code == 0
    assert np.count_nonzero(np.array(json.loads(out)["C"])) == 0


def test_construct_f1_components(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--class", "f1", "--alpha", "1", "--beta", "-2", "--format", "json"
    )
    assert code == 0
    c = np.array(json.loads(out)["C"])
    assert c[1, 2, 1] == 1.0
    assert c[1, 2, 2] == -2.0


def test_construct_unknown_class_usage_error(capsys):
    code, _, _ = run_cli(capsys, "construct", "--class", "f7")
    assert code == 2


def test_class_id_case_insensitive(capsys):
    code_lower, out_lower, _ = run_cli(capsys, "construct", "--class", "f8", "--alpha", "1", "--format", "json")
    code_upper, out_upper, _ = run_cli(capsys, "construct", "--class", "F8", "--alpha", "1", "--format", "json")
    assert code_lower == code_upper == 0
    assert out_lower == out_upper


# --- classify ----------------------------------------------------------------


def test_classify_round_trip_via_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "construct", "--class", "f9", "--alpha", "2", "--format", "json")
    assert code == 0
    path = tmp_path / "constants.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == ["F9"]
    assert report["alpha"] == 2.0
    assert report["para_sasakian"] is False


def test_classify_para_sasakian(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "construct", "--class", "f4", "--alpha", "-1", "--format", "json")
    path = tmp_path / "ps.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == ["F4"]
    assert report["para_sasakian"] is True
    assert report["lee"]["theta"][0] == -2.0


def test_classify_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO('{"class": "f8", "alpha": -1.5}'))
    code, out, _ = run_cli(capsys, "classify", "-", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == ["F8"]
    assert report["alpha"] == -1.5


def test_classify_accepts_class_params_json(tmp_path, capsys):
    path = tmp_path / "byclass.json"
    path.write_text('{"class": "f10", "alpha": 0.5}', encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == ["F10"]


def test_classify_parse_failure_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "error" in err


def test_classify_missing_file_exit_2(capsys):
    code, _, _ = run_cli(capsys, "classify", "/nonexistent/path.json")
    assert code == 2


def test_construct_classify_json_round_trip_grid(tmp_path, capsys):
    from paralie.structure import CLASS_IDS, TWO_PARAMETER_CLASSES

    for cid in CLASS_IDS:
        betas = ("-0.5", "2") if cid in TWO_PARAMETER_CLASSES else ("0",)
        for alpha in ("-2", "0.5", "1"):
            for beta in betas:
                code, out, _ = run_cli(
                    capsys, "construct", "--class", cid.lower(),
                    "--alpha", alpha, "--beta", beta, "--format", "json",
                )
                assert code == 0
                path = tmp_path / f"{cid}.json"
                path.write_text(out, encoding="utf-8")
                code, out, _ = run_cli(capsys, "classify", str(path), "--format", "json")
                assert code == 0
                report = json.loads(out)
                assert report["verdict"] == [cid]
                assert report["alpha"] == float(alpha)
                if cid in TWO_PARAMETER_CLASSES:
                    assert report["beta"] == float(beta)


def test_classify_jacobi_failure_exit_3(tmp_path, capsys):
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[1, 0, 1] = 1.0, -1.0
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    path = tmp_path / "notlie.json"
    path.write_text(json.dumps({"C": c.tolist()}), encoding="utf-8")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 3
    assert "Jacobi" in err


# --- exp ---------------------------------------------------------------------


def test_exp_with_oracle(capsys):
    code, out, _ = run_cli(
        capsys, "exp", "--class", "f8", "--alpha", "1", "--coords", "1,0,0",
        "--oracle", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["branch"] == "generic"
    assert obj["oracle_residual"] <= 1e-12
    assert set(obj) == {"A", "t", "u", "branch", "expA", "oracle_residual"}


def test_exp_trace_zero_branch(capsys):
    code, out, _ = run_cli(
        capsys, "exp", "--class", "f1", "--alpha", "1", "--beta", "1",
        "--coords", "0,1,1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["branch"] == "trace_zero"


def test_exp_para_sasakian_instance_det(capsys):
    code, out, _ = run_cli(
        capsys, "exp", "--class", "f4", "--alpha", "-1", "--coords", "1,2,3"
    )
    assert code == 0
    assert "det(exp(A)) = 1" in out


def test_exp_rejects_f0(capsys):
    code, _, _ = run_cli(capsys, "exp", "--class", "f0", "--coords", "1,0,0")
    assert code == 2


def test_exp_bad_coords(capsys):
    code, _, _ = run_cli(capsys, "exp", "--class", "f8", "--coords", "1,2")
    assert code == 2


# --- verify ------------------------------------------------------------------


def test_verify_small_grid_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "small")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_unattainable_tol_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid", "small", "--tol", "1e-30")
    assert code == 1
    assert "overall: FAIL" in out


def test_verify_rejects_nonpositive_tol(capsys):
    code, _, _ = run_cli(capsys, "verify", "--grid", "small", "--tol", "-1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("construct", "--class", "f8"),
    ("exp", "--class", "f8"),
    ("table",),
])
def test_tol_only_on_classify_and_verify(capsys, argv):
    code, _, _ = run_cli(capsys, *argv, "--tol", "1e-3")
    assert code == 2


def test_grid_helpers_directly():
    exp_res = run_exp_grid((1.0,), (-1.0, 0.0, 1.0))
    assert set(exp_res) == {"F1", "F4", "F5", "F8", "F9", "F10", "F11"}
    assert max(exp_res.values()) <= 1e-12
    rt = run_roundtrip_grid((1.0, -1.0))
    assert max(rt.values()) <= 1e-12


# --- table ---------------------------------------------------------------------


def test_table_defaults(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "json")
    assert code == 0
    rows = {row["class"]: row for row in json.loads(out)}
    assert len(rows) == 7
    assert rows["F8"]["trace_sq"] == -10.0  # -2*(1 + 2 + 2) at unit parameters
    assert rows["F4"]["trace_sq"] == 2.0
    assert rows["F1"]["trace"] == 0.0  # alpha*c - beta*b at unit parameters


def test_table_zero_parameters(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--alpha", "0", "--beta", "0", "--format", "json"
    )
    assert code == 0
    for row in json.loads(out):
        assert np.count_nonzero(np.array(row["A"])) == 0
        assert row["t"] == 1.0
        # u(0) is the value of the entire coefficient: 0 for the quadratic
        # classes, 1/2 for the cubic ones; exp(A) = E either way
        assert row["u"] == (0.0 if row["class"] in ("F1", "F5", "F11") else 0.5)


# --- output format -------------------------------------------------------------


def test_json_floats_round_trip_17_digits():
    rendered = render_json({"x": 0.1, "y": 1.0 / 3.0, "z": [1e-12, -2.5]})
    parsed = json.loads(rendered)
    assert parsed["x"] == 0.1
    assert parsed["y"] == 1.0 / 3.0
    assert parsed["z"] == [1e-12, -2.5]


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "paralie", "construct", "--class", "f8", "--alpha", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "[E1,E2] = +2 E0" in proc.stdout


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0
