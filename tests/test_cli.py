import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from paralie import cli
from paralie.cli import GRIDS, main, run_exp_grid, run_roundtrip_grid, table_rows
from paralie.expengine import closed_form
from paralie.levicivita import classify_manifold
from paralie.lie import class_algebra, jacobi_defect, structure_constants
from paralie.mat3 import expm_oracle, max_abs
from paralie.structure import CLASS_IDS, TWO_PARAMETER_CLASSES, ClassParams


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


def test_construct_refuses_constants_past_double_range(capsys):
    # 2 * alpha in F8's [E1,E2] bracket overflows to inf
    for fmt in ("text", "json"):
        code, out, err = run_cli(
            capsys, "construct", "--class", "f8", "--alpha", "1e308", "--format", fmt
        )
        assert (code, out) == (2, "")
        assert "structure constants must be finite" in err


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
    assert set(report) == {"verdict", "alpha", "beta", "lee", "para_sasakian", "classes"}
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert out.startswith("verdict: F9\n")
    assert "residual" not in out


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


@pytest.mark.parametrize("value", ["null", "[1]", '{"alpha": 1}'])
@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_classify_non_numeric_class_parameter_exit_2(tmp_path, capsys, key, value):
    path = tmp_path / "byclass.json"
    path.write_text(f'{{"class": "f11", "{key}": {value}}}', encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, out) == (2, "")
    assert "error: class parameters must be real numbers" in err


def test_classify_parse_failure_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    nested = [[[0, 0, {"a": 1}], [0, 0, 0], [0, 0, 0]]] + [[[0, 0, 0]] * 3] * 2
    for text in ("{not json", '{"C": {"a": 1}}', json.dumps({"C": nested})):
        path.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert "error" in err


def test_classify_missing_file_exit_2(capsys):
    code, _, _ = run_cli(capsys, "classify", "/nonexistent/path.json")
    assert code == 2


def test_construct_classify_json_round_trip_grid(tmp_path, capsys):
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


def test_exp_determinant_past_double_range_is_inf_without_warning(capsys):
    # exp(A) is finite, its determinant e^1400 is not; a numpy warning would
    # be raised here as an error
    code, out, err = run_cli(capsys, "exp", "--class", "f5", "--alpha", "1", "--coords=-700,0,0")
    assert code == 0
    assert "det(exp(A)) = inf" in out and err == ""


def test_exp_determinant_is_e_to_the_trace_past_the_rounded_matrix(capsys):
    # tr A = 1e200 - 1e200 = 0, so det exp(A) = 1; the entries 1 +- 1e200 of
    # the rounded exp(A) have lost the identity, and its determinant was 0
    code, out, err = run_cli(
        capsys, "exp", "--class", "f1", "--alpha", "1", "--beta", "1", "--coords=0,1e200,1e200"
    )
    assert code == 0 and err == ""
    assert "det(exp(A)) = 1\n" in out


@pytest.mark.parametrize("coords", ["1e100,1e100,0", "1e150,0,0"])
def test_exp_oracle_out_of_range_exit_2(capsys, coords):
    # the closed form is finite here; the referee used to print a NaN or a
    # residual of 0.72 with exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "exp", "--class", "f8", "--alpha", "1", f"--coords={coords}",
            "--oracle", "--format", "json",
        )
    assert (code, out) == (2, "")
    assert err.startswith("error: expm_oracle is out of range") and err.count("\n") == 1


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


def test_verify_rejects_nan_tol(capsys):
    for tol in ("nan", "inf", "0"):
        code, out, err = run_cli(capsys, "verify", "--grid", "small", "--tol", tol)
        assert code == 2
        assert "tol must be positive" in err and "overall" not in out


def test_classify_rejects_nan_tol(tmp_path, capsys):
    # tol is read first: with a bad tol, constants that fail the Jacobi
    # identity are exit 2 too, not 3
    path = tmp_path / "f8.json"
    path.write_text(json.dumps({"class": "f8", "alpha": 1.0}), encoding="utf-8")
    non_lie = tmp_path / "non_lie.json"
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[1, 0, 1], c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0, 1.0, -1.0
    non_lie.write_text(json.dumps({"C": c.tolist()}), encoding="utf-8")
    assert run_cli(capsys, "classify", str(non_lie))[0] == 3
    for tol in ("nan", "inf", "0", "-1"):
        for p in (path, non_lie):
            code, out, err = run_cli(capsys, "classify", str(p), "--tol", tol)
            assert code == 2
            assert "tol must be positive" in err and "verdict" not in out


@pytest.mark.parametrize("argv", [
    ("construct", "--class", "f8"),
    ("exp", "--class", "f8"),
    ("table",),
])
def test_tol_only_on_classify_and_verify(capsys, argv):
    code, _, _ = run_cli(capsys, *argv, "--tol", "1e-3")
    assert code == 2


def test_verify_counts_each_instance_once(capsys, monkeypatch):
    # the printed count is the number of closed forms verify evaluates:
    # beta sweeps the grid only for F1 and F11
    calls = []

    def counted(*args):
        calls.append(args)
        return closed_form(*args)

    monkeypatch.setattr(cli, "closed_form", counted)
    code, out, _ = run_cli(capsys, "verify", "--grid", "small")
    assert code == 0
    assert "(486 exponential instances" in out
    assert len(calls) == len(set(calls)) == 486


def test_verify_full_grid_count(capsys, monkeypatch):
    zeros = dict.fromkeys(CLASS_IDS, 0.0)
    monkeypatch.setattr(cli, "run_exp_grid", lambda *grids: zeros)
    monkeypatch.setattr(cli, "run_roundtrip_grid", lambda grid: zeros)
    _, out, _ = run_cli(capsys, "verify", "--grid", "full")
    assert "(9375 exponential instances" in out


def exp_grid_every_beta(param_grid, coord_grid):
    """run_exp_grid with beta swept for every class, one-parameter ones too."""
    worst = {}
    for cid in CLASS_IDS:
        m = 0.0
        for alpha in param_grid:
            for beta in param_grid:
                p = ClassParams(cid, alpha, beta)
                for a in coord_grid:
                    for b in coord_grid:
                        for co in coord_grid:
                            res = closed_form(p, a, b, co)
                            m = max(m, max_abs(res.expA - expm_oracle(res.A, 1e-15)))
        worst[cid] = m
    return worst


@pytest.mark.parametrize("grids", [GRIDS["small"][:2], ((-2.0, 0.5, 1.0), (-1.0, 0.0, 1.0))])
def test_exp_grid_matches_the_sweep_over_every_beta(grids):
    got = run_exp_grid(*grids)
    want = exp_grid_every_beta(*grids)
    assert got.keys() == want.keys()
    assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()


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


def test_table_json_writes_overflowed_trace_sq_as_null(capsys):
    # F1's tr A^2 = (tr A)^2 = 1e320 overflows where its exp(A) does not:
    # table_rows and the text format keep inf, JSON, which has no inf, null
    argv = ("table", "--alpha", "0", "--beta", "1e200", "--coords=0,1e-40,0")
    assert table_rows(0.0, 1e200, 0.0, 1e-40, 0.0)[0]["trace_sq"] == math.inf
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "trA2=inf" in out
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    rows = {row["class"]: row for row in json.loads(out)}
    assert rows["F1"]["trace_sq"] is None and rows["F1"]["trace"] == -(1e-40 * 1e200)
    assert all(row["trace_sq"] == 0.0 for cid, row in rows.items() if cid != "F1")


# --- output format -------------------------------------------------------------


def leaves(value, path=()):
    """(path, leaf) pairs of a JSON value, each float as float.hex.

    numpy arrays count as their nested lists with negative zeros cleared,
    as the wire format writes them.  float.hex keeps the sign of zero, and
    a float that read back as an int would not match.
    """
    if isinstance(value, np.ndarray):
        value = (value + 0.0).tolist()
    if isinstance(value, dict):
        for key, v in value.items():
            yield from leaves(v, path + (key,))
    elif isinstance(value, (list, tuple)):
        for n, v in enumerate(value):
            yield from leaves(v, path + (n,))
    else:
        yield path, value.hex() if isinstance(value, float) else value


def test_json_floats_are_the_library_values_bit_for_bit(tmp_path, capsys):
    # every float that a command prints reads back to the library's double;
    # F1 at beta = 0 has C_21^2 = -beta = -0.0, written as 0.0
    third = 1.0 / 3.0
    f1 = ClassParams("F1", 0.1)
    c = structure_constants(class_algebra(f1))
    assert math.copysign(1.0, c[2, 1, 2]) == -1.0
    f8 = structure_constants(class_algebra(ClassParams("F8", 1e-300)))
    res = closed_form(ClassParams("F11", 0.3, -1.7), 0.1, third, -2.5)
    mixed = class_algebra(ClassParams("F4", 0.1)) + class_algebra(ClassParams("F5", third))
    report = classify_manifold(mixed)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"C": mixed.tolist()}), encoding="utf-8")
    cases = [
        (("construct", "--class", "f1", "--alpha", "0.1"),
         {"C": c, "jacobi_defect": jacobi_defect(c)}),
        (("construct", "--class", "f8", "--alpha", "1e-300"),
         {"C": f8, "jacobi_defect": jacobi_defect(f8)}),
        (("exp", "--class", "f11", "--alpha", "0.3", "--beta", "-1.7",
          f"--coords=0.1,{third!r},-2.5", "--oracle"),
         dict(vars(res), oracle_residual=max_abs(res.expA - expm_oracle(res.A, 1e-15)))),
        (("table", "--alpha", "0.1", "--beta", repr(third)),
         table_rows(0.1, third, 1.0, 1.0, 1.0)),
        (("classify", str(path)),
         {"verdict": report.verdict, "alpha": report.alpha, "beta": report.beta,
          "lee": vars(report.lee), "para_sasakian": report.para_sasakian,
          "classes": {cid: {"alpha": a, "beta": b} for cid, (a, b) in report.params.items()
                      if cid in report.verdict}}),
    ]
    assert report.verdict == ["F4", "F5"]
    for argv, expected in cases:
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, argv
        assert list(leaves(json.loads(out))) == list(leaves(expected)), argv


def test_unknown_class_same_message_from_flag_and_json(tmp_path, capsys):
    # ClassParams is the one check for --class and for classify's "class"
    path = tmp_path / "f7.json"
    path.write_text('{"class": "f7"}', encoding="utf-8")
    errors = set()
    for argv in (("construct", "--class", "f7"), ("exp", "--class", "f7"), ("classify", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        errors.add(err)
    (err,) = errors
    assert err.startswith("error: unknown class id 'F7'") and "F11" in err


def test_every_json_output_is_strict_json(tmp_path, capsys):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    path = tmp_path / "f11.json"
    path.write_text('{"class": "f11", "alpha": 0.3, "beta": -1.7}', encoding="utf-8")
    classes = [cid.lower() for cid in CLASS_IDS]
    commands = [
        ("construct", "--class", cid, "--alpha", alpha, "--beta", "-0.5")
        for cid in classes for alpha in ("1.5", "1e307")
    ] + [("construct", "--class", "f0")]
    commands += [
        ("exp", "--class", cid, "--alpha", "0.7", "--beta", "1.3", "--coords", "1,-2,0.5", "--oracle")
        for cid in classes
    ]
    commands += [("table",), ("classify", str(path))]
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, argv
        json.loads(out, parse_constant=refuse)


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
