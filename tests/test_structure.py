import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paralie.cli import main
from paralie.structure import (
    CLASS_IDS,
    TWO_PARAMETER_CLASSES,
    ClassParams,
    check_structure,
    standard_structure,
)
from reference import _BASIS, _NORM_SQ, class_pattern, lee_forms

PARAM_GRID = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def tensors(limit=3.0):
    return st.lists(
        st.floats(-limit, limit, allow_nan=False, allow_infinity=False),
        min_size=27,
        max_size=27,
    ).map(lambda v: np.array(v).reshape(3, 3, 3))


# --- structure identities ----------------------------------------------------


def test_standard_structure_frame():
    s = standard_structure()
    assert s.phi[2][1] == 1.0  # e1 maps to e2
    assert s.phi[1][2] == 1.0
    assert np.trace(s.phi) == 0.0
    assert np.array_equal(s.phi @ s.phi, np.diag([0.0, 1.0, 1.0]))
    assert np.array_equal(s.g, np.eye(3))


def test_standard_structure_passes_all_checks():
    residuals = check_structure(standard_structure())
    assert set(residuals) == {
        "phi_squared",
        "eta_of_xi",
        "eta_circ_phi",
        "phi_of_xi",
        "trace_phi",
        "metric_compat",
    }
    assert all(v == 0.0 for v in residuals.values())


def test_check_structure_flags_traceful_phi():
    s = standard_structure()
    bad = type(s)(phi=np.eye(3), xi=s.xi, eta=s.eta, g=s.g)
    assert check_structure(bad)["trace_phi"] == 3.0


def test_check_structure_flags_incompatible_metric():
    s = standard_structure()
    bad = type(s)(phi=s.phi, xi=s.xi, eta=s.eta, g=np.diag([1.0, 2.0, 1.0]))
    assert check_structure(bad)["metric_compat"] == 1.0


# --- Lee forms ---------------------------------------------------------------


def test_lee_forms_zero():
    lee = lee_forms(np.zeros((3, 3, 3)))
    assert np.array_equal(lee.theta, np.zeros(3))
    assert np.array_equal(lee.theta_star, np.zeros(3))
    assert np.array_equal(lee.omega, np.zeros(3))


def test_lee_forms_theta_star_contraction():
    f = np.zeros((3, 3, 3))
    f[1, 2, 0] = 1.0
    f[2, 1, 0] = 1.0
    lee = lee_forms(f)
    assert lee.theta_star[0] == 2.0
    assert np.array_equal(lee.theta, np.zeros(3))
    assert np.array_equal(lee.omega, np.zeros(3))


def test_lee_forms_omega_component():
    f = np.zeros((3, 3, 3))
    f[0, 0, 2] = 1.0
    lee = lee_forms(f)
    assert lee.omega[2] == 1.0
    assert lee.omega[0] == 0.0


@given(tensors(), tensors())
@settings(max_examples=60)
def test_lee_forms_linear(f, g):
    combined = lee_forms(f + g)
    lf, lg = lee_forms(f), lee_forms(g)
    assert np.allclose(combined.theta, lf.theta + lg.theta, atol=1e-12)
    assert np.allclose(combined.theta_star, lf.theta_star + lg.theta_star, atol=1e-12)
    assert np.allclose(combined.omega, lf.omega + lg.omega, atol=1e-12)


def test_lee_forms_match_docstring_formulas():
    rng = np.random.default_rng(11)
    for _ in range(200):
        f = rng.normal(size=(3, 3, 3)) * 10.0 ** rng.uniform(-10, 10)
        lee = lee_forms(f)
        assert np.array_equal(lee.theta, [f[1, 1, 0] + f[2, 2, 0], f[1, 1, 1], f[2, 2, 2]])
        assert np.array_equal(lee.theta_star, [f[1, 2, 0] + f[2, 1, 0], -f[2, 2, 2], -f[1, 1, 1]])
        assert np.array_equal(lee.omega, [0.0, f[0, 0, 1], f[0, 0, 2]])
        for form in (lee.theta, lee.theta_star, lee.omega):
            assert not np.signbit(form[form == 0.0]).any()  # no negative zeros


def test_lee_forms_of_f4_pattern():
    for alpha in PARAM_GRID:
        lee = lee_forms(class_pattern(ClassParams("F4", alpha)))
        assert lee.theta[0] == 2.0 * alpha
        assert lee.theta[1] == lee.theta[2] == 0.0
        assert np.array_equal(lee.theta_star, np.zeros(3))
        assert np.array_equal(lee.omega, np.zeros(3))


# --- class patterns ----------------------------------------------------------


def test_pattern_f0_is_zero():
    assert np.array_equal(class_pattern(ClassParams("F0")), np.zeros((3, 3, 3)))


def test_pattern_f10_support():
    f = class_pattern(ClassParams("F10", 1.0))
    expected = np.zeros((3, 3, 3))
    expected[0, 1, 1] = 2.0
    expected[0, 2, 2] = -2.0
    assert np.array_equal(f, expected)


def test_pattern_f5_support():
    f = class_pattern(ClassParams("F5", 1.0))
    expected = np.zeros((3, 3, 3))
    for idx in ((1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        expected[idx] = 1.0
    assert np.array_equal(f, expected)


def test_pattern_f1_components():
    f = class_pattern(ClassParams("F1", 1.0, 2.0))
    assert f[1, 1, 1] == 2.0  # theta_1 = 2 alpha
    assert f[1, 2, 2] == -2.0
    assert f[2, 1, 1] == 4.0  # -theta_2 = 2 beta
    assert f[2, 2, 2] == -4.0
    assert np.count_nonzero(f) == 4


def test_f0_params_must_vanish():
    with pytest.raises(ValueError):
        ClassParams("F0", alpha=1.0)
    with pytest.raises(ValueError):
        ClassParams("F3")


# --- matching a tensor to the classes -----------------------------------------
#
# classify_manifold recovers the parameters by projecting F onto the 14 rows
# of _BASIS, a step that levicivita._fused_map folds into its (23, 9) map.


def project(f):
    """(alpha, beta) of every class: f's projection onto _BASIS."""
    coef = (_BASIS @ np.reshape(f, 27) / _NORM_SQ).tolist()
    return dict(zip(CLASS_IDS, zip(coef[::2], coef[1::2])))


def test_match_zero_tensor():
    assert set(project(np.zeros((3, 3, 3))).values()) == {(0.0, 0.0)}


def test_match_round_trip_single_class():
    params = project(class_pattern(ClassParams("F8", 1.5)))
    assert params.pop("F8") == (1.5, 0.0)
    assert set(params.values()) == {(0.0, 0.0)}


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_match_round_trip_grid(cid):
    # on these short dyadic values every product and sum is exact, in any order
    betas = PARAM_GRID if cid in TWO_PARAMETER_CLASSES else (0.0,)
    for alpha in PARAM_GRID:
        for beta in betas:
            params = project(class_pattern(ClassParams(cid, alpha, beta)))
            assert params.pop(cid) == (alpha, beta)
            assert set(params.values()) == {(0.0, 0.0)}


@pytest.mark.parametrize(
    "first,second", list(itertools.combinations(CLASS_IDS, 2))
)
def test_match_decomposes_two_class_sums(first, second):
    pa = ClassParams(first, 0.75, -1.25 if first in TWO_PARAMETER_CLASSES else 0.0)
    pb = ClassParams(second, -0.5, 2.0 if second in TWO_PARAMETER_CLASSES else 0.0)
    params = project(class_pattern(pa) + class_pattern(pb))
    assert params.pop(first) == (pa.alpha, pa.beta)
    assert params.pop(second) == (pb.alpha, pb.beta)
    assert set(params.values()) == {(0.0, 0.0)}


def test_basis_orthogonal_and_all_seven_recovered():
    # the 14 (class, parameter) unit patterns; one-parameter classes have a zero beta row
    gram = _BASIS @ _BASIS.T
    assert np.array_equal(np.diag(gram), [8, 8, 4, 0, 4, 0, 4, 0, 4, 0, 8, 0, 2, 2])
    assert np.array_equal(gram - np.diag(np.diag(gram)), np.zeros((14, 14)))

    rng = np.random.default_rng(7)
    values = rng.permutation(np.linspace(0.25, 2.0, 14)) * rng.choice((-1.0, 1.0), 14)
    truth = {
        cid: (values[2 * n], values[2 * n + 1] if cid in TWO_PARAMETER_CLASSES else 0.0)
        for n, cid in enumerate(CLASS_IDS)
    }
    f = sum(class_pattern(ClassParams(cid, *ab)) for cid, ab in truth.items())
    scale = np.max(np.abs(f))
    params = project(f)
    for cid, ab in truth.items():
        assert params[cid] == pytest.approx(ab, rel=0, abs=1e-15 * scale), cid


@given(
    st.sampled_from(CLASS_IDS),
    st.floats(-2, 2, allow_nan=False).filter(lambda x: abs(x) > 1e-3),
    st.floats(-2, 2, allow_nan=False).filter(lambda x: abs(x) > 1e-3),
)
@settings(max_examples=120)
def test_match_round_trip_random_params(cid, alpha, beta):
    p = ClassParams(cid, alpha, beta if cid in TWO_PARAMETER_CLASSES else 0.0)
    assert project(class_pattern(p))[cid] == pytest.approx((p.alpha, p.beta), abs=1e-12)


# --- JSON, read by the command line ------------------------------------------


def test_class_params_json_round_trip(tmp_path, capsys):
    path = tmp_path / "params.json"
    for obj, (cid, alpha, beta) in [
        ({"class": "F11", "alpha": 1.5, "beta": -2.5}, ("F11", 1.5, -2.5)),
        ({"class": "f8", "alpha": 1.0}, ("F8", 1.0, 0.0)),
    ]:
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["classify", str(path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["verdict"], report["alpha"], report["beta"]) == ([cid], alpha, beta)
    path.write_text(json.dumps({"class": "f7", "alpha": 1.0}), encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    assert "unknown class id 'F7'" in capsys.readouterr().err
