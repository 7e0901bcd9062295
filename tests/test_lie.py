import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paralie.lie import (
    adjoint_rep,
    class_algebra,
    constants_from_json,
    constants_to_json,
    jacobi_defect,
    structure_constants,
)
from paralie.mat3 import trace, trace_sq
from paralie.structure import CLASS_IDS, TWO_PARAMETER_CLASSES, ClassParams
from reference import annihilator, bracket

PARAM_GRID = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
COORDS = (-2.0, -1.0, 0.0, 1.0, 2.0)


def jacobi_brute(c):
    worst = 0.0
    for i, j, k, m in itertools.product(range(3), repeat=4):
        s = sum(
            c[i, j, l] * c[l, k, m]
            + c[j, k, l] * c[l, i, m]
            + c[k, i, l] * c[l, j, m]
            for l in range(3)
        )
        worst = max(worst, abs(s))
    return worst


def jacobi_einsum(c):
    """The three-contraction form of the cyclic sum, the reference."""
    cyclic = (
        np.einsum("ijl,lkm->ijkm", c, c)
        + np.einsum("jkl,lim->ijkm", c, c)
        + np.einsum("kil,ljm->ijkm", c, c)
    )
    return float(np.max(np.abs(cyclic)))


def representation_matrix(cid, alpha, beta, a, b, c):
    """Per-class matrix written out longhand, the fixture the code must hit."""
    al, bt = alpha, beta
    return {
        "F1": [[0, 0, 0], [0, al * c, bt * c], [0, -al * b, -bt * b]],
        "F4": [[0, al * c, al * b], [0, 0, -al * a], [0, -al * a, 0]],
        "F5": [[0, al * b, al * c], [0, -al * a, 0], [0, 0, -al * a]],
        "F8": [
            [0, -al * c, al * b],
            [2 * al * c, 0, -al * a],
            [-2 * al * b, al * a, 0],
        ],
        "F9": [[0, al * b, -al * c], [0, -al * a, 0], [0, 0, al * a]],
        "F10": [[0, al * c, -al * b], [0, 0, al * a], [0, -al * a, 0]],
        "F11": [[al * b + bt * c, 0, 0], [-al * a, 0, 0], [-bt * a, 0, 0]],
    }[cid]


# --- constructors ------------------------------------------------------------


def test_class_algebra_f1():
    c = class_algebra(ClassParams("F1", 1.0, -2.0))
    assert c[1, 2, 1] == 1.0
    assert c[1, 2, 2] == -2.0
    assert c[2, 1, 1] == -1.0
    assert c[2, 1, 2] == 2.0
    assert np.count_nonzero(c) == 4


def test_class_algebra_f11():
    c = class_algebra(ClassParams("F11", 1.0, 0.0))
    assert c[0, 1, 0] == 1.0
    assert c[1, 0, 0] == -1.0
    assert np.count_nonzero(c) == 2


def test_class_algebra_f0_abelian():
    assert np.array_equal(class_algebra(ClassParams("F0")), np.zeros((3, 3, 3)))


def test_class_params_store_python_floats():
    # a numpy float64 alpha would make 2 * alpha past double range warn
    p = ClassParams("F8", np.float64(1.5e308), np.float32(0.5))
    assert type(p.alpha) is float and type(p.beta) is float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = class_algebra(p)
    assert c[1, 2, 0] == math.inf
    assert c[0, 1, 2] == 1.5e308


def test_class_algebra_f5():
    c = class_algebra(ClassParams("F5", 1.0))
    assert c[0, 1, 1] == 1.0
    assert c[0, 2, 2] == 1.0


def test_antisymmetry_everywhere():
    for cid in CLASS_IDS:
        c = class_algebra(ClassParams(cid, 1.7, -0.3))
        assert np.array_equal(c, -c.transpose(1, 0, 2))


# --- Jacobi ------------------------------------------------------------------


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_jacobi_exact_zero_on_grid(cid):
    betas = PARAM_GRID if cid in TWO_PARAMETER_CLASSES else (0.0,)
    for alpha in PARAM_GRID:
        for beta in betas:
            assert jacobi_defect(class_algebra(ClassParams(cid, alpha, beta))) == 0.0


def test_jacobi_zero_constants():
    assert jacobi_defect(np.zeros((3, 3, 3))) == 0.0


def test_jacobi_detects_violation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[1, 0, 1] = 1.0, -1.0
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    assert jacobi_defect(c) > 0.0
    assert jacobi_defect(c) == pytest.approx(jacobi_brute(c), abs=0)


@given(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=27, max_size=27).map(
        lambda v: np.array(v).reshape(3, 3, 3)
    )
)
@settings(max_examples=60)
def test_jacobi_matches_brute_force(raw):
    c = raw - raw.transpose(1, 0, 2)
    assert jacobi_defect(c) == pytest.approx(jacobi_brute(c), abs=1e-12)


def test_jacobi_matches_einsum_reference():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        raw = rng.normal(size=(3, 3, 3)) * 10.0 ** rng.uniform(-100, 100)
        c = raw - raw.transpose(1, 0, 2)
        scale = np.max(np.abs(c)) ** 2
        assert abs(jacobi_defect(c) - jacobi_einsum(c)) <= 1e-15 * scale


@pytest.mark.parametrize("s", [1e160, 1e200])
def test_jacobi_defect_beyond_double_range(s):
    # the products overflow: the defect of a non-Lie sum is inf, never NaN,
    # and a genuine algebra at the same scale still has defect exactly 0
    non_lie = class_algebra(ClassParams("F1", s)) + class_algebra(ClassParams("F11", s, s))
    assert jacobi_defect(non_lie) == math.inf
    assert jacobi_defect(class_algebra(ClassParams("F8", s))) == 0.0


# --- bracket -----------------------------------------------------------------


@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3))
@settings(max_examples=60)
def test_bracket_of_vector_with_itself(x):
    c = class_algebra(ClassParams("F8", 1.5))
    assert np.array_equal(bracket(c, np.array(x), np.array(x)), np.zeros(3))


def test_bracket_f1():
    c = class_algebra(ClassParams("F1", 1.0, 0.0))
    e1, e2 = np.eye(3)[1], np.eye(3)[2]
    assert np.array_equal(bracket(c, e1, e2), np.array([0.0, 1.0, 0.0]))


def test_bracket_f8():
    c = class_algebra(ClassParams("F8", 1.0))
    e0, e1, e2 = np.eye(3)
    assert np.array_equal(bracket(c, e1, e2), 2.0 * e0)


# --- representation matrices -------------------------------------------------


def test_adjoint_rep_f1_example():
    c = class_algebra(ClassParams("F1", 1.0, -1.0))
    a = adjoint_rep(c, 0.0, 1.0, 1.0)
    assert np.array_equal(a, np.array([[0, 0, 0], [0, 1, -1], [0, -1, 1]], dtype=float))


def test_adjoint_rep_f8_example():
    c = class_algebra(ClassParams("F8", 1.0))
    a = adjoint_rep(c, 1.0, 0.0, 0.0)
    assert np.array_equal(a, np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float))


def test_adjoint_rep_zero_coordinates():
    for cid in CLASS_IDS:
        c = class_algebra(ClassParams(cid, 1.0, 1.0))
        assert np.array_equal(adjoint_rep(c, 0.0, 0.0, 0.0), np.zeros((3, 3)))


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_adjoint_rep_matches_symbolic_matrix(cid):
    for alpha, beta in ((1.0, 1.0), (-2.0, 0.5), (0.5, -1.0)):
        c = class_algebra(ClassParams(cid, alpha, beta))
        for a, b, co in itertools.product((-1.0, 0.0, 2.0), repeat=3):
            expected = np.array(
                representation_matrix(cid, alpha, beta, a, b, co), dtype=float
            )
            assert np.array_equal(adjoint_rep(c, a, b, co), expected), (cid, a, b, co)


@given(
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
)
@settings(max_examples=60)
def test_adjoint_rep_linear_in_coordinates(a, b, co, s):
    c = class_algebra(ClassParams("F9", 1.25))
    lhs = adjoint_rep(c, s * a, s * b, s * co)
    rhs = s * adjoint_rep(c, a, b, co)
    assert np.allclose(lhs, rhs, atol=1e-12)


# --- annihilating identities ---------------------------------------------------


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_annihilator_kind_and_kappa(cid):
    trace_factor = {"F1": 1.0, "F5": 0.5, "F11": 1.0}
    for alpha, beta in ((1.0, -1.5), (-0.5, 2.0)):
        c = class_algebra(ClassParams(cid, alpha, beta))
        for a, b, co in ((1.0, 1.0, 1.0), (2.0, -1.0, 0.5), (0.5, 0.0, -2.0)):
            m = adjoint_rep(c, a, b, co)
            result = annihilator(m, 1e-9)
            if cid in trace_factor:
                assert result.kind == "quadratic"
                assert result.kappa == pytest.approx(
                    trace_factor[cid] * trace(m), abs=1e-9
                )
            else:
                assert result.kind == "cubic"
                assert result.kappa == pytest.approx(0.5 * trace_sq(m), abs=1e-9)


# --- JSON --------------------------------------------------------------------


def test_constants_json_round_trip():
    c = class_algebra(ClassParams("F8", -1.5))
    assert np.array_equal(constants_from_json(constants_to_json(c)), c)


def test_constants_from_class_json():
    c = constants_from_json({"class": "f10", "alpha": 2.0})
    assert np.array_equal(c, class_algebra(ClassParams("F10", 2.0)))


def test_constants_json_rejects_garbage():
    with pytest.raises(ValueError):
        constants_from_json({"D": []})
    with pytest.raises(ValueError):
        structure_constants(np.ones((3, 3, 3)))  # not antisymmetric
