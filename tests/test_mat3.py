import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paralie import mat3
from paralie.mat3 import ORACLE_MAX_NORM, expm_oracle, max_abs, trace, trace_sq
from reference import Annihilator, annihilator


def small_matrices(limit):
    return st.lists(
        st.floats(-limit, limit, allow_nan=False, allow_infinity=False),
        min_size=9,
        max_size=9,
    ).map(lambda v: np.array(v).reshape(3, 3))


def test_trace_and_trace_sq():
    assert trace(np.eye(3)) == 3.0
    # F1 representation matrix with alpha=1, beta=-1, b=c=1 has trace 2
    a = np.array([[0, 0, 0], [0, 1, -1], [0, -1, 1]], dtype=float)
    assert trace(a) == 2.0
    # rotation-type block: tr(A^2) = -2
    r = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    assert trace_sq(r) == -2.0
    assert trace_sq(a) == pytest.approx(trace(a @ a), abs=0)


def test_trace_sq_sums_in_the_order_of_np_sum():
    # Python floats in numpy's pairwise order for nine terms give np.sum's
    # bytes, NaN included, over 300 decades either way, with zeros and
    # infinite and NaN entries
    rng = np.random.default_rng(79)
    n = 12000
    m = rng.choice([-1.0, 1.0], (n, 3, 3)) * 10.0 ** rng.uniform(-300, 300, (n, 3, 3))
    m[:n // 2] = rng.normal(size=(n // 2, 3, 3))  # here the order decides the rounding
    m[rng.random((n, 3, 3)) < 0.1] = 0.0
    for value, share in ((math.inf, 0.005), (-math.inf, 0.005), (math.nan, 0.005)):
        m[rng.random((n, 3, 3)) < share] = value
    with np.errstate(over="ignore", invalid="ignore"):
        expected = [np.float64(np.sum(a * a.T)).tobytes() for a in m]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [np.float64(trace_sq(a)).tobytes() for a in m]
    assert got == expected
    # every kind of value is met
    kinds = {"nan" if math.isnan(x) else "inf" if math.isinf(x) else "finite"
             for x in np.frombuffer(b"".join(got))}
    assert kinds == {"nan", "inf", "finite"}


def test_expm_oracle_zero():
    assert np.array_equal(expm_oracle(np.zeros((3, 3)), 1e-15), np.eye(3))


def test_expm_oracle_hyperbolic_block():
    a = np.array([[0, 0, 0], [0, 0, -1], [0, -1, 0]], dtype=float)
    expected = np.array(
        [
            [1, 0, 0],
            [0, math.cosh(1), -math.sinh(1)],
            [0, -math.sinh(1), math.cosh(1)],
        ]
    )
    assert max_abs(expm_oracle(a) - expected) < 1e-15


def test_expm_oracle_rotation_block():
    a = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    expected = np.array(
        [
            [1, 0, 0],
            [0, math.cos(1), -math.sin(1)],
            [0, math.sin(1), math.cos(1)],
        ]
    )
    assert max_abs(expm_oracle(a) - expected) < 1e-15


def test_expm_oracle_large_norm_rotation():
    # norm-50 input exercises the deep-squaring path; the image is a plane
    # rotation by 50 radians, so every entry is known in closed form
    a = np.array([[0, 0, 0], [0, 0, -50], [0, 50, 0]], dtype=float)
    expected = np.array(
        [
            [1, 0, 0],
            [0, math.cos(50), -math.sin(50)],
            [0, math.sin(50), math.cos(50)],
        ]
    )
    assert max_abs(expm_oracle(a, 1e-15) - expected) < 1e-13


def test_expm_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        expm_oracle(np.full((3, 3), np.nan))
    with pytest.raises(ValueError):
        expm_oracle(np.eye(3), tol=0.0)


def test_expm_oracle_rejects_nan_tol():
    # tol <= 0 is False for NaN, and the series would then never stop; an
    # infinite tol would stop it after one term
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive"):
            expm_oracle(np.eye(3), tol=tol)


def test_expm_oracle_refuses_norms_past_its_range():
    # a rotation of norm ORACLE_MAX_NORM is still refereed, to rounding of
    # its entries; one ulp past it, and far past it where the squarings
    # used to overflow into NaN, the refusal comes before any arithmetic
    rotation = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    x = ORACLE_MAX_NORM
    expected = np.array([[1, 0, 0], [0, math.cos(x), -math.sin(x)], [0, math.sin(x), math.cos(x)]])
    assert max_abs(expm_oracle(x * rotation) - expected) < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (math.nextafter(x, math.inf), 1e100, 1e300):
            with pytest.raises(ValueError, match="out of range"):
                expm_oracle(norm * rotation)


def test_expm_oracle_refuses_a_double_longdouble(monkeypatch):
    # where longdouble is a plain double the referee is no better than the
    # closed forms it checks
    monkeypatch.setattr(mat3, "_LONGDOUBLE_EPS", 2.0**-52)
    with pytest.raises(ValueError, match="extended-precision longdouble"):
        expm_oracle(np.eye(3))


@given(small_matrices(1.2))
@settings(max_examples=150)
def test_expm_inverse_identity(a):
    prod = expm_oracle(a) @ expm_oracle(-a)
    assert max_abs(prod - np.eye(3)) < 1e-12


@given(small_matrices(0.7))
@settings(max_examples=150)
def test_expm_determinant_law(a):
    lhs = np.linalg.det(expm_oracle(a))
    rhs = math.exp(trace(a))
    assert abs(lhs - rhs) < 1e-10 * rhs


@given(
    small_matrices(0.5),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
)
@settings(max_examples=100)
def test_expm_one_parameter_additivity(a, s, t):
    lhs = expm_oracle((s + t) * a)
    rhs = expm_oracle(s * a) @ expm_oracle(t * a)
    assert max_abs(lhs - rhs) < 1e-12


def test_annihilator_zero_matrix():
    assert annihilator(np.zeros((3, 3)), 1e-12) == Annihilator("quadratic", 0.0)


def test_annihilator_quadratic():
    # A^2 = 2A for this rank-one-plus-trace matrix; kappa equals the trace
    a = np.array([[0, 0, 0], [0, 1, -1], [0, -1, 1]], dtype=float)
    assert np.array_equal(a @ a, 2.0 * a)
    result = annihilator(a, 1e-12)
    assert result.kind == "quadratic"
    assert result.kappa == pytest.approx(2.0, abs=1e-13)


def test_annihilator_cubic():
    # rotation generator: A^3 = -A, kappa = tr(A^2)/2 = -1
    a = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    assert np.array_equal(a @ a @ a, -a)
    result = annihilator(a, 1e-12)
    assert result.kind == "cubic"
    assert result.kappa == pytest.approx(-1.0, abs=1e-13)


def test_annihilator_none_for_generic_matrix():
    a = np.array([[1, 1, 0], [0, 2, 1], [0, 0, 3]], dtype=float)
    assert annihilator(a, 1e-9) is None


@given(st.floats(-8, 8, allow_nan=False).filter(lambda x: abs(x) > 0.05))
@settings(max_examples=80)
def test_annihilator_scale_equivariance(c):
    a = np.array([[0, 0, 0], [0, 1, -1], [0, -1, 1]], dtype=float)
    base = annihilator(a, 1e-9)
    scaled = annihilator(c * a, 1e-9)
    assert base.kind == scaled.kind == "quadratic"
    assert scaled.kappa == pytest.approx(c * base.kappa, rel=1e-9, abs=1e-12)
