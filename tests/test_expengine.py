import itertools
import math
import warnings

import numpy as np
import pytest

from paralie.expengine import (
    closed_form,
    exp_result_to_json,
    para_sasakian_group,
)
from paralie.mat3 import expm_oracle, max_abs, trace
from paralie.structure import CLASS_IDS, ClassParams
from reference import annihilator

QUADRATIC = ("F1", "F5", "F11")
CUBIC = ("F4", "F8", "F9", "F10")


def oracle_residual(p, a, b, c):
    res = closed_form(p, a, b, c)
    return max_abs(res.expA - expm_oracle(res.A))


# --- worked instances ----------------------------------------------------------


def test_f1_nilpotent_branch():
    res = closed_form(ClassParams("F1", 1.0, 1.0), 0.0, 1.0, 1.0)
    assert trace(res.A) == 0.0
    assert res.branch == "trace_zero"
    assert res.t == 1.0 and res.u == 0.0
    expected = np.array([[1, 0, 0], [0, 2, 1], [0, -1, 0]], dtype=float)
    assert np.array_equal(res.expA, expected)


def test_f8_rotation():
    res = closed_form(ClassParams("F8", 1.0), 1.0, 0.0, 0.0)
    assert res.branch == "generic"
    assert res.t == pytest.approx(math.sin(1.0), abs=1e-15)
    assert res.u == pytest.approx(1.0 - math.cos(1.0), abs=1e-15)
    expected = np.array(
        [[1, 0, 0], [0, math.cos(1), -math.sin(1)], [0, math.sin(1), math.cos(1)]]
    )
    assert max_abs(res.expA - expected) < 1e-15


def test_f4_boost():
    res = closed_form(ClassParams("F4", 1.0), 1.0, 0.0, 0.0)
    assert res.t == pytest.approx(math.sinh(1.0), abs=1e-15)
    assert res.u == pytest.approx(math.cosh(1.0) - 1.0, abs=1e-15)
    expected = np.array(
        [
            [1, 0, 0],
            [0, math.cosh(1), -math.sinh(1)],
            [0, -math.sinh(1), math.cosh(1)],
        ]
    )
    assert max_abs(res.expA - expected) < 1e-15


def test_f10_is_trigonometric():
    # tr(A^2) < 0 for the non-Abelian F10 family, so sin/cos apply
    res = closed_form(ClassParams("F10", 1.0), 1.0, 0.0, 0.0)
    assert res.t == pytest.approx(math.sin(1.0), abs=1e-15)
    assert oracle_residual(ClassParams("F10", 1.0), 1.0, 0.0, 0.0) < 1e-13


def test_expA_is_identity_plus_t_a_plus_u_a2():
    p = ClassParams("F9", -1.5)
    res = closed_form(p, 1.0, 2.0, -0.5)
    recon = np.eye(3) + res.t * res.A + res.u * (res.A @ res.A)
    assert np.array_equal(res.expA, recon)


# --- branch selection ----------------------------------------------------------


def test_branch_zero_matrix_for_f8():
    res = closed_form(ClassParams("F8", 1.0), 0.0, 0.0, 0.0)
    assert res.branch == "zero_matrix"
    assert np.array_equal(res.expA, np.eye(3))


def test_branch_tra2_zero_for_cubic_classes():
    for cid in ("F4", "F9", "F10"):
        res = closed_form(ClassParams(cid, 1.0), 0.0, 1.0, 2.0)
        assert res.branch == "trA2_zero"
        # 2-step nilpotent: the series stops at E + A
        assert np.array_equal(res.A @ res.A, np.zeros((3, 3)))
        assert np.array_equal(res.expA, np.eye(3) + res.A)


def test_branch_trace_zero_for_quadratic_classes():
    res = closed_form(ClassParams("F5", 1.0), 0.0, 1.0, 1.0)
    assert res.branch == "trace_zero"
    assert np.array_equal(res.A @ res.A, np.zeros((3, 3)))
    res = closed_form(ClassParams("F11", 1.0, 1.0), 1.0, 0.5, -0.5)
    assert res.branch == "trace_zero"


@pytest.mark.parametrize(
    "p,coords",
    [
        (ClassParams("F8", 1.0), (1e-170, 0.0, 0.0)),
        (ClassParams("F4", 1.0), (1e-170, 1.0, 1.0)),
    ],
    ids=["F8", "F4"],
)
def test_exact_zero_labels_read_on_a_not_on_underflowed_trace(p, coords):
    # tr A^2 underflows to 0 while the a*E0 part of A is not zero: the label
    # says generic, and the values are those of the removable singularity
    res = closed_form(p, *coords)
    assert res.A[1:, 1:].any() and res.branch == "generic"
    assert (res.t, res.u) == (1.0, 0.5)
    assert np.array_equal(res.expA, np.eye(3) + res.A + 0.5 * (res.A @ res.A))


def test_rejects_f0_and_non_finite():
    with pytest.raises(ValueError):
        closed_form(ClassParams("F0"), 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        closed_form(ClassParams("F4", 1.0), math.nan, 0.0, 0.0)


def test_rejects_overflowing_parameters():
    # the group element leaves double range; surfaced, never returned as NaN
    cases = [
        (ClassParams("F5", 1e300), (1.0, 0.0, 0.0)),
        (ClassParams("F4", 1.0), (1e6, 0.0, 0.0)),
        # math.sinh/expm1 overflow inside the scalar coefficients
        (ClassParams("F4", 1.0, 1.0), (800.0, 0.0, 0.0)),
        (ClassParams("F9", 1.0, 1.0), (800.0, 0.0, 0.0)),
        (ClassParams("F11", 1.0, 1.0), (0.0, 800.0, 0.0)),
    ]
    for p, coords in cases:
        with pytest.raises(ValueError, match="overflows double precision"):
            closed_form(p, *coords)


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_overflow_raises_without_warning(cid):
    # tr A^2 (or tr A) itself overflows: the documented ValueError, no
    # numpy RuntimeWarning and no math domain error
    for alpha, coords in ((1.0, (1e200,) * 3), (1e200, (1e200,) * 3), (1.0, (-1e308,) * 3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows double precision"):
                closed_form(ClassParams(cid, alpha, alpha), *coords)


# --- oracle agreement ------------------------------------------------------------


def test_verify_examples():
    assert oracle_residual(ClassParams("F9", 1.0), 1.0, 1.0, 1.0) <= 1e-12
    assert oracle_residual(ClassParams("F11", 1.0, 1.0), 1.0, 1.0, 1.0) <= 1e-12
    for cid in CLASS_IDS:
        assert oracle_residual(ClassParams(cid, 1.0, 1.0), 0.0, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_oracle_agreement_spot_grid(cid):
    for alpha, beta in ((1.0, 1.0), (-2.0, 0.5), (0.5, -2.0)):
        p = ClassParams(cid, alpha, beta)
        for a, b, c in itertools.product((-2.0, 0.0, 1.0), repeat=3):
            assert oracle_residual(p, a, b, c) <= 1e-11, (cid, alpha, beta, a, b, c)


# --- para-Sasakian group ----------------------------------------------------------


def test_para_sasakian_group_identity():
    res = para_sasakian_group(0.0, 0.0, 0.0)
    assert np.array_equal(res.expA, np.eye(3))


def test_para_sasakian_group_nilpotent():
    res = para_sasakian_group(0.0, 1.0, 2.0)
    assert res.branch == "trA2_zero"
    assert np.array_equal(res.expA, np.eye(3) + res.A)
    assert np.array_equal(res.A, np.array([[0, -2, -1], [0, 0, 0], [0, 0, 0]], dtype=float))


def test_para_sasakian_group_boost():
    res = para_sasakian_group(1.0, 0.0, 0.0)
    expected = np.array(
        [[1, 0, 0], [0, math.cosh(1), math.sinh(1)], [0, math.sinh(1), math.cosh(1)]]
    )
    assert max_abs(res.expA - expected) < 1e-15


def test_para_sasakian_group_coefficients():
    # u carries the 1/a^2 denominator; the two coefficients match the
    # hyperbolic forms at |a|
    for a in (0.5, 1.0, -2.0):
        res = para_sasakian_group(a, 1.0, -1.0)
        assert res.t == pytest.approx(math.sinh(abs(a)) / abs(a), rel=1e-15)
        assert res.u == pytest.approx((math.cosh(abs(a)) - 1.0) / a ** 2, rel=1e-15)


def test_para_sasakian_group_matches_oracle():
    for a, b, c in itertools.product((-2.0, -0.5, 0.0, 1.0, 2.0), repeat=3):
        res = para_sasakian_group(a, b, c)
        assert max_abs(res.expA - expm_oracle(res.A, 1e-15)) <= 1e-11


# --- group laws -------------------------------------------------------------------


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_one_parameter_subgroup(cid):
    p = ClassParams(cid, 1.0, -0.5)
    for a, b, c in ((1.0, 0.5, -1.0), (0.0, 2.0, 1.0)):
        for s, t in ((1.0, 1.0), (-2.0, 0.5), (0.5, -1.0)):
            lhs = closed_form(p, (s + t) * a, (s + t) * b, (s + t) * c).expA
            rhs = closed_form(p, s * a, s * b, s * c).expA @ closed_form(
                p, t * a, t * b, t * c
            ).expA
            assert max_abs(lhs - rhs) <= 1e-11


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_inverse_on_rays(cid):
    p = ClassParams(cid, -1.5, 0.5)
    for a, b, c in ((1.0, 1.0, 1.0), (2.0, -1.0, 0.5)):
        prod = closed_form(p, a, b, c).expA @ closed_form(p, -a, -b, -c).expA
        assert max_abs(prod - np.eye(3)) <= 1e-11


def test_determinant_positive():
    for cid in CLASS_IDS:
        p = ClassParams(cid, 2.0, -2.0)
        for a, b, c in itertools.product((-2.0, 0.0, 2.0), repeat=3):
            res = closed_form(p, a, b, c)
            det = np.linalg.det(res.expA)
            assert det > 0.0
            assert det == pytest.approx(math.exp(trace(res.A)), rel=1e-10)


# --- branch seams -----------------------------------------------------------------


def seam_instances():
    eps = 1e-8
    # quadratic classes pinned at |tr A| = 1e-8
    yield ClassParams("F1", 1.0, 1.0), (0.0, 1.0, 1.0 + eps)  # trA = alpha*c - beta*b
    yield ClassParams("F5", 1.0), (-eps / 2.0, 1.0, 1.0)  # trA = -2*alpha*a
    yield ClassParams("F11", 1.0, 1.0), (1.0, eps, 0.0)  # trA = alpha*b + beta*c
    # cubic classes pinned at |tr A^2| = 1e-8 on their pure mode
    r = math.sqrt(eps / 2.0)
    yield ClassParams("F4", 1.0), (r, 0.0, 0.0)
    yield ClassParams("F9", 1.0), (r, 0.0, 0.0)
    yield ClassParams("F10", 1.0), (r, 0.0, 0.0)


@pytest.mark.parametrize("p,coords", list(seam_instances()))
def test_branch_seam_continuity(p, coords):
    res = closed_form(p, *coords)
    assert res.branch == "generic"
    degenerate = np.eye(3) + res.A
    assert max_abs(res.expA - degenerate) <= 1e-7
    # and the generic value still matches the true exponential tightly
    assert max_abs(res.expA - expm_oracle(res.A, 1e-15)) <= 1e-12


# --- cross-check via annihilating identities ----------------------------------------


def _exp_from_annihilator(a):
    """Reconstruct e^A from its annihilating identity alone, no class label."""
    ann = annihilator(a, 1e-9)
    assert ann is not None
    k = ann.kappa
    if ann.kind == "quadratic":
        t = math.expm1(k) / k if abs(k) > 1e-12 else 1.0
        return np.eye(3) + t * a
    if abs(k) <= 1e-12:
        return np.eye(3) + a
    if k > 0:
        r = math.sqrt(k)
        t, u = math.sinh(r) / r, (math.cosh(r) - 1.0) / k
    else:
        th = math.sqrt(-k)
        t, u = math.sin(th) / th, (1.0 - math.cos(th)) / (th * th)
    return np.eye(3) + t * a + u * (a @ a)


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_closed_form_agrees_with_annihilator_reconstruction(cid):
    p = ClassParams(cid, 1.5, -0.75)
    for a, b, c in ((1.0, 1.0, 1.0), (-1.0, 2.0, 0.5), (0.5, 0.0, -2.0)):
        res = closed_form(p, a, b, c)
        recon = _exp_from_annihilator(res.A)
        assert max_abs(res.expA - recon) <= 1e-12


# --- JSON ------------------------------------------------------------------------


def test_exp_result_json_shape():
    res = closed_form(ClassParams("F8", 1.0), 1.0, 0.0, 0.0)
    obj = exp_result_to_json(res)
    assert set(obj) == {"A", "t", "u", "branch", "expA"}
