import ast
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from paralie import expengine
from paralie.cli import main
from paralie.expengine import _EXP_SOURCE, closed_form, para_sasakian_group
from paralie.lie import adjoint_rep, class_algebra
from paralie.mat3 import expm_oracle, max_abs, trace, trace_sq
from paralie.structure import CLASS_IDS, ClassParams
from reference import _adjoint_entries, annihilator, kernel, planned_entries

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
        (ClassParams("F5", 1e300), (-1.0, 0.0, 0.0)),
        (ClassParams("F4", 1.0), (1e6, 0.0, 0.0)),
        # math.sinh/expm1 overflow inside the scalar coefficients
        (ClassParams("F4", 1.0, 1.0), (800.0, 0.0, 0.0)),
        (ClassParams("F9", 1.0, 1.0), (800.0, 0.0, 0.0)),
        (ClassParams("F11", 1.0, 1.0), (0.0, 800.0, 0.0)),
    ]
    for p, coords in cases:
        with pytest.raises(ValueError, match="overflows double precision"):
            closed_form(p, *coords)


# (alpha = beta, coords) where exp(A) leaves double range; F1 and F5 take
# other coordinates at alpha = 1, where these give a finite exp(A)
# (test_quadratic_classes_return_finite_exponentials_past_a_squared)
GROWING = ((1.0, (1e200,) * 3), (1e200, (1e200,) * 3), (1.0, (-1e308,) * 3))
GROWING_QUADRATIC = {
    "F1": ((1.0, (0.0, -1e200, 1e200)), GROWING[1], (1.0, (0.0, -1e308, 1e308))),
    "F5": ((1.0, (-1e200,) * 3), GROWING[1], GROWING[2]),
}


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_overflow_raises_without_warning(cid):
    # tr A^2 (or tr A) itself overflows, or exp(A) does: the documented
    # ValueError, no numpy RuntimeWarning and no math domain error
    for alpha, coords in GROWING_QUADRATIC.get(cid, GROWING):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows double precision") as info:
                closed_form(ClassParams(cid, alpha, alpha), *coords)
            # raised after the except, so no OverflowError and its frames ride along
            assert info.value.__context__ is None and info.value.__cause__ is None


@pytest.mark.parametrize("cid, coords", [
    ("F4", (2.0, 0.0, 1e308)),
    ("F10", (2.0, 0.0, 1e308)),
    ("F9", (2.0, 1e308, 0.0)),
    ("F5", (-2.0, 1e308, 0.0)),
])
def test_overflow_only_an_entry_of_the_exponential_reaches(cid, coords):
    # A, its traces and so t and u are finite (tr A^2 = 8 or tr A = 4), but
    # t * A[0][1] = t * 1e308 with t > 1 is past double range: only the
    # finiteness check on the entries of exp(A) can catch it
    p = ClassParams(cid, 1.0)
    a = adjoint_rep(class_algebra(p), *coords)
    assert np.all(np.isfinite(a)) and abs(a[0, 1]) == 1e308
    assert math.isfinite(trace(a)) and math.isfinite(trace_sq(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows double precision") as info:
            closed_form(p, *coords)
    assert info.value.__context__ is None and info.value.__cause__ is None


@pytest.mark.parametrize(
    "p,coords,expected",
    [
        (ClassParams("F5", 1.0), (1e160, 0.0, 0.0), [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        (ClassParams("F5", 1.0, 1.0), (1e200,) * 3, [[1, 1, 1], [0, 0, 0], [0, 0, 0]]),
        (ClassParams("F1", 1.0, 1.0), (0.0, 1e200, 1e200),
         [[1, 0, 0], [0, 1e200, 1e200], [0, -1e200, -1e200]]),
        (ClassParams("F1", 1.0, 1.0), (1e200,) * 3,
         [[1, 0, 0], [0, 1e200, 1e200], [0, -1e200, -1e200]]),
        (ClassParams("F1", 1.0, 1.0), (-1e308,) * 3,
         [[1, 0, 0], [0, -1e308, -1e308], [0, 1e308, 1e308]]),
        (ClassParams("F11", 1.0), (0.0, -1e200, 0.0), [[0, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ],
    ids=["F5", "F5-1e200", "F1", "F1-1e200", "F1-1e308", "F11"],
)
def test_quadratic_classes_return_finite_exponentials_past_a_squared(p, coords, expected):
    # max|A| >= 1e160, so A @ A overflows, but exp(A) = E + t*A does not:
    # at a large negative k, t = -1/k scales A back into range, and F1's
    # tr A = 0 gives E + A
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = closed_form(p, *coords)
    assert max_abs(res.A) >= 1e160 and res.u == 0.0
    assert np.array_equal(res.expA, np.array(expected, dtype=float))


def f8_with_guarded_square(alpha, coords):
    """F8's (A, t, u, expA) with A @ A formed up front under np.errstate, as
    closed_form formed it before it waited for a finite tr A^2; None where
    that overflows.  F8's z = tr(A^2)/2 is never positive, so f = sin."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = adjoint_rep(class_algebra(ClassParams("F8", alpha)), *coords)
        sq = A @ A
        z = 0.5 * trace_sq(A)
        if not math.isfinite(z):
            return None
        if z == 0.0:
            t, u = 1.0, 0.5
        else:
            r = math.sqrt(-z)
            fh = math.sin(0.5 * r) / (0.5 * r)
            t, u = math.sin(r) / r, 0.5 * fh * fh
        expA = np.eye(3) + t * A + u * sq
    return (A, t, u, expA) if np.isfinite(expA).all() else None


# At alpha = 1, F8's exponential is finite at the first two and past double
# range at the third
F8_NAMED = [(1.0, (1e153, 0.0, 0.0)), (1.0, (3e153, 1e153, -2e153)), (1.0, (1e155, 0.0, 0.0))]
# F8 where tr A^2 crosses double range: max|A| from 2**500 to 2**530 along
# each direction and for |alpha| from 2**-40 to 2**40, then alpha * x or
# 2 * alpha past double range, where A holds inf (and NaN where x = 0)
F8_DIRECTIONS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0), (3.0, 1.0, -2.0), (-1.0, 1.0, 1.0))
F8_EDGE = F8_NAMED + [
    (alpha, tuple(2.0**n / abs(alpha) * x for x in d))
    for alpha in (1.0, -1.0, 2.0**-40, -(2.0**40))
    for n in range(500, 531)
    for d in F8_DIRECTIONS
] + [
    (alpha, tuple(scale * x for x in d))
    for alpha, scale in ((1e300, 1e10), (-1e300, 1e10), (1.5e308, 1.0), (-1.5e308, 0.5))
    for d in F8_DIRECTIONS
]


def test_f8_square_formed_only_on_finite_trace_sq():
    # every result, or the ValueError, is the guarded formula's byte for
    # byte, with no floating-point flag raised and no warning on the way
    returned = []
    for alpha, coords in F8_EDGE:
        expected = f8_with_guarded_square(alpha, coords)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            if expected is None:
                with pytest.raises(ValueError, match="overflows double precision"):
                    closed_form(ClassParams("F8", alpha), *coords)
                continue
            res = closed_form(ClassParams("F8", alpha), *coords)
        A, t, u, expA = expected
        assert res.A.tobytes() == A.tobytes() and (res.t, res.u) == (t, u)
        assert res.expA.tobytes() == expA.tobytes()
        returned.append((alpha, coords))
    assert [case in returned for case in F8_NAMED] == [True, True, False]


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


# --- the generated kernels ---------------------------------------------------------


def structural_pattern(cid):
    """The flat indices where A or A @ A is nonzero, over a few generic
    parameters and coordinates: adjoint_rep on class_algebra, numpy's square."""
    nonzero = set()
    for alpha, beta, *coords in ((1.3, -0.7, 0.9, -1.1, 1.7), (-0.6, 1.9, -1.3, 0.6, 0.8)):
        a = adjoint_rep(class_algebra(ClassParams(cid, alpha, beta)), *coords)
        nonzero |= set(np.flatnonzero(a).tolist()) | set(np.flatnonzero(a @ a).tolist())
    return nonzero


def drop_entry(source, cid, n):
    """Class cid's kernel in source, as a generator that left entry n off
    exp(A)'s plan would write it: no e<n> line, no finiteness term, and the
    identity's literal where exp(A)'s array is built."""
    fn = kernel(source, cid)
    text = "\n".join(line for line in ast.get_source_segment(source, fn).splitlines()
                     if not line.lstrip().startswith(f"e{n} = "))
    text = re.sub(rf" \+ 0\.0 \* e{n}\b|\b0\.0 \* e{n} \+ ", "", text)
    return re.sub(rf"\be{n}\b", repr(float(np.eye(3).flat[n])), text) + "\n"


def test_generated_kernels_set_exp_a_exactly_on_the_plan():
    # each kernel assigns exp(A) where A or A @ A is nonzero and leaves E's
    # literal everywhere else; only F8 forms A^2 in numpy, with one dot call
    # (np.dot or the ndarray method) on buf's first half, each kernel builds
    # one array with np.empty and none with np.array; the text is reproducible
    assert expengine._exp_source() == _EXP_SOURCE
    for cid in CLASS_IDS:
        assert planned_entries(_EXP_SOURCE, cid) == structural_pattern(cid), cid
        fn = kernel(_EXP_SOURCE, cid)
        calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)]
        names = [ast.unparse(node.func) for node in calls]
        dots = [node for node, name in zip(calls, names) if name.rpartition(".")[2] == "dot"]
        assert len(dots) == (cid == "F8"), cid
        assert names.count("np.empty") == 1, cid
        assert "np.array" not in names, cid
        views = {ast.unparse(node.targets[0]) for node in ast.walk(fn)
                 if isinstance(node, ast.Assign) and ast.unparse(node.value) == "buf[0]"}
        for dot in dots:
            method = isinstance(dot.func, ast.Attribute) and ast.unparse(dot.func.value) != "np"
            operands = [ast.unparse(x) for x in ([dot.func.value] if method else []) + dot.args]
            assert len(operands) == 2 and all(x in views or x == "buf[0]" for x in operands), cid


def test_plan_check_catches_a_generator_that_drops_an_entry():
    # the check above fails on kernel text with one planned entry left
    # out: that entry is E's literal, and planned_entries no longer matches
    for cid in CLASS_IDS:
        want = structural_pattern(cid)
        for n in sorted(want):
            dropped = drop_entry(_EXP_SOURCE, cid, n)
            compile(dropped, "<dropped>", "exec")
            assert f"e{n}" not in dropped, (cid, n)
            assert planned_entries(dropped, cid) == want - {n}, (cid, n)


# --- the returned arrays ---------------------------------------------------------


# (alpha = beta, coordinates) near double range where exp(A) is still finite
NEAR_OVERFLOW = {"F8": (1.0, (1e153, 0.0, 0.0)), "F11": (1.0, (-1e300, 0.0, 0.0))}
ARRAY_POINTS = [
    (cid, point)
    for cid in CLASS_IDS
    for point in ((0.3, (0.5, 1.0, -2.0)), NEAR_OVERFLOW.get(cid, (1.0, (0.0, 1e300, 1e300))),
                  (-0.0, (-0.0, -0.0, -0.0)))
]


@pytest.mark.parametrize("cid, point", ARRAY_POINTS)
def test_returned_arrays_are_separate_writable_float64(cid, point):
    # A and exp(A) share one buffer: each must still be a
    # writable C-ordered float64 (3, 3) of its own, with np.array's bytes
    alpha, coords = point
    p = ClassParams(cid, alpha, alpha)
    res = closed_form(p, *coords)
    for m in (res.A, res.expA):
        assert m.dtype == np.float64 and m.shape == (3, 3)
        assert m.flags.c_contiguous and m.flags.writeable
    assert not np.shares_memory(res.A, res.expA)
    a_bytes, exp_bytes = res.A.tobytes(), res.expA.tobytes()
    assert a_bytes == np.array(_adjoint_entries(p, *coords)).reshape(3, 3).tobytes()
    assert exp_bytes == np.array(res.expA.tolist()).tobytes()
    res.A[...] = 7.0
    assert res.expA.tobytes() == exp_bytes
    res.expA[...] = -7.0
    assert (res.A == 7.0).all()
    again = closed_form(p, *coords)
    assert (again.A.tobytes(), again.expA.tobytes()) == (a_bytes, exp_bytes)
    assert (res.A == 7.0).all() and (res.expA == -7.0).all()


# --- JSON ------------------------------------------------------------------------


def test_exp_result_json_shape(capsys):
    res = closed_form(ClassParams("F8", 1.0), 1.0, 0.0, 0.0)
    argv = ["exp", "--class", "f8", "--alpha", "1", "--coords", "1,0,0", "--format", "json"]
    assert main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {
        "A": res.A.tolist(), "t": res.t, "u": res.u, "branch": res.branch,
        "expA": res.expA.tolist(),
    }
