"""The API's error contract: what closed_form, classify_manifold,
expm_oracle, adjoint_rep and jacobi_defect refuse, they refuse with a
ValueError.

Coordinates and tol are converted once with float(), as ClassParams
converts alpha and beta, so what float() accepts (a numpy scalar, an int in
double range, a numeric string) is taken at its float value, and what it
refuses (None, a list, an int past double range) is a ValueError, never a
TypeError or OverflowError.  Complex input is refused the same way, rather
than read as its real part with numpy's ComplexWarning.
"""

import math
import warnings

import numpy as np
import pytest

from paralie.expengine import closed_form
from paralie.levicivita import classify_manifold, connection_coeffs, f_tensor
from paralie.lie import adjoint_rep, class_algebra, jacobi_defect, structure_constants
from paralie.mat3 import expm_oracle
from paralie.structure import CLASS_IDS, ClassParams

NOT_FLOATS = (None, [1.0], "one", 10**400, -(10**400), object())


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_closed_form_refuses_coordinates_float_refuses(cid):
    for bad in NOT_FLOATS:
        for slot in range(3):
            coords = [0.5, 1.0, -2.0]
            coords[slot] = bad
            with pytest.raises(ValueError, match="coordinates must be real numbers"):
                closed_form(ClassParams(cid, 0.3, -1.7), *coords)


def test_closed_form_refuses_non_finite_coordinates():
    for bad in (math.nan, math.inf, -math.inf, np.float64("inf")):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            closed_form(ClassParams("F4", 1.0), 0.0, bad, 0.0)


def test_closed_form_takes_what_float_takes_at_its_value():
    p = ClassParams("F11", 0.3, -1.7)
    want = closed_form(p, 0.5, 1.0, -2.0)
    for coords in ((np.float32(0.5), np.int64(1), -2), ("0.5", "1", "-2.0"), (0.5, True, -2.0)):
        got = closed_form(p, *coords)
        assert got.A.tobytes() == want.A.tobytes()
        assert got.expA.tobytes() == want.expA.tobytes()
        assert type(got.t) is float and type(got.u) is float


def test_closed_form_checks_the_class_before_the_coordinates():
    with pytest.raises(ValueError, match="closed_form is defined for"):
        closed_form(ClassParams("F0"), None, 0.0, 0.0)


def test_classify_refuses_tol_float_refuses():
    c = class_algebra(ClassParams("F8", 1.0))
    for tol in NOT_FLOATS + (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive"):
            classify_manifold(c, tol=tol)


def test_classify_takes_tol_at_its_float_value():
    c = class_algebra(ClassParams("F4", 0.5))
    for tol in ("1", 1, np.float32(1.0)):
        assert classify_manifold(c, tol=tol).verdict == ["F0"]
    assert classify_manifold(c, tol="0.25").verdict == ["F4"]


def test_classify_checks_the_constants_before_tol():
    # the gate's order: the constants are refused first, whatever tol is
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = math.nan
    with pytest.raises(ValueError, match="structure constants must be finite"):
        classify_manifold(c, tol=None)


def test_expm_oracle_refuses_tol_float_refuses():
    for tol in NOT_FLOATS + (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive"):
            expm_oracle(np.eye(3), tol=tol)


def test_expm_oracle_takes_tol_at_its_float_value():
    want = expm_oracle(np.eye(3), 1e-15)
    for tol in ("1e-15", np.float32(1e-15)):
        assert expm_oracle(np.eye(3), tol).tobytes() == want.tobytes()


def test_expm_oracle_refuses_a_matrix_float_refuses():
    for bad in ({}, object(), [[{}] * 3] * 3, [[10**400] * 3] * 3, [[None] * 3] * 3):
        with pytest.raises(ValueError, match="expm_oracle's matrix entries must be real numbers"):
            expm_oracle(bad)


def test_adjoint_rep_refuses_coordinates_float_refuses():
    c = class_algebra(ClassParams("F4", 1.0))
    for bad in NOT_FLOATS:
        for slot in range(3):
            coords = [0.5, 1.0, -2.0]
            coords[slot] = bad
            with pytest.raises(ValueError, match="coordinates must be real numbers"):
                adjoint_rep(c, *coords)


def test_adjoint_rep_refuses_non_finite_coordinates():
    # as closed_form does: a ValueError, with no numpy warning on the way
    c = class_algebra(ClassParams("F4", 1.0))
    for bad in (math.nan, math.inf, -math.inf, np.float64("inf")):
        for slot in range(3):
            coords = [0.5, 1.0, -2.0]
            coords[slot] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="coordinates must be finite"):
                    adjoint_rep(c, *coords)


def test_adjoint_rep_takes_what_float_takes_at_its_value():
    c = class_algebra(ClassParams("F11", 0.3, -1.7))
    want = adjoint_rep(c, 0.5, 1.0, -2.0)
    for coords in ((np.float32(0.5), np.int64(1), -2), ("0.5", "1", "-2.0")):
        assert adjoint_rep(c, *coords).tobytes() == want.tobytes()
    assert adjoint_rep(c.tolist(), 0.5, 1.0, -2.0).tobytes() == want.tobytes()


def test_jacobi_defect_reads_what_structure_constants_reads():
    c = class_algebra(ClassParams("F8", 1.5))
    assert jacobi_defect(c.tolist()) == jacobi_defect(c) == 0.0
    for bad in (None, [[0, 0, 0]] * 3, "one", [[[object()] * 3] * 3] * 3):
        with pytest.raises(ValueError):
            jacobi_defect(bad)


def test_complex_input_is_refused_not_read_as_its_real_part():
    c = class_algebra(ClassParams("F8", 1.0))
    calls = (
        structure_constants, jacobi_defect, connection_coeffs, f_tensor, classify_manifold,
        lambda c: adjoint_rep(c, 0.5, 1.0, -2.0),
        lambda c: expm_oracle(c[0]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            # taken as given when real, refused as complex, even with imag 0
            call(c)
            call(c.tolist())
            for bad in (c + 1j, c + 0j, (c + 1j).tolist(), c.astype(np.complex64)):
                with pytest.raises(ValueError, match="must be real numbers, not complex"):
                    call(bad)


def test_none_entries_are_refused_as_not_real_numbers_not_as_nan():
    # numpy's astype(float) reads None as NaN; float() refuses it, as it
    # refuses alpha = None
    c = class_algebra(ClassParams("F8", 1.0)).tolist()
    c[0][1][2] = None
    calls = (
        structure_constants, jacobi_defect, connection_coeffs, f_tensor, classify_manifold,
        lambda c: adjoint_rep(c, 0.5, 1.0, -2.0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="structure constants must be real numbers"):
            call(c)


CONSTANTS_CALLS = (
    structure_constants, jacobi_defect, connection_coeffs, f_tensor, classify_manifold,
    lambda c: adjoint_rep(c, 0.5, 1.0, -2.0),
)


@pytest.mark.parametrize("shape", [(26,), (28,), (3, 3, 4), (3, 3)])
def test_constants_of_the_wrong_size_are_refused_naming_them(shape):
    # numpy's reshape message named neither C nor its size rule
    n = math.prod(shape)
    for c in (np.zeros(shape), np.zeros(shape).tolist()):
        for call in CONSTANTS_CALLS:
            with pytest.raises(ValueError, match=f"structure constants must have .* 27 entries, not {n}$"):
                call(c)


def test_string_and_ragged_constants_are_refused_as_not_real_numbers():
    # numpy's own conversion and inhomogeneous-shape messages named no input
    string = class_algebra(ClassParams("F8", 1.0)).tolist()
    string[0][1][2] = "x"
    ragged_row = class_algebra(ClassParams("F8", 1.0)).tolist()
    ragged_row[1] = ragged_row[1][:2]
    ragged_entry = class_algebra(ClassParams("F8", 1.0)).tolist()
    ragged_entry[1][2] = [0.0, 1.0]
    for c in (string, ragged_row, ragged_entry):
        for call in CONSTANTS_CALLS:
            with pytest.raises(ValueError, match="structure constants must be real numbers"):
                call(c)
    for bad in ([[1.0, 0.0, "x"], [0.0] * 3, [0.0] * 3], [[1.0] * 3, [0.0] * 2, [0.0] * 3]):
        with pytest.raises(ValueError, match="expm_oracle's matrix entries must be real numbers"):
            expm_oracle(bad)


def test_adjoint_rep_checks_the_constants():
    # C is read as structure_constants reads it; an inf mirrored by -inf,
    # as class_algebra gives it past double range, still maps entrywise
    nan = np.zeros((3, 3, 3))
    nan[0, 1, 2] = math.nan
    for c, rule in ((np.ones((3, 3, 3)), "antisymmetric"), (nan, "finite")):
        with pytest.raises(ValueError, match=f"structure constants must be {rule}"):
            adjoint_rep(c, 0.5, 1.0, -2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        a = adjoint_rep(class_algebra(ClassParams("F8", 1e308)), 0.0, 1.0, 0.0)
    assert a[2, 0] == -math.inf


def test_jacobi_defect_checks_the_constants():
    # C is checked as structure_constants checks it: C that is not
    # antisymmetric no longer reads as defect 0.0, nor NaN constants as NaN,
    # and an inf mirrored by -inf is not finite
    nan = np.zeros((3, 3, 3))
    nan[0, 1, 2] = math.nan
    cases = ((np.ones((3, 3, 3)), "antisymmetric"), (nan, "finite"), (nan.tolist(), "finite"),
             (class_algebra(ClassParams("F8", 1e308)), "finite"))
    for c, rule in cases:
        with pytest.raises(ValueError, match=f"structure constants must be {rule}"):
            jacobi_defect(c)
