"""The API's error contract: what closed_form, classify_manifold,
expm_oracle, adjoint_rep, jacobi_defect and check_structure refuse, they
refuse with a ValueError.

Coordinates and tol are converted once with float(), as ClassParams
converts alpha and beta, so what float() accepts (a numpy scalar, an int in
double range, a numeric string) is taken at its float value, and what it
refuses (None, a list, an int past double range) is a ValueError, never a
TypeError or OverflowError.  Complex input is refused the same way, rather
than read as its real part with numpy's ComplexWarning.
"""

import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paralie.expengine import closed_form, para_sasakian_group
from paralie.levicivita import classify_manifold, connection_coeffs, f_tensor
from paralie.lie import adjoint_rep, class_algebra, jacobi_defect, structure_constants
from paralie.mat3 import expm_oracle
from paralie.structure import (
    CLASS_IDS,
    ClassParams,
    PhiBasisStructure,
    check_structure,
    standard_structure,
)

NOT_FLOATS = (None, [1.0], "one", 10**400, -(10**400), object())
# complex tols, which float() refuses (a Python complex) or reads as their
# real part with numpy's ComplexWarning (a numpy complex scalar)
COMPLEX_TOLS = (1e-15 + 0j, np.complex128(1e-3 + 5j), np.complex128(1e-15), np.complex64(1e-3))


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
    for tol in NOT_FLOATS + (0.0, -1.0, math.nan, math.inf) + COMPLEX_TOLS:
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
    for tol in NOT_FLOATS + (0.0, -1.0, math.nan, math.inf) + COMPLEX_TOLS:
        with pytest.raises(ValueError, match="tol must be positive"):
            expm_oracle(np.eye(3), tol=tol)


def test_expm_oracle_takes_tol_at_its_float_value():
    want = expm_oracle(np.eye(3), 1e-15)
    for tol in ("1e-15", np.float32(1e-15)):
        assert expm_oracle(np.eye(3), tol).tobytes() == want.tobytes()


def test_expm_oracle_refuses_a_tol_whose_scaled_threshold_underflows():
    # the series stops once a term falls below tol / 2**s; at the smallest
    # subnormal tol and one squaring that threshold is 0, which no term
    # falls below
    with pytest.raises(ValueError, match="tol = 5e-324 is too small"):
        expm_oracle(np.eye(3), 5e-324)
    # a threshold that stays positive still converges: the smallest tol
    # with no squaring, and 1e-320 on a rotation at the largest norm, 11
    # squarings
    assert np.isfinite(expm_oracle(np.eye(3) / 4, 5e-324)).all()
    rotation = np.array([[0.0, 1024.0, 0.0], [-1024.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.isfinite(expm_oracle(rotation, 1e-320)).all()


def test_expm_oracle_refuses_an_exponential_past_double_range():
    # inside ORACLE_MAX_NORM the extended-precision sum holds e**800, but no
    # double does: a ValueError with no numpy warning and no chained
    # exception, where the cast used to warn and return inf
    for a in (np.diag([800.0, 0.0, 0.0]), np.array([[0.0, 720.0, 0.0], [720.0, 0.0, 0.0], [0.0] * 3])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"exp\(A\) overflows double precision") as info:
                expm_oracle(a)
        assert info.value.__context__ is None and info.value.__cause__ is None


def test_expm_oracle_is_finite_just_inside_double_range():
    # e**709.78 is about 1.793e308, below the largest double (about
    # e**709.7827); exp(-800) is below the subnormals and reads as 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge = expm_oracle(np.diag([709.78, 0.0, -800.0]))
    assert 1.79e308 < edge[0, 0] < math.inf
    assert edge[2, 2] == 0.0 and edge[1, 1] == 1.0


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
            # one numpy complex scalar among Python floats
            bad = c.astype(object)
            bad[0, 1, 2] = np.complex128(c[0, 1, 2])
            with pytest.raises(ValueError, match="must be real numbers"):
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


def test_datetime_timedelta_and_void_arrays_are_refused_not_read_as_numbers():
    # numpy's astype(float) reads these dtypes as numbers; float() refuses
    # each of their scalars
    for dtype in ("M8[s]", "m8[s]", "V8"):
        for call in CONSTANTS_CALLS:
            with pytest.raises(ValueError, match="structure constants must be real numbers, not"):
                call(np.zeros((3, 3, 3), dtype))
        with pytest.raises(ValueError, match="expm_oracle's matrix entries must be real numbers"):
            expm_oracle(np.zeros((3, 3), dtype))
        with pytest.raises(ValueError, match="g must be real numbers"):
            check_structure(dataclasses.replace(standard_structure(), g=np.zeros((3, 3), dtype)))


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


@pytest.mark.parametrize("coords, inf, nan", [
    ((1e10, 1.0, 0.0), {(0, 2): 1e308, (1, 2): -math.inf, (2, 0): -math.inf, (2, 1): math.inf},
     [(1, 0)]),
    ((0.0, 1.0, 0.0), {(0, 2): 1e308, (2, 0): -math.inf}, [(1, 0)]),
])
def test_adjoint_rep_past_double_range_without_a_numpy_warning(coords, inf, nan):
    # 2 alpha is inf here: A's entries past double range are inf, and NaN
    # where 0 * inf enters a sum, as the docstring states, with no warning
    c = class_algebra(ClassParams("F8", 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = adjoint_rep(c, *coords)
    want = np.zeros((3, 3))
    for jk, value in inf.items():
        want[jk] = value
    for jk in nan:
        want[jk] = math.nan
    assert np.array_equal(a, want, equal_nan=True)


def test_check_structure_reads_its_fields_as_arrays():
    # nested lists are read as the arrays they spell, not refused with a
    # TypeError from the @ operator
    s = standard_structure()
    listed = PhiBasisStructure(s.phi.tolist(), s.xi.tolist(), s.eta.tolist(), s.g.tolist())
    assert check_structure(listed) == check_structure(s)
    phi = PhiBasisStructure([[0, 0, 0], [0, 0, 1], [0, 1, 0]], s.xi, s.eta, s.g)
    assert max(check_structure(phi).values()) == 0.0


def test_check_structure_refuses_fields_it_cannot_check():
    s = standard_structure()
    cases = (
        ("phi", None, "phi must be real numbers"),
        ("g", 1j * s.g, "g must be real numbers"),
        ("xi", ["one", 0, 0], "xi must be real numbers"),
        ("xi", s.xi[:2], r"xi must be finite, of shape \(3,\)"),
        ("phi", np.eye(2), r"phi must be finite, of shape \(3, 3\)"),
        ("g", np.eye(3).ravel(), r"g must be finite, of shape \(3, 3\)"),
        ("eta", [math.nan, 0.0, 0.0], "eta must be finite"),
        ("phi", np.diag([math.inf, 0.0, 0.0]), "phi must be finite"),
    )
    for field, value, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                check_structure(dataclasses.replace(s, **{field: value}))


def test_check_structure_names_a_missing_field():
    # a field that is not there is refused as None is, naming the field
    s = standard_structure()
    for structure, field in ((None, "phi"), (SimpleNamespace(phi=s.phi, xi=s.xi, eta=s.eta), "g")):
        with pytest.raises(ValueError, match=f"^{field} must be real numbers"):
            check_structure(structure)


def test_check_structure_past_double_range_is_a_value_error():
    # phi^2, or eta (x) eta, past double range: a ValueError, not numpy's
    # overflow warning or an inf residual
    s = standard_structure()
    for big in (PhiBasisStructure(1e200 * s.phi, s.xi, s.eta, s.g),
                PhiBasisStructure(s.phi, s.xi, 1e200 * s.eta, s.g)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows double precision"):
                check_structure(big)


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


# Scalars of every kind the API can be handed: half of them Python floats
# (NaN, +-inf and subnormals included), the rest floats at the ends of
# double range, ints past it, numpy scalars, strings, None and complex values
SCALARS = st.one_of(st.floats(), st.one_of(
    st.sampled_from([5e-324, -2.2250738585072014e-308, 1e154, -1e300, 1.7976931348623157e308]),
    st.integers(-(2**1100), 2**1100),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.complex_numbers(),
    st.complex_numbers().map(np.complex128),
    st.complex_numbers(width=64).map(np.complex64),
    st.text(max_size=4),
    st.sampled_from(["1.5", "-0", "nan", "-inf", "1e400"]),
    st.none(),
))


def finite_real(v):
    """The value the API must take v at: float(v) where that is a finite
    real number; None where the API must refuse v."""
    if isinstance(v, (complex, np.complexfloating)):
        return None
    try:
        x = float(v)
    except (TypeError, ValueError, OverflowError):
        return None
    return x if math.isfinite(x) else None


def returned(fn, *args):
    """fn(*args), or None where it raises ValueError; any other exception
    (a TypeError, a struct.error, a warning) fails the test."""
    try:
        return fn(*args)
    except ValueError:
        return None


def assert_fresh_float64(m, shape):
    assert type(m) is np.ndarray and m.dtype == np.float64 and m.shape == shape
    assert m.flags.c_contiguous and m.flags.writeable


# p values that are not a ClassParams: each must be refused naming p, not
# read attribute by attribute
NOT_CLASS_PARAMS = (None, ("F4", 1.0, 0.0), "F4", 1.0, {"class_id": "F4", "alpha": 1.0},
                    SimpleNamespace(class_id="F4", alpha=1.0, beta=0.0), ClassParams)


@given(st.sampled_from(("F0",) + CLASS_IDS), SCALARS, SCALARS, st.tuples(SCALARS, SCALARS, SCALARS),
       st.sampled_from(NOT_CLASS_PARAMS))
# F1's A does not read the first coordinate, so only _coordinates refuses it
# there; numpy's complex scalars are read as their real part by float()
@example("F1", 1.0, 1.0, (math.nan, 0.5, -2.0), None)
@example("F11", np.complex128(1.0), 0.5, (0.5, 1.0, -2.0), ("F4", 1.0, 0.0))
@example("F8", 1.0, 0.0, (0.5, np.complex64(1.0), -2.0), None)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fuzz_closed_form_para_sasakian_group_and_class_algebra(cid, alpha, beta, coords, not_p):
    # each call returns writable float64 arrays, finite where the contract
    # says so, or raises ValueError, and raises it on every input that is
    # not a finite real number or, as p, not a ClassParams
    coords_ok = all(finite_real(x) is not None for x in coords)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="p must be a ClassParams"):
            closed_form(not_p, *coords)
        with pytest.raises(ValueError, match="p must be a ClassParams"):
            class_algebra(not_p)
        p = returned(ClassParams, cid, alpha, beta)
        al, bt = finite_real(alpha), finite_real(beta)
        assert (p is None) == (al is None or bt is None or cid == "F0" and (al, bt) != (0.0, 0.0))
        results = [returned(para_sasakian_group, *coords)]
        if p is not None:
            c = class_algebra(p)
            assert_fresh_float64(c, (3, 3, 3))
            # 2 alpha past double range is inf in F8's algebra
            assert np.isfinite(c).all() or cid == "F8" and math.isinf(2.0 * p.alpha)
            res = returned(closed_form, p, *coords)
            assert res is None or cid != "F0"
            results.append(res)
    for res in results:
        assert res is None or coords_ok
        if res is not None:
            for m in (res.A, res.expA):
                assert_fresh_float64(m, (3, 3))
                assert np.isfinite(m).all()
            assert not np.shares_memory(res.A, res.expA)
