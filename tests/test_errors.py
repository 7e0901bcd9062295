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
from paralie import levicivita
from paralie.levicivita import (
    NotALieAlgebraError,
    classify_manifold,
    connection_coeffs,
    f_tensor,
)
from paralie.lie import adjoint_rep, class_algebra, jacobi_defect, structure_constants
from paralie.mat3 import ORACLE_MAX_NORM, expm_oracle
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


# --- the class parameters, fuzzed ------------------------------------------------

# class ids: the eight known ones, near misses, a numpy str, and values that
# are not strings; a 0-d array of "F4" compares equal to "F4" but is no key
# of the kernels' table
CLASS_ID_VALUES = st.one_of(
    st.sampled_from(("F0",) + CLASS_IDS),
    st.sampled_from(("f4", "F4 ", "F12", "", b"F4", np.str_("F8"), np.array("F4"), np.array(["F4", "F8"]),
                     ["F4"], [["F4"]], ("F4",), None, 4, 4.0, math.nan, 1j)),
    st.text(max_size=3),
)
# parameters: SCALARS, nested lists, arrays, subnormals and floats at the
# overflow edge, where 2 alpha in F8's algebra passes double range
PARAM_VALUES = st.one_of(
    SCALARS,
    st.sampled_from((5e-324, -5e-324, 2.2250738585072014e-308, 8.98846567431158e307, -8.98846567431158e307,
                     2.0**1023, 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf,
                     math.nan, np.array([1.0]), np.array(1.0), np.longdouble("1e400"))),
    st.recursive(st.floats(), lambda x: st.lists(x, max_size=2), max_leaves=3),
)


@given(CLASS_ID_VALUES, PARAM_VALUES, PARAM_VALUES)
# a 0-d array class id, which ClassParams used to take and the kernels'
# table could not look up (a TypeError); F8 at the overflow edge
@example(np.array("F4"), 1.0, 0.0)
@example("F8", 8.98846567431158e307, 0.0)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_fuzz_class_params(cid, alpha, beta):
    # ClassParams returns a label whose parameters are the finite Python
    # floats float() reads, or raises a ValueError, exactly where the id is
    # not one of the eight strings, a parameter is not a finite real number,
    # or F0 has one that is not 0; every reader of p then returns or raises
    # a ValueError, and closed_form at the origin returns the identity
    # wherever A's entries are finite
    known = isinstance(cid, str) and cid in ("F0",) + CLASS_IDS
    al, bt = finite_real(alpha), finite_real(beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = returned(ClassParams, cid, alpha, beta)
        assert (p is not None) == (known and al is not None and bt is not None
                                   and (cid != "F0" or al == bt == 0.0))
        if p is None:
            return
        assert type(p.alpha) is float and type(p.beta) is float
        assert (p.alpha, p.beta) == (al, bt) and math.copysign(1.0, p.alpha) == math.copysign(1.0, al)
        c = class_algebra(p)
        assert_fresh_float64(c, (3, 3, 3))
        returned(classify_manifold, c)
        origin = returned(closed_form, p, 0.0, 0.0, 0.0)
        # 0.0 * inf is NaN where 2 alpha passes double range in F8's A
        assert (origin is None) == (cid == "F0" or cid == "F8" and math.isinf(2.0 * p.alpha))
        results = [origin, returned(closed_form, p, 0.5, 1.0, -2.0), returned(closed_form, p, 1e-300, -3.0, 1e300)]
    if origin is not None:
        assert origin.A.tolist() == [[0.0] * 3] * 3 and origin.expA.tolist() == np.eye(3).tolist()
    for res in results:
        if res is not None:
            for m in (res.A, res.expA):
                assert_fresh_float64(m, (3, 3))
                assert np.isfinite(m).all()


# --- the structure constants' gate, fuzzed -------------------------------------

# floats the gate reads differently: signed zeros, subnormals, the 2**1023
# range rule and its neighbours, double range's end, NaN and +-inf
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.5, 5e307, 4e307,
               2.0**1023, -(2.0**1023), math.nextafter(2.0**1023, 0.0), 1.7976931348623157e308,
               math.inf, -math.inf, math.nan)
VALUES = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
# not 27 entries, or not a nested sequence of numbers at all
NOT_CONSTANTS = (None, "C", {"a": 1}, 1.0, [], [[0.0] * 3] * 3, [[[0.0] * 3] * 3] * 2)


@st.composite
def constants(draw):
    """C as nested lists or an array: a Lie algebra (a sum of one or two
    class algebras), antisymmetric constants or any 27 values, each perhaps
    with one entry replaced by a scalar of any kind, then reshaped, cut
    short, made ragged or replaced by something that is not constants."""
    kind = draw(st.sampled_from(["lie", "antisymmetric", "any", "not constants"]))
    if kind == "not constants":
        return draw(st.sampled_from(NOT_CONSTANTS))
    if kind == "lie":
        c = np.zeros((3, 3, 3))
        for cid, alpha, beta in draw(st.lists(st.tuples(
                st.sampled_from(CLASS_IDS), VALUES.filter(math.isfinite), VALUES.filter(math.isfinite)),
                min_size=1, max_size=2)):
            with np.errstate(over="ignore"):  # a sum past double range is inf, as C may be
                c = c + class_algebra(ClassParams(cid, alpha, beta))
        flat = c.ravel().tolist()
    elif kind == "antisymmetric":
        flat = [0.0] * 27
        for (i, j), (v0, v1, v2) in zip(((0, 1), (0, 2), (1, 2)), draw(st.lists(
                st.tuples(VALUES, VALUES, VALUES), min_size=3, max_size=3))):
            for k, v in enumerate((v0, v1, v2)):
                flat[9 * i + 3 * j + k], flat[9 * j + 3 * i + k] = v, -v
    else:
        flat = draw(st.lists(VALUES, min_size=27, max_size=27))
    if draw(st.integers(0, 3)) == 0:
        flat[draw(st.integers(0, 26))] = draw(SCALARS)
    form = draw(st.sampled_from(["nested", "nested", "array", "object array", "flat", "short", "ragged"]))
    if form == "short":
        return flat[:draw(st.integers(0, 26))]
    nested = np.array(flat + [None], dtype=object)[:27].reshape(3, 3, 3).tolist()
    if form == "ragged":
        nested[draw(st.integers(0, 2))].pop()
    if form == "array":
        return returned(np.array, nested) if all(type(x) is float for x in flat) else nested
    return {"object array": np.array(flat + [None], dtype=object)[:27].reshape(3, 3, 3),
            "flat": flat}.get(form, nested)


def refusal(fn, *args):
    """None where fn(*args) returns, else the ValueError's type and message;
    any other exception, or a warning, fails the test."""
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@given(constants(), st.one_of(st.sampled_from([1e-12, 0.5]), SCALARS))
# F past double range where Gamma is not (CI's example), and an inf
# mirrored by -inf, which adjoint_rep takes and the gate refuses
@example((class_algebra(ClassParams("F10", math.nextafter(2.0**1023, 0.0)))
          + class_algebra(ClassParams("F8", 4e307))).tolist(), 1e-12)
@example(class_algebra(ClassParams("F8", 1e308)).tolist(), math.nan)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_fuzz_the_gate_on_the_structure_constants(c, tol):
    # every reader of C returns or raises a ValueError; connection_coeffs,
    # f_tensor and classify_manifold refuse the same C with the same error:
    # structure_constants' where it refuses, else the Jacobi check's or the
    # range rule's; only f_tensor refuses past double range on its own, and
    # classify_manifold reads tol after C
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        read = refusal(structure_constants, c)
        assert refusal(jacobi_defect, c) == read
        mapped = refusal(adjoint_rep, c, 0.5, 1.0, -2.0)
        assert mapped is None or mapped == read
        gate = refusal(connection_coeffs, c)
        assert refusal(f_tensor, c) in (gate, None if gate else (
            ValueError, "F tensor overflows double precision at these constants"))
        tol_ok = (finite_real(tol) or 0.0) > 0.0
        assert refusal(classify_manifold, c, tol) == (
            gate if gate or tol_ok else (ValueError, "tol must be positive"))
        if read is not None:
            assert gate == read
        elif gate is not None:
            defect = jacobi_defect(c)
            assert gate == ((NotALieAlgebraError, f"Jacobi identity violated (defect {defect:.3e})")
                            if defect > levicivita.JACOBI_TOL else (ValueError,
                            "structure constants overflow double precision (max |C| >= 2**1023)"))


# --- the referee, fuzzed --------------------------------------------------------

# entries the referee reads differently: signed zeros, subnormals, the
# scaling target 1/2, the norm where exp(A) can first pass double range,
# ORACLE_MAX_NORM and its neighbours, double range's end, NaN and +-inf
ORACLE_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 0.5, math.nextafter(0.5, 1.0), 236.0,
                 -709.78, ORACLE_MAX_NORM, -ORACLE_MAX_NORM, math.nextafter(ORACLE_MAX_NORM, 0.0),
                 math.nextafter(ORACLE_MAX_NORM, math.inf), 1.7976931348623157e308,
                 math.inf, -math.inf, math.nan)
# not nine entries in three rows, or not a nested sequence of numbers at all
NOT_MATRICES = (None, "A", {"a": 1}, 1.0, [], [0.0] * 9, [[0.0] * 3] * 2, [[[0.0] * 3] * 3] * 3)


@st.composite
def matrices(draw):
    """A as nested lists or an array: nine floats up to 4 in magnitude, up
    to two of them replaced by edge floats, perhaps all scaled by 2**e for
    e from -1080 to 10, perhaps one replaced by a scalar of any kind; then
    reshaped, made ragged or replaced by something that is not a matrix."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(NOT_MATRICES))
    flat = draw(st.lists(st.floats(-4.0, 4.0), min_size=9, max_size=9))
    for _ in range(draw(st.integers(0, 2))):
        flat[draw(st.integers(0, 8))] = draw(st.sampled_from(ORACLE_FLOATS))
    if draw(st.booleans()):
        e = draw(st.integers(-1080, 10))
        flat = [math.ldexp(x, e) if abs(x) <= 4.0 else x for x in flat]
    if draw(st.integers(0, 3)) == 0:
        flat[draw(st.integers(0, 8))] = draw(SCALARS)
    form = draw(st.sampled_from(["nested"] * 3 + ["array"] * 2 + ["object array", "flat", "ragged", "column"]))
    nested = [flat[0:3], flat[3:6], flat[6:9]]
    if form == "ragged":
        nested[draw(st.integers(0, 2))].pop()
    if form == "array":
        return returned(np.array, nested) if all(type(x) is float for x in flat) else nested
    return {"object array": np.array(flat + [None], dtype=object)[:9].reshape(3, 3),
            "flat": flat, "column": [[x] for x in flat]}.get(form, nested)


# two in three tols positive and finite: one_of flattens SCALARS' branches,
# which would outweigh them
ORACLE_TOLS = st.sampled_from([True, True, False]).flatmap(lambda good: st.one_of(
    st.sampled_from([1e-15, 1e-300, 0.5]), st.floats(5e-324, 1.0)) if good else SCALARS)


def oracle_must_return(a, tol) -> bool:
    """Whether the contract leaves expm_oracle(a, tol) no way to refuse: a
    3x3 matrix of finite floats or ints (strings are read by numpy, not
    float()) at max|A| <= 236, where exp(A) stays in double range, and a
    tol that is positive and finite and stays so at tol / 2**s."""
    t = finite_real(tol)
    try:
        rows = [list(row) for row in a] if isinstance(a, (list, np.ndarray)) else None
    except TypeError:
        return False
    if t is None or t <= 0.0 or rows is None or [len(row) for row in rows] != [3, 3, 3]:
        return False
    entries = [x for row in rows for x in row]
    if not all(isinstance(x, (float, int, np.floating, np.integer)) and finite_real(x) is not None
               for x in entries):
        return False
    norm = max(abs(float(x)) for x in entries)
    return norm <= 236.0 and t / 2.0 ** max(0, math.ceil(math.log2(max(norm, 0.5) / 0.5))) > 0.0


def oracle_must_refuse(a, tol) -> bool:
    """Whether the contract makes expm_oracle(a, tol) refuse: tol is not a
    positive finite real number, A has an entry that is not a finite real
    number or a norm past ORACLE_MAX_NORM."""
    t = finite_real(tol)
    if t is None or t <= 0.0:
        return True
    if isinstance(a, (list, np.ndarray)) and len(a) == 3 and all(
            isinstance(row, (list, np.ndarray)) and len(row) == 3 for row in a):
        values = [finite_real(x) for row in a for x in row]
        return None in values or max(map(abs, values)) > ORACLE_MAX_NORM
    return False


@given(matrices(), ORACLE_TOLS)
# just past ORACLE_MAX_NORM, exp(A) past double range, and a tol whose
# threshold underflows after one squaring
@example([[math.nextafter(ORACLE_MAX_NORM, math.inf), 0.0, 0.0], [0.0] * 3, [0.0] * 3], 1e-15)
@example([[800.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3], 1e-15)
@example([[1.0, 0.0, 0.0], [0.0] * 3, [0.0] * 3], 5e-324)
@example([[np.complex128(1.0), 0.0, 0.0], [0.0] * 3, [0.0] * 3], 1e-15)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_fuzz_the_referee(a, tol):
    # expm_oracle returns a finite, fresh float64 3x3 array or raises a
    # ValueError; it refuses every tol and entry that is not a finite real
    # number and every norm past its range, and returns wherever the
    # contract leaves it no reason to refuse
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = returned(expm_oracle, a, tol)
    if got is not None:
        assert_fresh_float64(got, (3, 3))
        assert np.isfinite(got).all()
    assert got is not None or not oracle_must_return(a, tol)
    assert got is None or not oracle_must_refuse(a, tol)
