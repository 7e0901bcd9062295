"""The scalar exponential path against the formulas it replaced, bit for bit.

``class_algebra``, ``adjoint_rep``, ``trace_sq`` and ``closed_form`` were
rewritten to cost less per call with the same floating-point operations in
the same order.  The replaced formulas are written out here, and A, t, u and
expA must match them byte for byte (``tobytes``), including the sign of
zero, on a seeded sample of all seven classes whose parameters and
coordinates span 300 decades either way; where they overflow, closed_form
must raise its documented ValueError.  The one exception is F1, F5 and F11,
whose u = 0 multiplied an A^2 that can overflow where E + t*A does not:
there closed_form must return the replaced formulas' E + t*A.  Fixed edge
cases the sample never reaches (2 alpha past double range, signed zeros,
an exact cancellation in A) are checked the same way with every warning an
error.  closed_form now forms A from the bracket table, without
class_algebra and adjoint_rep; that A must be adjoint_rep's byte for byte
on the same sample and edge cases, NaN where both form 0 * inf.

The validation gate shared by connection_coeffs, f_tensor and
classify_manifold was rewritten to read C once.  Those three and
structure_constants and jacobi_defect must give the same bytes as the gate
it replaced (``reference.replaced_lie_algebra``), or raise the same
exception type with the same message, on seeded antisymmetric constants
over 300 decades either way, on NaN, infinite and non-antisymmetric
corruptions of them, and at and just below max|C| = 2**1023.

connection_coeffs now halves C before the Koszul sums, and f_tensor reads
phi from the structure as F[i] = phi Gamma[i] - Gamma[i] phi.  On every
input above that the gate accepts, both must give the bytes of the sums and
gathers they replaced (``reference.replaced_koszul`` and
``reference.replaced_nabla_phi``), signed zeros included; where C holds
zeros of both signs, F is those bytes with negative zeros made positive.
"""

import math
import warnings

import numpy as np
import pytest

from paralie import levicivita
from paralie.expengine import _adjoint_entries, closed_form
from paralie.levicivita import (
    _CLASSIFY,
    _INDEP,
    _koszul,
    _nabla_phi,
    classify_manifold,
    connection_coeffs,
    f_tensor,
)
from paralie.lie import adjoint_rep, class_algebra, jacobi_defect, structure_constants
from paralie.mat3 import trace
from paralie.structure import CLASS_IDS, ClassParams, LeeForms, _report
from reference import (
    replaced_jacobi_defect,
    replaced_koszul,
    replaced_lie_algebra,
    replaced_nabla_phi,
    replaced_structure_constants,
)


def dict_built_constants(p):
    al, bt = p.alpha, p.beta
    brackets = {
        "F0": [],
        "F1": [(1, 2, 1, al), (1, 2, 2, bt)],
        "F4": [(0, 1, 2, al), (0, 2, 1, al)],
        "F5": [(0, 1, 1, al), (0, 2, 2, al)],
        "F8": [(0, 1, 2, al), (0, 2, 1, -al), (1, 2, 0, 2.0 * al)],
        "F9": [(0, 1, 1, al), (0, 2, 2, -al)],
        "F10": [(0, 1, 2, -al), (0, 2, 1, al)],
        "F11": [(0, 1, 0, al), (0, 2, 0, bt)],
    }[p.class_id]
    c = np.zeros((3, 3, 3))
    for i, j, k, v in brackets:
        c[i, j, k] = v
        c[j, i, k] = -v
    return c


def replaced_closed_form(p, a, b, co):
    """(A, t, u, expA) by the replaced formulas, or None where they overflow."""
    c = dict_built_constants(p)
    with np.errstate(over="ignore", invalid="ignore"):
        A = -(a * c[0] + b * c[1] + co * c[2]) + 0.0
        try:
            if p.class_id in ("F1", "F5", "F11"):
                k = (0.5 if p.class_id == "F5" else 1.0) * trace(A)
                if not math.isfinite(k):
                    raise OverflowError
                t, u = (math.expm1(k) / k if k else 1.0), 0.0
            else:
                z = 0.5 * float(np.sum(A * A.T))
                if not math.isfinite(z):
                    raise OverflowError
                if z == 0.0:
                    t, u = 1.0, 0.5
                else:
                    r = math.sqrt(abs(z))
                    h = 0.5 * r
                    f = math.sinh if z > 0.0 else math.sin
                    fh = f(h) / h
                    t, u = f(r) / r, 0.5 * fh * fh
        except OverflowError:
            t = u = math.inf
        expA = np.eye(3) + t * A + u * (A @ A)
    if not np.all(np.isfinite(expA)):
        return None
    return A, t, u, expA


def replaced_linear_part(p, a, b, co):
    """(A, t, 0.0, E + t*A) of a quadratic class by the replaced formulas,
    or None where that overflows too.

    replaced_closed_form also adds u * (A @ A) with u = 0, which is NaN once
    A @ A overflows; closed_form no longer forms A @ A for these classes.
    """
    c = dict_built_constants(p)
    with np.errstate(over="ignore", invalid="ignore"):
        A = -(a * c[0] + b * c[1] + co * c[2]) + 0.0
        k = (0.5 if p.class_id == "F5" else 1.0) * trace(A)
        try:
            t = math.expm1(k) / k if k else 1.0
        except OverflowError:
            return None
        expA = np.eye(3) + t * A
    if not np.all(np.isfinite(expA)):
        return None
    return A, t, 0.0, expA


def draws(rng, n):
    """n (alpha, beta, a, b, c) rows, magnitudes 10^-300..10^300, some exact zeros."""
    span = rng.choice([3.0, 30.0, 300.0], size=(n, 1))
    x = rng.choice([-1.0, 1.0], size=(n, 5)) * 10.0 ** (span * rng.uniform(-1, 1, (n, 5)))
    x[rng.random((n, 5)) < 0.15] = 0.0
    return x


def test_class_algebra_matches_dict_built_constants():
    rng = np.random.default_rng(61)
    for cid in CLASS_IDS:
        for alpha, beta, *_ in draws(rng, 200):
            p = ClassParams(cid, alpha, beta)
            assert class_algebra(p).tobytes() == dict_built_constants(p).tobytes(), p
        for alpha, beta in ((0.0, -0.0), (-0.0, 0.0), (1.5e308, -1.5e308)):
            p = ClassParams(cid, alpha, beta)
            assert class_algebra(p).tobytes() == dict_built_constants(p).tobytes(), p
    f0 = ClassParams("F0")
    assert class_algebra(f0).tobytes() == dict_built_constants(f0).tobytes()


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_closed_form_bit_identical_to_replaced_formulas(cid):
    rng = np.random.default_rng(CLASS_IDS.index(cid) + 62)
    finite = 0
    for alpha, beta, a, b, co in draws(rng, 1500):
        p = ClassParams(cid, alpha, beta)
        expected = replaced_closed_form(p, a, b, co)
        if expected is None and cid in ("F1", "F5", "F11"):
            expected = replaced_linear_part(p, a, b, co)
        if expected is None:
            with pytest.raises(ValueError, match="overflows double precision"):
                closed_form(p, a, b, co)
            continue
        finite += 1
        A, t, u, expA = expected
        res = closed_form(p, a, b, co)
        assert res.A.tobytes() == A.tobytes(), (p, a, b, co)
        assert np.array([res.t, res.u]).tobytes() == np.array([t, u]).tobytes(), (p, a, b, co)
        assert res.expA.tobytes() == expA.tobytes(), (p, a, b, co)
    # both outcomes are exercised in bulk
    assert 300 < finite < 1400


def edge_cases():
    """(p, a, b, co) that the seeded draws never reach.

    F8 at |alpha| = 1.5e308, whose C_12^0 = 2 alpha is inf, so a zero
    coordinate makes inf * 0 = NaN in A; every class at alpha = -0.0 with
    coordinates of signed zeros; and F11's two-term A[0][0] = b alpha + c beta
    cancelling exactly.
    """
    cases = []
    for alpha in (1.5e308, -1.5e308):
        for coords in ((0.0, 1.0, 1.0), (1.0, 0.0, -0.0), (1e-310, 1e-310, 1e-310),
                       (-1e-310, 1e-310, 0.0)):
            cases.append((ClassParams("F8", alpha), *coords))
    for cid in CLASS_IDS:
        for coords in ((-0.0, 0.0, -0.0), (0.0, -0.0, 0.0), (-0.0, -0.0, -0.0)):
            cases.append((ClassParams(cid, -0.0, -0.0), *coords))
    for a in (0.0, 1.0, -1.0):
        cases.append((ClassParams("F11", 2.0, 1.0), a, 0.5, -1.0))
    return cases


@pytest.mark.parametrize("p, a, b, co", edge_cases())
def test_closed_form_bit_identical_at_edge_cases(p, a, b, co):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = replaced_closed_form(p, a, b, co)
        if expected is None and p.class_id in ("F1", "F5", "F11"):
            expected = replaced_linear_part(p, a, b, co)
        if expected is None:
            with pytest.raises(ValueError, match="overflows double precision"):
                closed_form(p, a, b, co)
            return
        res = closed_form(p, a, b, co)
    A, t, u, expA = expected
    assert res.A.tobytes() == A.tobytes()
    assert np.array([res.t, res.u]).tobytes() == np.array([t, u]).tobytes()
    assert res.expA.tobytes() == expA.tobytes()


def test_entries_match_adjoint_rep_of_class_algebra():
    # closed_form's A, formed from the bracket table without the constants
    # array, is adjoint_rep's A byte for byte, overflow included; where 2
    # alpha is inf and a coordinate zero, both hold NaN (0 * inf) in the
    # same places
    rng = np.random.default_rng(75)
    cases = [(ClassParams(cid, alpha, beta), a, b, co)
             for cid in CLASS_IDS for alpha, beta, a, b, co in draws(rng, 1500)]
    nan_seen = 0
    for p, a, b, co in cases + edge_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array(_adjoint_entries(p, a, b, co)).reshape(3, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            want = adjoint_rep(class_algebra(p), a, b, co)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), (p, a, b, co)
        assert np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes(), (p, a, b, co)
        nan_seen += nan.any()
    assert nan_seen


# --- the validation gate ------------------------------------------------------


def replaced_classify(c, tol=1e-12):
    y = _CLASSIFY @ replaced_lie_algebra(c)[_INDEP] + 0.0
    return _report(y[:14].tolist(), LeeForms(y[14:17], y[17:20], y[20:]), tol)


# each public function next to its composition from the replaced gate
GATED = (
    (structure_constants, replaced_structure_constants),
    (jacobi_defect, lambda c: replaced_jacobi_defect(replaced_structure_constants(c))),
    (connection_coeffs, lambda c: _koszul(replaced_lie_algebra(c)).reshape(3, 3, 3)),
    (f_tensor, lambda c: _nabla_phi(_koszul(replaced_lie_algebra(c)).reshape(3, 3, 3))),
    (classify_manifold, replaced_classify),
)


def as_bytes(value):
    """Every float of a result, as bytes, with its shape and labels."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    lee = value.lee
    floats = [value.alpha, value.beta]
    floats += [x for ab in value.params.values() for x in ab]
    return (
        value.verdict,
        list(value.params),
        value.para_sasakian,
        np.array(floats).tobytes(),
        np.concatenate((lee.theta, lee.theta_star, lee.omega)).tobytes(),
    )


def outcome(fn, c):
    try:
        return "ok", as_bytes(fn(c))
    except ValueError as exc:
        return "raised", type(exc), str(exc)


def seeded_constants(rng, n):
    """n antisymmetric C, each with its own scale and spread of decades."""
    out = []
    for _ in range(n):
        spread = rng.choice([0.0, 3.0, 30.0])
        raw = rng.normal(size=(3, 3, 3)) * 10.0 ** (
            rng.uniform(spread - 300, 300 - spread) + spread * rng.uniform(-1, 1, (3, 3, 3)))
        raw[rng.random((3, 3, 3)) < 0.2] = 0.0
        out.append(raw - raw.transpose(1, 0, 2))
    return out


def class_constants(rng, n):
    """n algebras of the seven classes and of sums of two, over 300 decades."""
    out = []
    for _ in range(n):
        alpha, beta = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-300, 300, 2)
        c = class_algebra(ClassParams(rng.choice(CLASS_IDS), alpha, beta))
        if rng.random() < 0.3:
            c = c + class_algebra(ClassParams(rng.choice(CLASS_IDS), alpha * rng.uniform(-3, 3)))
        out.append(c)
    return out


def corrupted(rng, constants):
    """Each C with one entry made NaN or +-inf, or its antisymmetry broken."""
    out = []
    for c in constants:
        c = c.copy()
        i, j, k = rng.integers(0, 3, 3)
        kind = rng.integers(0, 5)
        if kind == 0:
            c[i, j, k] = math.nan
        elif kind == 1:
            c[i, j, k] = rng.choice([math.inf, -math.inf])
        elif kind == 2:  # antisymmetric, yet infinite
            c[i, j, k], c[j, i, k] = (math.inf, -math.inf) if i != j else (0.0, 0.0)
        elif kind == 3:
            c[i, j, k] = c[i, j, k] * (1.0 + 2.0**-52) + 1e-300
        else:
            c[i, i, k] = 10.0 ** rng.uniform(-300, 300)
        out.append(c)
    return out


def double_range_edge():
    """C with max|C| at 2**1023, the range rule's edge, and one ulp below."""
    out = []
    for top in (2.0**1023, math.nextafter(2.0**1023, 0.0)):
        for cid in CLASS_IDS:
            out.append(class_algebra(ClassParams(cid, top, -top)))
        out.append(class_algebra(ClassParams("F8", top / 2.0)))
        out.append(class_algebra(ClassParams("F4", top)) + class_algebra(ClassParams("F5", top / 3)))
        rng = np.random.default_rng(71)
        for _ in range(20):
            raw = rng.uniform(-1.0, 1.0, (3, 3, 3))
            unit = raw - raw.transpose(1, 0, 2)
            out.append(unit / np.max(np.abs(unit)) * top)
    return out


def gate_inputs():
    rng = np.random.default_rng(73)
    seeded = seeded_constants(rng, 1500) + class_constants(rng, 1500)
    return seeded + corrupted(rng, seeded[::2]) + double_range_edge()


@pytest.mark.parametrize("jacobi_tol", [levicivita.JACOBI_TOL, math.inf])
def test_gate_bit_identical_to_the_replaced_gate(monkeypatch, jacobi_tol):
    # with the Jacobi check off, random constants reach the map and the
    # range rule too, and Gamma of a non-algebra near 2**1023 can overflow
    # to the same inf on both sides; the replaced gate reads the same
    # JACOBI_TOL
    monkeypatch.setattr(levicivita, "JACOBI_TOL", jacobi_tol)
    seen = set()
    with np.errstate(over="ignore" if jacobi_tol == math.inf else "warn"):
        for c in gate_inputs():
            for new, old in GATED:
                got = outcome(new, c)
                assert got == outcome(old, c), (new.__name__, c.tolist())
                seen.add((new.__name__, got[0], got[-1] if got[0] == "raised" else None))
    # every outcome of the gate is exercised, on every route through it
    messages = {m for *_, m in seen if m}
    assert any(m.startswith("Jacobi identity violated") for m in messages) == (jacobi_tol < math.inf)
    assert {"structure constants must be finite",
            "structure constants must be antisymmetric in (i, j)",
            "structure constants overflow double precision (max |C| >= 2**1023)"} <= messages
    assert {name for name, kind, _ in seen if kind == "ok"} == {fn.__name__ for fn, _ in GATED}


# --- nabla phi read from the structure ------------------------------------------


def replaced_connection(c):
    return replaced_koszul(replaced_lie_algebra(c)).reshape(3, 3, 3)


def replaced_f_tensor(c):
    return replaced_nabla_phi(replaced_koszul(replaced_lie_algebra(c))).reshape(3, 3, 3)


def test_connection_and_f_tensor_bit_identical_to_the_replaced_path():
    accepted = 0
    for c in gate_inputs():
        for new, old in ((connection_coeffs, replaced_connection), (f_tensor, replaced_f_tensor)):
            got = outcome(new, c)
            assert got == outcome(old, c), (new.__name__, c.tolist())
            accepted += got[0] == "ok"
    assert accepted > 1000


def test_f_tensor_clears_the_negative_zeros_the_gathers_copied():
    # the commutator's sums start from +0.0, so where a gather copied a
    # negative zero of Gamma, F holds +0.0; Gamma and every other bit of F
    # are the replaced path's
    rng = np.random.default_rng(79)
    cases = [class_algebra(ClassParams(cid, a, -a)) for cid in CLASS_IDS for a in (0.0, -0.0)]
    for c in class_constants(rng, 500):
        c[(c == 0.0) & (rng.random((3, 3, 3)) < 0.5)] = -0.0
        cases.append(c)
    cleared = 0
    for c in cases:
        if outcome(connection_coeffs, c)[0] == "raised":
            continue
        assert connection_coeffs(c).tobytes() == replaced_connection(c).tobytes(), c.tolist()
        want = replaced_f_tensor(c)
        assert f_tensor(c).tobytes() == (want + 0.0).tobytes(), c.tolist()
        cleared += want.tobytes() != (want + 0.0).tobytes()
    assert cleared > 0
