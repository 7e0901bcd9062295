"""The verdict's decision points, each against the verdict pass it replaced.

classify_manifold forms the parameters, the verdict and the report in one
generated kernel.  At every threshold the kernel decides on, its report must be that of ``reference.replaced_report`` on the
same recovered parameters, byte for byte: |alpha| exactly at tol, a tie
between two classes, beta as the larger parameter of F1 and F11 (alone and
as the dominant class of a sum), alpha = 0 with beta nonzero, theta(e0) at
the edges of the para-Sasakian band, and a tol that is not positive and
finite.  The expected verdicts are also stated, so that a defect shared by
both sides fails too.

Most cases call the kernel on antisymmetric constants built from the nine
independent ones P, Q, R, with the Jacobi check switched off: the verdict
is linear in them whether or not they form an algebra, so classes can be
summed freely.
"""

import math
import warnings

import numpy as np
import pytest

from paralie import levicivita
from paralie.levicivita import _CLASSIFY, _INDEP, NotALieAlgebraError, classify_manifold
from paralie.lie import class_algebra
from paralie.structure import PARA_SASAKIAN_THETA0, PARA_SASAKIAN_TOL, ClassParams, LeeForms
from reference import replaced_report

TOL = 1e-12


def pqr(*terms):
    """P, Q, R of a sum of class algebras, each term (cid, alpha[, beta])."""
    return sum(class_algebra(ClassParams(*t)).reshape(27)[_INDEP] for t in terms).tolist()


def report_bytes(r):
    """Every field of a report, floats as bytes, Lee forms as one buffer."""
    lee = r.lee
    return (
        r.verdict,
        list(r.params),
        np.array([r.alpha, r.beta] + [x for ab in r.params.values() for x in ab]).tobytes(),
        r.para_sasakian,
        np.concatenate((lee.theta, lee.theta_star, lee.omega)).tobytes(),
    )


def classify(x, tol=TOL):
    """The kernel's report on P, Q, R, once it has matched the replaced
    pass on the matvec's parameters byte for byte."""
    c = np.zeros(27)
    c[_INDEP] = x
    c = c.reshape(3, 3, 3) - c.reshape(3, 3, 3).transpose(1, 0, 2)
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(levicivita, "JACOBI_TOL", math.inf)  # any defect passes
        got = levicivita.classify_manifold(c, tol)
    y = _CLASSIFY @ np.array(x) + 0.0
    want = replaced_report(y[:14].tolist(), LeeForms(y[14:17], y[17:20], y[20:]), tol)
    assert report_bytes(got) == report_bytes(want), (x, tol)
    return got


@pytest.mark.parametrize("cid, alpha, beta", [
    ("F9", TOL, 0.0), ("F9", -TOL, 0.0), ("F1", 0.0, TOL), ("F11", -TOL, TOL), ("F10", TOL, 0.0)])
def test_parameter_exactly_at_tol_is_not_detected(cid, alpha, beta):
    r = classify(pqr((cid, alpha, beta)))
    assert r.verdict == ["F0"] and (r.alpha, r.beta) == (0.0, 0.0)
    assert r.params[cid] == (alpha, beta)
    # one step above tol is detected
    up = math.nextafter(TOL, 1.0)
    r = classify(pqr((cid, math.copysign(up, alpha) if alpha else 0.0, up if beta else 0.0)))
    assert r.verdict == [cid]


def test_a_tie_goes_to_the_first_class_in_class_ids_order():
    r = classify(pqr(("F4", 1.0), ("F5", -1.0)))
    assert r.verdict == ["F4", "F5"] and (r.alpha, r.beta) == (1.0, 0.0)
    r = classify(pqr(("F5", 2.0), ("F10", -2.0), ("F9", 1.0)))
    assert r.verdict == ["F5", "F9", "F10"] and (r.alpha, r.beta) == (2.0, 0.0)
    # F1's beta ties F11's alpha: F1 comes first
    r = classify(pqr(("F1", 0.5, -3.0), ("F11", 3.0, 0.25)))
    assert r.verdict == ["F1", "F11"] and (r.alpha, r.beta) == (0.5, -3.0)
    # the gate's path, on a sum that is an algebra
    c = class_algebra(ClassParams("F9", -0.75)) + class_algebra(ClassParams("F10", 0.75))
    got = classify_manifold(c)
    assert report_bytes(got) == report_bytes(classify(c.reshape(27)[_INDEP].tolist()))
    assert got.verdict == ["F9", "F10"] and got.alpha == -0.75


@pytest.mark.parametrize("cid", ["F1", "F11"])
def test_beta_decides_the_dominant_class(cid):
    # beta alone, alpha = 0 (a positive zero)
    r = classify(pqr((cid, 0.0, -3.0)))
    assert r.verdict == [cid] and (r.alpha, r.beta) == (0.0, -3.0)
    assert math.copysign(1.0, r.alpha) == 1.0
    # beta above tol with alpha below it
    r = classify(pqr((cid, 1e-13, 2e-12)))
    assert r.verdict == [cid] and (r.alpha, r.beta) == (1e-13, 2e-12)
    # beta, not alpha, makes the class dominant over another one
    other = ("F4", 1.5) if cid == "F1" else ("F5", 1.5)
    r = classify(pqr(other, (cid, 0.5, -2.0)))
    assert (r.alpha, r.beta) == (0.5, -2.0)
    r = classify(pqr(other, (cid, 0.5, -1.0)))
    assert (r.alpha, r.beta) == (1.5, 0.0)


def theta0_edges():
    """The last theta(e0) on each side of -2 that the band holds, and the
    first one past it."""
    out = []
    for side in (-1.0, 1.0):
        t = PARA_SASAKIAN_THETA0 + side * PARA_SASAKIAN_TOL
        while abs(t - PARA_SASAKIAN_THETA0) > PARA_SASAKIAN_TOL:
            t = math.nextafter(t, PARA_SASAKIAN_THETA0)
        while abs(math.nextafter(t, side * math.inf) - PARA_SASAKIAN_THETA0) <= PARA_SASAKIAN_TOL:
            t = math.nextafter(t, side * math.inf)
        out += [(t, True), (math.nextafter(t, side * math.inf), False)]
    return out


@pytest.mark.parametrize("theta0, inside", theta0_edges())
def test_para_sasakian_band_edges(theta0, inside):
    # theta(e0) is 2 alpha on F4 (P2 + Q1), exactly
    c = class_algebra(ClassParams("F4", theta0 / 2))
    r = classify_manifold(c)
    assert report_bytes(r) == report_bytes(classify(c.reshape(27)[_INDEP].tolist()))
    assert r.lee.theta[0] == theta0 and r.verdict == ["F4"]
    assert r.para_sasakian is inside
    # a second detected class takes it away
    assert not classify(pqr(("F4", theta0 / 2), ("F5", 1e-6))).para_sasakian


BAD_TOLS = (0.0, -1.0, math.nan, math.inf, "x", None)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_a_tol_that_is_not_positive_and_finite_is_a_value_error(tol):
    for cid in ("F4", "F11"):
        with pytest.raises(ValueError, match="tol must be positive"):
            classify_manifold(class_algebra(ClassParams(cid, 1.0)), tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            replaced_report([0.0] * 14, None, tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_the_constants_are_refused_before_tol(tol):
    non_lie = class_algebra(ClassParams("F1", 1.0, 1.0)) + class_algebra(ClassParams("F11", 1.0, 1.0))
    with pytest.raises(NotALieAlgebraError):
        classify_manifold(non_lie, tol)
    bent = class_algebra(ClassParams("F4", 1.0))
    bent[1, 0, 2] = 0.5
    with pytest.raises(ValueError, match="antisymmetric"):
        classify_manifold(bent, tol)
    with pytest.raises(ValueError, match="27 entries"):
        classify_manifold(np.zeros(26), tol)
