"""classify_manifold's fused (23, 9) map against the path it replaced.

The replaced path (connection coefficients, nabla phi, projection onto the
14 basis patterns with a residual, Lee contraction) lives in
``reference.classify_by_projection``; classify_manifold reports no residual,
since the patterns span every F that an algebra induces.  The fused map must be that path on
the nine unit antisymmetric constants, exactly; on pure classes it must
return the parameters bit for bit.  Elsewhere verdicts must match, each
fused value must lie within the dot-product rounding bound of the exact
value (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
eq. 3.5), and the two paths must agree within 2**-51 * max|C|: the fused
values are within 2**-52 * max|C| of exact, the replaced path's within
about 1.6 times that.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from paralie import levicivita
from paralie.levicivita import _CLASSIFY, _INDEP, classify_manifold
from paralie.lie import class_algebra
from paralie.structure import CLASS_IDS, TWO_PARAMETER_CLASSES, ClassParams
from reference import classify_by_projection

ULP = 2.0**-52
SUMMANDS = ("F4", "F5", "F9", "F10")  # classes whose sums are Lie algebras


def unit_constants(n):
    c = np.zeros(27)
    c[_INDEP[n]] = 1.0
    c = c.reshape(3, 3, 3)
    return c - c.transpose(1, 0, 2)


def fused(report):
    coef = [x for cid in CLASS_IDS for x in report.params[cid]]
    lee = report.lee
    return np.array(coef), np.concatenate((lee.theta, lee.theta_star, lee.omega))


def assert_matches_reference(c, exact=False):
    ref = classify_by_projection(c)
    report = classify_manifold(c)
    # the replaced path's residual is rounding only, but at large max|C|
    # it exceeds the absolute tol and appends "unclassified"
    assert report.verdict == [v for v in ref.verdict if v != "unclassified"]
    got = np.concatenate(fused(report))
    want = np.concatenate((ref.coef, ref.lee))
    assert np.max(np.abs(got - want)) <= 2 * ULP * np.max(np.abs(c))
    if exact:
        # a sum of n exact products is off by at most (n - 1) * 2**-53 *
        # sum |K_ij x_j|; the terms are exact, since K is +-1/2, +-1 or +-2
        x = c.reshape(27)[_INDEP].tolist()
        for row, value in zip(_CLASSIFY.tolist(), got.tolist()):
            terms = [Fraction(k) * Fraction(v) for k, v in zip(row, x) if k and v]
            bound = max(len(terms) - 1, 0) * Fraction(ULP / 2) * sum(map(abs, terms))
            assert abs(Fraction(value) - sum(terms)) <= bound


def test_map_is_the_replaced_path_on_unit_constants():
    columns = []
    for n in range(9):
        ref = classify_by_projection(unit_constants(n))
        columns.append(np.concatenate((ref.coef, ref.lee)))
        # zero on a basis of antisymmetric C, so the residual is zero on all
        assert ref.residual == 0.0
    assert np.array_equal(_CLASSIFY, np.array(columns).T)
    # the facts classify_manifold's range rule rests on
    assert set(np.abs(_CLASSIFY[_CLASSIFY != 0])) <= {0.5, 1.0, 2.0}
    assert np.max(np.count_nonzero(_CLASSIFY, axis=1)) <= 3
    assert np.max(np.sum(np.abs(_CLASSIFY), axis=1)) <= 2.0


def draws(rng, n):
    """Signed values over +-300 decades, a quarter of them exact zeros."""
    values = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-300, 300, n)
    values[rng.random(n) < 0.25] = 0.0
    return values


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_pure_classes_recovered_bit_for_bit(cid):
    rng = np.random.default_rng([11, CLASS_IDS.index(cid)])
    alphas = draws(rng, 300)
    betas = draws(rng, 300) if cid in TWO_PARAMETER_CLASSES else np.zeros(300)
    for alpha, beta in zip(alphas.tolist(), betas.tolist()):
        c = class_algebra(ClassParams(cid, alpha, beta))
        report = classify_manifold(c)
        ref = classify_by_projection(c)
        assert report.verdict == ref.verdict, (cid, alpha, beta)
        expected = {k: (0.0, 0.0) for k in CLASS_IDS}
        expected[cid] = (alpha, beta)
        got = np.array([report.params[k] for k in CLASS_IDS])
        want = np.array([expected[k] for k in CLASS_IDS])
        assert got.tobytes() == want.tobytes(), (cid, alpha, beta)


def test_sums_of_classes_match_the_reference():
    rng = np.random.default_rng(12)
    for _ in range(600):
        k = rng.integers(2, 5)
        subset = rng.choice(SUMMANDS, k, replace=False)
        scale = 10.0 ** rng.uniform(-8, 8)
        alphas = rng.choice((-1.0, 1.0), k) * scale * 10.0 ** rng.uniform(-1, 1, k)
        c = sum(class_algebra(ClassParams(cid, a)) for cid, a in zip(subset, alphas))
        assert_matches_reference(c, exact=True)


def test_random_antisymmetric_constants_match_the_reference(monkeypatch):
    # most random constants fail the Jacobi identity; the map is linear in
    # C whether or not they do, so the check is switched off here (the
    # defect is never NaN, so nothing exceeds an infinite tolerance)
    monkeypatch.setattr(levicivita, "JACOBI_TOL", math.inf)
    rng = np.random.default_rng(13)
    for n in range(2000):
        raw = rng.normal(size=(3, 3, 3)) * 10.0 ** rng.uniform(-200, 200)
        raw[rng.random((3, 3, 3)) < 0.2] = 0.0
        assert_matches_reference(raw - raw.transpose(1, 0, 2), exact=n % 4 == 0)


# --- the straight-line map ------------------------------------------------------
#
# classify_manifold applies _CLASSIFY as straight-line sums on Python floats,
# generated from it at import (levicivita._CLASSIFY_SOURCE): the nonzero terms
# of each row in the order the matvec sums them, so that the values are the
# matvec's byte for byte (tests/test_bit_identity.py).  That rests on three
# facts checked here: the sums are _CLASSIFY's rows; outside the subnormal
# range every product by +-1/2, +-1 or +-2 is exact, so each row rounds only
# in its sums; and every row whose order matters has its order stated.


def test_rows_of_three_or_more_terms_are_the_rows_with_a_stated_order():
    # the generator sums a row's terms in column order unless _SUM_ORDER
    # states another; a sum of one or two terms is the same in any order, so
    # a row of three or more needs the matvec's order stated, and a change to
    # the bracket table that adds such a row fails here by name
    nonzero = [np.flatnonzero(row).tolist() for row in _CLASSIFY]
    assert {n for n, cols in enumerate(nonzero) if len(cols) >= 3} == set(levicivita._SUM_ORDER)
    for n, order in levicivita._SUM_ORDER.items():
        assert sorted(levicivita._PQR.index(x) for x in order) == nonzero[n], n


def test_straight_line_map_is_the_map_on_unit_constants():
    for n in range(9):
        report = levicivita.classify_manifold(unit_constants(n), 1e-12)
        got = np.concatenate(fused(report))
        assert got.tobytes() == _CLASSIFY[:, n].tobytes(), n
        # the Lee forms are views of one array
        lee = report.lee
        assert lee.theta.base is lee.theta_star.base is lee.omega.base is not None


HALF_TINY = Fraction(2) ** -1075  # half the spacing of the subnormals


def rounding_bound(terms):
    """Bound on a row's computed value against the exact sum of its terms:
    each product by 1/2 of a subnormal rounds, by at most HALF_TINY, and the
    n - 1 sums are off by gamma_{n-1} of the sum of absolute values."""
    n = len(terms)
    eta = n * HALF_TINY
    gamma = (n - 1) * Fraction(ULP / 2) / (1 - (n - 1) * Fraction(ULP / 2))
    return gamma * (sum(map(abs, terms)) + eta) + eta


def test_subnormal_constants_within_the_rounding_bound(monkeypatch):
    # Random antisymmetric C whose entries reach down into the subnormals:
    # there 0.5 * x rounds, and BLAS (which may fuse the product into the
    # add) and Python floats may differ in the last bit.  Both must stay
    # within the bound; the Jacobi check is off, as above.
    monkeypatch.setattr(levicivita, "JACOBI_TOL", math.inf)
    rng = np.random.default_rng(14)
    inexact = 0
    for _ in range(500):
        raw = rng.choice((-1.0, 1.0), (3, 3, 3)) * 10.0 ** rng.uniform(-324, -300, (3, 3, 3))
        raw[rng.random((3, 3, 3)) < 0.2] = 0.0
        c = raw - raw.transpose(1, 0, 2)
        x = c.reshape(27)[_INDEP].tolist()
        got = np.concatenate(fused(classify_manifold(c)))
        blas = _CLASSIFY @ np.array(x) + 0.0
        for row, value, other in zip(_CLASSIFY.tolist(), got.tolist(), blas.tolist()):
            terms = [Fraction(k) * Fraction(v) for k, v in zip(row, x) if k and v]
            bound = rounding_bound(terms)
            assert abs(Fraction(value) - sum(terms)) <= bound, (row, x)
            assert abs(Fraction(other) - sum(terms)) <= bound, (row, x)
            inexact += Fraction(value) != sum(terms)
    # the draws reach the products that round
    assert inexact > 0
