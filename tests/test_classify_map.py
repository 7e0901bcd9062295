"""classify_manifold's fused (23, 9) map against the path it replaced.

The replaced path (connection coefficients, nabla phi, projection onto the
14 basis patterns with a residual, Lee contraction) lives in
``reference.classify_by_projection``.  The fused map must be that path on
the nine unit antisymmetric constants, exactly; on pure classes it must
return the parameters bit for bit.  Elsewhere verdicts must match, each
fused value must lie within the dot-product rounding bound of the exact
value (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
eq. 3.5), and the two paths must agree within 2**-51 * max|C|: the fused
values are within 2**-52 * max|C| of exact, the replaced path's within
about 1.6 times that.
"""

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
    assert report.residual == 0.0
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
    # C whether or not they do, so the check is switched off here
    monkeypatch.setattr(levicivita, "jacobi_defect", lambda c: 0.0)
    rng = np.random.default_rng(13)
    for n in range(2000):
        raw = rng.normal(size=(3, 3, 3)) * 10.0 ** rng.uniform(-200, 200)
        raw[rng.random((3, 3, 3)) < 0.2] = 0.0
        assert_matches_reference(raw - raw.transpose(1, 0, 2), exact=n % 4 == 0)
