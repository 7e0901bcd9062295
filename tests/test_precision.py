"""Closed forms and the series referee against 50-digit mpmath.

The closed forms are checked against the referee where an absolute threshold
on tr A or tr A^2 used to drop terms: a small E0 coordinate beside O(1) or
larger E1/E2 coordinates.  The referee is checked against mpmath in turn, so
a platform whose longdouble is a plain double fails here loudly instead of
silently weakening every other oracle comparison.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

from paralie.expengine import closed_form
from paralie.mat3 import expm_oracle, max_abs, trace_sq
from paralie.structure import CLASS_IDS, ClassParams

EPS = 2.0 ** -52

# mixed scales, and |tr A| resp. |tr A^2| = 1e-13 beside O(1) E1/E2 coordinates
PROBES = [
    (ClassParams("F4", 1.0), (3e-7, 1.0, 1.0)),
    (ClassParams("F4", 1.0), (1e-7, 1e3, 0.0)),
    (ClassParams("F5", 1.0), (1e-13, 1e3, 1e3)),
    (ClassParams("F1", 1.0, 1.0), (0.0, 1.0, 1.0 + 1e-13)),  # tr A = c - b
    (ClassParams("F9", 1.0), (math.sqrt(0.5e-13), 1.0, 1.0)),  # tr A^2 = 2 a^2
    (ClassParams("F10", 1.0), (math.sqrt(0.5e-13), 1.0, 1.0)),  # tr A^2 = -2 a^2
]

CORNERS = [
    (ClassParams(cid, alpha, alpha), coords)
    for cid in CLASS_IDS
    for alpha in (2.0, -2.0)
    for coords in itertools.product((-1.0, 1.0), repeat=3)
]


def _ids(cases):
    return [f"{p.class_id}-{p.alpha:g}-{coords}" for p, coords in cases]


@pytest.mark.parametrize("p,coords", PROBES, ids=_ids(PROBES))
def test_closed_form_matches_oracle_at_mixed_scales(p, coords):
    res = closed_form(p, *coords)
    assert res.branch == "generic"
    oracle = expm_oracle(res.A)
    assert max_abs(res.expA - oracle) <= 1e-15 * max(1.0, max_abs(oracle))


def test_cubic_u_matches_mpmath_without_cancellation():
    # u = (cosh r - 1)/z at z = r^2 in [1e-4, 1], where the direct form cancels
    with mpmath.workdps(50):
        for a in np.logspace(-2.0, 0.0, 50):
            res = closed_form(ClassParams("F4", 1.0), a, 0.0, 0.0)
            z = mpmath.mpf(0.5 * trace_sq(res.A))
            exact = (mpmath.cosh(mpmath.sqrt(z)) - 1) / z
            assert abs(res.u - exact) <= 4 * EPS * exact, a


def test_oracle_matches_mpmath():
    # Rounding the exact exponential to double alone is up to half an ulp,
    # 2^-53 * max(1, max_abs); one ulp leaves room for the extended-precision
    # series and squarings; a double-only referee misses it by over 200x here.
    with mpmath.workdps(50):
        for p, coords in PROBES + CORNERS:
            a = closed_form(p, *coords).A
            exact = mpmath.expm(mpmath.matrix(a.tolist()))
            oracle = expm_oracle(a)
            err = max(abs(oracle[i, j] - exact[i, j]) for i in range(3) for j in range(3))
            assert err <= EPS * max(1.0, max_abs(oracle)), (p, coords, float(err))
