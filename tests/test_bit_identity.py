"""The scalar exponential path against the formulas it replaced, bit for bit.

``class_algebra``, ``adjoint_rep``, ``trace_sq`` and ``closed_form`` were
rewritten to cost less per call with the same floating-point operations in
the same order.  The replaced formulas are written out here, and A, t, u and
expA must match them byte for byte (``tobytes``), including the sign of
zero, on a seeded sample of all seven classes whose parameters and
coordinates span 300 decades either way; where they overflow, closed_form
must raise its documented ValueError.
"""

import math

import numpy as np
import pytest

from paralie.expengine import closed_form
from paralie.lie import class_algebra
from paralie.mat3 import trace
from paralie.structure import CLASS_IDS, ClassParams


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
