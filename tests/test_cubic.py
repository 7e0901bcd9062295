"""The cubic classes' t and u against the function they replaced, bit for bit.

F4, F8, F9 and F10 take t = f(r)/r and u = (f(h)/h)^2 / 2 from lines that
the generator writes into each kernel.  Before, each kernel called one
function for them, kept verbatim as ``reference.replaced_cubic``.  On
seeded draws per class, each call must either return t and u with the bits
that replaced_cubic gives on the kernel's own z, or raise the ValueError
with no chained exception, exactly where replaced_cubic overflows or
E + t*A + u*A^2 passes double range.  With every warning an error, the
draws reach:

- z = +0.0 and z = -0.0, the latter where every product of tr A^2
  underflows below zero (F8, F10);
- subnormal z of both signs;
- |z| from 1e-300 to 1e300 in the hyperbolic (F4, F9) and the
  trigonometric (F8, F10) regime;
- both sides of sinh's overflow edge, r = asinh(DBL_MAX), about 710.476.

h off by one ulp, or the z == 0.0 case dropped, fails the draws.
"""

import ast
import math
import struct
import sys
import warnings

import numpy as np
import pytest

from paralie.expengine import _EXP_SOURCE, closed_form
from paralie.structure import ClassParams
from reference import _adjoint_entries, kernel, replaced_cubic

CUBIC = ("F4", "F8", "F9", "F10")
EDGE = math.asinh(sys.float_info.max)  # sinh(r) overflows past it
TINY = sys.float_info.min  # the smallest normal double


def kernel_z(cid):
    """Class cid's z as a function of A's nine entries: the kernel's own
    z expression, read off its text."""
    fn = kernel(_EXP_SOURCE, cid)
    expr = next(node.value for node in fn.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "z")
    code = compile(ast.Expression(expr), f"<z of {cid}>", "eval")
    return lambda v: eval(code, {f"a{n}": x for n, x in enumerate(v)})


def draws(cid):
    """(alpha, coordinates) for class cid: x0 * |alpha| at 10**e, e from
    -151 to 151 with both ends, x1 and x2 at most as large (they set z in
    F8 only); the same at 10**e for e where z is subnormal or underflows;
    r within 0.005 of EDGE; and exact zeros."""
    rng = np.random.default_rng(34000 + CUBIC.index(cid))
    out = []

    def add(scale, alpha, spread):
        for s, al in zip(scale.tolist(), alpha.tolist()):
            x1, x2 = (s * rng.uniform(-spread, spread, 2)).tolist()
            out.append((al, (s * rng.choice((-1.0, 1.0)) / abs(al), x1 / abs(al), x2 / abs(al))))

    def alphas(n):
        return rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-1.0, 1.0, n)

    e = np.concatenate(([-150.0, 150.0], rng.uniform(-151.0, 151.0, 400)))
    add(10.0 ** e, alphas(e.size), 1.0)
    e = rng.uniform(-175.0, -153.0, 300)  # z subnormal near 1e-310, zero below 1e-324
    add(10.0 ** e, alphas(e.size), 1.0)
    r = EDGE + rng.uniform(-0.005, 0.005, 200)
    add(r, rng.choice((-1.0, 1.0), r.size), 1e-3)
    out += [(1.5, (0.0, 0.0, 0.0)), (-1.5, (-0.0, 0.0, -0.0)), (0.7, (0.0, 1.3, -0.4))]
    return out


def outcomes(cid):
    """(z, replaced_cubic's (t, u) or None where it overflows, the call's
    (t, u) or None where it raises) for every draw; each refusal is a
    ValueError with no chained exception, and only where replaced_cubic
    overflows or E + t*A + u*A^2 is not finite."""
    z_of = kernel_z(cid)
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, x in draws(cid):
            p = ClassParams(cid, alpha)
            v = _adjoint_entries(p, *x)
            z = z_of(v)
            try:
                want = replaced_cubic(z)
            except OverflowError:
                want = None
            try:
                res = closed_form(p, *x)
            except ValueError as exc:
                assert exc.__cause__ is None and exc.__context__ is None, (cid, alpha, x)
                if want is not None:  # t and u finite: exp(A) must pass double range
                    a = np.array(v).reshape(3, 3)
                    with np.errstate(all="ignore"):
                        e = np.eye(3) + want[0] * a + want[1] * np.dot(a, a)
                    assert not np.isfinite(e).all(), (cid, alpha, x)
                got = None
            else:
                got = res.t, res.u
            rows.append((z, want, got))
    return rows


def bits(pair):
    return pair if pair is None else struct.pack("2d", *pair)


@pytest.mark.parametrize("cid", CUBIC)
def test_t_and_u_bit_identical_to_the_replaced_function(cid):
    rows = outcomes(cid)
    for z, want, got in rows:
        if got is not None:
            assert bits(got) == bits(want), (cid, z)
    assert sum(got is not None for _, _, got in rows) > len(rows) / 2


def test_the_draws_reach_every_case():
    # per regime: both zeros, subnormal z, |z| from 1e-300 to 1e300, and in
    # the hyperbolic one both sides of the edge, refused past it
    zs = {cid: outcomes(cid) for cid in CUBIC}
    for regime, sign in ((("F4", "F9"), 1.0), (("F8", "F10"), -1.0)):
        rows = [row for cid in regime for row in zs[cid]]
        z = [row[0] for row in rows]
        assert {math.copysign(1.0, x) for x in z if x == 0.0} == ({1.0, -1.0} if sign < 0 else {1.0})
        assert all(x * sign >= 0.0 for x in z)
        assert any(0.0 < abs(x) < TINY for x in z)
        normal = [abs(x) for x in z if abs(x) >= TINY]
        assert min(normal) <= 1e-300 and max(normal) >= 1e300
        assert any(got is not None and z != 0.0 and abs(z) < TINY for z, _, got in rows)
        near = [(want, got) for x, want, got in rows if abs(math.sqrt(abs(x)) - EDGE) < 0.005]
        if sign > 0:
            assert any(want is None for want, _ in near)  # sinh overflows
            assert any(want is not None for want, _ in near)  # it does not
            assert all(got is None for want, got in near if want is None)
        else:
            assert any(got is not None for _, got in near)  # sin does not overflow
