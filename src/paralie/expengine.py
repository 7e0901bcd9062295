"""Closed-form group exponentials e^A = E + t*A + u*A^2 for the seven families.

Every family matrix satisfies a low-degree annihilating identity that
collapses the exponential series:

  * F1, F11:  A^2 = (tr A) A        ->  t = (e^k - 1)/k with k = tr A, u = 0
  * F5:       A^2 = (tr A / 2) A    ->  same t with k = tr A / 2, u = 0
  * F4, F8, F9, F10:  A^3 = z A with z = tr(A^2)/2
                ->  t = sinh(sqrt(z))/sqrt(z), u = (cosh(sqrt(z)) - 1)/z

t and u are entire in k resp. z, so each family is evaluated by one formula
at every input.  With r = sqrt(|z|), h = r/2 and f = sinh for z > 0, sin for
z < 0 (the trigonometric regime of F8 and F10), t = f(r)/r and
u = (f(h)/h)^2 / 2, the half-angle form of (cosh r - 1)/z that does not
cancel.  The one special case is the removable singularity at an exact zero:
t = 1 at k = 0, and (t, u) = (1, 1/2) at z = 0.

Past double range the call raises ValueError, with no numpy warning and no
chained exception.  The quadratic classes never form A^2, so for them only
tr A and exp(A) = E + t*A itself can overflow.  The cubic classes form A^2
only once tr A^2 has come out finite.  In F8 that bounds it: tr A^2 =
2(A01*A10 + A02*A20 + A12*A21), three products of one sign, so a finite
tr A^2 means a finite A and no entry of A^2 above |tr A^2|.  numpy's one
product therefore sets no overflow or invalid flag and runs with numpy's
error handling as the caller set it.  F4, F9 and F10 square A on Python
floats, which never warn.

Each call is nine numbers, so the scalar work runs on Python floats.  A's
nine entries come straight from the coordinates and the class's bracket
terms (lie._TERMS, the list class_algebra writes): each nonzero C_ij^k
subtracts x_i * C_ij^k from A[j][k], in i order, the products and sums
lie.adjoint_rep forms on class_algebra's constants.  tr A, tr A^2, t, u
and the label take those floats, in the order the numpy expressions used,
and one np.array each makes A and exp(A).

exp(A) starts as E and is evaluated only where it can differ from E: on
the class's plan (_PLANS), read off the same terms at import, the entries
where A or A^2 can be nonzero (three to six of the nine outside F8).  Six
classes share one loop: each planned entry is E[n] + t*A[n] + u*(A[l]*A[r]),
checked for finiteness as it is formed.  In F4, F9 and F10 every entry of
A^2 is one product, A[l] * A[r], formed on the floats inside that entry's
expression: a single product rounds the same whether or not BLAS fuses it
with an add of zero.  Where the loop needs no A^2 (F1, F5 and F11, with
u = 0, and where A^2 is zero but A is not), l = r is an entry of A that is
always +0.0: the term adds +0.0 to E[n] + t*A[n], which is never -0.0 as
E[n] is +0.0 or 1.0, so the bits are those of E[n] + t*A[n], and no
overflowed A^2 makes 0 * inf = NaN.  Off the plan A[n] and A^2[n] are
+0.0, t is finite and u finite and not negative, so E[n] + t*0.0 + u*0.0
is E[n] to the last bit and needs no arithmetic.  Only F8's A^2, whose
diagonal sums two products, stays in numpy, on all nine entries: BLAS may
fuse that sum in a way Python floats cannot repeat, and it is
np.dot(A, A), the dgemm that A @ A runs, without the matmul ufunc's
overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lie import _TERMS, _coordinates, _values
from .mat3 import Mat3, _trace_sq
from .structure import CLASS_IDS, ClassParams

# k = factor * tr(A) for the quadratic-identity classes; the remaining
# classes (F4, F8, F9, F10) take the cubic route
_TRACE_FACTOR = {"F1": 1.0, "F5": 0.5, "F11": 1.0}

_E = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)  # the identity's entries in row order


def _plan(cid: str) -> tuple:
    """closed_form's plan for class cid: (factor, entries).

    factor is _TRACE_FACTOR's, or None for the cubic classes.  entries are
    (n, l, r), sorted by the flat index n, for every n where A or A^2 is
    structurally nonzero, with A^2[n] = A[l] * A[r] in F4, F9 and F10.
    Where closed_form needs no A^2 there (F1, F5, F11, and where A^2 is
    zero), l = r is an entry of A that is always +0.0.  F8, whose A^2
    diagonal sums two products, gets None: all nine, with np.dot(A, A).
    """
    nonzero = sorted({n for _, n, _ in _TERMS[cid]})
    zero = min(set(range(9)).difference(nonzero))
    products = [] if cid in _TRACE_FACTOR else [
        (l - l % 3 + r % 3, l, r) for l in nonzero for r in nonzero if l % 3 == r // 3]
    pairs = {n: (l, r) for n, l, r in products}
    if len(pairs) < len(products):  # an entry of A^2 sums two products
        return None, None
    return _TRACE_FACTOR.get(cid), tuple(
        (n, *pairs.get(n, (zero, zero))) for n in sorted(pairs.keys() | set(nonzero)))


_PLANS = {cid: _plan(cid) for cid in CLASS_IDS}


@dataclass(eq=False)
class ExpResult:
    """One evaluated exponential: ingredients, diagnostic label, and the element."""

    A: Mat3
    t: float
    u: float
    branch: str  # generic, or the exact zero hit: trace_zero | trA2_zero | zero_matrix
    expA: Mat3


def _finite(x: float) -> float:
    # a trace of A or A^2 beyond double range leaves t and u undefined
    if not math.isfinite(x):
        raise OverflowError
    return x


def _cubic(z: float) -> tuple[float, float]:
    # (sinh(sqrt(z))/sqrt(z), (cosh(sqrt(z)) - 1)/z) continued through z <= 0
    if z == 0.0:
        return 1.0, 0.5
    r = math.sqrt(abs(z))
    h = 0.5 * r
    f = math.sinh if z > 0.0 else math.sin
    fh = f(h) / h
    return f(r) / r, 0.5 * fh * fh


def _adjoint_entries(p: ClassParams, a: float, b: float, c: float) -> list:
    """adjoint_rep(class_algebra(p), a, b, c) as its nine entries in row
    order, Python floats formed straight from the bracket table.

    The coordinates are read by lie._coordinates, as adjoint_rep reads them,
    so no numpy scalar reaches the floats.
    """
    x = _coordinates(a, b, c)
    w = _values(p)
    v = [0.0] * 9
    for i, n, m in _TERMS[p.class_id]:
        v[n] -= x[i] * w[m]
    return v


def closed_form(p: ClassParams, a: float, b: float, c: float) -> ExpResult:
    """Group element exp(a*E0 + b*E1 + c*E2) in the family labelled by p.

    Input must be one of the seven non-trivial classes; for F0 the
    exponential is the identity and needs no formula.  Coordinates that
    float() refuses or that are not finite, and an exponential past double
    range, raise ValueError.
    """
    plan = _PLANS.get(p.class_id)
    if plan is None:
        raise ValueError(f"closed_form is defined for {CLASS_IDS}, not {p.class_id!r}")
    factor, entries = plan

    # Overflow anywhere below ends in the one raise after the try, not in
    # the except, so the ValueError carries no OverflowError as context.
    # Python floats never warn (0 * inf is NaN, as in numpy), and F8's
    # np.dot waits for a finite tr A^2, which bounds A^2 (module docstring).
    v = _adjoint_entries(p, a, b, c)
    A = np.array(v)
    A.shape = (3, 3)
    e = list(_E)
    try:
        if factor is not None:
            k = factor * _finite(v[0] + v[4] + v[8])  # tr A
            t = math.expm1(k) / k if k else 1.0
            u = 0.0  # no A^2, which overflows long before E + t*A does
            branch = "generic" if k else "trace_zero"
        else:
            z = 0.5 * _finite(_trace_sq(v))
            t, u = _cubic(z)
            # z underflows before A does, so an exact zero is read on A: all
            # of it for F8, otherwise the a*E0 block (rows and columns 1, 2)
            # that carries tr A^2
            if entries is None:
                branch = "generic" if z or any(v) else "zero_matrix"
            else:
                branch = "generic" if z or v[4] or v[5] or v[7] or v[8] else "trA2_zero"
        if entries is None:
            sq = np.dot(A, A).reshape(9).tolist()
            e = [d + t * x + u * y for d, x, y in zip(_E, v, sq)]
            if not all(map(math.isfinite, e)):
                raise OverflowError
        else:
            for n, l, r in entries:
                e[n] = x = e[n] + t * v[n] + u * (v[l] * v[r])
                if not math.isfinite(x):
                    raise OverflowError
    except OverflowError:  # math.expm1/sinh, a trace, or exp(A) past double range
        e = None
    if e is None:
        raise ValueError("exponential overflows double precision at these parameters")
    expA = np.array(e)  # owns its data, unlike a reshaped view
    expA.shape = (3, 3)
    return ExpResult(A, t, u, branch, expA)


def para_sasakian_group(a: float, b: float, c: float) -> ExpResult:
    """Exponential in the para-Sasakian family (F4 at alpha = -1).

    A = [[0, -c, -b], [0, 0, a], [0, a, 0]]; for a != 0 the coefficients are
    t = sinh|a|/|a| and u = (cosh|a| - 1)/a^2, else e^A = E + A.
    """
    return closed_form(ClassParams("F4", alpha=-1.0), a, b, c)
