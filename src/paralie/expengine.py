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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lie import adjoint_rep, class_algebra
from .mat3 import Mat3, trace, trace_sq
from .structure import CLASS_IDS, ClassParams

# k = factor * tr(A) for the quadratic-identity classes; the remaining
# classes (F4, F8, F9, F10) take the cubic route
_TRACE_FACTOR = {"F1": 1.0, "F5": 0.5, "F11": 1.0}

_E = np.eye(3)  # the identity, shared read-only by every call
_E.flags.writeable = False


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


def closed_form(p: ClassParams, a: float, b: float, c: float) -> ExpResult:
    """Group element exp(a*E0 + b*E1 + c*E2) in the family labelled by p.

    Input must be one of the seven non-trivial classes; for F0 the
    exponential is the identity and needs no formula.
    """
    if p.class_id not in CLASS_IDS:
        raise ValueError(f"closed_form is defined for {CLASS_IDS}, not {p.class_id!r}")
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError("coordinates must be finite")

    # Overflow anywhere below, in numpy or in math, ends in the one raise at
    # the end: expA turns non-finite, with no warning and no chained traceback.
    with np.errstate(over="ignore", invalid="ignore"):
        A = adjoint_rep(class_algebra(p), a, b, c)
        A2 = A @ A
        try:
            if p.class_id in _TRACE_FACTOR:
                k = _TRACE_FACTOR[p.class_id] * _finite(trace(A))
                t = math.expm1(k) / k if k else 1.0
                u = 0.0
                branch = "generic" if k else "trace_zero"
            else:
                z = 0.5 * _finite(trace_sq(A))
                t, u = _cubic(z)
                # z underflows before A does, so an exact zero is read on A:
                # all of it for F8, otherwise the a*E0 block (rows and
                # columns 1, 2) that carries tr A^2
                if p.class_id == "F8":
                    branch = "generic" if z or A.any() else "zero_matrix"
                else:
                    branch = "generic" if z or A[1:, 1:].any() else "trA2_zero"
        except OverflowError:  # math.expm1/sinh, or a trace, past double range
            t = u = math.inf
        expA = _E + t * A + u * A2
    if not np.isfinite(expA).all():
        raise ValueError("exponential overflows double precision at these parameters")
    return ExpResult(A=A, t=t, u=u, branch=branch, expA=expA)


def para_sasakian_group(a: float, b: float, c: float) -> ExpResult:
    """Exponential in the para-Sasakian family (F4 at alpha = -1).

    A = [[0, -c, -b], [0, 0, a], [0, a, 0]]; for a != 0 the coefficients are
    t = sinh|a|/|a| and u = (cosh|a| - 1)/a^2, else e^A = E + A.
    """
    return closed_form(ClassParams("F4", alpha=-1.0), a, b, c)


def exp_result_to_json(res: ExpResult) -> dict:
    return {
        "A": res.A.tolist(),
        "t": res.t,
        "u": res.u,
        "branch": res.branch,
        "expA": res.expA.tolist(),
    }
