"""Structure constants of the class-parameterized 3D Lie algebras.

Constants are stored as C[i][j][k] with [E_i, E_j] = C_ij^k E_k, antisymmetric
in (i, j).  One algebra family per basic class:

    F1  : [E1,E2] = alpha*E1 + beta*E2
    F4  : [E0,E1] = alpha*E2,  [E0,E2] = alpha*E1
    F5  : [E0,E1] = alpha*E1,  [E0,E2] = alpha*E2
    F8  : [E0,E1] = alpha*E2,  [E0,E2] = -alpha*E1,  [E1,E2] = 2*alpha*E0
    F9  : [E0,E1] = alpha*E1,  [E0,E2] = -alpha*E2
    F10 : [E0,E1] = -alpha*E2, [E0,E2] = alpha*E1
    F11 : [E0,E1] = alpha*E0,  [E0,E2] = beta*E0

all unlisted brackets zero, F0 Abelian.  The matrix representation of an
algebra element a*E0 + b*E1 + c*E2 is A[j][k] = -(a*C_0jk + b*C_1jk + c*C_2jk).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .mat3 import _float, _real
from .structure import ClassParams


def _flat(i, j, k):
    return 9 * i + 3 * j + k


def structure_constants(components) -> np.ndarray:
    """Validate a 3x3x3 array of bracket coefficients (antisymmetry included)."""
    flat = _real(components, "structure constants").ravel()
    _validated(flat.tolist())
    return flat.reshape(3, 3, 3)


def _validated(v: list) -> tuple[list, float]:
    """_antisymmetric's P, Q, R and m = max|C|, once m is finite too: the
    constants are then 27 finite numbers, antisymmetric in (i, j)."""
    pqr, m = _antisymmetric(v)
    if m == math.inf:
        raise ValueError("structure constants must be finite")
    return pqr, m


def _antisymmetric(v: list) -> tuple[list, float]:
    """P, Q, R = C_01, C_02, C_12 and their max-abs m (max|C|), once the flat
    components v (Python floats) are 27, antisymmetric and not NaN: one pass
    over 27 named floats, compared, not added (a sum can overflow).  A NaN
    fails a mirror or is a nonzero diagonal entry; an inf passes where its
    mirror is -inf, and is then in P, Q or R, where m is inf."""
    try:
        (d00, d01, d02, p0, p1, p2, q0, q1, q2, mp0, mp1, mp2, d10, d11, d12, r0, r1, r2,
         mq0, mq1, mq2, mr0, mr1, mr2, d20, d21, d22) = v
    except ValueError:
        raise ValueError(
            f"structure constants must have 3 x 3 x 3 = 27 entries, not {len(v)}") from None
    if (mp0 != -p0 or mp1 != -p1 or mp2 != -p2 or mq0 != -q0 or mq1 != -q1 or mq2 != -q2
            or mr0 != -r0 or mr1 != -r1 or mr2 != -r2
            or d00 or d01 or d02 or d10 or d11 or d12 or d20 or d21 or d22):
        if not all(map(math.isfinite, v)):
            raise ValueError("structure constants must be finite")
        raise ValueError("structure constants must be antisymmetric in (i, j)")
    m = max(abs(p0), abs(p1), abs(p2), abs(q0), abs(q1), abs(q2), abs(r0), abs(r1), abs(r2))
    return [p0, p1, p2, q0, q1, q2, r0, r1, r2], m


# Per class, the terms (i, n, m) of its nonzero constants C[i][j][k], flat
# index 9i + n with n = 3j + k, each the value m of _values, sorted.  They
# are read off the table above as brackets (i, j, k, v), C_ij^k = value v,
# each with its mirror C_ji^k = value v ^ 1, its negative.
_TERMS = {
    cid: sorted([(i, 3 * j + k, v) for i, j, k, v in brackets]
                + [(j, 3 * i + k, v ^ 1) for i, j, k, v in brackets])
    for cid, brackets in {
        "F0": [],
        "F1": [(1, 2, 1, 0), (1, 2, 2, 4)],
        "F4": [(0, 1, 2, 0), (0, 2, 1, 0)],
        "F5": [(0, 1, 1, 0), (0, 2, 2, 0)],
        "F8": [(0, 1, 2, 0), (0, 2, 1, 1), (1, 2, 0, 2)],
        "F9": [(0, 1, 1, 0), (0, 2, 2, 1)],
        "F10": [(0, 1, 2, 1), (0, 2, 1, 0)],
        "F11": [(0, 1, 0, 0), (0, 2, 0, 4)],
    }.items()
}


# class_algebra's 27 floats, written as native doubles into its array
_pack_into = struct.Struct("27d").pack_into


def _values(p: ClassParams) -> tuple:
    # the values m of _TERMS, (alpha, -alpha, 2 alpha, -2 alpha, beta, -beta);
    # the products are Python floats, so 2*alpha past double range is inf
    # without a numpy warning
    al, bt = p.alpha, p.beta
    return al, -al, 2.0 * al, -2.0 * al, bt, -bt


def class_algebra(p: ClassParams) -> np.ndarray:
    """Structure constants of the family labelled by p (F0 gives zeros); a p
    that is not a ClassParams is a ValueError."""
    if not isinstance(p, ClassParams):
        raise ValueError(f"p must be a ClassParams, not {type(p).__name__}")
    w = _values(p)
    c = [0.0] * 27
    for i, n, m in _TERMS[p.class_id]:
        c[9 * i + n] = w[m]
    out = np.empty((3, 3, 3))
    _pack_into(out, 0, *c)
    return out


def jacobi_defect(c: np.ndarray) -> float:
    """Max-abs violation of the Jacobi identity; 0 for genuine Lie algebras.

    For finite, antisymmetric C in dimension three the identity has three
    components, on P = C_01, Q = C_02 and R = C_12 (3-vectors in the upper
    index m),

        J^m = (P_0 - R_2) Q_m + (P_1 + Q_2) R_m - (R_1 + Q_0) P_m,

    as the cyclic sum over (i, j, k) is +-J^m for a permutation of (0, 1, 2)
    and 0 for a repeated index.  J runs on the constants scaled by a power of
    two to max-abs in [1/2, 1), so it cannot overflow, and is scaled back
    exactly; a defect beyond double range comes out as inf, never NaN.
    C is read and checked as structure_constants checks it: what is not 27
    finite real numbers, antisymmetric in (i, j), is a ValueError.
    """
    return _jacobi(*_validated(_real(c, "structure constants").ravel().tolist()))


def _jacobi(pqr: list, m: float) -> float:
    """jacobi_defect on P, Q, R with max-abs m, as _validated gives them.

    The nine are multiplied by s = 2**-e, exact or correctly rounded as
    math.ldexp is.  Below max-abs 2**-1021, 2**-e would be past double
    range; e is clamped to -1020 there, where the scaled entries and their
    products stay normal, so the scaled-back defect has the same bits.
    """
    e = max(math.frexp(m)[1], -1020)
    s = math.ldexp(1.0, -e)
    p0, p1, p2, q0, q1, q2, r0, r1, r2 = pqr
    p0, p1, p2, q0, q1, q2, r0, r1, r2 = (
        p0 * s, p1 * s, p2 * s, q0 * s, q1 * s, q2 * s, r0 * s, r1 * s, r2 * s)
    a, b, d = p0 - r2, p1 + q2, r1 + q0
    return _ldexp(max(abs(a * q0 + b * r0 - d * p0), abs(a * q1 + b * r1 - d * p1),
                      abs(a * q2 + b * r2 - d * p2)), 2 * e)


def _ldexp(x: float, e: int) -> float:
    # math.ldexp raises OverflowError past double range; inf instead
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def _coordinates(a, b, c) -> tuple[float, float, float]:
    """The frame coordinates (a, b, c) as Python floats.

    Each is converted once with mat3._float(), a float as it is; what that
    refuses, and a coordinate that is not finite, is a ValueError.
    """
    try:
        x = x0, x1, x2 = (a if type(a) is float else _float(a), b if type(b) is float else _float(b),
                          c if type(c) is float else _float(c))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"coordinates must be real numbers ({a!r}, {b!r}, {c!r})") from None
    if not (math.isfinite(x0) and math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("coordinates must be finite")
    return x


def adjoint_rep(c: np.ndarray, a: float, b: float, co: float) -> np.ndarray:
    """Matrix of the element with coordinates (a, b, co) on the frame.

    The coordinates are read by _coordinates(), as closed_form reads them:
    what float() refuses, and a coordinate that is not finite, is a
    ValueError.  C is then checked as structure_constants checks it, except
    that an inf mirrored by -inf passes, as class_algebra gives it past
    double range: A is C's entries times the coordinates, inf included, and
    NaN for 0 * inf, without a numpy warning.
    """
    x0, x1, x2 = _coordinates(a, b, co)
    flat = _real(c, "structure constants").ravel()
    _antisymmetric(flat.tolist())
    # one (3,) @ (3, 9) product on the negated coordinates, exactly the
    # negated product; + 0.0 clears negative zeros
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.array((-x0, -x1, -x2)) @ flat.reshape(3, 9)).reshape(3, 3) + 0.0
