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

import numpy as np

from .mat3 import Mat3, max_abs
from .structure import ClassParams

StructureConstants = np.ndarray  # shape (3, 3, 3), C[i][j][k]

# Flat index maps, built once: C[_JIK] swaps the first two slots of
# C[i][j][k]; T[_JKI] and T[_KIJ] shift the first three slots of T[i][j][k][m]
# cyclically.
_IJK = np.indices((3, 3, 3)).reshape(3, 27)
_IJKM = np.indices((3, 3, 3, 3)).reshape(4, 81)
_JIK = np.ravel_multi_index(_IJK[[1, 0, 2]], (3, 3, 3))
_JKI = np.ravel_multi_index(_IJKM[[1, 2, 0, 3]], (3, 3, 3, 3))
_KIJ = np.ravel_multi_index(_IJKM[[2, 0, 1, 3]], (3, 3, 3, 3))


def structure_constants(components) -> StructureConstants:
    """Validate a 3x3x3 array of bracket coefficients (antisymmetry included)."""
    c = np.asarray(components, dtype=float).reshape(3, 3, 3)
    if not np.isfinite(c).all():
        raise ValueError("structure constants must be finite")
    flat = c.reshape(27)
    if (flat + flat[_JIK]).any():
        raise ValueError("structure constants must be antisymmetric in (i, j)")
    return c


def _entries(brackets) -> tuple[np.ndarray, np.ndarray]:
    # flat index of each nonzero C[i][j][k] and of its mirror C[j][i][k],
    # and which of class_algebra's values each one takes
    flat = [9 * i + 3 * j + k for i, j, k, _ in brackets]
    flat += [9 * j + 3 * i + k for i, j, k, _ in brackets]
    pick = [v for *_, v in brackets] + [v ^ 1 for *_, v in brackets]
    return np.array(flat, dtype=np.intp), np.array(pick, dtype=np.intp)


# Per class, its brackets as (i, j, k, v): C_ij^k is entry v of
# (alpha, -alpha, 2 alpha, -2 alpha, beta, -beta), read off the table above;
# the mirror C_ji^k takes entry v ^ 1, its negative.
_ENTRIES = {
    cid: _entries(brackets)
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


def class_algebra(p: ClassParams) -> StructureConstants:
    """Structure constants of the family labelled by p (F0 gives zeros)."""
    flat, pick = _ENTRIES[p.class_id]
    al, bt = p.alpha, p.beta
    c = np.zeros(27)
    # the products are Python floats, so 2*alpha past double range is inf
    # without a numpy warning
    c[flat] = np.array((al, -al, 2.0 * al, -2.0 * al, bt, -bt))[pick]
    return c.reshape(3, 3, 3)


def jacobi_defect(c: StructureConstants) -> float:
    """Max-abs violation of the Jacobi identity; 0 for genuine Lie algebras.

    T[i,j,k,m] = C_ij^l C_lk^m is one (9, 3) @ (3, 9) product and the
    identity sums its three cyclic shifts in (i, j, k).  The product runs on
    C scaled by a power of two to max-abs in [1/2, 1), so it cannot
    overflow, and is scaled back exactly; a defect beyond double range comes
    out as inf, never NaN.
    """
    e = math.frexp(max_abs(c))[1]
    cs = np.ldexp(c, -e)
    t = (cs.reshape(9, 3) @ cs.reshape(3, 9)).reshape(81)
    return _ldexp(max_abs(t + t[_JKI] + t[_KIJ]), 2 * e)


def _ldexp(x: float, e: int) -> float:
    # math.ldexp raises OverflowError past double range; inf instead
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def adjoint_rep(c: StructureConstants, a: float, b: float, co: float) -> Mat3:
    """Matrix of the element with coordinates (a, b, co) on the frame."""
    # one (3,) @ (3, 9) product; + 0.0 clears negative zeros
    return -(np.array((a, b, co)) @ c.reshape(3, 9)).reshape(3, 3) + 0.0


# --- JSON forms ------------------------------------------------------------


def constants_to_json(c: StructureConstants) -> dict:
    return {"C": np.asarray(c, dtype=float).tolist()}


def constants_from_json(obj: dict) -> StructureConstants:
    """Parse constants from {"C": ...} or from a class-parameter object."""
    if "C" in obj:
        return structure_constants(obj["C"])
    if "class" in obj:
        from .structure import class_params_from_json

        return class_algebra(class_params_from_json(obj))
    raise ValueError('constants JSON must carry key "C" or key "class"')
