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

import numpy as np

from .mat3 import Mat3, Vec3
from .structure import ClassParams

StructureConstants = np.ndarray  # shape (3, 3, 3), C[i][j][k]


def structure_constants(components) -> StructureConstants:
    """Validate a 3x3x3 array of bracket coefficients (antisymmetry included)."""
    c = np.asarray(components, dtype=float).reshape(3, 3, 3)
    if not np.all(np.isfinite(c)):
        raise ValueError("structure constants must be finite")
    if np.max(np.abs(c + c.transpose(1, 0, 2))) != 0.0:
        raise ValueError("structure constants must be antisymmetric in (i, j)")
    return c


def class_algebra(p: ClassParams) -> StructureConstants:
    """Structure constants of the family labelled by p (F0 gives zeros)."""
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


def jacobi_defect(c: StructureConstants) -> float:
    """Max-abs violation of the Jacobi identity; 0 for genuine Lie algebras."""
    cyclic = (
        np.einsum("ijl,lkm->ijkm", c, c)
        + np.einsum("jkl,lim->ijkm", c, c)
        + np.einsum("kil,ljm->ijkm", c, c)
    )
    return float(np.max(np.abs(cyclic)))


def bracket(c: StructureConstants, x: Vec3, y: Vec3) -> Vec3:
    """[x, y]^k = x^i y^j C_ij^k."""
    return np.einsum("i,j,ijk->k", x, y, c)


def adjoint_rep(c: StructureConstants, a: float, b: float, co: float) -> Mat3:
    """Matrix of the element with coordinates (a, b, co) on the frame."""
    return -(a * c[0] + b * c[1] + co * c[2]) + 0.0  # + 0.0 clears negative zeros


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
