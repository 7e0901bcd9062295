"""Levi-Civita connection of the left-invariant orthonormal metric.

For left-invariant fields and a constant metric the Koszul formula collapses
to 2 g(nabla_X Y, Z) = g([X,Y],Z) - g([X,Z],Y) - g([Y,Z],X), so the
connection coefficients are linear in the structure constants:

    Gamma[i][j][k] = (C[i][j][k] - C[i][k][j] - C[j][k][i]) / 2.

From there the covariant derivative of phi gives the frame components of the
classifying tensor, closing the loop: algebra -> connection -> tensor ->
class and parameters.
"""

from __future__ import annotations

import numpy as np

from .lie import StructureConstants, jacobi_defect, structure_constants
from .structure import ClassReport, FTensor, match_class, standard_structure

JACOBI_TOL = 1e-12

ConnectionCoeffs = np.ndarray  # shape (3, 3, 3), Gamma[i][j][k]

_PHI = standard_structure().phi


class NotALieAlgebraError(ValueError):
    """Raised when constants fail the Jacobi identity check."""

    def __init__(self, defect: float):
        self.defect = defect
        super().__init__(f"Jacobi identity violated (defect {defect:.3e})")


def connection_coeffs(
    c: StructureConstants, tol: float = JACOBI_TOL
) -> ConnectionCoeffs:
    """Connection coefficients Gamma[i][j][k] = g(nabla_{e_i} e_j, e_k).

    Metric compatibility (antisymmetry in the last two slots) and
    torsion-freeness (Gamma[i][j] - Gamma[j][i] = C[i][j]) hold by
    construction.  Rejects non-finite or non-antisymmetric constants
    (ValueError) and constants whose Jacobi defect exceeds tol.
    """
    c = structure_constants(c)
    defect = jacobi_defect(c)
    if defect > tol:
        raise NotALieAlgebraError(defect)
    c_ikj = np.einsum("ikj->ijk", c)
    c_jki = np.einsum("jki->ijk", c)
    return 0.5 * (c - c_ikj - c_jki)


def f_tensor(c: StructureConstants, tol: float = JACOBI_TOL) -> FTensor:
    """Frame components F[i][j][k] = g((nabla_{e_i} phi) e_j, e_k).

    phi is that of the standard structure on the orthonormal frame.
    """
    gamma = connection_coeffs(c, tol)
    return np.einsum("mj,imk->ijk", _PHI, gamma) - np.einsum(
        "ijm,km->ijk", gamma, _PHI
    )


def classify_manifold(c: StructureConstants, tol: float = 1e-12) -> ClassReport:
    """Classify the manifold carried by a Lie algebra with orthonormal frame."""
    return match_class(f_tensor(c), tol)

