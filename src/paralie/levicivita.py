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
from .structure import ClassReport, FTensor, _match

JACOBI_TOL = 1e-12

ConnectionCoeffs = np.ndarray  # shape (3, 3, 3), Gamma[i][j][k]


def _flat(i, j, k):
    return 9 * i + 3 * j + k


# Both linear steps are fixed index maps on the flat components, built once:
#   Gamma = (C - C[_IKJ] - C[_JKI]) / 2      (Koszul)
#   F     = G[_PHI_J] - G[_PHI_K]            (nabla phi)
# where G is Gamma with one zero appended.  phi of the standard structure
# swaps e1 and e2 (j -> 3 - j) and kills e0, whose components all read that
# zero.  Gathers keep the rounding of the contractions they replace.
_I, _J, _K = np.indices((3, 3, 3)).reshape(3, 27)
_IKJ = _flat(_I, _K, _J)
_JKI = _flat(_J, _K, _I)
_PHI_J = np.where(_J == 0, 27, _flat(_I, 3 - _J, _K))
_PHI_K = np.where(_K == 0, 27, _flat(_I, _J, 3 - _K))
_ZERO = np.zeros(1)


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
    c = c.reshape(27)
    return (0.5 * (c - c[_IKJ] - c[_JKI])).reshape(3, 3, 3)


def _nabla_phi(gamma: ConnectionCoeffs) -> np.ndarray:
    """The 27 flat components of F from those of Gamma."""
    g = np.concatenate((gamma.reshape(27), _ZERO))
    return g[_PHI_J] - g[_PHI_K]


def f_tensor(c: StructureConstants, tol: float = JACOBI_TOL) -> FTensor:
    """Frame components F[i][j][k] = g((nabla_{e_i} phi) e_j, e_k).

    phi is that of the standard structure on the orthonormal frame.
    """
    return _nabla_phi(connection_coeffs(c, tol)).reshape(3, 3, 3)


def classify_manifold(c: StructureConstants, tol: float = 1e-12) -> ClassReport:
    """Classify the manifold carried by a Lie algebra with orthonormal frame."""
    return _match(_nabla_phi(connection_coeffs(c)), tol)
