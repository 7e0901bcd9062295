"""Levi-Civita connection of the left-invariant orthonormal metric.

For left-invariant fields and a constant metric the Koszul formula collapses
to 2 g(nabla_X Y, Z) = g([X,Y],Z) - g([X,Z],Y) - g([Y,Z],X), so the
connection coefficients are linear in the structure constants:

    Gamma[i][j][k] = (C[i][j][k] - C[i][k][j] - C[j][k][i]) / 2.

From there the covariant derivative of phi gives the frame components of the
classifying tensor, closing the loop: algebra -> connection -> tensor ->
class and parameters.  Every step is linear, so classification applies the
composite once, as a fixed matrix on the nine independent constants.
"""

from __future__ import annotations

import numpy as np

from .lie import _I, _IKJ, _J, _JIK, _JKI, _K, StructureConstants, _flat
from .lie import jacobi_defect, structure_constants
from .structure import _BASIS, _LEE, _NORM_SQ, ClassReport, FTensor, LeeForms, _report

JACOBI_TOL = 1e-12

ConnectionCoeffs = np.ndarray  # shape (3, 3, 3), Gamma[i][j][k]

# Both linear steps are fixed index maps on the flat components, built once:
#   Gamma = (C - C[_IKJ] - C[_JKI]) / 2      (Koszul)
#   F     = G[_PHI_J] - G[_PHI_K]            (nabla phi)
# where G is Gamma with one zero appended.  phi of the standard structure
# swaps e1 and e2 (j -> 3 - j) and kills e0, whose components all read that
# zero.  Gathers keep the rounding of the contractions they replace.
_PHI_J = np.where(_J == 0, 27, _flat(_I, 3 - _J, _K))
_PHI_K = np.where(_K == 0, 27, _flat(_I, _J, 3 - _K))


class NotALieAlgebraError(ValueError):
    """Raised when constants fail the Jacobi identity check."""

    def __init__(self, defect: float):
        self.defect = defect
        super().__init__(f"Jacobi identity violated (defect {defect:.3e})")


def _lie_algebra(c: StructureConstants) -> np.ndarray:
    """The flat components of C, once C is an algebra this package accepts.

    The one check between structure constants and the geometry, shared by
    connection_coeffs, f_tensor and classify_manifold: C must be finite and
    antisymmetric (ValueError), pass the Jacobi check (NotALieAlgebraError)
    and have max|C| < 2**1023 (ValueError).
    """
    c = structure_constants(c)
    defect = jacobi_defect(c)
    if defect > JACOBI_TOL:
        raise NotALieAlgebraError(defect)
    flat = c.reshape(27)
    # C is antisymmetric, so its largest entry is max|C|
    if max(flat.tolist()) >= 2.0**1023:
        raise ValueError("structure constants overflow double precision (max |C| >= 2**1023)")
    return flat


def connection_coeffs(c: StructureConstants) -> ConnectionCoeffs:
    """Connection coefficients Gamma[i][j][k] = g(nabla_{e_i} e_j, e_k).

    Metric compatibility (antisymmetry in the last two slots) and
    torsion-freeness (Gamma[i][j] - Gamma[j][i] = C[i][j]) hold by
    construction.  Constants that are not finite, not antisymmetric or
    have max|C| >= 2**1023 raise ValueError; constants whose Jacobi defect
    exceeds JACOBI_TOL raise NotALieAlgebraError.
    """
    return _koszul(_lie_algebra(c)).reshape(3, 3, 3)


def _koszul(c: np.ndarray) -> np.ndarray:
    """Gamma from C, both as flat components along the first axis."""
    return 0.5 * (c - c[_IKJ] - c[_JKI])


def _nabla_phi(gamma: np.ndarray) -> np.ndarray:
    """F from Gamma, both as flat components along the first axis."""
    g = np.concatenate((gamma, np.zeros((1,) + gamma.shape[1:])))
    return g[_PHI_J] - g[_PHI_K]


def f_tensor(c: StructureConstants) -> FTensor:
    """Frame components F[i][j][k] = g((nabla_{e_i} phi) e_j, e_k).

    phi is that of the standard structure on the orthonormal frame.  C is
    checked as in connection_coeffs.
    """
    return _nabla_phi(_koszul(_lie_algebra(c))).reshape(3, 3, 3)


# Classification is linear in the nine independent constants C[i][j][k],
# i < j, since C[j][i][k] = -C[i][j][k]: one (23, 9) map, built once by
# running the maps above, the projection onto the patterns and the Lee
# contraction on the unit antisymmetric constants.  Rows 0-13 are the class
# parameters, rows 14-22 the Lee forms.  Every entry is +-1/2, +-1 or +-2,
# at most three per row, so a pure class is recovered exactly, and each
# row's L1 norm is at most 2, so below max|C| = 2**1023 nothing overflows.
# F never leaves the span of the patterns here (the projection's residual
# is identically zero on antisymmetric C), so none is computed.
_INDEP = np.flatnonzero(_I < _J)


def _fused_map() -> np.ndarray:
    units = np.zeros((27, 9))  # column n: C[i][j][k] = 1 = -C[j][i][k]
    units[_INDEP, np.arange(9)] = 1.0
    units[_JIK[_INDEP], np.arange(9)] = -1.0
    f = _nabla_phi(_koszul(units))
    return np.vstack((_BASIS @ f / _NORM_SQ[:, None], _LEE @ f))


_CLASSIFY = _fused_map()


def classify_manifold(c: StructureConstants, tol: float = 1e-12) -> ClassReport:
    """Classify the manifold carried by a Lie algebra with orthonormal frame.

    C is checked as in connection_coeffs; tol is the verdict threshold.
    The report's residual is 0.0: the patterns span every F that an
    algebra induces.
    """
    y = _CLASSIFY @ _lie_algebra(c)[_INDEP] + 0.0
    return _report(y[:14].tolist(), LeeForms(y[14:17], y[17:20], y[20:]), 0.0, tol)
