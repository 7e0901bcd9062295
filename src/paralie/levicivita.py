"""Levi-Civita connection of the left-invariant orthonormal metric.

For left-invariant fields and a constant metric the Koszul formula collapses
to 2 g(nabla_X Y, Z) = g([X,Y],Z) - g([X,Z],Y) - g([Y,Z],X), so the
connection coefficients are linear in the structure constants:

    Gamma[i][j][k] = C[i][j][k]/2 - C[i][k][j]/2 - C[j][k][i]/2,

and nabla phi, for the phi of the standard structure, is one commutator per
frame vector, F[i] = phi Gamma[i] - Gamma[i] phi: algebra -> connection ->
tensor -> class and parameters.  Every step is linear, so classification
applies the composite once: a fixed (23, 9) matrix on the nine independent
constants, which the validation gate holds as Python floats, applied as 23
generated straight-line sums.  Its class patterns are F of lie.class_algebra
at unit parameters, so the bracket table is the one per-class table.
"""

from __future__ import annotations

import math

import numpy as np

from .lie import StructureConstants, _flat, _jacobi, _validated, class_algebra
from .mat3 import _real
from .structure import _LEE, CLASS_IDS, ClassParams, ClassReport, FTensor, LeeForms, _report
from .structure import standard_structure

JACOBI_TOL = 1e-12

ConnectionCoeffs = np.ndarray  # shape (3, 3, 3), Gamma[i][j][k]

# Koszul's two gathers on the flat components: C[_IKJ] is C[i][k][j] and
# C[_JKI] is C[j][k][i].
_I, _J, _K = np.indices((3, 3, 3)).reshape(3, 27)
_IKJ = _flat(_I, _K, _J)
_JKI = _flat(_J, _K, _I)

# phi of the standard structure, the one matrix nabla phi reads
_PHI = standard_structure().phi


class NotALieAlgebraError(ValueError):
    """Raised when constants fail the Jacobi identity check."""

    def __init__(self, defect: float):
        self.defect = defect
        super().__init__(f"Jacobi identity violated (defect {defect:.3e})")


def _lie_algebra(c: StructureConstants) -> tuple[np.ndarray, list]:
    """The flat components of C, and its nine independent ones P, Q, R
    (flat[_INDEP]) as Python floats, once C is an algebra this package accepts.

    The one check between structure constants and the geometry, shared by
    connection_coeffs, f_tensor and classify_manifold: C must be 27 real
    numbers, finite and antisymmetric (ValueError), pass the Jacobi check
    (NotALieAlgebraError) and have max|C| < 2**1023 (ValueError).  C is read
    once: one list of Python floats and one max|C| serve every check.
    """
    flat = _real(c, "structure constants").ravel()
    pqr, m = _validated(flat.tolist())
    defect = _jacobi(pqr, m)
    if defect > JACOBI_TOL:
        raise NotALieAlgebraError(defect)
    if m >= 2.0**1023:
        raise ValueError("structure constants overflow double precision (max |C| >= 2**1023)")
    return flat, pqr


def connection_coeffs(c: StructureConstants) -> ConnectionCoeffs:
    """Connection coefficients Gamma[i][j][k] = g(nabla_{e_i} e_j, e_k).

    Metric compatibility (antisymmetry in the last two slots) and
    torsion-freeness (Gamma[i][j] - Gamma[j][i] = C[i][j]) hold by
    construction.  Constants that are not real numbers, not finite, not
    antisymmetric or have max|C| >= 2**1023 raise ValueError; constants
    whose Jacobi defect exceeds JACOBI_TOL raise NotALieAlgebraError.
    """
    return _koszul(_lie_algebra(c)[0]).reshape(3, 3, 3)


def _koszul(c: np.ndarray) -> np.ndarray:
    """Gamma from C, both as flat components along the first axis.  Halved
    first, each term is below 2**1022 where max|C| < 2**1023: Gamma is finite."""
    h = 0.5 * c
    return h - h[_IKJ] - h[_JKI]


def _nabla_phi(gamma: np.ndarray) -> np.ndarray:
    """F[i] = phi Gamma[i] - Gamma[i] phi, on (..., 3, 3, 3) arrays.

    phi's entries are 0 and 1, so for finite Gamma both products are exact
    and only their difference rounds.  It is taken on Python floats, which
    round as numpy does and never warn: an F past double range is a
    ValueError, without a numpy warning.
    """
    x, y = (_PHI @ gamma).ravel().tolist(), (gamma @ _PHI).ravel().tolist()
    f = [p - q for p, q in zip(x, y)]
    if not all(map(math.isfinite, f)):
        raise ValueError("F tensor overflows double precision at these constants")
    return np.array(f).reshape(gamma.shape)


def f_tensor(c: StructureConstants) -> FTensor:
    """Frame components F[i][j][k] = g((nabla_{e_i} phi) e_j, e_k).

    phi is that of the standard structure on the orthonormal frame.  C is
    checked as in connection_coeffs.  |F| is at most 3 max|C|, so for
    max|C| > 2**1024 / 3 a component can pass double range: that is a
    ValueError, as in closed_form.
    """
    return _nabla_phi(connection_coeffs(c))


# Classification is linear in the nine independent constants C[i][j][k],
# i < j, since C[j][i][k] = -C[i][j][k]: one (23, 9) map, built once by
# running the maps above, the projection onto the class patterns and the Lee
# contraction on the unit antisymmetric constants.  Pattern row 2n (2n+1) is
# F of CLASS_IDS[n]'s algebra, from lie's bracket table, at unit alpha (beta).
# The rows are orthogonal; a one-parameter class's zero beta row has its
# squared norm clamped to 1.  Rows 0-13 are the parameters, 14-22 Lee forms.
# Every entry is +-1/2, +-1 or +-2, at most three per row, so a pure class is
# recovered exactly, and each row's L1 norm is at most 2, so below
# max|C| = 2**1023 nothing overflows.  The patterns span every F that an
# algebra induces, so nothing is left over.  classify_manifold applies the
# map as straight-line sums generated from it (_RECOVER_SOURCE).
_INDEP = np.flatnonzero(_I < _J)


def _fused_map() -> np.ndarray:
    u = np.zeros((27, 9))  # column n: C[i][j][k] = 1 = -C[j][i][k]
    u[_INDEP, np.arange(9)] = 1.0
    u = u.reshape(3, 3, 3, 9)
    gamma = _koszul((u - u.transpose(1, 0, 2, 3)).reshape(27, 9))
    f = _nabla_phi(gamma.reshape(3, 3, 3, 9).transpose(3, 0, 1, 2)).reshape(9, 27).T
    basis = np.array([class_algebra(ClassParams(cid, *ab)).reshape(27)[_INDEP]
                      for cid in CLASS_IDS for ab in ((1.0, 0.0), (0.0, 1.0))]) @ f.T
    norm_sq = np.maximum(np.sum(basis**2, axis=1), 1.0)
    return np.vstack((basis @ f / norm_sq[:, None], _LEE @ f))


_CLASSIFY = _fused_map()


_PQR = ("p0", "p1", "p2", "q0", "q1", "q2", "r0", "r1", "r2")
# Row 10 (F10's alpha), the one row with three terms, sums them in the order
# of the matvec on x86-64 OpenBLAS; a two-term sum is the same either way.
_SUM_ORDER = {10: ("p2", "r0", "q1")}


def _sum(n: int, row: dict) -> str:
    """Row n of _CLASSIFY ({variable: coefficient}) as a line of Python: the
    nonzero terms, exact outside the subnormals, and + 0.0 to clear -0.0."""
    terms = [x if row[x] == 1.0 else f"{row[x]!r} * {x}"
             for x in _SUM_ORDER.get(n, _PQR) if row[x]]
    return f"        {' + '.join(terms + ['0.0']) if terms else '0.0'},\n"


# classify_manifold's sums, generated and compiled once, as dataclasses does
# its methods; the text is kept for reading.
_ROWS = [_sum(n, dict(zip(_PQR, row))) for n, row in enumerate(_CLASSIFY.tolist())]
_RECOVER_SOURCE = f"""def _recover(pqr):
    {", ".join(_PQR)} = pqr
    coef = [
{"".join(_ROWS[:14])}    ]
    lee = np.array((
{"".join(_ROWS[14:])}    ))
    return coef, LeeForms(lee[:3], lee[3:6], lee[6:])
"""
exec(compile(_RECOVER_SOURCE, "<_RECOVER_SOURCE>", "exec"), globals())  # defines _recover


def classify_manifold(c: StructureConstants, tol: float = 1e-12) -> ClassReport:
    """Classify the manifold carried by a Lie algebra with orthonormal frame.

    C is checked as in connection_coeffs, then tol, the verdict threshold,
    must be a positive finite number (ValueError).
    """
    return _report(*_recover(_lie_algebra(c)[1]), tol)
