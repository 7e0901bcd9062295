"""Levi-Civita connection of the left-invariant orthonormal metric.

For left-invariant fields and a constant metric the Koszul formula collapses
to 2 g(nabla_X Y, Z) = g([X,Y],Z) - g([X,Z],Y) - g([Y,Z],X), so the
connection coefficients are linear in the structure constants:

    Gamma[i][j][k] = C[i][j][k]/2 - C[i][k][j]/2 - C[j][k][i]/2,

and nabla phi, for the phi of the standard structure, is one commutator per
frame vector, F[i] = phi Gamma[i] - Gamma[i] phi: algebra -> connection ->
tensor -> class and parameters.  Every step is linear, so classification
applies the composite once: a fixed (23, 9) matrix on the nine independent
constants.  Its class patterns are F of lie.class_algebra at unit
parameters, so the bracket table is the one per-class table.

classify_manifold and connection_coeffs are straight-line functions, their
kernels, generated at import and compiled from their source strings
(_CLASSIFY_SOURCE, _CONNECTION_SOURCE) by _codegen, as expengine's
exponentials are.  Both open with the same emitted prologue, the gate: C
read once into Python floats, lie._validated (the size, antisymmetry and
finiteness check), lie._jacobi tested against JACOBI_TOL, read from this
module, and the 2**1023 range rule.  connection_coeffs then runs _koszul,
and f_tensor runs _nabla_phi on its result.  classify_manifold forms each
class's alpha and beta from the map's rows as named floats (a zero row is
the literal 0.0, never tested), reads tol with mat3._positive_tol, decides
the verdict and the dominant class in straight-line ifs in CLASS_IDS order,
and packs the Lee forms into one (3, 3) array whose rows are theta, theta*
and omega.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ._codegen import _ZERO, _Src, define
from .lie import _flat, _jacobi, _validated, class_algebra
from .mat3 import _positive_tol, _real
from .structure import _LEE, CLASS_IDS, PARA_SASAKIAN_THETA0, PARA_SASAKIAN_TOL, ClassParams
from .structure import ClassReport, LeeForms, standard_structure

JACOBI_TOL = 1e-12

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
# map as straight-line sums in its generated kernel (_CLASSIFY_SOURCE).
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
# the Lee forms' nine floats, written as native doubles into one (3, 3) array
_pack9_into = struct.Struct("9d").pack_into
# Row 10 (F10's alpha), the one row with three terms, sums them in the order
# of the matvec on x86-64 OpenBLAS; a two-term sum is the same either way.
_SUM_ORDER = {10: ("p2", "r0", "q1")}


# The pair of every class recovered as exactly zero.  The generated sums end
# in + 0.0, which makes each zero positive, so sharing one tuple keeps the
# bits and leaves the cyclic garbage collector fewer objects.
_ZERO_PAIR = (0.0, 0.0)


def _sum(n: int, row: dict) -> _Src:
    """Row n of _CLASSIFY ({variable: coefficient}) summed on the names: the
    nonzero terms, exact outside the subnormals, and + 0.0 to clear -0.0;
    a zero row is _ZERO."""
    s = _ZERO
    for x in _SUM_ORDER.get(n, _PQR):
        s = s + row[x] * _Src(x)
    return s if s == _ZERO else _Src(f"{s} + 0.0")


def _kernel(signature: str, doc: str, body: list) -> str:
    """A kernel's source: its docstring, the gate (module docstring), body."""
    return "\n".join([
        f"def {signature}:",
        f'    """{doc}"""',
        '    flat = _real(c, "structure constants").ravel()',
        "    pqr, m = _validated(flat.tolist())",
        "    defect = _jacobi(pqr, m)",
        "    if defect > JACOBI_TOL:",
        "        raise NotALieAlgebraError(defect)",
        "    if m >= 2.0**1023:",
        '        raise ValueError("structure constants overflow double precision (max |C| >= 2**1023)")',
        *body,
    ]) + "\n"


def _classify_source() -> str:
    """The kernel classify_manifold(c, tol) as Python source (module docstring)."""
    rows = [_sum(n, dict(zip(_PQR, row))) for n, row in enumerate(_CLASSIFY.tolist())]
    k = 2 * len(CLASS_IDS)
    # alpha and beta of class n are named an and bn, or are the literal 0.0
    # where their row is zero (the beta of a one-parameter class)
    names = [f"{'ab'[n % 2]}{n // 2}" if rows[n] != "0.0" else "0.0" for n in range(k)]
    params, verdict = [], []
    for cid, a, b in zip(CLASS_IDS, names[::2], names[1::2]):
        nonzero = [x for x in (a, b) if x != "0.0"]
        s = ", ".join(f"abs({x})" for x in nonzero)
        params.append(f'        "{cid}": ({a}, {b}) if {" or ".join(nonzero)} else _ZERO_PAIR,')
        verdict += [f"    s = {s if len(nonzero) == 1 else f'max({s})'}",
                    "    if s > tol:",
                    f'        verdict.append("{cid}")',
                    "        if s > size:",
                    f"            alpha, beta, size = {a}, {b}, s"]
    return _kernel("classify_manifold(c, tol=1e-12)", """\
Classify the manifold carried by a Lie algebra with orthonormal frame.

    C is checked as in connection_coeffs, then tol, the verdict threshold,
    must be a positive finite number (ValueError).
    """, [
        f"    {', '.join(_PQR)} = pqr",
        "    tol = _positive_tol(tol)",
        *[f"    {x} = {row}" for x, row in zip(names, rows) if x != "0.0"],
        "    params = {", *params, "    }",
        "    verdict = []  # the detected classes, in CLASS_IDS order",
        "    alpha = beta = size = 0.0  # the dominant class's; the first one wins a tie",
        *verdict,
        f"    theta0 = {rows[k]}",
        "    lee = np.empty((3, 3))",
        "    _pack9_into(lee, 0, theta0,", *[f"                {x}," for x in rows[k + 1:]], "    )",
        '    para_sasakian = verdict == ["F4"] and (',
        "        abs(theta0 - PARA_SASAKIAN_THETA0) <= PARA_SASAKIAN_TOL)",
        '    return ClassReport(verdict or ["F0"], alpha, beta,',
        "                       LeeForms(lee[0], lee[1], lee[2]), para_sasakian, params)",
    ])


_CONNECTION_SOURCE = _kernel("connection_coeffs(c)", """\
Connection coefficients Gamma[i][j][k] = g(nabla_{e_i} e_j, e_k).

    Metric compatibility (antisymmetry in the last two slots) and
    torsion-freeness (Gamma[i][j] - Gamma[j][i] = C[i][j]) hold by
    construction.  Constants that are not real numbers, not finite, not
    antisymmetric or have max|C| >= 2**1023 raise ValueError; constants
    whose Jacobi defect exceeds JACOBI_TOL raise NotALieAlgebraError.
    """, ["    return _koszul(flat).reshape(3, 3, 3)"])

# The two kernels, compiled once, as dataclasses does its methods; the texts
# are kept for reading.
_CLASSIFY_SOURCE = _classify_source()
define(_CLASSIFY_SOURCE, "<paralie.levicivita._CLASSIFY_SOURCE>", globals())  # classify_manifold
define(_CONNECTION_SOURCE, "<paralie.levicivita._CONNECTION_SOURCE>", globals())  # connection_coeffs


def f_tensor(c: np.ndarray) -> np.ndarray:
    """Frame components F[i][j][k] = g((nabla_{e_i} phi) e_j, e_k).

    phi is that of the standard structure on the orthonormal frame.  C is
    checked as in connection_coeffs.  |F| is at most 3 max|C|, so for
    max|C| > 2**1024 / 3 a component can pass double range: that is a
    ValueError, as in closed_form.
    """
    return _nabla_phi(connection_coeffs(c))
