"""Reference code that only the tests use, kept out of the library.

``annihilator`` detects a low-degree polynomial identity of a matrix with no
class label, by a least-squares fit and a heuristic absolute threshold; the
tests use it to cross-check the closed forms.  ``bracket`` is the einsum
form of the Lie bracket.  ``PATTERN_CELLS`` is the paper's table of the
seven class patterns, the trilinear forms of ``paralie.structure``'s
docstring, kept here because the library derives its patterns from the
bracket table instead; ``_BASIS`` and ``_NORM_SQ`` are its 14 rows and their
squared norms.  ``class_pattern`` and ``lee_forms`` build a class pattern
from two rows of that basis and contract the Lee forms out of a tensor, the
ground truth for F and for the Lee forms.
``classify_by_projection`` is the classification path that one fused
linear map replaced, step by step, on ``replaced_koszul`` and
``replaced_nabla_phi``: the Koszul sums before C was halved first, and
nabla phi as two gathers from Gamma, phi hard-coded as an index map.
``jacobi_defect_matmul`` the 81-entry Jacobi defect that the three-component
identity replaced.  ``replaced_structure_constants``,
``replaced_jacobi_defect`` and ``replaced_lie_algebra`` are the validation
gate before it read C once: each check converted C to Python floats on its
own, and max|C| was taken twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from paralie import levicivita
from paralie.levicivita import NotALieAlgebraError
from paralie.lie import _flat, _ldexp
from paralie.mat3 import max_abs, trace, trace_sq
from paralie.structure import _LEE, CLASS_IDS, ClassParams, LeeForms, _dense


@dataclass(frozen=True)
class Annihilator:
    """A low-degree polynomial identity satisfied by a matrix.

    kind == "quadratic" means A @ A == kappa * A,
    kind == "cubic"     means A @ A @ A == kappa * A.
    """

    kind: str
    kappa: float


def _fit_kappa(power, a, tol: float, fallback: float) -> float:
    # Least squares for power ~ kappa * a over entries that are clearly
    # nonzero; near the zero matrix the trace-based fallback is used.
    mask = np.abs(a) > tol
    if not mask.any():
        return fallback
    return float(np.sum(power[mask] * a[mask]) / np.sum(a[mask] ** 2))


def annihilator(a, tol: float = 1e-9) -> Optional[Annihilator]:
    """Detect A^2 = kappa*A or A^3 = kappa*A, or return None.

    The quadratic identity is tried first (it also covers nilpotent input
    with kappa ~ 0).  Residuals are compared against tol scaled by the
    matching power of the max-abs norm.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a = np.asarray(a, dtype=float)
    norm = max_abs(a)
    a2 = a @ a

    kappa = _fit_kappa(a2, a, tol, fallback=trace(a))
    if max_abs(a2 - kappa * a) <= tol * (1.0 + norm ** 2):
        return Annihilator("quadratic", kappa)

    a3 = a2 @ a
    kappa = _fit_kappa(a3, a, tol, fallback=0.5 * trace_sq(a))
    if max_abs(a3 - kappa * a) <= tol * (1.0 + norm ** 3):
        return Annihilator("cubic", kappa)

    return None


def bracket(c, x, y):
    """[x, y]^k = x^i y^j C_ij^k."""
    return np.einsum("i,j,ijk->k", x, y, c)


# Index maps on the flat components: C[_JIK] is C[j][i][k], C[_IKJ] is
# C[i][k][j], and so on.
_I, _J, _K = np.indices((3, 3, 3)).reshape(3, 27)
_JIK = _flat(_J, _I, _K)
_IKJ = _flat(_I, _K, _J)
_JKI = _flat(_J, _K, _I)

# phi of the standard structure swaps e1 and e2 (j -> 3 - j) and kills e0,
# whose components all read a zero appended to Gamma.
_PHI_J = np.where(_J == 0, 27, _flat(_I, 3 - _J, _K))
_PHI_K = np.where(_K == 0, 27, _flat(_I, _J, 3 - _K))


def replaced_koszul(c):
    """Gamma from C, both flat along the first axis, summed before halving."""
    return 0.5 * (c - c[_IKJ] - c[_JKI])


def replaced_nabla_phi(gamma):
    """F from Gamma, both flat along the first axis, as two gathers."""
    g = np.concatenate((gamma, np.zeros((1,) + gamma.shape[1:])))
    return g[_PHI_J] - g[_PHI_K]


# T[_JKIM] and T[_KIJM] shift T[i][j][k][m] cyclically in (i, j, k), flat.
_JKIM = (3 * _JKI[:, None] + np.arange(3)).reshape(81)
_KIJM = (3 * _flat(_K, _I, _J)[:, None] + np.arange(3)).reshape(81)


def jacobi_defect_matmul(c) -> float:
    """Max over all 81 cyclic sums C_ij^l C_lk^m + C_jk^l C_li^m + C_ki^l C_lj^m.

    T[i,j,k,m] = C_ij^l C_lk^m is one (9, 3) @ (3, 9) product on C scaled by
    a power of two to max-abs in [1/2, 1), and the identity sums its three
    cyclic shifts in (i, j, k); the result is scaled back exactly, inf
    beyond double range.
    """
    c = np.asarray(c, dtype=float)
    e = math.frexp(max_abs(c))[1]
    cs = np.ldexp(c, -e)
    t = (cs.reshape(9, 3) @ cs.reshape(3, 9)).reshape(81)
    return _ldexp(max_abs(t + t[_JKIM] + t[_KIJM]), 2 * e)


# Per class, the (i, j, k): weight cells of the alpha part, then of the beta
# part, read off the trilinear forms in paralie.structure's docstring.
PATTERN_CELLS = {
    "F1": ({(1, 1, 1): 2, (1, 2, 2): -2}, {(2, 1, 1): 2, (2, 2, 2): -2}),
    "F4": ({(1, 0, 1): 1, (1, 1, 0): 1, (2, 0, 2): 1, (2, 2, 0): 1}, {}),
    "F5": ({(1, 0, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (2, 1, 0): 1}, {}),
    "F8": ({(1, 0, 1): 1, (1, 1, 0): 1, (2, 0, 2): -1, (2, 2, 0): -1}, {}),
    "F9": ({(1, 0, 2): 1, (1, 2, 0): 1, (2, 0, 1): -1, (2, 1, 0): -1}, {}),
    "F10": ({(0, 1, 1): 2, (0, 2, 2): -2}, {}),
    "F11": ({(0, 0, 2): 1, (0, 2, 0): 1}, {(0, 0, 1): 1, (0, 1, 0): 1}),
}

# Rows 2n and 2n+1: the alpha and beta patterns of CLASS_IDS[n].  The rows
# are mutually orthogonal, so a parameter is the projection onto its row over
# the row's squared norm.  The one-parameter classes' beta rows are zero;
# clamping their norm to 1 makes them project to 0.
_BASIS = _dense([cells for cid in CLASS_IDS for cells in PATTERN_CELLS[cid]])
_NORM_SQ = np.maximum(np.sum(_BASIS**2, axis=1), 1.0)


def class_pattern(p: ClassParams) -> np.ndarray:
    """Full 27-component tensor of a basic-class pattern.

    The parameters enter through theta_1 = 2*alpha, theta_2 = -2*beta (F1),
    theta_0 = 2*alpha (F4), theta*_0 = 2*alpha (F5), lambda = alpha (F8),
    mu = alpha (F9), nu = 2*alpha (F10) and omega = (0, beta, alpha) (F11).
    """
    if p.class_id == "F0":
        return np.zeros((3, 3, 3))
    n = 2 * CLASS_IDS.index(p.class_id)
    return (p.alpha * _BASIS[n] + p.beta * _BASIS[n + 1]).reshape(3, 3, 3)


def lee_forms(f) -> LeeForms:
    """The Lee forms of LeeForms' docstring, contracted from frame components."""
    theta, theta_star, omega = (_LEE @ np.reshape(f, 27) + 0.0).reshape(3, 3)
    return LeeForms(theta=theta, theta_star=theta_star, omega=omega)


@dataclass(frozen=True)
class Projection:
    """What ``classify_by_projection`` recovers from one set of constants."""

    verdict: list
    coef: np.ndarray  # (14,): alpha, beta of each class in CLASS_IDS order
    lee: np.ndarray  # (9,): theta, theta*, omega
    residual: float


def classify_by_projection(c, tol: float = 1e-12) -> Projection:
    """Gamma from C and F = nabla phi from Gamma (the replaced maps), each
    parameter the projection of F onto its basis pattern, the residual the
    max-abs of what the patterns leave over, and the Lee forms contracted
    from F.  C is taken as given: no check of any kind, Jacobi included."""
    f = replaced_nabla_phi(replaced_koszul(np.asarray(c, dtype=float).reshape(27)))
    coef = _BASIS @ f / _NORM_SQ
    residual = max_abs(f - coef @ _BASIS)
    lee = lee_forms(f)
    size = np.maximum(np.abs(coef[::2]), np.abs(coef[1::2]))
    verdict = [cid for cid, s in zip(CLASS_IDS, size) if s > tol] or ["F0"]
    if residual > tol:
        verdict.append("unclassified")
    return Projection(
        verdict, coef, np.concatenate((lee.theta, lee.theta_star, lee.omega)), residual
    )


_MIRROR = _JIK.tolist()


def replaced_structure_constants(components):
    """Finiteness and antisymmetry on the 27 components as Python floats."""
    c = np.asarray(components, dtype=float).reshape(3, 3, 3)
    v = c.reshape(27).tolist()
    if [-v[n] for n in _MIRROR] != v or max(v) == math.inf:
        if not all(map(math.isfinite, v)):
            raise ValueError("structure constants must be finite")
        raise ValueError("structure constants must be antisymmetric in (i, j)")
    return c


def replaced_jacobi_defect(c) -> float:
    """The three-component identity on P, Q, R, converted from C on its own."""
    v = c.reshape(27).tolist()
    pqr = v[3:9] + v[15:18]
    e = math.frexp(max(map(abs, pqr)))[1]
    p0, p1, p2, q0, q1, q2, r0, r1, r2 = [math.ldexp(x, -e) for x in pqr]
    a, b, d = p0 - r2, p1 + q2, r1 + q0
    j = (a * q0 + b * r0 - d * p0, a * q1 + b * r1 - d * p1, a * q2 + b * r2 - d * p2)
    return _ldexp(max(map(abs, j)), 2 * e)


def replaced_lie_algebra(c) -> np.ndarray:
    """The gate as three passes: validate, Jacobi, then the range rule on
    max(flat.tolist()), which is max|C| for antisymmetric C."""
    c = replaced_structure_constants(c)
    defect = replaced_jacobi_defect(c)
    if defect > levicivita.JACOBI_TOL:
        raise NotALieAlgebraError(defect)
    flat = c.reshape(27)
    if max(flat.tolist()) >= 2.0**1023:
        raise ValueError("structure constants overflow double precision (max |C| >= 2**1023)")
    return flat
