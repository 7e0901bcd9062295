"""Reference code that only the tests use, kept out of the library.

``annihilator`` detects a low-degree polynomial identity of a matrix with no
class label, by a least-squares fit and a heuristic absolute threshold; the
tests use it to cross-check the closed forms.  ``bracket`` is the einsum
form of the Lie bracket.  ``classify_by_projection`` is the classification
path that one fused linear map replaced, step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from paralie.levicivita import _koszul, _nabla_phi
from paralie.mat3 import max_abs, trace, trace_sq
from paralie.structure import _BASIS, _NORM_SQ, CLASS_IDS, lee_forms


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


@dataclass(frozen=True)
class Projection:
    """What ``classify_by_projection`` recovers from one set of constants."""

    verdict: list
    coef: np.ndarray  # (14,): alpha, beta of each class in CLASS_IDS order
    lee: np.ndarray  # (9,): theta, theta*, omega
    residual: float


def classify_by_projection(c, tol: float = 1e-12) -> Projection:
    """Gamma from C and F = nabla phi from Gamma (the maps of f_tensor), each
    parameter the projection of F onto its basis pattern, the residual the
    max-abs of what the patterns leave over, and the Lee forms contracted
    from F.  C is taken as given: no check of any kind, Jacobi included."""
    f = _nabla_phi(_koszul(np.asarray(c, dtype=float).reshape(27)))
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
