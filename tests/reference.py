"""Reference code that only the tests use, kept out of the library.

``annihilator`` detects a low-degree polynomial identity of a matrix with no
class label, by a least-squares fit and a heuristic absolute threshold; the
tests use it to cross-check the closed forms.  ``bracket`` is the einsum
form of the Lie bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from paralie.mat3 import max_abs, trace, trace_sq


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
