"""Dense 3x3 matrix helpers on top of numpy.

Matrices are plain ``(3, 3)`` float64 arrays and vectors are ``(3,)`` arrays.
``mat3``/``vec3`` validate shape and finiteness once; the remaining helpers
assume well-formed input.  The exponential here is a deliberately simple
scaling-and-squaring series, kept independent from the closed-form group
exponentials so it can serve as their numerical referee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

Mat3 = np.ndarray
Vec3 = np.ndarray


def mat3(entries) -> Mat3:
    """Build a validated 3x3 float matrix (row-major)."""
    m = np.asarray(entries, dtype=float).reshape(3, 3)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def vec3(components) -> Vec3:
    """Build a validated 3-component float vector."""
    v = np.asarray(components, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


def trace(a: Mat3) -> float:
    return float(a[0, 0] + a[1, 1] + a[2, 2])


def trace_sq(a: Mat3) -> float:
    """tr(A @ A) without forming the square: sum of A[j,k] * A[k,j]."""
    return float(np.sum(a * a.T))


def max_abs(a) -> float:
    """Max-abs entry, the norm used for every tolerance in this package."""
    return float(np.abs(a).max())


def expm_oracle(a: Mat3, tol: float = 1e-15) -> Mat3:
    """Matrix exponential via scaling-and-squaring over a truncated series.

    The input is scaled by 2**-s until its max-abs norm is at most 1/2, the
    Taylor series is summed until the current term falls below tol * 2**-s
    in max-abs, and the partial sum is squared s times.  The arithmetic runs
    in extended precision so the repeated squarings do not eat into the
    float64 result; good to roughly ``tol`` per entry for norms up to ~50,
    with the conditioning of exp itself on top.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3) or not np.all(np.isfinite(a)):
        raise ValueError("expm_oracle expects a finite 3x3 matrix")

    norm = max_abs(a)
    squarings = 0
    if norm > 0.5:
        squarings = int(math.ceil(math.log2(norm / 0.5)))
    scale = 2.0 ** squarings
    scaled = a.astype(np.longdouble) / scale
    threshold = tol / scale

    result = np.eye(3, dtype=np.longdouble)
    term = np.eye(3, dtype=np.longdouble)
    k = 1
    while True:
        term = (term @ scaled) / k
        result = result + term
        if max_abs(term) < threshold:
            break
        k += 1
        if k > 300:  # unreachable once the norm is scaled below 1/2
            raise RuntimeError("exponential series failed to converge")
    for _ in range(squarings):
        result = result @ result
    return result.astype(float)


@dataclass(frozen=True)
class Annihilator:
    """A low-degree polynomial identity satisfied by a matrix.

    kind == "quadratic" means A @ A == kappa * A,
    kind == "cubic"     means A @ A @ A == kappa * A.
    """

    kind: str
    kappa: float


def _fit_kappa(power: Mat3, a: Mat3, tol: float, fallback: float) -> float:
    # Least squares for power ~ kappa * a over entries that are clearly
    # nonzero; near the zero matrix the trace-based fallback is used.
    mask = np.abs(a) > tol
    if not mask.any():
        return fallback
    return float(np.sum(power[mask] * a[mask]) / np.sum(a[mask] ** 2))


def annihilator(a: Mat3, tol: float = 1e-9) -> Optional[Annihilator]:
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
