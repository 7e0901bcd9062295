"""Almost paracontact almost paracomplex Riemannian structure on the phi-basis.

The frame is {e0, e1, e2} with e0 the characteristic (Reeb-type) direction,
phi exchanging e1 and e2, and the metric orthonormal on the frame.  The
covariant derivative of phi is encoded as a (0,3)-tensor with 27 frame
components F[i][j][k]; in dimension three exactly seven of the basic classes
of such tensors survive, each a one- or two-parameter pattern:

    F1  : (2*alpha*x1 + 2*beta*x2) * (y1*z1 - y2*z2)
    F4  : alpha * (x1*(y0*z1 + y1*z0) + x2*(y0*z2 + y2*z0))
    F5  : alpha * (x1*(y0*z2 + y2*z0) + x2*(y0*z1 + y1*z0))
    F8  : alpha * (x1*(y0*z1 + y1*z0) - x2*(y0*z2 + y2*z0))
    F9  : alpha * (x1*(y0*z2 + y2*z0) - x2*(y0*z1 + y1*z0))
    F10 : 2*alpha * x0*(y1*z1 - y2*z2)
    F11 : x0 * (beta*(y0*z1 + y1*z0) + alpha*(y0*z2 + y2*z0))

F0 is the integrable case F = 0.  No table of these patterns is stored:
each is F of its class's algebra (lie's bracket table) at a unit parameter.
levicivita folds the projection onto them into its classification map, and
one kernel generated from that map forms the parameters, the verdict and
the ClassReport in one function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mat3 import _float, _real, max_abs, trace

CLASS_IDS = ("F1", "F4", "F5", "F8", "F9", "F10", "F11")
TWO_PARAMETER_CLASSES = ("F1", "F11")

# theta(e0) = -2 (dimension 3) singles out the para-Sasakian subclass of F4.
PARA_SASAKIAN_THETA0 = -2.0
PARA_SASAKIAN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PhiBasisStructure:
    """Frame data (phi, xi, eta, g) of the structure on the phi-basis."""

    phi: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    g: np.ndarray


def standard_structure() -> PhiBasisStructure:
    """The canonical structure: phi swaps e1 and e2, xi = eta = e0, g = E."""
    return PhiBasisStructure(
        phi=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        xi=np.array([1.0, 0.0, 0.0]),
        eta=np.array([1.0, 0.0, 0.0]),
        g=np.eye(3),
    )


def check_structure(s: PhiBasisStructure) -> dict[str, float]:
    """Residuals of the defining identities, keyed by name.

    Checked: phi^2 = I - eta (x) xi, eta(xi) = 1, eta o phi = 0,
    phi xi = 0, tr phi = 0, and g(phi x, phi y) = g(x, y) - eta(x) eta(y).
    Each field is read by mat3._real, a missing one as None, and must be
    finite, phi and g 3x3 and xi and eta 3-vectors; a residual past double
    range is a ValueError too.
    """
    fields = {k: _real(getattr(s, k, None), k) for k in ("phi", "xi", "eta", "g")}
    for (k, a), shape in zip(fields.items(), ((3, 3), (3,), (3,), (3, 3))):
        if a.shape != shape or not np.all(np.isfinite(a)):
            raise ValueError(f"{k} must be finite, of shape {shape}")
    phi, xi, eta, g = fields.values()
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = {
            "phi_squared": max_abs(phi @ phi - (np.eye(3) - np.outer(xi, eta))),
            "eta_of_xi": abs(float(eta @ xi) - 1.0),
            "eta_circ_phi": max_abs(eta @ phi),
            "phi_of_xi": max_abs(phi @ xi),
            "trace_phi": abs(trace(phi)),
            "metric_compat": max_abs(phi.T @ g @ phi - g + np.outer(eta, eta)),
        }
    if not all(map(math.isfinite, residuals.values())):
        raise ValueError("a structure residual overflows double precision")
    return residuals


@dataclass(eq=False)
class LeeForms:
    """The three 1-forms contracted out of an F tensor:

    theta  = (F110 + F220, F111, F222)
    theta* = (F120 + F210, -F222, -F111)
    omega  = (0, F001, F002)
    """

    theta: np.ndarray
    theta_star: np.ndarray
    omega: np.ndarray


@dataclass(frozen=True)
class ClassParams:
    """A basic class label with its parameters (beta only for F1 and F11)."""

    class_id: str
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.class_id not in CLASS_IDS + ("F0",):
            raise ValueError(
                f"unknown class id {self.class_id!r} (expected one of F0 {' '.join(CLASS_IDS)})")
        # stored as Python floats, so arithmetic past double range gives inf
        # rather than a numpy warning
        try:
            alpha, beta = _float(self.alpha), _float(self.beta)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(
                f"class parameters must be real numbers (alpha={self.alpha!r}, beta={self.beta!r})"
            ) from None
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("class parameters must be finite")
        if self.class_id == "F0" and (self.alpha != 0.0 or self.beta != 0.0):
            raise ValueError("F0 requires alpha = beta = 0")


# Cells of the Lee forms' nine components (theta, theta*, omega), read off
# LeeForms' docstring.
_LEE_CELLS = (
    {(1, 1, 0): 1, (2, 2, 0): 1}, {(1, 1, 1): 1}, {(2, 2, 2): 1},
    {(1, 2, 0): 1, (2, 1, 0): 1}, {(2, 2, 2): -1}, {(1, 1, 1): -1},
    {}, {(0, 0, 1): 1}, {(0, 0, 2): 1},
)


def _dense(rows) -> np.ndarray:
    """One flat 27-component row per {(i, j, k): weight} dict."""
    out = np.zeros((len(rows), 3, 3, 3))
    for row, cells in enumerate(rows):
        for ijk, weight in cells.items():
            out[row][ijk] = weight
    return out.reshape(len(rows), 27)


_LEE = _dense(_LEE_CELLS)


@dataclass(eq=False)
class ClassReport:
    """Verdict of classify_manifold, built in one call of its generated
    kernel (levicivita._CLASSIFY_SOURCE): the classes, in CLASS_IDS order,
    whose recovered |alpha| or |beta| exceeds tol, or ["F0"] when none does;
    alpha/beta, the parameters of the dominant class (the first on a tie);
    params, the per-class recoveries.  A class recovered as exactly
    (0.0, 0.0), which no tol detects, holds the one (0.0, 0.0) tuple that
    every report shares."""

    verdict: list[str]
    alpha: float
    beta: float
    lee: LeeForms
    para_sasakian: bool
    params: dict[str, tuple[float, float]] = field(default_factory=dict)
