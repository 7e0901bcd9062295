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
own, and max|C| was taken twice.  ``_adjoint_entries`` is A as closed_form
formed it before each class had a generated kernel: a loop over the bracket
terms into a list of nine Python floats.  ``replaced_report`` is the
verdict pass that classify_manifold ran on the 14 recovered parameters
before one generated kernel formed the parameters, the verdict and the
report in one function.  ``kernel``, ``planned_entries`` and
``square_terms`` read a generated closed_form kernel's text back: where it
sets exp(A), and which A^2 term it adds to each entry.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from paralie import levicivita
from paralie.levicivita import _ZERO_PAIR, NotALieAlgebraError
from paralie.lie import _TERMS, _coordinates, _flat, _values
from paralie.mat3 import _positive_tol, max_abs, trace, trace_sq
from paralie.structure import (
    _LEE,
    CLASS_IDS,
    PARA_SASAKIAN_THETA0,
    PARA_SASAKIAN_TOL,
    ClassParams,
    ClassReport,
    LeeForms,
    _dense,
)


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


def _ldexp(x: float, e: int) -> float:
    # math.ldexp raises OverflowError past double range; inf instead
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


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


def _adjoint_entries(p: ClassParams, a: float, b: float, c: float) -> list:
    """adjoint_rep(class_algebra(p), a, b, c) as its nine entries in row
    order, Python floats formed straight from the bracket table.

    The coordinates are read by lie._coordinates, as adjoint_rep reads them,
    so no numpy scalar reaches the floats.
    """
    x = _coordinates(a, b, c)
    w = _values(p)
    v = [0.0] * 9
    for i, n, m in _TERMS[p.class_id]:
        v[n] -= x[i] * w[m]
    return v


def replaced_report(coef: list, lee: LeeForms, tol: float) -> ClassReport:
    """The verdict on the 14 recovered parameters, alpha then beta of each
    class in CLASS_IDS order (the first 14 entries of coef), once
    mat3._positive_tol has read tol.
    """
    tol = _positive_tol(tol)
    params = {}
    verdict = []  # the detected classes, in CLASS_IDS order
    alpha = beta = size = 0.0  # the dominant class's; the first one wins a tie
    coefs = iter(coef)
    for cid, a, b in zip(CLASS_IDS, coefs, coefs):
        if a == 0.0 and b == 0.0:  # below every positive tol
            params[cid] = _ZERO_PAIR
            continue
        params[cid] = (a, b)
        if abs(a) > tol or abs(b) > tol:
            verdict.append(cid)
            s = max(abs(a), abs(b))
            if s > size:
                alpha, beta, size = a, b, s
    para_sasakian = verdict == ["F4"] and (
        abs(float(lee.theta[0]) - PARA_SASAKIAN_THETA0) <= PARA_SASAKIAN_TOL)
    return ClassReport(verdict or ["F0"], alpha, beta, lee, para_sasakian, params)


def kernel(source: str, cid: str) -> ast.FunctionDef:
    """The definition of class cid's kernel in source, parsed."""
    return next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == f"_exp_{cid}")


def planned_entries(source: str, cid: str) -> set:
    """The flat indices where class cid's kernel sets exp(A): the entries of
    exp(A) that are names it assigns.  A kernel packs A's nine entries and
    then exp(A)'s into one array, buf: _pack_into(buf, 0, ...) writes all
    18, and F8 writes the two halves with _pack9_into(buf, 0, ...) and
    _pack9_into(buf, 72, ...).  Every other entry of exp(A) must be the
    literal of the identity's entry, and the packed A must name exactly the
    entries lie._TERMS makes nonzero, each at its own index, and hold +0.0
    everywhere else."""
    fn = kernel(source, cid)
    assigned = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    packs = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("_pack_into", "_pack9_into")]
    values = []
    for pack in sorted(packs, key=lambda node: ast.literal_eval(node.args[1])):
        assert [ast.unparse(arg) for arg in pack.args[:2]] == ["buf", str(8 * len(values))], cid
        assert len(pack.args) - 2 == {"_pack_into": 18, "_pack9_into": 9}[pack.func.id], cid
        values += pack.args[2:]
    assert len(values) == 18, cid
    nonzero = {n for _, n, _ in _TERMS[cid]}
    for n, entry in enumerate(values[:9]):
        if n in nonzero:
            assert isinstance(entry, ast.Name) and entry.id == f"a{n}", (cid, n)
            assert entry.id in assigned, (cid, n)
        else:
            assert isinstance(entry, ast.Constant) and repr(entry.value) == "0.0", (cid, n)
    planned = set()
    for n, entry in enumerate(values[9:]):
        if isinstance(entry, ast.Name) and entry.id in assigned:
            planned.add(n)
        else:
            assert isinstance(entry, ast.Constant), (cid, n)
            assert repr(entry.value) == repr(float(np.eye(3).flat[n])), (cid, n)
    return planned


def square_terms(source: str, cid: str) -> list:
    """(n, term) for every entry e<n> of exp(A) to which class cid's kernel
    adds u * term, in the kernel's order: term is (l, r) where it is the
    product a<l> * a<r> of two entries of A, or the name s<n> where it is
    read off numpy's A^2.  Any other u term fails."""
    terms = []
    for node in ast.walk(kernel(source, cid)):
        target = ast.unparse(node.targets[0]) if isinstance(node, ast.Assign) else ""
        if not re.fullmatch(r"e\d", target):
            continue
        n = int(target[1])
        for term in ast.walk(node.value):
            if not (isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult)
                    and ast.unparse(term.left) == "u"):
                continue
            sq = term.right
            if isinstance(sq, ast.Name):
                assert sq.id == f"s{n}", (cid, n)
                terms.append((n, sq.id))
            else:
                assert isinstance(sq, ast.BinOp) and isinstance(sq.op, ast.Mult), (cid, n)
                factors = [ast.unparse(sq.left), ast.unparse(sq.right)]
                assert all(re.fullmatch(r"a\d", f) for f in factors), (cid, n)
                terms.append((n, (int(factors[0][1]), int(factors[1][1]))))
    return terms
