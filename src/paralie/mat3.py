"""Dense 3x3 matrix helpers on top of numpy.

Matrices are plain ``(3, 3)`` float64 arrays and vectors are ``(3,)``
arrays, built with ``np.array``; the helpers assume well-formed input.
``trace`` and ``max_abs`` return Python floats, and ``trace_sq`` fixes the
rounding of tr(A^2).  The exponential here is a deliberately simple
scaling-and-squaring series, kept independent from the closed-form group
exponentials so it can serve as their numerical referee.
"""

from __future__ import annotations

import math

import numpy as np


def trace(a: np.ndarray) -> float:
    return float(a[0, 0] + a[1, 1] + a[2, 2])


def trace_sq(a: np.ndarray) -> float:
    """tr(A @ A) as the sum of the products A[j,k] * A[k,j], not read off a
    formed square.

    The nine products q0..q8, in the row order of ``a * a.T``, are summed as
    (((q0 + q1) + (q2 + q3)) + ((q4 + q5) + (q6 + q7))) + q8, the pairwise
    order in which ``np.sum`` reduces nine terms, so the value is the same to
    the last bit.  The diagonal of ``A @ A`` sums the same products in
    another order and can differ from it in the last bit.
    """
    return _trace_sq(a.reshape(9).tolist())


def _trace_sq(v: list) -> float:
    """trace_sq on the nine entries of A in row order, as Python floats."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = v
    return (((a00 * a00 + a01 * a10) + (a02 * a20 + a10 * a01))
            + ((a11 * a11 + a12 * a21) + (a20 * a02 + a21 * a12))) + a22 * a22


def _float(v) -> float:
    """float(v), refusing a numpy complex scalar with a TypeError as float()
    refuses a Python complex: float() would read its real part and warn."""
    if isinstance(v, np.complexfloating):
        raise TypeError(f"must be a real number, not {type(v).__name__}")
    return float(v)


def _positive_tol(tol) -> float:
    """tol converted once with _float(), a float as it is; what that refuses,
    and a tol that is not positive and finite, is a ValueError."""
    try:
        tol = tol if type(tol) is float else _float(tol)
    except (TypeError, ValueError, OverflowError):
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive")
    return tol


def _real(a, what: str) -> np.ndarray:
    """a as a float64 array.  What float() refuses (None, an object, an
    integer past double range, a string that is not a number, a datetime,
    timedelta or void), ragged nesting and complex a, not its real part,
    are a ValueError that names what; _float() reads object entries, as
    astype reads None as NaN."""
    try:
        a = np.asarray(a)
        if a.dtype.kind not in "OcmMV":
            return a.astype(float, copy=False)
        if a.dtype.kind == "O":
            return np.asarray(np.frompyfunc(_float, 1, 1)(a)).astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be real numbers ({exc})") from None
    raise ValueError(f"{what} must be real numbers, not {a.dtype}")


def max_abs(a) -> float:
    """Max-abs entry, the norm used for every tolerance in this package."""
    return float(np.abs(a).max())


# The referee's range in max-abs norm.  Past it the squarings lose digits
# and, far past it, overflow: on F8/F10 rotations and F4 boosts it is within
# about 1e-15 of the closed forms up to a norm of 1e3, 3e-15 at 1e4 and
# 2e-13 at 1e6, relative to max(1, max|exp(A)|).
ORACLE_MAX_NORM = 2.0**10
# The series and squarings run in longdouble; where that is a plain double,
# the referee is no more precise than the closed forms it checks.
_LONGDOUBLE_EPS = float(np.finfo(np.longdouble).eps)
_EYE = np.eye(3, dtype=np.longdouble)  # every call's first term and partial sum, shared
_EYE.flags.writeable = False


def expm_oracle(a: np.ndarray, tol: float = 1e-15) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring over a truncated series.

    The input is scaled by 2**-s until its max-abs norm is at most 1/2, the
    Taylor series is summed until the current term falls below tol * 2**-s
    in max-abs, and the partial sum is squared s times.  The arithmetic runs
    in extended precision so the repeated squarings do not eat into the
    float64 result; good to roughly ``tol`` per entry, relative to
    max(1, max|exp(A)|), with the conditioning of exp itself on top.

    The stop test reads the term once, rounded to double, as Python floats:
    rounding to nearest is monotone and odd, so their largest |x| is the
    double that ``max_abs(term)`` gives, and the series stops where it did.

    tol is read by _positive_tol.  Raises ValueError for a max-abs norm
    above ORACLE_MAX_NORM, for a tol whose tol * 2**-s underflows to 0,
    where exp(A) passes double range (no numpy warning), and where
    longdouble has no more precision than 1e-18.
    """
    tol = _positive_tol(tol)
    if _LONGDOUBLE_EPS > 1e-18:
        raise ValueError(
            f"expm_oracle needs an extended-precision longdouble (eps {_LONGDOUBLE_EPS:.3g} here)")
    a = _real(a, "expm_oracle's matrix entries")
    if a.shape != (3, 3) or not np.isfinite(a).all():
        raise ValueError("expm_oracle expects a finite 3x3 matrix")

    norm = max(map(abs, a.ravel().tolist()))
    if norm > ORACLE_MAX_NORM:
        raise ValueError(
            f"expm_oracle is out of range: max |A| = {norm:.3e} > {ORACLE_MAX_NORM:g}")
    squarings = 0
    if norm > 0.5:
        squarings = int(math.ceil(math.log2(norm / 0.5)))
    scale = 2.0 ** squarings
    scaled = a.astype(np.longdouble) / scale
    threshold = tol / scale
    if threshold == 0.0:  # no term falls below it
        raise ValueError(f"tol = {tol!r} is too small: tol / 2**{squarings} underflows to 0")

    result = term = _EYE
    k = 1
    while True:
        term = (term @ scaled) / k
        result = result + term
        if max(map(abs, term.astype(float).ravel().tolist())) < threshold:
            break
        k += 1
        if k > 300:  # unreachable once the norm is scaled below 1/2
            raise RuntimeError("exponential series failed to converge")
    for _ in range(squarings):
        result = result @ result
    # longdouble holds exp(A) for every norm in range, a double may not; but
    # max|exp(A)| <= e**(3 max|A|), which is below e**708 up to norm 236
    if norm <= 236.0:
        return result.astype(float)
    try:
        with np.errstate(over="raise"):
            return result.astype(float)
    except FloatingPointError:  # exp(A) past double range
        pass
    raise ValueError(f"expm_oracle's exp(A) overflows double precision (max |A| = {norm:.3e})")
