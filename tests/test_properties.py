"""Properties every group exponential has, checked without a referee.

For A = -ad(X)^T of an element X = a E0 + b E1 + c E2, exp(A) commutes with
A, exp(-A) exp(A) = E, and K = exp(A)^T = exp(-ad X) is an automorphism of
the algebra: K[x, y] = [Kx, Ky].  Hypothesis draws the class, the
parameters and the coordinates (up to 700, each on its own scale from 1e-8
up, so that 1e-8 sits next to 1e1, and clear of the subnormal range, where
a rounding is not relative); inputs whose exponential leaves double range
are dropped.  Each identity is evaluated exactly, in rationals, on the
computed doubles, and its residual must stay within a bound that follows
from counting roundings (unit roundoff eps = 2^-53,
gamma_n = n eps / (1 - n eps)):

* A's entries are x_i * C_ij^k, one rounding each (two terms and two
  roundings in F11's A[0][0]): |A~ - A| <= gamma_2 |A|_t, with |A|_t the
  entries' sums of absolute terms.
* exp(A) is E + t A + u fl(A @ A) with the computed t and u; A @ A is a
  three-term dot product per entry (gamma_3), t*A, u*(A @ A) and the two
  additions round once each, so the result is within gamma_5 B of the exact
  polynomial E + t A + u A^2, with B = E + |t| |A| + |u| |A| |A|.  That
  polynomial commutes with A, which bounds exp(A) A - A exp(A).
* t and u: tr A (gamma_2 on top of A's gamma_2), or tr A^2 (nine products
  summed pairwise, depth four: gamma_5 on A~, gamma_4 for A~ against A),
  and the rounding of sqrt, which moves z by gamma_2 |z|; expm1, sinh and
  sin are taken within 2 ulp (4 eps), as glibc documents, and each quotient or
  product rounds once.  Between the exact and the computed argument the
  coefficients move by at most:
  - t(k) = int_0^1 e^{sk} ds: 0 < d ln t / dk < 1, a relative bound;
  - t(z) = sinh(r) / r and u(z) = 2 sinh(r/2)^2 / r^2 with r = sqrt z, where
    the interval lies in z > 0: d ln t / dz <= min(1/6, 1/(2r)) and
    d ln u / dz <= min(1/12, 1/(2r)), relative bounds as well;
  - elsewhere, from t(z) = int_0^1 cosh(s sqrt z) ds and
    u(z) = int_0^1 (1 - s) cosh(s sqrt z) ds: |t'| <= T / 6 and
    |u'| <= T / 24 with T = sinh(sqrt w) / sqrt w at w = max(z, 0), as
    |sinh(sqrt y) / sqrt y| <= 1 for y <= 0.

The bound on each entry of exp(A) - exp(A_exact) then enters the bracket
identity and the inverse law linearly and once quadratically.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from paralie.expengine import closed_form
from paralie.lie import class_algebra
from paralie.mat3 import trace_sq
from paralie.structure import CLASS_IDS, ClassParams

UNIT = Fraction(1, 2**53)
E = np.eye(3, dtype=int).astype(object)


def gamma(n):
    return n * UNIT / (1 - n * UNIT)


def exact(x):
    """An array of floats as an object array of Fractions, exactly."""
    return np.vectorize(Fraction, otypes=[object])(np.asarray(x, dtype=float))


def scaled(lo, hi):
    """0, or a signed power of ten with exponent in [lo, hi]."""
    power = st.builds(lambda s, e: s * 10.0**e, st.sampled_from((-1.0, 1.0)), st.floats(lo, hi))
    return st.one_of(st.just(0.0), power)


COORD = scaled(-8.0, math.log10(700.0))
PARAM = scaled(-3.0, 0.0)
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def evaluated(cid, alpha, beta, coords):
    """closed_form's result, and the exact C and |A|_t, or a rejected draw."""
    p = ClassParams(cid, alpha, beta)
    try:
        res = closed_form(p, *coords)
    except ValueError:  # exp(A) past double range
        reject()
    c = exact(class_algebra(p))
    terms = sum(abs(Fraction(x)) * abs(ci) for x, ci in zip(coords, c))
    return res, c, terms


def upper(fn, q):
    """fn(q) for a Fraction q >= 0, in mpmath at 120 bits, as a Fraction no
    smaller than it: mpmath's error is far below the 2^-100 margin."""
    with mpmath.workprec(120):
        man, e = fn(mpmath.mpf(q.numerator) / q.denominator).man_exp
    return Fraction(man) * Fraction(2) ** e * (1 + Fraction(1, 2**100))


def scalar_errors(cid, res, terms):
    """Bounds on |t~ - t| and |u~ - u| against the exact t, u of the element."""
    t, u = abs(Fraction(res.t)), abs(Fraction(res.u))
    a = res.A
    if cid in ("F1", "F5", "F11"):
        f = Fraction(1, 2) if cid == "F5" else Fraction(1)
        dk = gamma(5) * f * (terms[0, 0] + terms[1, 1] + terms[2, 2])
        return t * (1 + gamma(6)) * (gamma(5) + upper(mpmath.expm1, dk)), Fraction(0)
    z = Fraction(trace_sq(a)) / 2  # as closed_form
    mod_a = abs(exact(a))
    dz = gamma(5) * (np.sum(mod_a * mod_a.T) + np.trace(terms @ terms)) / 2 + gamma(2) * abs(z)
    if z > dz:  # relative to t~ and u~, which are positive
        slope = upper(lambda x: 1 / (2 * mpmath.sqrt(x)), z - dz)
        spread_t = gamma(5) + upper(mpmath.expm1, min(Fraction(1, 6), slope) * dz)
        spread_u = gamma(11) + upper(mpmath.expm1, min(Fraction(1, 12), slope) * dz)
        return t * (1 + gamma(6)) * spread_t, u * (1 + gamma(12)) * spread_u
    w = max(z + dz, Fraction(0))
    big_t = upper(lambda x: mpmath.sinh(mpmath.sqrt(x)) / mpmath.sqrt(x), w) if w else Fraction(1)
    return gamma(6) * t + big_t / 6 * dz, gamma(12) * u + big_t / 24 * dz


@PROPERTY
@given(st.sampled_from(CLASS_IDS), PARAM, PARAM, st.tuples(COORD, COORD, COORD))
@example("F8", 1.0, 0.0, (1e-8, 10.0, -10.0))
@example("F11", 0.3, -1.7, (1e-8, 700.0, 10.0))
def test_exponential_commutes_with_its_matrix(cid, alpha, beta, coords):
    res, _, _ = evaluated(cid, alpha, beta, coords)
    a, m = exact(res.A), exact(res.expA)
    mod_a = abs(a)
    b = E + abs(Fraction(res.t)) * mod_a + abs(Fraction(res.u)) * (mod_a @ mod_a)
    bound = gamma(5) * (b @ mod_a + mod_a @ b)
    residual = abs(m @ a - a @ m)
    assert (residual <= bound).all(), (residual.astype(float), bound.astype(float))


def exp_error(cid, res, terms):
    """Bound on |exp(A)~ - exp(A)|, entry by entry, for the exact A of the
    element: the rounding of E + t A + u A^2, t and u off by the bounds of
    scalar_errors, and A~ off by gamma_2 |A|_t, so A~^2 by gamma_4 |A|_t^2."""
    mod_a = abs(exact(res.A))
    t, u = abs(Fraction(res.t)), abs(Fraction(res.u))
    dt, du = scalar_errors(cid, res, terms)
    square = mod_a @ mod_a
    return (gamma(5) * (E + t * mod_a + u * square) + dt * mod_a + (t + dt) * gamma(2) * terms
            + du * square + (u + du) * gamma(4) * (terms @ terms))


@PROPERTY
@given(st.sampled_from(CLASS_IDS), PARAM, PARAM, st.tuples(COORD, COORD, COORD))
@example("F8", 1.0, 0.0, (1e-8, 10.0, -10.0))
@example("F4", 0.5, 0.0, (700.0, 1e-8, 10.0))
def test_transposed_exponential_is_an_automorphism(cid, alpha, beta, coords):
    res, c, terms = evaluated(cid, alpha, beta, coords)
    k, d = exact(res.expA).T, exp_error(cid, res, terms).T
    mod_k, mod_c = abs(k), abs(c)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        residual = k @ c[i, j] - sum(k[l, i] * k[m, j] * c[l, m] for l in range(3) for m in range(3))
        bound = d @ mod_c[i, j] + sum(
            (d[l, i] * mod_k[m, j] + mod_k[l, i] * d[m, j] + d[l, i] * d[m, j]) * mod_c[l, m]
            for l in range(3) for m in range(3))
        assert (abs(residual) <= bound).all(), (i, j, abs(residual).astype(float), bound.astype(float))


@PROPERTY
@given(st.sampled_from(CLASS_IDS), PARAM, PARAM, st.tuples(COORD, COORD, COORD))
@example("F4", 0.5, 0.0, (700.0, 1e-8, 10.0))
@example("F9", 1.0, 0.0, (1e-8, 10.0, -10.0))
def test_exponential_of_the_negated_element_is_the_inverse(cid, alpha, beta, coords):
    # In every class but F8, any E + t A + u A^2 satisfies the automorphism
    # identity (in F4, F5, F9 and F10 it acts on the abelian ideal spanned
    # by E1, E2 as a polynomial in the action of E0), so that identity
    # cannot see a wrong t or u there; exp(-A) exp(A) = E can.
    res, _, terms = evaluated(cid, alpha, beta, coords)
    inv, _, _ = evaluated(cid, alpha, beta, tuple(-x for x in coords))
    m, m_inv = exact(res.expA), exact(inv.expA)
    d, d_inv = exp_error(cid, res, terms), exp_error(cid, inv, terms)
    residual = abs(m_inv @ m - E)
    bound = d_inv @ abs(m) + abs(m_inv) @ d + d_inv @ d
    assert (residual <= bound).all(), (residual.astype(float), bound.astype(float))
