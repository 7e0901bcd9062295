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

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from paralie.expengine import _EXP_SOURCE, _TRACE_FACTOR, closed_form
from paralie.levicivita import classify_manifold
from paralie.lie import _TERMS, adjoint_rep, class_algebra
from paralie.mat3 import trace_sq
from paralie.structure import CLASS_IDS, TWO_PARAMETER_CLASSES, ClassParams, standard_structure
from reference import _adjoint_entries, class_pattern, planned_entries, square_terms

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
FEWER = settings(PROPERTY, max_examples=150)


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


# --- the structure group ------------------------------------------------------
#
# The frame changes that keep the structure (phi, xi, eta, g) as it is are
# the orthonormal ones that fix e0 and commute with phi: E, -E and the swap
# of e1 and e2, and its negative, on span(e1, e2).  Each is a signed
# permutation, e'_a = s_a e_(pi a), so moving C, A, a coordinate vector or a
# covector to the new frame is exact.  The classes are defined by the
# structure, so classification and the exponential commute with these
# changes: C' = g.C is the algebra of the same class with its (alpha, beta)
# moved by a signed permutation that the class patterns give, and
# exp(A') = g^T exp(A) g.  These checks need no referee and no tolerance;
# they are necessary, not sufficient (a verdict wrong in every frame passes).


def structure_group():
    """(pi, s) of each signed permutation g = [s_a e_(pi a)]_a that fixes e0
    and commutes with the standard structure's phi."""
    phi = standard_structure().phi
    out = []
    for pi in itertools.permutations(range(3)):
        for s in itertools.product((1.0, -1.0), repeat=3):
            g = np.zeros((3, 3))
            g[list(pi), [0, 1, 2]] = s
            if g[0, 0] == 1.0 and np.array_equal(g @ phi, phi @ g):
                out.append((np.array(pi), np.array(s)))
    return out


GROUP = structure_group()


def moved(x, pi, s):
    """A tensor's frame components in the new frame, one s_a per slot:
    x'[a, b, ...] = s_a s_b ... x[pi a, pi b, ...], exactly; + 0.0 clears
    the negative zeros that a sign puts on a zero."""
    x = np.asarray(x, dtype=float)
    for axis in range(x.ndim):
        shape = [1] * x.ndim
        shape[axis] = 3
        x = np.take(x, pi, axis=axis) * s.reshape(shape)
    return x + 0.0


def parameter_map(cid, pi, s):
    """The signed permutation M with (alpha', beta') = M (alpha, beta), read
    off the class's patterns: the moved pattern of each unit parameter must
    be the pattern of a signed unit parameter of the same class."""
    units = [sign * np.eye(2)[row] for row in range(2) for sign in (1.0, -1.0)]
    m = np.zeros((2, 2))
    for col in range(2 if cid in TWO_PARAMETER_CLASSES else 1):
        f = moved(class_pattern(ClassParams(cid, *np.eye(2)[col])), pi, s)
        hits = [u for u in units if np.array_equal(f, class_pattern(ClassParams(cid, *u)))]
        assert len(hits) == 1, (cid, pi, s, col)
        m[:, col] = hits[0]
    return m


def moved_params(m, alpha, beta):
    return tuple((m @ np.array([alpha, beta]) + 0.0).tolist())


def test_the_group_and_its_parameter_maps():
    assert len(GROUP) == 4
    swap = next((pi, s) for pi, s in GROUP if pi[1] == 2 and s[1] == 1.0)
    # e.g. the swap sends F8's alpha to -alpha, F11's (alpha, beta) to
    # (beta, alpha) and F1's to (-beta, -alpha)
    assert parameter_map("F8", *swap).tolist() == [[-1.0, 0.0], [0.0, 0.0]]
    assert parameter_map("F11", *swap).tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert parameter_map("F1", *swap).tolist() == [[0.0, -1.0], [-1.0, 0.0]]
    # the algebra of a class moves to the algebra of the same class
    rng = np.random.default_rng(160)
    for cid in CLASS_IDS:
        for pi, s in GROUP:
            m = parameter_map(cid, pi, s)
            for alpha, beta in rng.choice((-1.0, 1.0), (20, 2)) * 10.0 ** rng.uniform(-300, 300, (20, 2)):
                p = ClassParams(cid, alpha, beta if cid in TWO_PARAMETER_CLASSES else 0.0)
                p_g = ClassParams(cid, *moved_params(m, p.alpha, p.beta))
                assert moved(class_algebra(p), pi, s).tobytes() == (class_algebra(p_g) + 0.0).tobytes()


def class_draws(rng, n):
    """n algebras: pure classes over +-300 decades, and sums of two to four
    of F4, F5, F9 and F10 (whose sums are Lie algebras) over +-300 decades."""
    out = []
    for _ in range(n):
        if rng.random() < 0.5:
            cid = rng.choice(CLASS_IDS)
            alpha, beta = rng.choice((-1.0, 1.0), 2) * 10.0 ** rng.uniform(-300, 300, 2)
            out.append(class_algebra(ClassParams(cid, alpha, beta)))
        else:
            k = rng.integers(2, 5)
            subset = rng.choice(("F4", "F5", "F9", "F10"), k, replace=False)
            scale = 10.0 ** rng.uniform(-299, 299)
            alphas = rng.choice((-1.0, 1.0), k) * scale * 10.0 ** rng.uniform(-1, 1, k)
            out.append(sum(class_algebra(ClassParams(cid, a)) for cid, a in zip(subset, alphas)))
    return out


def test_classification_is_equivariant_bit_for_bit():
    maps = {(cid, n): parameter_map(cid, *GROUP[n]) for cid in CLASS_IDS for n in range(4)}
    for c in class_draws(np.random.default_rng(161), 1000):
        report = classify_manifold(c)
        lee = report.lee
        for n, (pi, s) in enumerate(GROUP):
            moved_report = classify_manifold(moved(c, pi, s))
            assert moved_report.verdict == report.verdict, (c.tolist(), n)
            for cid in CLASS_IDS:
                want = moved_params(maps[cid, n], *report.params[cid])
                assert np.array(moved_report.params[cid]).tobytes() == np.array(want).tobytes(), (
                    c.tolist(), n, cid)
            # the Lee forms are covectors
            for got, form in zip(
                    (moved_report.lee.theta, moved_report.lee.theta_star, moved_report.lee.omega),
                    (lee.theta, lee.theta_star, lee.omega)):
                assert got.tobytes() == moved(form, pi, s).tobytes(), (c.tolist(), n)


def exp_outcome(p, coords):
    try:
        return closed_form(p, *coords)
    except ValueError:  # exp(A) past double range
        return None


def exp_draws(rng, n):
    """n (alpha, beta, a, b, c) rows, magnitudes 10^-300..10^300, some exact zeros."""
    span = rng.choice([3.0, 30.0, 300.0], size=(n, 1))
    x = rng.choice([-1.0, 1.0], size=(n, 5)) * 10.0 ** (span * rng.uniform(-1, 1, (n, 5)))
    x[rng.random((n, 5)) < 0.15] = 0.0
    return x


@pytest.mark.parametrize("cid", [cid for cid in CLASS_IDS if cid != "F8"])
def test_exponential_is_equivariant_bit_for_bit(cid):
    # exp(A') = g^T exp(A) g for A' = g^T A g, the matrix of the moved
    # element g^T x in the moved class; every rounding step either maps
    # onto its mirror or sums the same terms, so the two agree exactly,
    # and they leave double range together
    rng = np.random.default_rng([162, CLASS_IDS.index(cid)])
    maps = [parameter_map(cid, pi, s) for pi, s in GROUP]
    finite = 0
    for alpha, beta, *coords in exp_draws(rng, 600).tolist():
        p = ClassParams(cid, alpha, beta if cid in TWO_PARAMETER_CLASSES else 0.0)
        res = exp_outcome(p, coords)
        finite += res is not None
        for m, (pi, s) in zip(maps, GROUP):
            p_g = ClassParams(cid, *moved_params(m, p.alpha, p.beta))
            got = exp_outcome(p_g, moved(coords, pi, s).tolist())
            assert (got is None) == (res is None), (p, coords, pi, s)
            if res is not None:
                assert got.A.tobytes() == moved(res.A, pi, s).tobytes(), (p, coords, pi, s)
                assert got.expA.tobytes() == moved(res.expA, pi, s).tobytes(), (p, coords, pi, s)
    assert 100 < finite < 550


@FEWER
@given(PARAM, st.tuples(COORD, COORD, COORD), st.sampled_from(range(1, 4)))
@example(1.0, (1e-8, 10.0, -10.0), 2)
def test_f8_exponential_is_equivariant_within_its_rounding_bound(alpha, coords, n):
    # F8's A @ A sums two products on its diagonal, and tr A^2 sums its
    # products in a fixed order, neither of which the swap maps onto
    # itself; the two sides are then each within exp_error of the one
    # exact exp(A') = g^T exp(A) g
    pi, s = GROUP[n]
    res, _, terms = evaluated("F8", alpha, 0.0, coords)
    alpha_g = moved_params(parameter_map("F8", pi, s), alpha, 0.0)[0]
    res_g, _, terms_g = evaluated("F8", alpha_g, 0.0, tuple(moved(coords, pi, s).tolist()))
    assert res_g.A.tobytes() == moved(res.A, pi, s).tobytes()
    residual = abs(exact(res_g.expA) - exact(moved(res.expA, pi, s)))
    bound = exp_error("F8", res_g, terms_g) + abs(moved(exp_error("F8", res, terms), pi, s))
    assert (residual <= bound).all(), (residual.astype(float), bound.astype(float))


def permanent(m):
    return sum(m[0, i] * m[1, j] * m[2, k] for i, j, k in itertools.permutations(range(3)))


@FEWER
@given(st.sampled_from(CLASS_IDS), PARAM, PARAM, st.tuples(COORD, COORD, COORD))
@example("F4", 0.5, 0.0, (700.0, 1e-8, 10.0))
@example("F5", 1.0, 0.0, (-700.0, 0.0, 1.0))
def test_determinant_is_the_exponential_of_the_trace(cid, alpha, beta, coords):
    # det exp(A) = e^(tr A).  The determinant of the computed exp(A) is
    # taken exactly; an entry error within d moves it by at most
    # per(|exp(A)| + d) - per(|exp(A)|), the permanent bounding the
    # multilinear expansion, and tr A is off by gamma_2 of the diagonal of
    # |A|_t.  The check is relative to e^(tr A) and to the permanent, which
    # measures the cancellation in the determinant (cosh^2 - sinh^2 in F4).
    res, _, terms = evaluated(cid, alpha, beta, coords)
    m = exact(res.expA)
    mod_m = abs(m)
    d = exp_error(cid, res, terms)
    det = (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
           - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
           + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))
    tr = sum(exact(res.A).diagonal())
    dtr = gamma(2) * (terms[0, 0] + terms[1, 1] + terms[2, 2])
    e_tr = upper(mpmath.exp, tr)  # e^tr, high by at most 2^-99 relative
    bound = (permanent(mod_m + d) - permanent(mod_m)
             + e_tr * (upper(mpmath.expm1, dtr) + Fraction(1, 2**99)))
    assert abs(det - e_tr) <= bound, (float(det), float(e_tr), float(bound))


# --- the scalar square ------------------------------------------------------------


def test_square_is_single_products_in_f4_f9_f10():
    # closed_form squares A on Python floats where each entry of A^2 is one
    # product, derived from A's nonzero pattern: one product rounds the same
    # whether BLAS fuses it with an add of zero or not.  F8's diagonal sums
    # two products, so F8 keeps A @ A.  The products are read off the kernels.
    cubic = {cid: square_terms(_EXP_SOURCE, cid) for cid in CLASS_IDS if cid not in _TRACE_FACTOR}
    single = {cid for cid, terms in cubic.items()
              if terms and all(isinstance(term, tuple) for _, term in terms)}
    assert single == {"F4", "F9", "F10"}
    assert set(cubic) == {"F4", "F8", "F9", "F10"}
    for cid, terms in cubic.items():
        squared = [n for n, _ in terms]
        assert len(squared) == len(set(squared)), cid
    f8 = {n for _, n, _ in _TERMS["F8"]}
    assert sum(l in f8 and r in f8 for l, r in ((1, 3), (2, 6))) == 2  # A^2[0][0]
    assert cubic["F8"] == [(n, f"s{n}") for n in range(9)]  # np.dot(A, A) on all nine
    # the products are A @ A on every entry, zeros included
    rng = np.random.default_rng(163)
    for cid in ("F4", "F9", "F10"):
        for alpha, _, *coords in exp_draws(rng, 300).tolist():
            v = _adjoint_entries(ClassParams(cid, alpha), *coords)
            a = np.array(v).reshape(3, 3)
            square = [0.0] * 9
            for n, (l, r) in cubic[cid]:
                square[n] = v[l] * v[r]
            with np.errstate(over="ignore", invalid="ignore"):
                want = (a @ a).reshape(9) + 0.0
            # where A overflowed, A @ A also forms 0 * inf = NaN off the
            # pattern; closed_form raises on those inputs either way
            nan = np.isnan(want)
            assert not nan.any() or np.isinf(a).any()
            got = np.where(nan, 0.0, np.array(square) + 0.0)
            assert got.tobytes() == np.where(nan, 0.0, want).tobytes(), (cid, alpha, coords)


def test_plan_is_the_structural_pattern_of_a_and_its_square():
    # closed_form evaluates exp(A) only on its kernel's planned entries and
    # leaves E elsewhere: they must be every entry where A or A @ A is
    # nonzero for generic parameters and coordinates, and no other.  In F4,
    # F9 and F10 each product the kernel reads must give A @ A at its entry;
    # in F1, F5 and F11, where u = 0, any product it reads must be of
    # entries of A that are +0.0, so that it adds +0.0 and reads no A^2
    rng = np.random.default_rng(164)
    for cid in CLASS_IDS:
        planned = sorted(planned_entries(_EXP_SOURCE, cid))
        terms = [(n, term) for n, term in square_terms(_EXP_SOURCE, cid) if isinstance(term, tuple)]
        pairs, zeros = ((), terms) if cid in _TRACE_FACTOR else (terms, ())
        nonzero = np.zeros(9, dtype=bool)
        for alpha, beta, *coords in rng.choice([-1.0, 1.0], (50, 5)) * rng.uniform(0.5, 2.0, (50, 5)):
            p = ClassParams(cid, alpha, beta)
            v = _adjoint_entries(p, *coords)
            a = adjoint_rep(class_algebra(p), *coords)
            assert v == a.reshape(9).tolist()
            square = (a @ a).reshape(9)
            nonzero |= (a.reshape(9) != 0.0) | (square != 0.0)
            assert [v[l] * v[r] for _, (l, r) in pairs] == [square[n] for n, _ in pairs], cid
            read = [v[i] for _, lr in zeros for i in lr]
            assert np.array(read).tobytes() == bytes(8 * len(read)), cid  # +0.0 only
        assert planned == np.flatnonzero(nonzero).tolist(), cid
