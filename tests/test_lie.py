import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paralie.cli import main
from paralie.lie import adjoint_rep, class_algebra, jacobi_defect, structure_constants
from paralie.mat3 import trace, trace_sq
from paralie.structure import CLASS_IDS, TWO_PARAMETER_CLASSES, ClassParams
from reference import annihilator, bracket, jacobi_defect_matmul, replaced_jacobi_defect

PARAM_GRID = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
COORDS = (-2.0, -1.0, 0.0, 1.0, 2.0)


def jacobi_brute(c):
    worst = 0.0
    for i, j, k, m in itertools.product(range(3), repeat=4):
        s = sum(
            c[i, j, l] * c[l, k, m]
            + c[j, k, l] * c[l, i, m]
            + c[k, i, l] * c[l, j, m]
            for l in range(3)
        )
        worst = max(worst, abs(s))
    return worst


def jacobi_einsum(c):
    """The three-contraction form of the cyclic sum, the reference."""
    cyclic = (
        np.einsum("ijl,lkm->ijkm", c, c)
        + np.einsum("jkl,lim->ijkm", c, c)
        + np.einsum("kil,ljm->ijkm", c, c)
    )
    return float(np.max(np.abs(cyclic)))


def representation_matrix(cid, alpha, beta, a, b, c):
    """Per-class matrix written out longhand, the fixture the code must hit."""
    al, bt = alpha, beta
    return {
        "F1": [[0, 0, 0], [0, al * c, bt * c], [0, -al * b, -bt * b]],
        "F4": [[0, al * c, al * b], [0, 0, -al * a], [0, -al * a, 0]],
        "F5": [[0, al * b, al * c], [0, -al * a, 0], [0, 0, -al * a]],
        "F8": [
            [0, -al * c, al * b],
            [2 * al * c, 0, -al * a],
            [-2 * al * b, al * a, 0],
        ],
        "F9": [[0, al * b, -al * c], [0, -al * a, 0], [0, 0, al * a]],
        "F10": [[0, al * c, -al * b], [0, 0, al * a], [0, -al * a, 0]],
        "F11": [[al * b + bt * c, 0, 0], [-al * a, 0, 0], [-bt * a, 0, 0]],
    }[cid]


# --- constructors ------------------------------------------------------------


def test_class_algebra_f1():
    c = class_algebra(ClassParams("F1", 1.0, -2.0))
    assert c[1, 2, 1] == 1.0
    assert c[1, 2, 2] == -2.0
    assert c[2, 1, 1] == -1.0
    assert c[2, 1, 2] == 2.0
    assert np.count_nonzero(c) == 4


def test_class_algebra_f11():
    c = class_algebra(ClassParams("F11", 1.0, 0.0))
    assert c[0, 1, 0] == 1.0
    assert c[1, 0, 0] == -1.0
    assert np.count_nonzero(c) == 2


def test_class_algebra_f0_abelian():
    assert np.array_equal(class_algebra(ClassParams("F0")), np.zeros((3, 3, 3)))


def test_class_params_store_python_floats():
    # a numpy float64 alpha would make 2 * alpha past double range warn
    p = ClassParams("F8", np.float64(1.5e308), np.float32(0.5))
    assert type(p.alpha) is float and type(p.beta) is float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = class_algebra(p)
    assert c[1, 2, 0] == math.inf
    assert c[0, 1, 2] == 1.5e308


@pytest.mark.parametrize("bad", [None, [1.0], {"alpha": 1.0}, "one", 10**400],
                         ids=["none", "list", "dict", "str", "int_past_double_range"])
def test_class_params_reject_what_float_rejects(bad):
    # the documented ValueError, never float()'s TypeError or OverflowError
    for args in ((bad,), (1.0, bad)):
        with pytest.raises(ValueError, match="class parameters must be real numbers"):
            ClassParams("F11", *args)


def test_class_algebra_f5():
    c = class_algebra(ClassParams("F5", 1.0))
    assert c[0, 1, 1] == 1.0
    assert c[0, 2, 2] == 1.0


def test_antisymmetry_everywhere():
    for cid in CLASS_IDS:
        c = class_algebra(ClassParams(cid, 1.7, -0.3))
        assert np.array_equal(c, -c.transpose(1, 0, 2))


# --- Jacobi ------------------------------------------------------------------


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_jacobi_exact_zero_on_grid(cid):
    betas = PARAM_GRID if cid in TWO_PARAMETER_CLASSES else (0.0,)
    for alpha in PARAM_GRID:
        for beta in betas:
            assert jacobi_defect(class_algebra(ClassParams(cid, alpha, beta))) == 0.0


def test_jacobi_zero_constants():
    assert jacobi_defect(np.zeros((3, 3, 3))) == 0.0


def test_jacobi_detects_violation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[1, 0, 1] = 1.0, -1.0
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    assert jacobi_defect(c) > 0.0
    assert jacobi_defect(c) == pytest.approx(jacobi_brute(c), abs=0)


@given(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=27, max_size=27).map(
        lambda v: np.array(v).reshape(3, 3, 3)
    )
)
@settings(max_examples=60)
def test_jacobi_matches_brute_force(raw):
    c = raw - raw.transpose(1, 0, 2)
    assert jacobi_defect(c) == pytest.approx(jacobi_brute(c), abs=1e-12)


def test_jacobi_matches_einsum_reference():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        raw = rng.normal(size=(3, 3, 3)) * 10.0 ** rng.uniform(-100, 100)
        c = raw - raw.transpose(1, 0, 2)
        scale = np.max(np.abs(c)) ** 2
        assert abs(jacobi_defect(c) - jacobi_einsum(c)) <= 1e-15 * scale


@pytest.mark.parametrize("s", [1e160, 1e200])
def test_jacobi_defect_beyond_double_range(s):
    # the products overflow: the defect of a non-Lie sum is inf, never NaN,
    # and a genuine algebra at the same scale still has defect exactly 0
    non_lie = class_algebra(ClassParams("F1", s)) + class_algebra(ClassParams("F11", s, s))
    assert jacobi_defect(non_lie) == math.inf
    assert jacobi_defect(class_algebra(ClassParams("F8", s))) == 0.0


# --- Jacobi: the three-component identity against exact arithmetic ----------

# Rounding bounds of the two defect formulas, in units of 2**-52 * max|C|**2
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3:
# a term that passes through n roundings is off by at most gamma_n times its
# size, gamma_n = n u / (1 - n u), u = 2**-53).
# - Three components: J^m = a Q_m + b R_m - d P_m, where a, b and d are each
#   one rounded sum of two constants, so every term sees at most four
#   roundings and the error is at most gamma_4 * (|a| |Q_m| + |b| |R_m| +
#   |d| |P_m|) <= 6 gamma_4 max|C|**2, just over 12 units.
# - 81 entries (reference.jacobi_defect_matmul): each cyclic sum adds three
#   3-term dot products, so each of its nine products sees at most five
#   roundings: 9 gamma_5 max|C|**2, just over 22.5 units.
# The power-of-two scaling is exact except where a scaled constant or the
# result is subnormal; that adds less than 2**-1000 units, covered by the
# margins below, plus at most 2**-1075 absolute, covered by 2**-1074.
THREE_COMPONENT_UNITS = Fraction(25, 2)
MATMUL_UNITS = Fraction(23)
UNIT = Fraction(1, 2**52)
TINY = Fraction(2) ** -1074


def exact_jacobi(c):
    """jacobi_brute in exact rational arithmetic, and max|C|^2."""
    x = np.array([Fraction(v) for v in c.reshape(27).tolist()], dtype=object)
    return Fraction(jacobi_brute(x.reshape(3, 3, 3))), max(map(abs, x)) ** 2


def random_antisymmetric(rng, decades):
    raw = rng.normal(size=(3, 3, 3)) * 10.0 ** rng.uniform(-decades, decades)
    return raw - raw.transpose(1, 0, 2)


def assert_within(got, want, bound):
    # a defect past double range is inf: its scaled-back value reached 2**1024
    if got == math.inf:
        assert want + bound >= 2**1024
    else:
        assert abs(Fraction(got) - want) <= bound


def test_jacobi_within_its_rounding_bound_of_exact_arithmetic():
    rng = np.random.default_rng(29)
    for _ in range(150):
        c = random_antisymmetric(rng, 300)
        c[rng.random((3, 3, 3)) < 0.15] = 0.0  # exact zeros; then antisymmetric again
        c = c - c.transpose(1, 0, 2)
        exact, m2 = exact_jacobi(c)
        assert_within(jacobi_defect(c), exact, THREE_COMPONENT_UNITS * UNIT * m2 + TINY)
        assert_within(jacobi_defect_matmul(c), exact, MATMUL_UNITS * UNIT * m2 + TINY)


def test_jacobi_agrees_with_the_81_entry_formula():
    # both are within their own bound of the exact defect, so within the sum
    # of the two bounds of each other
    rng = np.random.default_rng(31)
    for _ in range(3000):
        c = random_antisymmetric(rng, 300)
        m2 = Fraction(float(np.max(np.abs(c)))) ** 2
        bound = (THREE_COMPONENT_UNITS + MATMUL_UNITS) * UNIT * m2 + 2 * TINY
        low, high = sorted((jacobi_defect(c), jacobi_defect_matmul(c)))
        if low < math.inf:
            assert_within(high, Fraction(low), bound)


def test_jacobi_defect_inf_where_products_overflow_with_both_signs():
    # P = C_01 = (s, s, 0), Q = C_02 = R = C_12 = (0, s, 0): J^1 = s*s + s*s - s*s,
    # which unscaled reads inf - inf = nan; the exact defect s**2 is past
    # double range
    s = 1e200
    c = np.zeros((3, 3, 3))
    c[0, 1], c[0, 2], c[1, 2] = (s, s, 0.0), (0.0, s, 0.0), (0.0, s, 0.0)
    c = c - c.transpose(1, 0, 2)
    assert math.isnan(s * s + s * s - s * s)
    assert jacobi_defect(c) == math.inf
    assert jacobi_defect_matmul(c) == math.inf


def constants_at_max(rng, top, decades):
    """Antisymmetric C with max|C| = top: P, Q, R spread over up to
    `decades` decades below it, one of them +-top."""
    pqr = rng.uniform(-1.0, 1.0, 9) * 10.0 ** rng.uniform(-decades, 0.0, 9) * top
    pqr[rng.integers(9)] = rng.choice((-1.0, 1.0)) * top
    c = np.zeros((3, 3, 3))
    c[0, 1], c[0, 2], c[1, 2] = pqr.reshape(3, 3)
    return c - c.transpose(1, 0, 2)


def test_jacobi_bit_identical_to_ldexp_scaling_at_the_ends_of_double_range():
    # Scaling by the product with 2**-e rounds as math.ldexp does.  Below
    # max|C| = 2**-1021, 2**-e itself is past double range, which the
    # clamp of e at -1020 keeps from happening; above 2**1022, 2**-e is
    # subnormal.  Mixed scales near the top give finite nonzero defects.
    rng = np.random.default_rng(83)
    low = [2.0**e * f for e in range(-1074, -1019) for f in (1.0, 1.5)]
    high = [2.0**e * f for e in (1020, 1021, 1022) for f in (1.0, 1.5, math.nextafter(2.0, 0.0))]
    finite = 0
    for top in low + high:
        for decades in (0.0, 5.0, 300.0, 600.0):
            for _ in range(3):
                c = constants_at_max(rng, top, decades)
                assert np.max(np.abs(c)) == top
                got = jacobi_defect(c)
                assert got.hex() == replaced_jacobi_defect(c).hex(), c.tolist()
                finite += 0.0 < got < math.inf
    assert math.nextafter(2.0**1023, 0.0) in high
    assert finite > 0


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e3])
def test_jacobi_on_rotated_algebras_stays_at_rounding_level(scale):
    # Genuine algebras in 500 random orthonormal frames each: the defect is
    # rounding from the change of frame, at most 8 units of 2**-52 *
    # max|C|**2 (6.2 at most seen), where JACOBI_TOL is absolute
    rng = np.random.default_rng(int(scale) + 37)
    worst = 0.0
    for cid in CLASS_IDS:
        for _ in range(500):
            o = random_rotation(rng)
            p = ClassParams(cid, scale * rng.choice((-1.0, 1.0)), scale * rng.uniform(-1.0, 1.0))
            c = np.einsum("ia,jb,kc,abc->ijk", o, o, o, class_algebra(p))
            c = (c - c.transpose(1, 0, 2)) / 2
            worst = max(worst, jacobi_defect(c) / (2.0**-52 * np.max(np.abs(c)) ** 2))
    assert worst <= 8.0


# --- bracket -----------------------------------------------------------------


@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3))
@settings(max_examples=60)
def test_bracket_of_vector_with_itself(x):
    c = class_algebra(ClassParams("F8", 1.5))
    assert np.array_equal(bracket(c, np.array(x), np.array(x)), np.zeros(3))


def test_bracket_f1():
    c = class_algebra(ClassParams("F1", 1.0, 0.0))
    e1, e2 = np.eye(3)[1], np.eye(3)[2]
    assert np.array_equal(bracket(c, e1, e2), np.array([0.0, 1.0, 0.0]))


def test_bracket_f8():
    c = class_algebra(ClassParams("F8", 1.0))
    e0, e1, e2 = np.eye(3)
    assert np.array_equal(bracket(c, e1, e2), 2.0 * e0)


# --- representation matrices -------------------------------------------------


def test_adjoint_rep_f1_example():
    c = class_algebra(ClassParams("F1", 1.0, -1.0))
    a = adjoint_rep(c, 0.0, 1.0, 1.0)
    assert np.array_equal(a, np.array([[0, 0, 0], [0, 1, -1], [0, -1, 1]], dtype=float))


def test_adjoint_rep_f8_example():
    c = class_algebra(ClassParams("F8", 1.0))
    a = adjoint_rep(c, 1.0, 0.0, 0.0)
    assert np.array_equal(a, np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float))


def test_adjoint_rep_zero_coordinates():
    for cid in CLASS_IDS:
        c = class_algebra(ClassParams(cid, 1.0, 1.0))
        assert np.array_equal(adjoint_rep(c, 0.0, 0.0, 0.0), np.zeros((3, 3)))


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_adjoint_rep_matches_symbolic_matrix(cid):
    for alpha, beta in ((1.0, 1.0), (-2.0, 0.5), (0.5, -1.0)):
        c = class_algebra(ClassParams(cid, alpha, beta))
        for a, b, co in itertools.product((-1.0, 0.0, 2.0), repeat=3):
            expected = np.array(
                representation_matrix(cid, alpha, beta, a, b, co), dtype=float
            )
            assert np.array_equal(adjoint_rep(c, a, b, co), expected), (cid, a, b, co)


@given(
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
)
@settings(max_examples=60)
def test_adjoint_rep_linear_in_coordinates(a, b, co, s):
    c = class_algebra(ClassParams("F9", 1.25))
    lhs = adjoint_rep(c, s * a, s * b, s * co)
    rhs = s * adjoint_rep(c, a, b, co)
    assert np.allclose(lhs, rhs, atol=1e-12)


# --- adjoint_rep is a representation -------------------------------------------

# Every algebra of the seven families satisfies the Jacobi identity exactly,
# for any real parameters, so [A_X, A_Y] = A_Z with Z^k = x^i y^j C_ij^k
# holds in exact arithmetic.  Each entry of a computed A_X is one rounded
# 3-term dot product, off by at most E_X = gamma_3 S_X + 3 * 2**-1075 with
# S_X = max_jk sum_i |x_i C_ijk| <= 3 max|x| max|C| (Higham, Accuracy and
# Stability of Numerical Algorithms, 2nd ed., ch. 3, plus one absolute
# underflow error per product).  Writing each product of computed matrices
# as (A_X + dA_X)(A_Y + dA_Y), the exact commutator of the computed A_X and
# A_Y is off from A_Z by at most 3 (E_X |A_Y| + S_X E_Y + E_Y |A_X| + S_Y E_X)
# per entry: about 36 gamma_3 S_X S_Y <= 324 u max|x| max|y| max|C|**2, as
# the commutator is quadratic in C.
GAMMA_3 = Fraction(3, 2**53) / (1 - Fraction(3, 2**53))
UNDERFLOW_3 = Fraction(3, 2**1075)


def exact(m):
    return [[Fraction(v) for v in row] for row in np.asarray(m).tolist()]


def dot_size(c, x):
    """S_X = max_jk sum_i |x_i C_ijk|, exactly."""
    return max(sum(abs(x[i] * c[i][j][k]) for i in range(3)) for j in range(3) for k in range(3))


def exact_commutator(a, b):
    prod = [[sum(a[j][l] * b[l][k] for l in range(3)) for k in range(3)] for j in range(3)]
    back = [[sum(b[j][l] * a[l][k] for l in range(3)) for k in range(3)] for j in range(3)]
    return [[prod[j][k] - back[j][k] for k in range(3)] for j in range(3)]


@given(
    st.sampled_from(CLASS_IDS),
    st.floats(-2, 2),
    st.floats(-2, 2),
    st.lists(st.floats(-3, 3), min_size=6, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_adjoint_rep_is_a_representation(cid, alpha, beta, xy):
    c = class_algebra(ClassParams(cid, alpha, beta))
    ce = [exact(plane) for plane in c]
    x, y = [Fraction(v) for v in xy[:3]], [Fraction(v) for v in xy[3:]]
    ax, ay = adjoint_rep(c, *xy[:3]), adjoint_rep(c, *xy[3:])
    s_x, s_y = dot_size(ce, x), dot_size(ce, y)
    z = [sum(x[i] * y[j] * ce[i][j][k] for i in range(3) for j in range(3)) for k in range(3)]
    # A_Z by linearity from adjoint_rep on the frame, which it gives exactly
    frame = [exact(adjoint_rep(c, *e)) for e in np.eye(3)]
    a_z = [[sum(z[n] * frame[n][j][k] for n in range(3)) for k in range(3)] for j in range(3)]
    e_x, e_y = GAMMA_3 * s_x + UNDERFLOW_3, GAMMA_3 * s_y + UNDERFLOW_3
    bound = 3 * (e_x * Fraction(np.max(np.abs(ay))) + s_x * e_y
                 + e_y * Fraction(np.max(np.abs(ax))) + s_y * e_x)
    got = exact_commutator(exact(ax), exact(ay))
    err = max(abs(got[j][k] - a_z[j][k]) for j in range(3) for k in range(3))
    assert err <= bound, (float(err), float(bound))


# --- annihilating identities ---------------------------------------------------


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_annihilator_kind_and_kappa(cid):
    trace_factor = {"F1": 1.0, "F5": 0.5, "F11": 1.0}
    for alpha, beta in ((1.0, -1.5), (-0.5, 2.0)):
        c = class_algebra(ClassParams(cid, alpha, beta))
        for a, b, co in ((1.0, 1.0, 1.0), (2.0, -1.0, 0.5), (0.5, 0.0, -2.0)):
            m = adjoint_rep(c, a, b, co)
            result = annihilator(m, 1e-9)
            if cid in trace_factor:
                assert result.kind == "quadratic"
                assert result.kappa == pytest.approx(
                    trace_factor[cid] * trace(m), abs=1e-9
                )
            else:
                assert result.kind == "cubic"
                assert result.kappa == pytest.approx(0.5 * trace_sq(m), abs=1e-9)


# --- JSON, read and written by the command line ------------------------------


def classify_json(tmp_path, capsys, obj):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["classify", str(path), "--format", "json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_json_round_trip(tmp_path, capsys):
    c = class_algebra(ClassParams("F8", -1.5))
    assert main(["construct", "--class", "f8", "--alpha", "-1.5", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert np.array_equal(np.array(obj["C"]), c)
    code, out, _ = classify_json(tmp_path, capsys, obj)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == ["F8"] and report["alpha"] == -1.5


def test_constants_from_class_json(tmp_path, capsys):
    by_class = classify_json(tmp_path, capsys, {"class": "f10", "alpha": 2.0})
    by_constants = classify_json(
        tmp_path, capsys, {"C": class_algebra(ClassParams("F10", 2.0)).tolist()}
    )
    assert by_class == by_constants
    assert by_class[0] == 0 and json.loads(by_class[1])["verdict"] == ["F10"]


def test_constants_json_rejects_garbage(tmp_path, capsys):
    code, out, err = classify_json(tmp_path, capsys, {"D": []})
    assert (code, out) == (2, "")
    assert 'must carry key "C" or key "class"' in err
    code, out, err = classify_json(tmp_path, capsys, {"C": np.ones((3, 3, 3)).tolist()})
    assert (code, out) == (2, "")
    assert "antisymmetric" in err
    with pytest.raises(ValueError):
        structure_constants(np.ones((3, 3, 3)))  # not antisymmetric
