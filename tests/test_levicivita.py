import itertools
import warnings

import numpy as np
import pytest

from paralie import levicivita, structure
from paralie.levicivita import (
    NotALieAlgebraError,
    classify_manifold,
    connection_coeffs,
    f_tensor,
)
from paralie.lie import class_algebra, structure_constants
from paralie.structure import (
    CLASS_IDS,
    TWO_PARAMETER_CLASSES,
    ClassParams,
    class_pattern,
    standard_structure,
)

PARAM_GRID = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def koszul_brute(c):
    gamma = np.zeros((3, 3, 3))
    for i, j, k in itertools.product(range(3), repeat=3):
        gamma[i, j, k] = 0.5 * (c[i, j, k] - c[i, k, j] - c[j, k, i])
    return gamma


def f_einsum(c):
    """Koszul and nabla-phi as contractions with phi, the reference."""
    gamma = 0.5 * (c - np.einsum("ikj->ijk", c) - np.einsum("jki->ijk", c))
    phi = standard_structure().phi
    return np.einsum("mj,imk->ijk", phi, gamma) - np.einsum("ijm,km->ijk", gamma, phi)


def grid_params(cid):
    betas = PARAM_GRID if cid in TWO_PARAMETER_CLASSES else (0.0,)
    return [(alpha, beta) for alpha in PARAM_GRID for beta in betas]


# --- connection --------------------------------------------------------------


def test_connection_abelian_is_flat():
    gamma = connection_coeffs(np.zeros((3, 3, 3)))
    assert np.array_equal(gamma, np.zeros((3, 3, 3)))


def test_connection_f5_component():
    gamma = connection_coeffs(class_algebra(ClassParams("F5", 1.0)))
    assert gamma[1, 1, 0] == 1.0


def test_connection_f8_torsion():
    c = class_algebra(ClassParams("F8", 1.0))
    gamma = connection_coeffs(c)
    torsion = gamma[1, 2] - gamma[2, 1]
    assert np.array_equal(torsion, np.array([2.0, 0.0, 0.0]))


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_connection_invariants_on_grid(cid):
    for alpha, beta in grid_params(cid):
        c = class_algebra(ClassParams(cid, alpha, beta))
        gamma = connection_coeffs(c)
        assert np.array_equal(gamma, koszul_brute(c))
        # metric compatibility: antisymmetric in the last two slots
        assert np.max(np.abs(gamma + np.einsum("ikj->ijk", gamma))) <= 1e-14
        # torsion-freeness recovers the bracket
        assert np.max(np.abs(gamma - np.einsum("jik->ijk", gamma) - c)) <= 1e-14


def test_connection_rejects_non_lie_constants():
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[1, 0, 1] = 1.0, -1.0
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    with pytest.raises(NotALieAlgebraError) as excinfo:
        connection_coeffs(c)
    assert excinfo.value.defect > 0.0


def test_connection_rejects_invalid_constants():
    one_sided = np.zeros((3, 3, 3))
    one_sided[0, 1, 2] = 1.0  # [E0,E1] set without [E1,E0]
    non_finite = np.zeros((3, 3, 3))
    non_finite[0, 1, 2], non_finite[1, 0, 2] = np.nan, np.nan
    symmetric_huge = np.zeros((3, 3, 3))  # C + C[j][i][k] would overflow
    symmetric_huge[0, 1, 2], symmetric_huge[1, 0, 2] = 1e308, 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (one_sided, non_finite, symmetric_huge):
            for call in (connection_coeffs, classify_manifold):
                with pytest.raises(ValueError) as excinfo:
                    call(c)
                assert not isinstance(excinfo.value, NotALieAlgebraError)


# --- derived tensor ----------------------------------------------------------


def test_f_tensor_abelian_vanishes():
    assert np.array_equal(f_tensor(np.zeros((3, 3, 3))), np.zeros((3, 3, 3)))


def test_f_tensor_f5_component():
    f = f_tensor(class_algebra(ClassParams("F5", 1.0)))
    assert f[1, 2, 0] == 1.0


def test_f_tensor_f11_component():
    f = f_tensor(class_algebra(ClassParams("F11", 1.0, 0.0)))
    assert f[0, 0, 2] == 1.0


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_f_tensor_equals_pattern(cid):
    # the induced tensor of each constructed algebra is exactly its pattern
    for alpha, beta in grid_params(cid):
        p = ClassParams(cid, alpha, beta)
        assert np.array_equal(f_tensor(class_algebra(p)), class_pattern(p)), p


def test_f_tensor_equals_einsum_on_pure_classes():
    for cid in CLASS_IDS:
        for e in range(-15, 196):
            for sign in (1.0, -1.0):
                beta = -sign * 10.0 ** (e - 0.5) if cid in TWO_PARAMETER_CLASSES else 0.0
                c = class_algebra(ClassParams(cid, sign * 10.0**e, beta))
                assert np.array_equal(f_tensor(c) + 0.0, f_einsum(c) + 0.0), (cid, e)


def test_f_tensor_equals_einsum_on_random_constants(monkeypatch):
    # most random constants fail the Jacobi identity; the maps are linear
    # in C whether or not they do, so the check is switched off here
    monkeypatch.setattr(levicivita, "jacobi_defect", lambda c: 0.0)
    rng = np.random.default_rng(3)
    for _ in range(2000):
        raw = rng.normal(size=(3, 3, 3)) * 10.0 ** rng.uniform(-20, 20)
        c = raw - raw.transpose(1, 0, 2)
        assert np.array_equal(f_tensor(c) + 0.0, f_einsum(c) + 0.0)


# --- classification ----------------------------------------------------------


def test_classify_f9():
    report = classify_manifold(class_algebra(ClassParams("F9", 2.0)))
    assert report.verdict == ["F9"]
    assert report.alpha == 2.0
    assert report.residual <= 1e-12


def test_classify_abelian():
    assert classify_manifold(np.zeros((3, 3, 3))).verdict == ["F0"]


def test_classify_para_sasakian_instance():
    report = classify_manifold(class_algebra(ClassParams("F4", -1.0)))
    assert report.verdict == ["F4"]
    assert report.alpha == -1.0
    assert report.para_sasakian
    assert report.lee.theta[0] == pytest.approx(-2.0, abs=1e-9)


@pytest.mark.parametrize("cid", CLASS_IDS)
def test_full_round_trip_with_identifications(cid):
    for alpha, beta in grid_params(cid):
        p = ClassParams(cid, alpha, beta)
        f = f_tensor(class_algebra(p))
        report = classify_manifold(class_algebra(p))
        assert report.verdict == [cid]
        assert abs(report.alpha - alpha) <= 1e-12
        assert abs(report.beta - beta) <= 1e-12 or cid not in TWO_PARAMETER_CLASSES
        theta, theta_star, omega = report.lee.theta, report.lee.theta_star, report.lee.omega
        if cid == "F1":
            assert report.alpha == pytest.approx(theta[1] / 2.0, abs=1e-12)
            assert report.beta == pytest.approx(-theta[2] / 2.0, abs=1e-12)
        elif cid == "F4":
            assert report.alpha == pytest.approx(theta[0] / 2.0, abs=1e-12)
        elif cid == "F5":
            assert report.alpha == pytest.approx(theta_star[0] / 2.0, abs=1e-12)
        elif cid == "F8":
            assert report.alpha == pytest.approx(f[1, 1, 0], abs=1e-12)
            assert f[2, 2, 0] == pytest.approx(-f[1, 1, 0], abs=1e-14)
        elif cid == "F9":
            assert report.alpha == pytest.approx(f[1, 2, 0], abs=1e-12)
            assert f[2, 1, 0] == pytest.approx(-f[1, 2, 0], abs=1e-14)
        elif cid == "F10":
            assert report.alpha == pytest.approx(f[0, 1, 1] / 2.0, abs=1e-12)
        elif cid == "F11":
            assert report.alpha == pytest.approx(omega[2], abs=1e-12)
            assert report.beta == pytest.approx(omega[1], abs=1e-12)


def test_classification_scales_linearly():
    for scale in (-3.0, 0.25, 4.0):
        report = classify_manifold(class_algebra(ClassParams("F1", scale * 1.0, scale * 0.5)))
        assert report.verdict == ["F1"]
        assert report.alpha == pytest.approx(scale, abs=1e-12)
        assert report.beta == pytest.approx(scale * 0.5, abs=1e-12)


@pytest.mark.parametrize("s", [1e160, 1e200])
def test_classify_beyond_double_range(s):
    non_lie = class_algebra(ClassParams("F1", s)) + class_algebra(ClassParams("F11", s, s))
    with pytest.raises(NotALieAlgebraError):
        classify_manifold(non_lie)
    report = classify_manifold(class_algebra(ClassParams("F8", s)))
    assert report.verdict == ["F8"]
    assert report.alpha == pytest.approx(s, rel=1e-15)


def test_classify_rejects_overflowing_connection():
    # a genuine algebra whose connection coefficients leave double range
    c = class_algebra(ClassParams("F4", 1.5e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError) as excinfo:
            classify_manifold(c)
    assert not isinstance(excinfo.value, NotALieAlgebraError)


@pytest.mark.parametrize("scale", [1e4, 1e6, 1e8])
def test_sums_at_large_scale_are_never_unclassified(scale):
    # the projection's rounding residual once exceeded the absolute tol here
    rng = np.random.default_rng(int(np.log10(scale)))
    summands = ("F4", "F5", "F9", "F10")
    for _ in range(300):
        subset = sorted(rng.choice(summands, rng.integers(2, 5), replace=False),
                        key=CLASS_IDS.index)
        alphas = rng.choice((-1.0, 1.0), len(subset)) * scale * rng.uniform(0.1, 10, len(subset))
        c = sum(class_algebra(ClassParams(cid, a)) for cid, a in zip(subset, alphas))
        report = classify_manifold(c)
        assert report.verdict == subset
        assert report.residual == 0.0


def test_classify_near_double_range_without_warnings():
    # one range rule for every route from C to the geometry
    big = (ClassParams("F4", 1.5e308), ClassParams("F8", 8e307), ClassParams("F11", 1e308, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in big:
            for call in (connection_coeffs, f_tensor, classify_manifold):
                with pytest.raises(ValueError, match="overflow") as excinfo:
                    call(class_algebra(p))
                assert not isinstance(excinfo.value, NotALieAlgebraError)
        # below 2**1023 an algebra classifies, even where Gamma would overflow
        report = classify_manifold(class_algebra(ClassParams("F4", 5e307)))
    assert report.verdict == ["F4"]
    assert report.alpha == 5e307
    assert report.lee.theta[0] == 1e308


def test_classify_never_warns_on_finite_antisymmetric_constants(monkeypatch):
    # with the Jacobi check off, the map itself runs on arbitrary constants
    # up to the largest double: either a finite report or the range error
    monkeypatch.setattr(levicivita, "jacobi_defect", lambda c: 0.0)
    rng = np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(500):
            raw = rng.uniform(-1.0, 1.0, (3, 3, 3))
            unit = raw - raw.transpose(1, 0, 2)
            c = unit / np.max(np.abs(unit)) * (np.finfo(float).max / 2.0 ** rng.uniform(0, 3))
            if np.max(np.abs(c)) >= 2.0**1023:
                with pytest.raises(ValueError, match="overflow"):
                    classify_manifold(c)
                continue
            report = classify_manifold(c)
            assert np.isfinite([x for ab in report.params.values() for x in ab]).all()
            assert np.isfinite(report.lee.theta).all() and np.isfinite(report.lee.omega).all()


def test_classify_validates_once_without_einsum(monkeypatch):
    calls = []

    def counting(c):
        calls.append(c)
        return structure_constants(c)

    def forbidden(*args, **kwargs):
        pytest.fail("classify_manifold ran einsum or re-validated F")

    monkeypatch.setattr(levicivita, "structure_constants", counting)
    monkeypatch.setattr(structure, "ftensor", forbidden)
    monkeypatch.setattr(np, "einsum", forbidden)
    report = classify_manifold(class_algebra(ClassParams("F11", 0.3, -1.7)))
    assert report.verdict == ["F11"]
    assert len(calls) == 1


def test_classify_propagates_jacobi_failure():
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[1, 0, 1] = 1.0, -1.0
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    with pytest.raises(NotALieAlgebraError):
        classify_manifold(c)


# --- para-Sasakian predicate ---------------------------------------------------


def test_is_para_sasakian():
    assert classify_manifold(class_algebra(ClassParams("F4", -1.0))).para_sasakian
    assert not classify_manifold(class_algebra(ClassParams("F4", 1.0))).para_sasakian
    assert not classify_manifold(np.zeros((3, 3, 3))).para_sasakian
    assert not classify_manifold(class_algebra(ClassParams("F8", -1.0))).para_sasakian
