"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run as `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import itertools
import math

import numpy as np
import pytest

from paralie.expengine import closed_form, para_sasakian_group
from paralie.levicivita import classify_manifold, connection_coeffs, f_tensor
from paralie.lie import class_algebra, jacobi_defect
from paralie.mat3 import expm_oracle, max_abs, trace, trace_sq
from paralie.structure import (
    CLASS_IDS,
    TWO_PARAMETER_CLASSES,
    ClassParams,
    check_structure,
    standard_structure,
)
from reference import class_pattern

PARAM_GRID = (-2.0, -1.0, 0.5, 1.0, 2.0)
COORD_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
ROUNDTRIP_GRID = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def report(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, text


def class_params_grid(cid, grid):
    betas = grid if cid in TWO_PARAMETER_CLASSES else (0.0,)
    return [ClassParams(cid, alpha, beta) for alpha in grid for beta in betas]


def test_criterion_1_closed_form_vs_oracle():
    tol = 1e-11
    worst = 0.0
    count = 0
    for cid in CLASS_IDS:
        for alpha in PARAM_GRID:
            for beta in PARAM_GRID:
                p = ClassParams(cid, alpha, beta)
                for a in COORD_GRID:
                    for b in COORD_GRID:
                        for c in COORD_GRID:
                            res = closed_form(p, a, b, c)
                            diff = max_abs(res.expA - expm_oracle(res.A, 1e-15))
                            count += 1
                            if diff > worst:
                                worst = diff
    report(
        1,
        worst <= tol,
        f"closed form vs oracle on {count} instances, max residual {worst:.3e} <= {tol:g}",
    )


def test_criterion_2_classification_round_trip():
    tol = 1e-12
    worst = 0.0
    ok = True
    for cid in CLASS_IDS:
        for p in class_params_grid(cid, ROUNDTRIP_GRID):
            rep = classify_manifold(class_algebra(p))
            if rep.verdict != [cid]:
                ok = False
                continue
            f = f_tensor(class_algebra(p))
            theta = rep.lee.theta
            theta_star = rep.lee.theta_star
            omega = rep.lee.omega
            identification = {
                "F1": max(abs(rep.alpha - theta[1] / 2), abs(rep.beta + theta[2] / 2)),
                "F4": abs(rep.alpha - theta[0] / 2),
                "F5": abs(rep.alpha - theta_star[0] / 2),
                "F8": abs(rep.alpha - f[1, 1, 0]),
                "F9": abs(rep.alpha - f[1, 2, 0]),
                "F10": abs(rep.alpha - f[0, 1, 1] / 2),
                "F11": max(abs(rep.alpha - omega[2]), abs(rep.beta - omega[1])),
            }[cid]
            err = max(
                abs(rep.alpha - p.alpha),
                abs(rep.beta - p.beta),
                # F is exactly the pattern of the class recovered
                max_abs(f - class_pattern(ClassParams(cid, rep.alpha, rep.beta))),
                identification,
            )
            worst = max(worst, err)
    report(
        2,
        ok and worst <= tol,
        f"round trip with stated parameter identifications, max error {worst:.3e} <= {tol:g}",
    )


def test_criterion_3_para_sasakian():
    minus = classify_manifold(class_algebra(ClassParams("F4", -1.0)))
    plus = classify_manifold(class_algebra(ClassParams("F4", 1.0)))
    flags_ok = (
        minus.para_sasakian
        and abs(float(minus.lee.theta[0]) + 2.0) <= 1e-9
        and not plus.para_sasakian
    )
    worst = 0.0
    for a, b, c in itertools.product(COORD_GRID, repeat=3):
        res = para_sasakian_group(a, b, c)
        worst = max(worst, max_abs(res.expA - expm_oracle(res.A, 1e-15)))
    report(
        3,
        flags_ok and worst <= 1e-11,
        f"para-Sasakian flags and group oracle agreement, max residual {worst:.3e} <= 1e-11",
    )


def test_criterion_4_structure_identities():
    residuals = check_structure(standard_structure())
    structure_ok = len(residuals) == 6 and all(v == 0.0 for v in residuals.values())
    worst = 0.0
    for cid in CLASS_IDS:
        for p in class_params_grid(cid, ROUNDTRIP_GRID):
            f = f_tensor(class_algebra(p))
            # full contractions, independent of the reduced Lee-form formulas
            theta = [f[1, 1, k] + f[2, 2, k] for k in range(3)]
            theta_star = [f[1, 2, k] + f[2, 1, k] for k in range(3)]
            omega = [f[0, 0, k] for k in range(3)]
            worst = max(
                worst,
                abs(theta[1] + theta_star[2]),
                abs(theta[2] + theta_star[1]),
                abs(omega[0]),
            )
    report(
        4,
        structure_ok and worst <= 1e-13,
        f"structure identities exact and Lee-form identities hold, max defect {worst:.3e} <= 1e-13",
    )


def test_criterion_5_connection_correctness():
    worst_gamma = 0.0
    jacobi_ok = True
    for cid in CLASS_IDS:
        for p in class_params_grid(cid, ROUNDTRIP_GRID):
            c = class_algebra(p)
            jacobi_ok &= jacobi_defect(c) == 0.0
            gamma = connection_coeffs(c)
            metric = np.max(np.abs(gamma + np.einsum("ikj->ijk", gamma)))
            torsion = np.max(np.abs(gamma - np.einsum("jik->ijk", gamma) - c))
            worst_gamma = max(worst_gamma, metric, torsion)
    report(
        5,
        jacobi_ok and worst_gamma <= 1e-14,
        f"Jacobi defect exactly 0, connection invariants {worst_gamma:.3e} <= 1e-14",
    )


def test_criterion_6_annihilating_polynomials():
    tol = 1e-12
    worst = 0.0
    for cid in CLASS_IDS:
        for alpha in PARAM_GRID:
            for beta in PARAM_GRID:
                p = ClassParams(cid, alpha, beta)
                for a, b, c in itertools.product(COORD_GRID, repeat=3):
                    res = closed_form(p, a, b, c)
                    m = res.A
                    if cid in ("F1", "F11"):
                        defect = max_abs(m @ m - trace(m) * m)
                    elif cid == "F5":
                        defect = max_abs(m @ m - 0.5 * trace(m) * m)
                    else:
                        defect = max_abs(m @ m @ m - 0.5 * trace_sq(m) * m)
                    worst = max(worst, defect)
    report(
        6,
        worst <= tol,
        f"quadratic/cubic annihilating identities, max defect {worst:.3e} <= {tol:g}",
    )


def test_criterion_7_branch_continuity():
    eps = 1e-8
    seams = [
        (ClassParams("F1", 1.0, 1.0), (0.0, 1.0, 1.0 + eps)),
        (ClassParams("F5", 1.0), (-eps / 2.0, 1.0, 1.0)),
        (ClassParams("F11", 1.0, 1.0), (1.0, eps, 0.0)),
        (ClassParams("F4", 1.0), (math.sqrt(eps / 2.0), 0.0, 0.0)),
        (ClassParams("F9", 1.0), (math.sqrt(eps / 2.0), 0.0, 0.0)),
        (ClassParams("F10", 1.0), (math.sqrt(eps / 2.0), 0.0, 0.0)),
    ]
    worst = 0.0
    branches_ok = True
    for p, coords in seams:
        res = closed_form(p, *coords)
        branches_ok &= res.branch == "generic"
        if p.class_id in ("F1", "F5", "F11"):
            seam_value = abs(trace(res.A))
        else:
            seam_value = abs(trace_sq(res.A))
        branches_ok &= abs(seam_value - eps) <= 1e-12
        worst = max(worst, max_abs(res.expA - (np.eye(3) + res.A)))
    report(
        7,
        branches_ok and worst <= 1e-7,
        f"generic vs degenerate branch at the 1e-8 seams, max gap {worst:.3e} <= 1e-7",
    )


def test_criterion_8_group_laws_on_rays():
    # directions and scalars keep every evaluated point inside the standard
    # coordinate box [-2, 2]^3, where float64 conditioning of exp allows the
    # stated tolerance
    tol = 1e-11
    worst = 0.0
    directions = [
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (1.0, 1.0, 1.0),
        (1.0, -0.5, 0.25),
        (-0.5, 1.0, -1.0),
    ]
    scalars = (-1.0, -0.5, 0.5, 1.0)
    for cid in CLASS_IDS:
        for alpha, beta in ((1.0, -0.5), (-2.0, 1.0), (0.5, 2.0)):
            p = ClassParams(cid, alpha, beta)
            for a, b, c in directions:
                inv = closed_form(p, 2 * a, 2 * b, 2 * c).expA @ closed_form(
                    p, -2 * a, -2 * b, -2 * c
                ).expA
                worst = max(worst, max_abs(inv - np.eye(3)))
                for s, t in itertools.combinations(scalars, 2):
                    lhs = closed_form(p, (s + t) * a, (s + t) * b, (s + t) * c).expA
                    rhs = (
                        closed_form(p, s * a, s * b, s * c).expA
                        @ closed_form(p, t * a, t * b, t * c).expA
                    )
                    worst = max(worst, max_abs(lhs - rhs))
    report(
        8,
        worst <= tol,
        f"inverse and one-parameter-subgroup laws on rays, max defect {worst:.3e} <= {tol:g}",
    )
