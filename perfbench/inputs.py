"""Seeded input generators with ground truth, and the independent referee.

Nothing here imports paralie: the structure constants, the Jacobi check and
the reference exponential are written out again from the definitions in the
README, so the benchmark's verdicts do not depend on the code under test.

Each generator draws a fixed number of inputs per category and spreads every
scale parameter by stratified sampling (one draw per equal-width stratum, in
shuffled order).  The share of inputs that falls on either side of a fixed
threshold, such as the old 1e-12 branch seam, is then the same for every
seed up to one input per category, so the failure share does not wander with
the seed while the inputs themselves do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CLASS_IDS = ("F1", "F4", "F5", "F8", "F9", "F10", "F11")

# [E_i, E_j] = (ca*alpha + cb*beta) E_k, as (i, j, k, ca, cb); README table.
BRACKETS = {
    "F1": [(1, 2, 1, 1.0, 0.0), (1, 2, 2, 0.0, 1.0)],
    "F4": [(0, 1, 2, 1.0, 0.0), (0, 2, 1, 1.0, 0.0)],
    "F5": [(0, 1, 1, 1.0, 0.0), (0, 2, 2, 1.0, 0.0)],
    "F8": [(0, 1, 2, 1.0, 0.0), (0, 2, 1, -1.0, 0.0), (1, 2, 0, 2.0, 0.0)],
    "F9": [(0, 1, 1, 1.0, 0.0), (0, 2, 2, -1.0, 0.0)],
    "F10": [(0, 1, 2, -1.0, 0.0), (0, 2, 1, 1.0, 0.0)],
    "F11": [(0, 1, 0, 1.0, 0.0), (0, 2, 0, 0.0, 1.0)],
}

EXP_TOL = 1e-11  # the README's accuracy claim for the closed forms
PARAM_TOL = 1e-11  # recovered parameters, relative to max(1, |truth|)
DBL_MAX = float(np.finfo(float).max)
EDGE_LOW = 2.0 ** 1000  # below this the exponential must come back finite


def constants(cid: str, alpha: float, beta: float = 0.0, dtype=float) -> np.ndarray:
    """C[i][j][k] of one class algebra, antisymmetric in (i, j)."""
    c = np.zeros((3, 3, 3), dtype=dtype)
    for i, j, k, ca, cb in BRACKETS[cid]:
        v = dtype(ca) * dtype(alpha) + dtype(cb) * dtype(beta)
        c[i, j, k] = v
        c[j, i, k] = -v
    return c


def jacobi_defect(c: np.ndarray) -> float:
    """Max-abs of the cyclic sum [[Ei,Ej],Ek] + cyclic, in long double."""
    c = np.asarray(c, dtype=np.longdouble)
    worst = np.longdouble(0)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                cyc = c[i, j] @ c[:, k] + c[j, k] @ c[:, i] + c[k, i] @ c[:, j]
                worst = max(worst, np.max(np.abs(cyc)))
    return float(worst)


def element_matrix(cid: str, alpha: float, beta: float, a: float, b: float, co: float):
    """A[j][k] = -(a C_0jk + b C_1jk + co C_2jk), exact in long double."""
    c = constants(cid, alpha, beta, dtype=np.longdouble)
    ld = np.longdouble
    return -(ld(a) * c[0] + ld(b) * c[1] + ld(co) * c[2])


def expm_stacked(a: np.ndarray) -> np.ndarray:
    """exp of every 3x3 slice of a (N, 3, 3) long-double stack.

    Scaling and squaring with a per-slice squaring count: each slice is
    scaled by 2**-s until its max-abs norm is at most 1/2 (spectral radius at
    most 3/2), then a fixed degree-30 Taylor sum, whose truncation error
    1.5**31/31! is far below long-double resolution, is squared s times.
    """
    a = np.asarray(a, dtype=np.longdouble)
    norm = np.max(np.abs(a), axis=(1, 2)).astype(float)
    s = np.zeros(len(a), dtype=int)
    big = norm > 0.5
    s[big] = np.ceil(np.log2(norm[big] / 0.5)).astype(int)
    x = a / np.ldexp(np.ones(len(a), dtype=np.longdouble), s)[:, None, None]
    eye = np.broadcast_to(np.eye(3, dtype=np.longdouble), a.shape)
    out = eye.copy()
    term = eye.copy()
    for k in range(1, 31):
        term = (term @ x) / k
        out = out + term
    for j in range(int(s.max(initial=0))):
        m = s > j
        out[m] = out[m] @ out[m]
    return out


def _strata(rng, n: int) -> np.ndarray:
    """n uniforms in [0, 1), one per stratum of width 1/n, shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_uniform(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """Signed magnitudes 10**U(lo, hi), stratified in the exponent."""
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return sign * 10.0 ** (lo + (hi - lo) * _strata(rng, n))


def _cycle(rng, items, n: int) -> list:
    """n items, each of items equally often (up to one), shuffled."""
    return [items[i] for i in rng.permutation(np.resize(np.arange(len(items)), n))]


# --- exp_scatter --------------------------------------------------------------


@dataclass(frozen=True)
class ExpCase:
    category: str
    cid: str
    alpha: float
    beta: float
    coords: tuple  # (a, b, c) on E0, E1, E2


# Fixed probes included in every seed: the mixed-scale and seam points named
# in ROADMAP item 1 (the fourth sits just inside the 1e-12 seam, where the
# dropped u*A^2 term is largest), the overflow reports (F1 at c=800, F4 at
# a=800, F5 beyond the edge) and three instances just inside the edge.
EXP_ANCHORS = (
    ExpCase("anchor", "F4", 1.0, 0.0, (3e-7, 1.0, 1.0)),
    ExpCase("anchor", "F4", 1.0, 0.0, (1e-7, 1e3, 0.0)),
    ExpCase("anchor", "F5", 1.0, 0.0, (1e-13, 1e3, 1e3)),
    ExpCase("anchor", "F4", 1.0, 0.0, (7.07e-7, 1e3, 0.0)),
    ExpCase("anchor", "F1", 1.0, 0.0, (0.0, 0.0, 800.0)),
    ExpCase("anchor", "F4", 1.0, 0.0, (800.0, 0.0, 0.0)),
    ExpCase("anchor", "F5", 1.0, 0.0, (-800.0, 0.0, 0.0)),
    ExpCase("anchor", "F4", 1.0, 0.0, (700.0, 1.0, 1.0)),
    ExpCase("anchor", "F9", -2.0, 0.0, (-350.0, 1.0, -1.0)),
    ExpCase("anchor", "F11", 0.5, -1.0, (1400.0, 0.0, 3.0)),
)

# Share of the pool per category; the anchors take their places from "generic".
EXP_MIX = (
    ("generic", 0.50),  # moderate parameters and coordinates, all classes
    ("mixed", 0.20),  # tiny E0 coordinate beside large E1/E2 coordinates
    ("seam", 0.10),  # tr A or tr A^2 within a decade of the old 1e-12 seam
    ("near_edge", 0.10),  # growth exponent 300..690, still finite in double
    ("overflow", 0.10),  # growth exponent 720..1100, beyond double range
)


def _exp_generic(rng, n):
    cids = _cycle(rng, CLASS_IDS, n)
    al = _log_uniform(rng, n, -1.0, 0.5)
    bt = _log_uniform(rng, n, -1.0, 0.5)
    xyz = [_log_uniform(rng, n, -1.5, 0.5) * (rng.random(n) > 0.1) for _ in range(3)]
    return [
        ExpCase("generic", cid, al[i], bt[i] if cid in ("F1", "F11") else 0.0,
                (xyz[0][i], xyz[1][i], xyz[2][i]))
        for i, cid in enumerate(cids)
    ]


def _exp_mixed(rng, n):
    # Only the classes whose exponent depends on the E0 coordinate alone; in
    # F1 and F11 large E1/E2 coordinates set the growth rate instead.
    cids = _cycle(rng, ("F4", "F5", "F8", "F9", "F10"), n)
    al = _log_uniform(rng, n, -0.5, 0.5)
    a = _log_uniform(rng, n, -14.0, -4.0)
    b = _log_uniform(rng, n, 0.0, 3.0)
    c = _log_uniform(rng, n, 0.0, 3.0)
    return [ExpCase("mixed", cid, al[i], 0.0, (a[i], b[i], c[i])) for i, cid in enumerate(cids)]


def _exp_seam(rng, n):
    cids = _cycle(rng, ("F1", "F4", "F5", "F9", "F10", "F11"), n)
    al = _log_uniform(rng, n, -0.5, 0.5)
    bt = _log_uniform(rng, n, -0.5, 0.5)
    q = _log_uniform(rng, n, -13.0, -11.0)  # target tr A (trace classes) or tr A^2
    b = _log_uniform(rng, n, -1.0, 1.0)
    c = _log_uniform(rng, n, -1.0, 1.0)
    out = []
    for i, cid in enumerate(cids):
        bi, ci = b[i], c[i]
        if cid in ("F4", "F9", "F10"):  # |tr A^2| = 2 alpha^2 a^2
            coords = (np.sqrt(abs(q[i]) / 2.0) / abs(al[i]), bi, ci)
        elif cid == "F5":  # tr A = -2 alpha a
            coords = (-q[i] / (2.0 * al[i]), bi, ci)
        elif cid == "F1":  # tr A = c alpha - b beta
            coords = (0.0, bi, (q[i] + bi * bt[i]) / al[i])
        else:  # F11: tr A = b alpha + c beta
            coords = (0.0, (q[i] - ci * bt[i]) / al[i], ci)
        out.append(ExpCase("seam", cid, al[i], bt[i] if cid in ("F1", "F11") else 0.0, coords))
    return out


def _exp_growth(rng, n, category, lo, hi):
    # Coordinates chosen so the largest eigenvalue of A is rho: the E0
    # coordinate for F4/F5/F9, the E2 (F1) or E1 (F11) coordinate otherwise.
    cids = _cycle(rng, ("F1", "F4", "F5", "F9", "F11"), n)
    al = _log_uniform(rng, n, -0.5, 0.5)
    bt = _log_uniform(rng, n, -0.5, 0.5)
    rho = lo + (hi - lo) * _strata(rng, n)
    u = _log_uniform(rng, n, -1.0, 0.0)
    v = _log_uniform(rng, n, -1.0, 0.0)
    out = []
    for i, cid in enumerate(cids):
        if cid in ("F4", "F9"):
            coords = (rho[i] / abs(al[i]), u[i], v[i])
            beta = 0.0
        elif cid == "F5":
            coords = (-rho[i] / al[i], u[i], v[i])
            beta = 0.0
        elif cid == "F1":
            coords = (u[i], 0.0, rho[i] / al[i])
            beta = bt[i]
        else:
            coords = (u[i], rho[i] / al[i], 0.0)
            beta = bt[i]
        out.append(ExpCase(category, cid, al[i], beta, coords))
    return out


def exp_cases(seed: int, n: int) -> list[ExpCase]:
    """The exp_scatter pool: anchors, then each category at its share of n."""
    rng = np.random.default_rng([seed, 1])
    counts = {name: int(round(share * n)) for name, share in EXP_MIX}
    counts["generic"] += n - len(EXP_ANCHORS) - sum(counts.values())
    counts = {k: max(v, 0) for k, v in counts.items()}
    make = {
        "generic": _exp_generic,
        "mixed": _exp_mixed,
        "seam": _exp_seam,
        "near_edge": lambda r, m: _exp_growth(r, m, "near_edge", 300.0, 690.0),
        "overflow": lambda r, m: _exp_growth(r, m, "overflow", 720.0, 1100.0),
    }
    cases = list(EXP_ANCHORS)
    for name, _ in EXP_MIX:
        cases += make[name](rng, counts[name])
    cases = [
        ExpCase(c.category, c.cid, float(c.alpha), float(c.beta), tuple(float(x) for x in c.coords))
        for c in cases
    ]
    return [cases[i] for i in rng.permutation(len(cases))]


@dataclass(frozen=True)
class ExpTruth:
    """Reference exponentials (float64, inf where beyond range) and the
    documented outcome: "value" (finite, within EXP_TOL), "raise" (a
    ValueError) or "either" (max-abs between EDGE_LOW and the largest
    double, where rounding decides which side of the edge a result falls)."""

    ref: np.ndarray  # (N, 3, 3)
    scale: np.ndarray  # max(1, max_abs(ref)), as float64 (inf beyond range)
    expect: np.ndarray  # (N,) of "value" | "raise" | "either"


def exp_truth(cases: list[ExpCase]) -> ExpTruth:
    a = np.stack([element_matrix(c.cid, c.alpha, c.beta, *c.coords) for c in cases])
    ref_ld = expm_stacked(a)
    mag = np.max(np.abs(ref_ld), axis=(1, 2))
    expect = np.where(mag <= EDGE_LOW, "value", np.where(mag > DBL_MAX, "raise", "either"))
    with np.errstate(over="ignore"):
        ref = ref_ld.astype(float)
        scale = np.maximum(1.0, mag.astype(float))
    return ExpTruth(ref=ref, scale=scale, expect=expect)


# --- classify_mix -------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyCase:
    """Constants plus ground truth: either reject (expect
    NotALieAlgebraError) or the verdict with each class's (alpha, beta)."""

    category: str
    c: np.ndarray
    reject: bool
    verdict: tuple = ()
    params: tuple = ()  # ((cid, alpha, beta), ...) in verdict order


CLASSIFY_MIX = (
    ("pure", 0.50),  # one class, |alpha| from 1e-15 to 1e2 (below 1e-9: "pure_small")
    ("sum", 0.30),  # sums of F4, F5, F9, F10: Lie, multi-class verdicts
    ("non_lie", 0.20),  # F1 + F11 or random constants: must be rejected
)

_SUMMANDS = ("F4", "F5", "F9", "F10")
_SUBSETS = tuple(
    tuple(c for bit, c in enumerate(_SUMMANDS) if mask >> bit & 1)
    for mask in range(16)
    if bin(mask).count("1") >= 2
)


def _pure(rng, n):
    cids = _cycle(rng, CLASS_IDS, n)
    expo = -15.0 + 17.0 * _strata(rng, n)
    al = np.where(rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** expo
    bt = np.where(rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** (expo + rng.uniform(-1.0, 1.0, n))
    out = []
    for i, cid in enumerate(cids):
        beta = float(bt[i]) if cid in ("F1", "F11") else 0.0
        # "pure_small" marks the tiny parameters ROADMAP item 3 reports as F0
        category = "pure" if max(abs(al[i]), abs(beta)) >= 1e-9 else "pure_small"
        out.append(ClassifyCase(category, constants(cid, al[i], beta), False, (cid,),
                                ((cid, float(al[i]), beta),)))
    return out


def _sum(rng, n):
    out = []
    for subset in _cycle(rng, _SUBSETS, n):
        al = _log_uniform(rng, len(subset), -1.0, 1.0)
        c = sum(constants(cid, al[i]) for i, cid in enumerate(subset))
        out.append(ClassifyCase("sum", c, False, subset,
                                tuple((cid, float(al[i]), 0.0) for i, cid in enumerate(subset))))
    return out


def _non_lie(rng, n):
    out = []
    for i in range(n):
        while True:
            if i % 2 == 0:
                p = rng.uniform(0.3, 3.0, 4) * np.where(rng.random(4) < 0.5, -1.0, 1.0)
                c = constants("F1", p[0], p[1]) + constants("F11", p[2], p[3])
            else:
                c = rng.normal(size=(3, 3, 3))
                c = c - c.transpose(1, 0, 2)
            if jacobi_defect(c) >= 1e-3:  # far above any tolerance: a clear reject
                break
        out.append(ClassifyCase("non_lie", c, True))
    return out


def classify_cases(seed: int, n: int) -> list[ClassifyCase]:
    """The classify_mix pool, each category at its share of n, shuffled."""
    rng = np.random.default_rng([seed, 2])
    counts = {name: int(round(share * n)) for name, share in CLASSIFY_MIX}
    counts["pure"] += n - sum(counts.values())
    make = {"pure": _pure, "sum": _sum, "non_lie": _non_lie}
    cases = []
    for name, _ in CLASSIFY_MIX:
        cases += make[name](rng, counts[name])
    return [cases[i] for i in rng.permutation(len(cases))]
