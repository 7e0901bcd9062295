"""The referee, expm_oracle, against the code it replaced, bit for bit.

expm_oracle's stop test now reads each series term rounded to double as
Python floats, and its series starts from one shared read-only identity;
the algorithm is unchanged.  ``reference.replaced_expm_oracle`` is the
referee as it was, kept verbatim.  Both must give the same bytes, or raise
the same exception type with the same message, with every warning an
error, on two sets of inputs:

- every distinct A that ``paralie verify --grid small`` evaluates;
- seeded 3x3 draws whose max-abs norm runs from 2**-1070 (subnormal
  entries) to 2**10 (ORACLE_MAX_NORM, eleven squarings), half of them
  above 1/2 so that the squarings run, at tol 1e-15, 1e-300 and 0.5.

Stopping the series one term early, or one term late, fails the draws.
"""

import warnings

import numpy as np
import pytest

from paralie.cli import GRIDS, _grid_pairs
from paralie.expengine import closed_form
from paralie.mat3 import expm_oracle
from paralie.structure import CLASS_IDS, ClassParams
from reference import replaced_expm_oracle

# draws per tol: at 1e-300 a term at norm 1/2 stops after about 150 terms,
# ten times as many as at 1e-15
DRAWS = {1e-15: 800, 1e-300: 200, 0.5: 800}


def outcome(fn, a, tol):
    """fn(a, tol)'s bytes, or its ValueError's type and message."""
    try:
        return fn(a, tol).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


def small_grid_matrices():
    """The distinct A of closed_form over verify's small grid."""
    params, coords, _ = GRIDS["small"]
    seen = {}
    for cid in CLASS_IDS:
        for alpha, beta in _grid_pairs(cid, params):
            p = ClassParams(cid, alpha, beta)
            for a in coords:
                for b in coords:
                    for co in coords:
                        m = closed_form(p, a, b, co).A
                        seen.setdefault(m.tobytes(), m)
    return list(seen.values())


def drawn_matrices(rng, n):
    """n matrices of max-abs 2**e times a factor in [1/2, 1), e up to 10:
    for the first half e runs from -1070, for the second from -1, so the
    squarings run in about half; about a quarter of the entries are 0."""
    e = np.concatenate((rng.integers(-1070, 11, n // 2), rng.integers(-1, 11, n - n // 2)))
    m = rng.uniform(-1.0, 1.0, (n, 3, 3)) * (rng.random((n, 3, 3)) > 0.25)
    m /= np.maximum(np.abs(m).max(axis=(1, 2)), 1e-300)[:, None, None]
    m *= rng.uniform(0.5, 1.0, n)[:, None, None]
    return list(np.ldexp(m, e[:, None, None]))


def seeded_draws(tol):
    return drawn_matrices(np.random.default_rng(33000 + list(DRAWS).index(tol)), DRAWS[tol])


@pytest.mark.parametrize("tol", DRAWS)
def test_referee_bit_identical_to_the_replaced_referee(tol):
    refused = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in small_grid_matrices() + seeded_draws(tol):
            got = outcome(expm_oracle, a, tol)
            assert got == outcome(replaced_expm_oracle, a, tol), a.tolist()
            refused += type(got) is tuple
    assert refused > 0  # exp(A) past double range, at norms above 709/3


@pytest.mark.parametrize("tol", DRAWS)
def test_the_draws_reach_every_squaring_count_and_both_regimes(tol):
    # each tol's draws cover the no-squaring regime, every squaring count
    # up to eleven, subnormal entries and the range's end
    norms = np.array([np.abs(a).max() for a in seeded_draws(tol)])
    squarings = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5)).astype(int)
    assert set(squarings.tolist()) == set(range(12))
    assert (norms <= 0.5).sum() > DRAWS[tol] * 0.4 and norms.min() < 2.0**-1022
    assert norms.max() > 2.0**9
