"""The three workloads: inputs, one timed pass each, and the output checks.

Load is one process, one thread, closed loop: each call into the package is
made after the previous one returns.  Only the call itself sits between the
two clock reads of an operation; building inputs, the reference
exponentials and every check run outside the timed section.

Failures are counted per input category.  Inputs in the stress categories
(mixed scales, branch seams, overflow, the fixed anchors, tiny classify
parameters) hold the defects that ROADMAP items 1 and 3 track; their wrong
outcomes count in ``PassResult.failed`` and so lower ``ok_share``.  A
failure in any other category (``core_failed``) means a regression on the
documented domain: it is what the result line's ``failed`` counts, and it
marks the whole run incorrect.
"""

from __future__ import annotations

import importlib
import io
import math
import re
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

from . import inputs


@dataclass
class PassResult:
    seconds: float  # wall time of the timed pass
    p50: float  # median seconds per operation in this pass
    p99: float
    failed: int
    max_err: float
    failed_by_category: Counter
    core_failed: int  # failures outside the stress categories
    lat: np.ndarray | None = None  # seconds per operation, until a run files them

    @classmethod
    def of(cls, seconds: float, lat: np.ndarray, *rest) -> "PassResult":
        """Summarise a pass's latencies, keeping them for the run to file."""
        p50, p99 = np.quantile(lat, (0.5, 0.99))
        return cls(seconds, float(p50), float(p99), *rest, lat=lat)


def timed_calls(fn, calls: list, tracer=None) -> tuple[float, np.ndarray, list]:
    """fn(*args) for each args in calls, one after another, each call timed
    alone.  Returns the pass's wall time, the per-call latencies and the
    outcomes: the return value, or the exception raised."""
    lat = np.empty(len(calls))
    out = [None] * len(calls)
    clock = time.perf_counter
    begin = clock()
    for i, args in enumerate(calls):
        if tracer is not None:
            tracer.begin_op()
        t0 = clock()
        try:
            r = fn(*args)
        except Exception as exc:  # the outcome under test; check() judges it
            r = exc.with_traceback(None)  # no frame cycle kept alive
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
        lat[i] = t1 - t0
        out[i] = r
    return clock() - begin, lat, out


class VerifyFull:
    """``paralie verify --grid full`` in-process; one operation is one pass.

    The grid is fixed: 21,875 closed-form exponentials against the package's
    referee plus 102 classification round trips.  The seed has no effect.
    """

    name = "verify_full"
    EXP_PER_CLASS = 5 * 5 * 5 ** 3  # (alpha, beta) x coordinates
    ROUNDTRIP = {cid: 36 if cid in ("F1", "F11") else 6 for cid in inputs.CLASS_IDS}
    ops_per_pass = EXP_PER_CLASS * len(inputs.CLASS_IDS) + sum(ROUNDTRIP.values())
    ROW = re.compile(r"^\s+(F\d+)\s+max (residual|error)\s+(\S+)\s+(pass|FAIL)\s*$")

    def __init__(self, seed: int):
        self.cli = importlib.import_module("paralie.cli")

    def run_pass(self, tracer=None) -> PassResult:
        buf = io.StringIO()
        with redirect_stdout(buf):
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            rc = self.cli.main(["verify", "--grid", "full"])
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
        return self.check(rc, buf.getvalue(), t1 - t0)

    def check(self, rc: int, text: str, seconds: float) -> PassResult:
        """Every class must pass on both grids, and the exit code must agree.

        A failing class counts all its grid instances as failed; max_err is
        the worst printed max-abs residual of the exponential grid (max-abs,
        hence at least the error relative to max(1, max_abs(ref)))."""
        rows = [m.groups() for m in map(self.ROW.match, text.splitlines()) if m]
        exp = {cid: (float(v), st) for cid, kind, v, st in rows if kind == "residual"}
        rt = {cid: st for cid, kind, _, st in rows if kind == "error"}
        fails = Counter()
        for cid in inputs.CLASS_IDS:
            if exp.get(cid, (0.0, "FAIL"))[1] != "pass":
                fails["exp_grid"] += self.EXP_PER_CLASS
            if rt.get(cid, "FAIL") != "pass":
                fails["roundtrip"] += self.ROUNDTRIP[cid]
        if (rc == 0) != (not fails):  # exit status disagrees with the report
            fails = Counter(exit_status=self.ops_per_pass)
        failed = sum(fails.values())
        max_err = max((math.inf if math.isnan(v) else v for v, _ in exp.values()), default=math.inf)
        return PassResult.of(seconds, np.array([seconds]), failed, max_err, fails, failed)


class ExpScatter:
    """Single scalar ``closed_form`` calls over a seeded pool of inputs."""

    name = "exp_scatter"
    CORE = ("generic", "near_edge")

    def __init__(self, seed: int, n: int = 8192):
        paralie = importlib.import_module("paralie")
        self.expengine = importlib.import_module("paralie.expengine")
        self.cases = inputs.exp_cases(seed, n)
        self.truth = inputs.exp_truth(self.cases)
        self.category = np.array([c.category for c in self.cases])
        self.args = [(paralie.ClassParams(c.cid, c.alpha, c.beta), *c.coords) for c in self.cases]
        self.ops_per_pass = len(self.args)

    def run_pass(self, tracer=None) -> PassResult:
        return self.check(*timed_calls(self.expengine.closed_form, self.args, tracer))

    def check(self, seconds: float, lat: np.ndarray, out: list) -> PassResult:
        """Finite results must lie within EXP_TOL of the referee, relative to
        max(1, max_abs(ref)); beyond double range the documented outcome is a
        ValueError (a bare OverflowError fails); near the edge either holds."""
        n = len(out)
        got = np.full((n, 3, 3), np.nan)
        returned = np.zeros(n, dtype=bool)
        value_error = np.array([isinstance(r, ValueError) for r in out])
        for i, r in enumerate(out):
            exp_a = None if isinstance(r, Exception) else getattr(r, "expA", None)
            if exp_a is not None:
                got[i] = exp_a
                returned[i] = True
        t = self.truth
        finite_ref = np.isfinite(t.scale)
        with np.errstate(invalid="ignore", over="ignore"):
            err = np.max(np.abs(got - t.ref), axis=(1, 2)) / t.scale
        err[np.isnan(err)] = np.inf
        accurate = returned & finite_ref & (err <= inputs.EXP_TOL)
        ok = np.where(
            t.expect == "value",
            accurate,
            np.where(t.expect == "raise", value_error, accurate | value_error),
        )
        measured = returned & finite_ref
        max_err = float(err[measured].max()) if measured.any() else 0.0
        fails = Counter(self.category[~ok].tolist())
        core = sum(fails[c] for c in self.CORE)
        return PassResult.of(seconds, lat, int((~ok).sum()), max_err, fails, core)


class ClassifyMix:
    """``classify_manifold`` over seeded constants with recorded ground truth."""

    name = "classify_mix"
    CORE = ("pure", "sum", "non_lie")

    def __init__(self, seed: int, n: int = 2048):
        self.levicivita = importlib.import_module("paralie.levicivita")
        self.reject_type = importlib.import_module("paralie").NotALieAlgebraError
        self.cases = inputs.classify_cases(seed, n)
        self.args = [(case.c,) for case in self.cases]
        self.ops_per_pass = len(self.cases)

    def run_pass(self, tracer=None) -> PassResult:
        return self.check(*timed_calls(self.levicivita.classify_manifold, self.args, tracer))

    @staticmethod
    def param_err(case: inputs.ClassifyCase, report) -> float:
        """Worst recovered-parameter error, relative to max(1, max |truth|)."""
        scale = max([1.0] + [abs(x) for _, a, b in case.params for x in (a, b)])
        params = getattr(report, "params", {})
        diffs = []
        for cid, a, b in case.params:
            ra, rb = params.get(cid, (math.nan, math.nan))
            diffs += [ra - a, rb - b]
        if len(case.params) == 1:  # the report's own alpha/beta are the only class's
            _, a, b = case.params[0]
            diffs += [getattr(report, "alpha", math.nan) - a, getattr(report, "beta", math.nan) - b]
        return max(math.inf if math.isnan(d) else abs(d) for d in diffs) / scale

    def check(self, seconds: float, lat: np.ndarray, out: list) -> PassResult:
        """A correct rejection is a success; otherwise the verdict must match
        exactly and every recovered parameter lie within PARAM_TOL."""
        fails = Counter()
        max_err = 0.0
        for case, r in zip(self.cases, out):
            if case.reject:
                ok = isinstance(r, self.reject_type)
            elif isinstance(r, Exception):
                ok = False
            else:
                err = self.param_err(case, r)
                max_err = max(max_err, err)
                ok = tuple(getattr(r, "verdict", ())) == case.verdict and err <= inputs.PARAM_TOL
            if not ok:
                fails[case.category] += 1
        core = sum(fails[c] for c in self.CORE)
        return PassResult.of(seconds, lat, sum(fails.values()), max_err, fails, core)


WORKLOADS = {w.name: w for w in (VerifyFull, ExpScatter, ClassifyMix)}
