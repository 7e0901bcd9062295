"""Per-layer tracing from outside the package.

The tracer replaces each traced public function of the paralie modules by a
wrapper that records one span per call: the function, start, end, the
enclosing span and the benchmark operation it belongs to.  Every module
attribute that refers to the original function is replaced, so calls made
through ``from .lie import class_algebra`` style imports are seen as well.
Spans are kept in flat arrays in memory and written out when the run ends.

Counts that explain the end-to-end numbers are taken at the same
boundaries: the branch label and the error type of every ``closed_form``
call, the squaring count of every ``expm_oracle`` call (computed from the
input norm with the referee's own rule, not read from the package), the
rejections out of ``classify_manifold`` and the verdict kind of every
``match_class`` report.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

# The layers are the package modules; each is timed through these functions.
TRACED = (
    ("lie", "class_algebra"),
    ("lie", "adjoint_rep"),
    ("lie", "jacobi_defect"),
    ("mat3", "expm_oracle"),
    ("expengine", "closed_form"),
    ("levicivita", "connection_coeffs"),
    ("levicivita", "f_tensor"),
    ("levicivita", "classify_manifold"),
    ("structure", "check_structure"),
    ("structure", "match_class"),
    ("structure", "class_pattern"),
    ("cli", "run_exp_grid"),
    ("cli", "run_roundtrip_grid"),
)
COUNTERS = (
    *(f"expengine.closed_form.branch.{b}" for b in ("generic", "trace_zero", "trA2_zero", "zero_matrix")),
    "expengine.closed_form.value_error",
    "expengine.closed_form.overflow_error",
    "mat3.expm_oracle.squarings",
    "levicivita.rejected",
    *(f"structure.match_class.verdict.{v}" for v in ("F0", "unclassified", "multi")),
)
OP = "bench.op"  # root span around each timed benchmark operation


def _squarings(a) -> int:
    # mat3.expm_oracle scales by 2**-s until the max-abs norm is at most 1/2
    norm = float(np.max(np.abs(np.asarray(a, dtype=float))))
    return int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the package."""

    def __init__(self):
        self.labels = [f"{m}.{f}" for m, f in TRACED] + [OP]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.ops = 0
        self.op_id = -1  # -1 outside a timed operation
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- span recording ---------------------------------------------------

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def begin_op(self) -> None:
        self.op_id = self.ops
        self.ops += 1
        self._open(len(TRACED))

    def end_op(self) -> None:
        self._close(self.stack[-1])
        self.op_id = -1

    def _wrap(self, idx: int, label: str, fn):
        after = {
            "expengine.closed_form": self._after_closed_form,
            "mat3.expm_oracle": self._after_expm_oracle,
            "structure.match_class": self._after_match_class,
        }.get(label)
        errors = {
            "expengine.closed_form": self._error_closed_form,
            "levicivita.classify_manifold": self._error_classify,
        }.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._close(sid)
                if errors is not None:
                    errors(exc)
                raise
            self._close(sid)
            if after is not None:
                after(args, out)
            return out

        return traced

    # --- counters at the layer boundaries -----------------------------------

    def _after_closed_form(self, args, res) -> None:
        self.counts[f"expengine.closed_form.branch.{getattr(res, 'branch', None)}"] += 1

    def _error_closed_form(self, exc: Exception) -> None:
        if isinstance(exc, ValueError):
            self.counts["expengine.closed_form.value_error"] += 1
        elif isinstance(exc, OverflowError):
            self.counts["expengine.closed_form.overflow_error"] += 1

    def _after_expm_oracle(self, args, out) -> None:
        self.counts["mat3.expm_oracle.squarings"] += _squarings(args[0])

    def _error_classify(self, exc: Exception) -> None:
        if type(exc).__name__ == "NotALieAlgebraError":
            self.counts["levicivita.rejected"] += 1

    def _after_match_class(self, args, report) -> None:
        verdict = list(getattr(report, "verdict", []))
        if verdict == ["F0"]:
            self.counts["structure.match_class.verdict.F0"] += 1
        if "unclassified" in verdict:
            self.counts["structure.match_class.verdict.unclassified"] += 1
        if len([v for v in verdict if v not in ("F0", "unclassified")]) > 1:
            self.counts["structure.match_class.verdict.multi"] += 1

    # --- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function that exists; note the ones that do not."""
        self.absent = []
        for idx, (mod_name, fn_name) in enumerate(TRACED):
            label = self.labels[idx]
            try:
                module = importlib.import_module(f"paralie.{mod_name}")
            except ImportError:
                self.absent.append(label)
                continue
            orig = getattr(module, fn_name, None)
            if not callable(orig):
                self.absent.append(label)
                continue
            wrapper = self._wrap(idx, label, orig)
            for mod in list(sys.modules.values()):
                mname = getattr(mod, "__name__", "")
                if mname != "paralie" and not mname.startswith("paralie."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # --- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per label: call count and total self time (duration minus the
        time covered by direct child spans; children never overlap because
        the calls are nested on one thread)."""
        s = self.arrays()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        covered = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered
        k = len(self.labels)
        return (
            np.bincount(s["name"], minlength=k),
            np.bincount(s["name"], weights=own, minlength=k),
        )

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced pass, as {name: (value, unit)}."""
        calls, own = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for idx, label in enumerate(self.labels[: len(TRACED)]):
            out[f"{label}.calls"] = (calls[idx] / passes, "count")
            out[f"{label}.self_s"] = (own[idx] / passes, "s")
        for key in COUNTERS:
            out[key] = (self.counts[key] / passes, "count")

        def ratio(num: str, den: str) -> float:
            d = out[f"{den}.calls"][0]
            return out[f"{num}.calls"][0] / d if d else 0.0

        out["structure.class_pattern.per_match"] = (
            ratio("structure.class_pattern", "structure.match_class"), "ratio")
        out["structure.check_structure.per_f_tensor"] = (
            ratio("structure.check_structure", "levicivita.f_tensor"), "ratio")
        return out

    def ops_with(self, label: str) -> int:
        """Number of timed operations that contain at least one span of label."""
        s = self.arrays()
        idx = self.labels.index(label)
        return len(np.unique(s["op"][(s["name"] == idx) & (s["op"] >= 0)]))

    def save(self, path) -> None:
        np.savez_compressed(path, labels=np.array(self.labels), **self.arrays())
