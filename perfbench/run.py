"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {verify_full,exp_scatter,classify_mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it alternates untraced passes with passes that have every
traced function wrapped, and reports the per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Spans and a result record
are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5  # fresh processes per run; setup_s is their median


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("verify_full", "exp_scatter", "classify_mix"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
    }


def setup_probes(workload: str) -> list[dict]:
    """Set-up time and calibration factor of SETUP_PROBES fresh
    interpreters, run one after another."""
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py")), workload, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


class LatencyTable:
    """Per-operation latencies of a run's last ROWS passes, in reference
    seconds.  Its size is fixed when the run starts, so peak memory does not
    depend on how many passes fit into the run."""

    ROWS = 128

    def __init__(self, ops_per_pass: int):
        self.rows = np.empty((self.ROWS, ops_per_pass), dtype=np.float32)
        self.filled = 0

    def add(self, lat: np.ndarray, factor: float) -> None:
        self.rows[self.filled % self.ROWS] = lat * factor
        self.filled += 1

    @property
    def samples(self) -> int:
        return min(self.filled, self.ROWS) * self.rows.shape[1]

    def quantiles(self, qs) -> np.ndarray:
        """Quantiles over the operations of each one's median latency across
        the passes: the spread of cost over the inputs, without the rare
        interruptions a shared host puts into single calls."""
        per_op = np.median(self.rows[: min(self.filled, self.ROWS)], axis=0)
        return np.quantile(per_op.astype(float), qs)


def measure(wl, seconds: float) -> tuple[list, list, LatencyTable]:
    """Timed passes until their summed time reaches seconds (at least one),
    each followed by calibration samples in proportion to its length.
    Returns the passes, each pass's host factor, taken from the samples on
    both sides of it so a drift in speed between passes is followed, and
    the latencies in reference seconds."""
    from perfbench.calibration import UNIT_EVERY_S, HostSpeed, bracket_factor

    host = HostSpeed()
    table = LatencyTable(wl.ops_per_pass)
    before = host.sample(8 * UNIT_EVERY_S)  # also warms the kernel up
    passes, factors, spent = [], [], 0.0
    while not passes or spent < seconds:
        p = wl.run_pass()
        spent += p.seconds
        after = host.sample(p.seconds)
        factors.append(bracket_factor(before, after))
        before = after
        table.add(p.lat, factors[-1])
        p.lat = None
        passes.append(p)
    return passes, factors, table


def measure_alternating(wl, seconds: float, tracer) -> tuple[list, list]:
    """Untraced and traced passes in turn until their summed time reaches
    seconds, so a drift in machine speed reaches both sides alike and the
    difference of their means is the tracing overhead."""
    plain, traced, spent = [], [], 0.0
    while not traced or spent < seconds:
        plain.append(wl.run_pass())
        tracer.install()
        try:
            traced.append(wl.run_pass(tracer))
        finally:
            tracer.uninstall()
        plain[-1].lat = traced[-1].lat = None
        spent += plain[-1].seconds + traced[-1].seconds
    return plain, traced


def err_digits(max_err: float) -> float:
    """Decimal digits of agreement with the reference, at most float64's."""
    return -math.log10(max(max_err, 2.0 ** -53))


def end_to_end(wl, passes, factors: list[float], table: LatencyTable, probes: list[dict]) -> dict:
    """Timings are means over the run's passes of each pass's own figure
    times its own host factor, in reference seconds (see calibration.py);
    the raw wall figures follow.

    CPU speed on a shared host drifts in phases of seconds; a mean over the
    run averages the phases, where a median jumps between them."""
    wall_s = statistics.fmean(p.seconds for p in passes)
    run_s = statistics.fmean(p.seconds * f for p, f in zip(passes, factors))
    attempted = wl.ops_per_pass * len(passes)
    failed = sum(p.failed for p in passes)
    max_err = max(p.max_err for p in passes)
    p50, p99 = table.quantiles((0.5, 0.99))
    return {
        "setup_s": (statistics.median(p["setup_s"] * p["factor"] for p in probes), "s"),
        "run_s": (run_s, "s"),
        "ops_per_s": (wl.ops_per_pass / run_s, "1/s"),
        "op_p50_us": (p50 * 1e6, "us"),
        "op_p99_us": (p99 * 1e6, "us"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
        "err_digits": (err_digits(max_err), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # printed for reading, not in the JSON metrics (see README)
        "fail_share": (failed / attempted, "ratio"),
        "max_err": (max_err, "ratio"),
        "op_samples": (table.samples, "count"),
        "setup_wall_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "run_wall_s": (wall_s, "s"),
        "op_p50_wall_us": (statistics.fmean(p.p50 for p in passes) * 1e6, "us"),
        "host_factor": (statistics.fmean(factors), "ratio"),
    }


JSON_E2E = ("setup_s", "run_s", "ops_per_s", "op_p50_us", "op_p99_us", "ok_share", "err_digits", "peak_rss_mb")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "paralie" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'paralie'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    facts = machine_facts()
    if facts["longdouble_eps"] > 1e-18:
        print("perfbench: the reference exponential needs an 80-bit long double", file=sys.stderr)
        return 3

    wl = WORKLOADS[args.workload](args.seed)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
             "machine " + json.dumps(facts)]
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer = Tracer()
        passes, traced = measure_alternating(wl, args.seconds, tracer)
        shown = tracer.layer_metrics(len(traced))
        overhead = statistics.fmean(p.seconds for p in traced) - statistics.fmean(p.seconds for p in passes)
        shown["trace.overhead_s"] = (overhead, "s")
        tracer.save(OUT / f"spans_{args.workload}.npz")
        lines += [f"traced passes {len(traced)}, untraced passes {len(passes)}, spans {len(tracer.start)}",
                  "absent (reported as 0): " + (", ".join(tracer.absent) or "none"),
                  f"timed ops containing a mat3.expm_oracle span: {tracer.ops_with('mat3.expm_oracle')}",
                  "mat3.expm_oracle.squarings is computed from each input's norm, not read from the package"]
        passes = passes + traced
        metrics = shown
    else:
        passes, factors, table = measure(wl, args.seconds)
        shown = end_to_end(wl, passes, factors, table, setup_probes(args.workload))
        lines.append(f"passes {len(passes)}, {wl.ops_per_pass} operations per pass; "
                     f"op_p50_us/op_p99_us: quantiles over the {wl.ops_per_pass} operations of each "
                     f"one's median over the last {min(len(passes), table.ROWS)} passes, "
                     f"{shown['op_samples'][0]:.0f} samples")
        metrics = {k: shown[k] for k in JSON_E2E}

    by_cat = Counter()
    for p in passes:
        by_cat.update(p.failed_by_category)
    # "failed" counts regressions: wrong outcomes outside the known-defect
    # categories.  The known defects are measured, not failed: they lower
    # ok_share and are listed by category on the line below.
    regressions = sum(p.core_failed for p in passes)
    result = {
        "correct": regressions == 0,
        "attempted": wl.ops_per_pass * len(passes),
        "failed": regressions,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    lines.append(f"wrong outcomes {sum(p.failed for p in passes)} of {result['attempted']}, "
                 f"{regressions} of them regressions; by category: "
                 + json.dumps(dict(sorted(by_cat.items()))))
    lines += [f"  {name:<48} {value:>16.6g} {unit}" for name, (value, unit) in shown.items()]
    record = dict(result, machine=facts, seed=args.seed, seconds=args.seconds, failed_by_category=by_cat)
    (OUT / f"result_{args.workload}_trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
