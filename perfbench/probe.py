"""Set-up probe, run in a fresh interpreter: ``import paralie`` plus the
first call of a workload, timed from inside the process.

    python3 perfbench/probe.py <workload> <src-dir>

Prints one JSON object {"setup_s": ..., "factor": ...}.  Only the standard
library is loaded before the clock starts, so numpy's import counts as
set-up too.  After the clock stops the probe times eight units of the
calibration kernel, whose factor turns its wall time into reference seconds.
"""

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout


def first_call(workload: str, paralie) -> None:
    if workload == "verify_full":
        from paralie import cli

        with redirect_stdout(io.StringIO()):
            cli.main(["verify", "--grid", "small"])
    elif workload == "exp_scatter":
        paralie.closed_form(paralie.ClassParams("F4", 1.0), 0.5, 1.0, -2.0)
    elif workload == "classify_mix":
        import numpy as np  # already loaded by paralie

        c = np.zeros((3, 3, 3))
        c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
        c[0, 2, 1], c[2, 0, 1] = -1.0, 1.0
        c[1, 2, 0], c[2, 1, 0] = 2.0, -2.0  # F8 at alpha = 1
        paralie.classify_manifold(c)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def main() -> None:
    workload, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import paralie

    first_call(workload, paralie)
    setup_s = time.perf_counter() - t0

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench import calibration

    speed = calibration.HostSpeed()
    speed.sample(8 * calibration.UNIT_EVERY_S)
    print(json.dumps({"setup_s": setup_s, "factor": speed.factor}))


if __name__ == "__main__":
    main()
