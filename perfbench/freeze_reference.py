#!/usr/bin/env python3
"""Write reference/fwi-2d.csv, the history the fwi-2d workload is checked against.

    python3 perfbench/freeze_reference.py

Runs `lagfwi forward` and `lagfwi invert` on the fwi-2d config in a scratch
directory under .bench_work/ and keeps the convergence log.  The reference
pins the program's iterates: a change that moves them beyond 1e-8 is a
finding to report, not a reason to run this again.
"""

import os
import shutil
import sys

import run

run._load_workloads()
from workloads import FWI_2D_REFERENCE, LOG_FILE, OUT_DIR, WORKLOADS  # noqa: E402


def main() -> int:
    workload = WORKLOADS["fwi-2d"]
    run_dir = os.path.join(run.WORK, f"freeze-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        workload.write_configs(run_dir)
        runner = run.Runner(run_dir)
        result, _, failure = runner.child(
            workload.setup_commands(run_dir) + workload.timed_commands(run_dir))
        if result is None or any(r["exit"] != 0 for r in result["commands"]):
            print(f"fwi-2d run failed: {failure or result}", file=sys.stderr)
            return 1
        os.makedirs(os.path.dirname(FWI_2D_REFERENCE), exist_ok=True)
        shutil.copyfile(os.path.join(run_dir, OUT_DIR, LOG_FILE), FWI_2D_REFERENCE)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"wrote {FWI_2D_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
