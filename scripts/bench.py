#!/usr/bin/env python3
"""Time the sweep-layer kernels and write the result as JSON.

    PYTHONPATH=src python3 scripts/bench.py --out bench.json

Times ``wavecore._forward_sweep``, ``wavecore._adjoint_sweep`` and
``wavecore._apply`` on fixed grid shapes, in this one process with
BLAS/OpenMP pinned to one thread.  Each kernel is called once untimed, then
REPEATS times under ``time.perf_counter``; the file holds the minimum
and the median of those repeats and the throughput in space-time points
per second (n_space * nt * columns / seconds).  It also records the
environment and the git revision of the checkout the ``lagfwi`` package was
imported from, so that two checkouts can be compared with the same script
by pointing ``PYTHONPATH`` at each one's ``src/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import lagfwi
from lagfwi import wavecore
from lagfwi.grids import GridSpec

# (label, ndim, nx, nz, nt, columns); columns None is an unbatched (n_space, nt) field
SHAPES = (
    ("2D 101x101x400", 2, 101, 101, 400, None),
    ("1D 61x256", 1, 61, 1, 256, None),
    ("1D 61x256 k=4", 1, 61, 1, 256, 4),
    ("1D 21x80", 1, 21, 1, 80, None),
    ("2D 7x5x9", 2, 7, 5, 9, None),
)
REPEATS = 7
KERNELS = {
    "forward_sweep": wavecore._forward_sweep,
    "adjoint_sweep": wavecore._adjoint_sweep,
    "apply": wavecore._apply,
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _revision(package_dir: str) -> dict:
    def git(*args: str) -> str:
        proc = subprocess.run(
            ["git", "-C", package_dir, *args], capture_output=True, text=True
        )
        return proc.stdout.strip() if proc.returncode == 0 else ""

    return {"commit": git("rev-parse", "HEAD") or "unknown",
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def time_kernel(kernel, spec: GridSpec, m: np.ndarray, field: np.ndarray):
    kernel(spec, m, field)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel(spec, m, field)
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    rows = []
    for label, ndim, nx, nz, nt, columns in SHAPES:
        spec = GridSpec(ndim=ndim, nx=nx, nz=nz, dx=10.0, dz=10.0, nt=nt, dt=0.002)
        m = 1.0 / (1500.0 + 900.0 * rng.random(spec.n_space)) ** 2
        shape = spec.shape if columns is None else spec.shape + (columns,)
        field = rng.standard_normal(shape)
        points = spec.n_space * nt * (columns or 1)
        for name, kernel in KERNELS.items():
            best, median = time_kernel(kernel, spec, m, field)
            rows.append({
                "kernel": name, "shape": label, "points": points,
                "repeats": REPEATS, "min_s": best, "median_s": median,
                "mpts_per_s_at_min": points / best / 1e6,
                "mpts_per_s_at_median": points / median / 1e6,
            })
            print(f"{name:14s} {label:16s} min {best * 1e3:9.3f} ms  "
                  f"median {median * 1e3:9.3f} ms  {points / best / 1e6:7.2f} Mpt/s")

    package_dir = os.path.dirname(os.path.abspath(lagfwi.__file__))
    result = {
        "layer": "wavecore sweep kernels",
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
            "cpu": _cpu_model(),
            "cpu_count": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "lagfwi": _revision(package_dir),
        "results": rows,
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
