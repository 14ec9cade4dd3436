#!/usr/bin/env python3
"""Time the sweep kernels and the wavefield CG, and write the result as JSON.

    PYTHONPATH=src python3 scripts/bench.py --out bench.json

Times ``wavecore._forward_sweep``, ``wavecore._adjoint_sweep`` and
``wavecore._apply`` on fixed grid shapes, the sweeps also on a sequence of
three fields swept as one batch; the two streamed passes of a 2D step at
``fwi-2d``'s field size (101 x 101 x 400): ``wavecore.correlation_terms`` and
the diagnostics' constraint norm ||A(m) u - b||^2; and the wavefield CG
layer of the two-scatterer benchmark's first penalty-wavefield step (its
three sources at the initial model): ``saddle.solve_augmented_wavefields``
called once per source with a one-source batch (serial) against one call
with all three sources (lock step), and on a checkout that has it, the
Nystrom sketch ``saddle.nystrom_sketch`` of that step alone (its rank and
time).  The same rows are taken for the first solve of the one-source
al-wavefield runs on the scheme tests' ``born_config`` experiment (a
weak single scatterer, 21 x 80 grid, 19 receivers; built here, so the
bench does not import the tests) at mu = 1e3 and 1e4, the small-mu cases
where the unpreconditioned CG needs hundreds of iterations, and for one
2D penalty-wavefield step (``fwi-2d``'s layout on a 51 x 51 x 200 grid,
one shot), where a batched sweep of k columns costs about k sweeps and
not about one as on the 1D grids.  On a checkout whose sweeps step column
groups and copy node tiles, the 2D three-field sequence sweeps are also
timed with other values of the group budget ``wavecore._GROUP_BYTES`` and
the copy tile width ``wavecore._TILE`` (the "variants" rows), which is what
their values rest on.  Everything runs in this one process with BLAS/OpenMP
pinned to one thread.  Each case is run once untimed, then REPEATS times
under ``time.perf_counter``; the file holds the minimum and the median of
those repeats, the throughput of the kernels in space-time points per
second (n_space * nt * columns / seconds) and the CG iterations.  It also
records the environment and the git revision of the checkout the ``lagfwi``
package was imported from, so that two checkouts can be compared with the
same script by pointing ``PYTHONPATH`` at each one's ``src/``.
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
from lagfwi import saddle, wavecore
from lagfwi.config import (
    ExperimentConfig, ModelDescriptor, StopRules,
    build_model_values, build_sources, make_observed_data, two_scatterer_benchmark,
)
from lagfwi.grids import GridSpec, ModelGrid, SourceField, Wavefield
from lagfwi.saddle import PenaltyConfig, solve_augmented_wavefields

# (label, ndim, nx, nz, nt, columns, sequence); columns None is an unbatched
# (n_space, nt) field, and sequence marks a list of `columns` separate fields
# in place of one array with a trailing batch axis
SHAPES = (
    ("2D 101x101x400", 2, 101, 101, 400, None, False),
    ("2D 101x101x400 sequence k=3", 2, 101, 101, 400, 3, True),
    ("1D 61x256", 1, 61, 1, 256, None, False),
    ("1D 61x256 k=4", 1, 61, 1, 256, 4, False),
    ("1D 61x256 sequence k=3", 1, 61, 1, 256, 3, True),
    ("1D 21x80", 1, 21, 1, 80, None, False),
    ("2D 7x5x9", 2, 7, 5, 9, None, False),
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


def time_call(call):
    call()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times)


def kernel_rows(rng) -> list[dict]:
    rows = []
    for label, ndim, nx, nz, nt, columns, sequence in SHAPES:
        spec = GridSpec(ndim=ndim, nx=nx, nz=nz, dx=10.0, dz=10.0, nt=nt, dt=0.002)
        m = 1.0 / (1500.0 + 900.0 * rng.random(spec.n_space)) ** 2
        if sequence:
            field = [rng.standard_normal(spec.shape) for _ in range(columns)]
        else:
            field = rng.standard_normal(spec.shape if columns is None else spec.shape + (columns,))
        points = spec.n_space * nt * (columns or 1)
        for name, kernel in KERNELS.items():
            if sequence and kernel is wavecore._apply:
                continue
            best, median = time_call(lambda: kernel(spec, m, field))
            rows.append({
                "kernel": name, "shape": label, "points": points,
                "repeats": REPEATS, "min_s": best, "median_s": median,
                "mpts_per_s_at_min": points / best / 1e6,
                "mpts_per_s_at_median": points / median / 1e6,
            })
            print(f"{name:14s} {label:24s} min {best * 1e3:9.3f} ms  "
                  f"median {median * 1e3:9.3f} ms  {points / best / 1e6:7.2f} Mpt/s")
    return rows


def _fwi_2d_fields(rng, count):
    spec = GridSpec(ndim=2, nx=101, nz=101, dx=10.0, dz=10.0, nt=400, dt=0.0028)
    m = ModelGrid(spec, 1.0 / (1800.0 + 400.0 * rng.random(spec.n_space)) ** 2)
    return spec, m, [rng.standard_normal(spec.shape) for _ in range(count)]


def _constraint_sq(m, u, b) -> float:
    """||A(m) u - b||^2 as the diagnostics compute it: streamed where the
    checkout has the streamed reduction, else through the full A(m) u."""
    streamed = getattr(wavecore, "residual_sum_of_squares", None)
    if streamed is not None:
        return streamed(m, u, b)
    return float(np.sum((wavecore.apply_wave_operator(m, u).values - b.values) ** 2))


def pass_rows(rng) -> list[dict]:
    """The streamed full-field passes of a 2D step, at fwi-2d's field size."""
    spec, m, (u, v, b) = _fwi_2d_fields(rng, 3)
    u, v, b = Wavefield(spec, u), Wavefield(spec, v), SourceField(spec, b)
    cases = {
        "correlation_terms": lambda: wavecore.correlation_terms(v, u),
        "constraint_norm": lambda: _constraint_sq(m, u, b),
    }
    rows = []
    for name, call in cases.items():
        best, median = time_call(call)
        rows.append({"layer": name, "shape": "2D 101x101x400", "repeats": REPEATS,
                     "min_s": best, "median_s": median})
        print(f"{name:18s} 2D 101x101x400          min {best * 1e3:9.3f} ms  "
              f"median {median * 1e3:9.3f} ms")
    return rows


def variant_rows(rng) -> list[dict]:
    """The 2D three-field sequence sweeps under other group budgets and copy
    tile widths; empty on a checkout without them."""
    if not hasattr(wavecore, "_GROUP_BYTES"):
        return []
    spec, m, fields = _fwi_2d_fields(rng, 3)
    slab = 8 * spec.n_space  # bytes of one column's time level
    chosen = (wavecore._GROUP_BYTES, wavecore._TILE)
    variants = [(group, tile) for group in (slab, 3 * slab)
                for tile in (128, 256, 512, spec.n_space)]
    rows = []
    try:
        for group, tile in variants:
            wavecore._GROUP_BYTES, wavecore._TILE = group, tile
            for name in ("forward_sweep", "adjoint_sweep"):
                best, median = time_call(lambda: KERNELS[name](spec, m.values, fields))
                rows.append({"variant": {"columns_per_group": group // slab, "tile": tile},
                             "kernel": name, "shape": "2D 101x101x400 sequence k=3",
                             "repeats": REPEATS, "min_s": best, "median_s": median})
                print(f"{name:14s} group {group // slab} tile {tile:5d}         "
                      f"min {best * 1e3:9.3f} ms  median {median * 1e3:9.3f} ms")
    finally:
        wavecore._GROUP_BYTES, wavecore._TILE = chosen
    return rows


def _born_config(mu: float) -> ExperimentConfig:
    """The scheme tests' born_config experiment: one shot at node 3 of a
    21-node line, every interior node a receiver, a one-node scatterer 0.5%
    fast in a 2 km/s background, here under al-wavefield."""
    return ExperimentConfig(
        grid=GridSpec(ndim=1, nx=21, nz=1, dx=10.0, dz=10.0, nt=80, dt=0.0028),
        true_model=ModelDescriptor(kind="box-anomaly", velocity=2000.0,
                                   boxes=((10, 11, 0, 1, 2010.0),)),
        initial_model=ModelDescriptor(kind="uniform", velocity=2000.0),
        source_nodes=(3,),
        receiver_nodes=tuple(range(1, 20)),
        wavelet_frequency=10.0,
        scheme="al-wavefield",
        penalty=PenaltyConfig(mu=mu),
        stop=StopRules(max_iter=1, misfit_tol=1e-12),
    )


def _two_d_config() -> ExperimentConfig:
    """fwi-2d's two boxes and receiver row scaled to a 51 x 51 x 200 grid,
    its middle shot alone, under penalty-wavefield at mu = 3150, about
    lambda_max(H) / 175 as in the two-scatterer benchmark."""
    return ExperimentConfig(
        grid=GridSpec(ndim=2, nx=51, nz=51, dx=10.0, dz=10.0, nt=200, dt=0.0028),
        true_model=ModelDescriptor(kind="box-anomaly", velocity=2000.0,
                                   boxes=((19, 25, 19, 31, 2200.0), (25, 31, 19, 31, 1800.0))),
        initial_model=ModelDescriptor(kind="uniform", velocity=2000.0),
        source_nodes=(127,),                      # row 2
        receiver_nodes=tuple(range(53, 100, 8)),  # row 1, every 8th node
        scheme="penalty-wavefield",
        penalty=PenaltyConfig(mu=3150.0),
        stop=StopRules(max_iter=1),
    )


def _cg_cases():
    """(label, model, sources, data, cfg, ws) of the timed wavefield solves:
    the pw-1d step, the first al-wavefield step of born_config at mu = 1e3
    and 1e4 (w = 0, as the initial state holds it) and a 2D step."""
    config = two_scatterer_benchmark()
    m = ModelGrid(config.grid, build_model_values(config.grid, config.initial_model))
    yield "pw-1d", m, build_sources(config), make_observed_data(config), config.penalty, None
    for mu in (1e3, 1e4):
        config = _born_config(mu)
        m = ModelGrid(config.grid, build_model_values(config.grid, config.initial_model))
        sources = build_sources(config)
        ws = [SourceField(config.grid, np.zeros(config.grid.shape)) for _ in sources]
        yield (f"born_config al-wavefield mu={mu:g}", m, sources, make_observed_data(config),
               PenaltyConfig(mu=mu), ws)
    config = _two_d_config()
    m = ModelGrid(config.grid, build_model_values(config.grid, config.initial_model))
    yield ("2D 51x51x200 penalty-wavefield", m, build_sources(config), make_observed_data(config),
           config.penalty, None)


def cg_rows() -> list[dict]:
    """The wavefield CG layer: for pw-1d each source's solve in turn, then
    all in lock step; for the one-source born_config steps the solve; and
    the Nystrom sketch of each, where the checkout has one."""
    rows = []
    for label, m, sources, data, cfg, ws in _cg_cases():
        ws = ws or [None] * len(sources)
        modes = {"lock-step": lambda: solve_augmented_wavefields(m, sources, data, cfg, ws)}
        if len(sources) > 1:
            modes = {"serial": lambda: [solve_augmented_wavefields(m, [b], [d], cfg, [w])[0]
                                        for b, d, w in zip(sources, data, ws)], **modes}
        for mode, solve in modes.items():
            infos = [info for _, info in solve()]
            best, median = time_call(solve)
            rows.append({
                "layer": "wavefield CG", "case": label, "mode": mode, "sources": len(sources),
                "iterations": [info.iterations for info in infos],
                "converged": all(info.converged for info in infos),
                "repeats": REPEATS, "min_s": best, "median_s": median,
            })
            print(f"wavefield CG   {label:36s} {mode:9s} min {best * 1e3:9.3f} ms  "
                  f"median {median * 1e3:9.3f} ms  iterations {rows[-1]['iterations']}")
        sketch = getattr(saddle, "nystrom_sketch", None)
        if sketch is not None:
            geometry = data[0].geometry
            rank = sketch(m, geometry, cfg).rank
            best, median = time_call(lambda: sketch(m, geometry, cfg))
            rows.append({"layer": "nystrom sketch", "case": label, "rank": rank,
                         "repeats": REPEATS, "min_s": best, "median_s": median})
            print(f"nystrom sketch {label:36s} rank {rank:4d} min {best * 1e3:9.3f} ms  "
                  f"median {median * 1e3:9.3f} ms")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    rows = (kernel_rows(np.random.default_rng(0)) + pass_rows(np.random.default_rng(1))
            + variant_rows(np.random.default_rng(2)) + cg_rows())

    package_dir = os.path.dirname(os.path.abspath(lagfwi.__file__))
    result = {
        "layer": ("wavecore sweep kernels, the streamed 2D passes, the wavefield CG and its "
                  "Nystrom sketch"),
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
