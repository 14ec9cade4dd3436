#!/usr/bin/env python3
"""Time the sweep kernels and the wavefield CG, and write the result as JSON.

    PYTHONPATH=src python3 scripts/bench.py --out bench.json

Times ``wavecore._forward_sweep`` and ``wavecore._adjoint_sweep`` on fixed
grid shapes, each sweeping a sequence of one field or of three fields as
one batch, and ``wavecore._apply`` on one field; the two streamed passes of a 2D step at
``fwi-2d``'s field size (101 x 101 x 400): ``wavecore.correlation_terms`` and
the diagnostics' constraint norm ||A(m) u - b||^2; and the wavefield CG
layer of the two-scatterer benchmark's first penalty-wavefield step (its
three sources at the initial model): the matrix-free
``saddle.solve_saddle`` called once per source with a one-source batch
(serial) against one call with all three sources (lock step), each source's
CG iterations from ``saddle._cg`` on the same preconditioned data-space
system, and the Nystrom sketch ``saddle.nystrom_sketch`` of that step alone
(its rank and time).  The "H product" rows time one call of the H products
that CG and sketch are made of, ``saddle._hessian_products`` on k random
trace vectors at the initial model: on the two-scatterer grid at k = 3 (a
step's sources) and at the width of a sketch batch on that grid
(``saddle._sketch_width``), and on the 51 x 51 x 200 grid
below at k = 1 and k = 3.  The "sweep level" rows give the cost of one time
level of a forward sweep on the two-scatterer grid (1D 61 x 256) at k = 1,
3 and 16, a ``wavecore._DenseStack`` swept into another as the H products
sweep, in microseconds per level (the sweep's time over its nt - 2 levels).
The same rows are taken for the first solve of the one-source
al-wavefield runs on the scheme tests' ``born_config`` experiment (a
weak single scatterer, 21 x 80 grid, 19 receivers; built here, so the
bench does not import the tests) at mu = 1e3 and 1e4, the small-mu cases
where the unpreconditioned CG needs hundreds of iterations, and for one
2D penalty-wavefield step (``fwi-2d``'s layout on a 51 x 51 x 200 grid,
one shot), where a batched sweep of k columns costs about k sweeps and
not about one as on the 1D grids.  The 2D three-field sequence sweeps are
also timed with other values of the group budget ``wavecore._GROUP_BYTES`` and
the copy tile width ``wavecore._TILE`` (the "variants" rows), which is what
their values rest on.  The dense multiplier path is timed in its two layers,
``saddle.assemble_data_space_hessian`` and the Cholesky factorization of
H + mu I by ``scipy.linalg.cho_factor`` (with H already held; each call
shifts a fresh copy of H and factors it in place), on the two-scatterer
benchmark's initial model (61 x 256, 4 receivers, its mu = 3e6) and on
``born_config``'s (21 x 80, 19 receivers, mu = 1e3); those rows also give
each layer's tracemalloc peak, from one separate call, which counts what
the layer allocates and not H held before it.  The "peak RSS" rows run two
steps of ``iterations.run_inversion`` in a fresh process each (this script
again, with ``--rss-child``), observed data included, and read that
process's ``ru_maxrss``: ``fwi`` on ``fwi-2d``'s experiment and
``al-multiplier`` on the 51 x 51 x 200 2D experiment below; the median of
RSS_REPEATS processes is kept.  On Linux a child's ``ru_maxrss`` starts
at this process's resident size when it is started, so those rows run
first, before the other rows grow it, and record this process's own peak
then as the floor no reading can fall below.  The receiver traces are
timed in two rows: "forward modelling", ``config.make_observed_data`` on
``fwi-2d``'s experiment (built here: three point sources on 101 x 101 x 400,
13 receivers), and "sampled vs full forward sweep", one dense field on that
grid swept whole and then sampled at those receivers, against the trace-out
sweep ``wavecore._sampled_sweep`` that writes only the receiver rows; both
rows give their tracemalloc peak too.  The
wavefield CG rows call ``saddle.solve_saddle`` in its extended-source form:
the plain forward residuals d - P A^-1 b come from the trace-out solve
``wavecore.forward_traces`` outside the timed call, as a step holds them in
its forward fields, and the AL rows pass the shift s = -w/mu, so a timed
solve sweeps P A^-1 s, runs the CG and sweeps u = A^-1 ((b + lam) + s).
Everything else runs in this one process; every process has BLAS/OpenMP
pinned to one thread.  Each timed case is run once untimed, then REPEATS
times under ``time.perf_counter``; the file holds the minimum and the
median of those repeats, the throughput of the kernels in space-time
points per second (n_space * nt * columns / seconds), the CG iterations,
the traced peaks and the peak RSS.  It also
records the environment and the git revision of the checkout the
``lagfwi`` package was imported from, so that two checkouts can be
compared with the same script by pointing ``PYTHONPATH`` at each one's
``src/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import scipy.linalg

import lagfwi
from lagfwi import saddle, wavecore
from lagfwi.config import (
    ExperimentConfig, ModelDescriptor, StopRules, build_acquisition,
    build_model_values, build_sources, make_observed_data, two_scatterer_benchmark,
)
from lagfwi.grids import GridSpec, ModelGrid, SourceField, TraceData, Wavefield
from lagfwi.iterations import run_inversion
from lagfwi.saddle import PenaltyConfig, solve_saddle

# (label, ndim, nx, nz, nt, columns): the sweeps take a sequence of
# `columns` separate (n_space, nt) fields, and _apply the one field of a
# single-column shape
SHAPES = (
    ("2D 101x101x400", 2, 101, 101, 400, 1),
    ("2D 101x101x400 sequence k=3", 2, 101, 101, 400, 3),
    ("1D 61x256", 1, 61, 1, 256, 1),
    ("1D 61x256 sequence k=3", 1, 61, 1, 256, 3),
    ("1D 21x80", 1, 21, 1, 80, 1),
    ("2D 7x5x9", 2, 7, 5, 9, 1),
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
    for label, ndim, nx, nz, nt, columns in SHAPES:
        spec = GridSpec(ndim=ndim, nx=nx, nz=nz, dx=10.0, dz=10.0, nt=nt, dt=0.002)
        m = 1.0 / (1500.0 + 900.0 * rng.random(spec.n_space)) ** 2
        fields = [rng.standard_normal(spec.shape) for _ in range(columns)]
        points = spec.n_space * nt * columns
        for name, kernel in KERNELS.items():
            if kernel is wavecore._apply:
                if columns > 1:
                    continue
                best, median = time_call(lambda: kernel(spec, m, fields[0]))
            else:
                best, median = time_call(lambda: kernel(spec, m, fields))
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


def pass_rows(rng) -> list[dict]:
    """The streamed full-field passes of a 2D step, at fwi-2d's field size."""
    spec, m, (u, v, b) = _fwi_2d_fields(rng, 3)
    u, v, b = Wavefield(spec, u), Wavefield(spec, v), SourceField(spec, b)
    cases = {
        "correlation_terms": lambda: wavecore.correlation_terms(v, u),
        "constraint_norm": lambda: wavecore.residual_sum_of_squares(m, u, b),
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
    tile widths."""
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


def _saddle_inputs(m, sources, data, cfg, ws):
    """(residuals, shifts) of the saddle solve: delta_d = d - P A^-1 b from
    the trace-out solve, and s = -w/mu (None without w)."""
    geometry = data[0].geometry
    residuals = [TraceData(d.spec, geometry, d.values - traces.values)
                 for d, traces in zip(data, wavecore.forward_traces(m, sources, geometry))]
    shifts = None if ws is None else [SourceField(w.spec, (-1.0 / cfg.mu) * w.values)
                                      for w in ws]
    return residuals, shifts


def _cg_infos(m, residuals, shifts, cfg) -> list:
    """Each source's SolveInfo from ``saddle._cg`` on the system the
    matrix-free saddle solve runs: (H + mu I) y = delta_d - P A^-1 s,
    preconditioned by the step's Nystrom sketch."""
    spec, geometry = m.spec, residuals[0].geometry
    rec = list(geometry.receiver_nodes)
    rhs = [r.values.ravel() for r in residuals]
    if shifts is not None:
        rhs = [r - traces.values.ravel()
               for r, traces in zip(rhs, wavecore.forward_traces(m, shifts, geometry))]
    apply_h = saddle._hessian_products(spec, m.values, rec)
    precondition = saddle.nystrom_sketch(m, geometry, cfg).preconditioner(cfg.mu)
    results = saddle._cg(lambda ys: [hy + cfg.mu * y for hy, y in zip(apply_h(ys), ys)],
                         rhs, cfg.cg_tol, cfg.cg_maxiter, precondition)
    return [info for _, info in results]


def cg_rows() -> list[dict]:
    """The wavefield CG layer: for pw-1d each source's solve in turn, then
    all in lock step; for the one-source born_config steps the solve; and
    the Nystrom sketch of each."""
    rows = []
    for label, m, sources, data, cfg, ws in _cg_cases():
        residuals, shifts = _saddle_inputs(m, sources, data, cfg, ws)
        infos = _cg_infos(m, residuals, shifts, cfg)
        modes = {"lock-step": lambda: solve_saddle(m, sources, residuals, cfg, shifts,
                                                   matrix_free=True)}
        if len(sources) > 1:
            modes = {"serial": lambda: [
                solve_saddle(m, [sources[j]], [residuals[j]], cfg,
                             None if shifts is None else [shifts[j]], matrix_free=True)
                for j in range(len(sources))], **modes}
        for mode, solve in modes.items():
            best, median = time_call(solve)
            rows.append({
                "layer": "wavefield CG", "case": label, "mode": mode, "sources": len(sources),
                "iterations": [info.iterations for info in infos],
                "converged": all(info.converged for info in infos),
                "repeats": REPEATS, "min_s": best, "median_s": median,
            })
            print(f"wavefield CG   {label:36s} {mode:9s} min {best * 1e3:9.3f} ms  "
                  f"median {median * 1e3:9.3f} ms  iterations {rows[-1]['iterations']}")
        geometry = data[0].geometry
        rank = saddle.nystrom_sketch(m, geometry, cfg).rank
        best, median = time_call(lambda: saddle.nystrom_sketch(m, geometry, cfg))
        rows.append({"layer": "nystrom sketch", "case": label, "rank": rank,
                     "repeats": REPEATS, "min_s": best, "median_s": median})
        print(f"nystrom sketch {label:36s} rank {rank:4d} min {best * 1e3:9.3f} ms  "
              f"median {median * 1e3:9.3f} ms")
    return rows


def hproduct_rows(rng) -> list[dict]:
    """One call of the H products on k random trace vectors, per case."""
    bench = two_scatterer_benchmark()
    sketch_k = saddle._sketch_width(bench.grid)
    rows = []
    for config, ks in ((bench, (3, sketch_k)), (_two_d_config(), (1, 3))):
        spec = config.grid
        m = ModelGrid(spec, build_model_values(spec, config.initial_model))
        rec = list(config.receiver_nodes)
        apply_h = saddle._hessian_products(spec, m.values, rec)
        n = len(rec) * spec.nt
        label = f"{spec.ndim}D {spec.nx}x{spec.nz}x{spec.nt}"
        for k in ks:
            ys = rng.standard_normal((k, n))
            best, median = time_call(lambda: apply_h(ys))
            rows.append({"layer": "H product", "case": label, "k": k, "n": n,
                         "repeats": REPEATS, "min_s": best, "median_s": median})
            print(f"H product      {label:20s} k {k}  min {best * 1e3:9.3f} ms  "
                  f"median {median * 1e3:9.3f} ms")
    return rows


def level_rows(rng) -> list[dict]:
    """Microseconds per time level of a forward sweep of k dense columns on
    the two-scatterer grid at its initial model, stack to stack."""
    config = two_scatterer_benchmark()
    spec = config.grid
    m = build_model_values(spec, config.initial_model)
    rows = []
    for k in (1, 3, 16):
        rhs = wavecore._DenseStack(rng.standard_normal((k, spec.nt, spec.n_space)))
        out = wavecore._DenseStack(np.empty_like(rhs.values))
        best, median = time_call(lambda: wavecore._forward_sweep(spec, m, rhs, out))
        levels = spec.nt - 2
        rows.append({"layer": "sweep level", "case": "1D 61x256", "k": k, "levels": levels,
                     "repeats": REPEATS, "min_s": best, "median_s": median,
                     "us_per_level_at_min": best / levels * 1e6,
                     "us_per_level_at_median": median / levels * 1e6})
        print(f"sweep level    1D 61x256            k {k:2d} min {best / levels * 1e6:7.2f} us  "
              f"median {median / levels * 1e6:7.2f} us per level")
    return rows


def _fwi_2d_config() -> ExperimentConfig:
    """fwi-2d's experiment: two boxes in a 101 x 101 x 400 grid, three shots
    in row 2 recorded by 13 receivers in row 1."""
    return ExperimentConfig(
        grid=GridSpec(ndim=2, nx=101, nz=101, dx=10.0, dz=10.0, nt=400, dt=0.0028),
        true_model=ModelDescriptor(kind="box-anomaly", velocity=2000.0,
                                   boxes=((38, 50, 38, 62, 2200.0), (50, 62, 38, 62, 1800.0))),
        initial_model=ModelDescriptor(kind="uniform", velocity=2000.0),
        source_nodes=(218, 252, 286),
        receiver_nodes=tuple(range(103, 200, 8)),
        scheme="fwi",
        penalty=PenaltyConfig(mu=100.0, alpha=1e-6),
        stop=StopRules(max_iter=2),
    )


def sampling_rows(rng) -> list[dict]:
    """The receiver traces of fwi-2d: its forward modelling, and one dense
    field's sweep sampled after a full sweep or by the trace-out sweep."""
    config = _fwi_2d_config()
    rec = list(config.receiver_nodes)
    spec, m, (field,) = _fwi_2d_fields(rng, 1)
    cases = [("forward modelling", "fwi-2d make_observed_data",
              lambda: make_observed_data(config)),
             ("sampled vs full forward sweep", "full sweep, sampled",
              lambda: wavecore._forward_sweep(spec, m.values, [field])[0][rec]),
             ("sampled vs full forward sweep", "trace-out sweep",
              lambda: wavecore._sampled_sweep(spec, m.values, [field], rec))]
    rows = []
    for layer, case, call in cases:
        best, median = time_call(call)
        peak = traced_peak(call)
        rows.append({"layer": layer, "case": case, "shape": "2D 101x101x400",
                     "receivers": len(rec), "repeats": REPEATS, "min_s": best,
                     "median_s": median, "traced_peak_bytes": peak})
        print(f"{layer:30s} {case:26s} min {best * 1e3:9.3f} ms  "
              f"median {median * 1e3:9.3f} ms  peak {peak / 2**20:7.2f} MiB")
    return rows


def traced_peak(call) -> int:
    """Bytes at the tracemalloc peak of one call, counting only what it
    allocates."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def hessian_rows() -> list[dict]:
    """The dense multiplier path's two layers: the assembly of H and the
    Cholesky factorization of H + mu I, each timed and traced on its own."""
    rows = []
    for label, config in (("benchmark", two_scatterer_benchmark()),
                          ("born_config", _born_config(1e3))):
        m = ModelGrid(config.grid, build_model_values(config.grid, config.initial_model))
        geometry = build_acquisition(config)
        mu = config.penalty.mu
        h = saddle.assemble_data_space_hessian(m, geometry).matrix
        n = len(h)

        def factor():
            # a fresh shifted copy per call, factored in place
            shifted = h.copy()
            shifted.flat[:: n + 1] += mu
            scipy.linalg.cho_factor(shifted.T, overwrite_a=True)

        cases = {
            "hessian assembly": lambda: saddle.assemble_data_space_hessian(m, geometry),
            "cholesky factorization": factor,
        }
        for layer, call in cases.items():
            best, median = time_call(call)
            peak = traced_peak(call)
            rows.append({"layer": layer, "case": label, "n": n, "mu": mu, "repeats": REPEATS,
                         "min_s": best, "median_s": median, "traced_peak_bytes": peak,
                         "traced_peak_per_n2_doubles": peak / (8 * n * n)})
            print(f"{layer:22s} {label:12s} n {n:5d} min {best * 1e3:9.3f} ms  "
                  f"median {median * 1e3:9.3f} ms  peak {peak / 2**20:7.2f} MiB")
    return rows


# label -> config of the peak-RSS rows, each run for two steps
RSS_CASES = {
    "fwi fwi-2d": _fwi_2d_config,
    "al-multiplier 2D 51x51x200": lambda: replace(_two_d_config(), scheme="al-multiplier",
                                                  stop=StopRules(max_iter=2)),
}
RSS_REPEATS = 3


def rss_child(label: str) -> None:
    """Run one RSS case in this process and print its status, history
    length and ru_maxrss as JSON."""
    config = RSS_CASES[label]()
    result = run_inversion(config, make_observed_data(config))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"status": result.status, "rows": len(result.history),
                      "peak_rss_mb": usage.ru_maxrss / 1024.0}))


def rss_rows() -> list[dict]:
    """Peak RSS of two steps of each RSS case, each in fresh processes."""
    floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = []
    for label in RSS_CASES:
        runs = []
        for _ in range(RSS_REPEATS):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--rss-child", label],
                                  capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        peaks = [run["peak_rss_mb"] for run in runs]
        rows.append({"layer": "peak RSS", "case": label, "steps": 2,
                     "status": runs[0]["status"], "repeats": RSS_REPEATS, "floor_rss_mb": floor,
                     "peak_rss_mb": peaks, "median_peak_rss_mb": statistics.median(peaks)})
        print(f"peak RSS       {label:28s} median {statistics.median(peaks):8.1f} MB  "
              f"({', '.join(f'{p:.1f}' for p in peaks)})")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    role = parser.add_mutually_exclusive_group(required=True)
    role.add_argument("--out", help="JSON file to write")
    role.add_argument("--rss-child", choices=RSS_CASES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rss_child:
        rss_child(args.rss_child)
        return 0

    rows = (rss_rows() + kernel_rows(np.random.default_rng(0)) + pass_rows(np.random.default_rng(1))
            + variant_rows(np.random.default_rng(2)) + hproduct_rows(np.random.default_rng(4))
            + level_rows(np.random.default_rng(5))
            + cg_rows() + hessian_rows() + sampling_rows(np.random.default_rng(3)))

    package_dir = os.path.dirname(os.path.abspath(lagfwi.__file__))
    result = {
        "layer": ("wavecore sweep kernels, the streamed 2D passes, the H products, the "
                  "cost of a 1D sweep level, the "
                  "wavefield CG and its Nystrom sketch, the dense Hessian assembly and its "
                  "Cholesky factorization, forward modelling and the sampled forward sweep, "
                  "the peak RSS of two inversion steps"),
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
