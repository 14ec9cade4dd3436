"""Built-in identity battery: every structural property, checked in seconds.

Each check is small enough to run on every install (`lagfwi selfcheck`) and
returns a measured figure of merit against a hard threshold.  The battery
covers the adjoint identities, the dense-oracle agreements, the damped
multiplier identity, both saddle orientations, the scheme equivalences, the
finite-difference gradient, fixed points, and the file formats.

Fault injection: run_battery accepts a set of fault names that deliberately
break an internal computation so callers can confirm the battery actually
detects defects, and each hook must make exactly its named check fail.
"perturb-adjoint" scales the adjoint solve's output inside the wave-operator
dot test; "perturb-hessian" scales one off-diagonal receiver block of the
assembled data-space Hessian inside its dense-oracle comparison;
"perturb-wavefield-solve" scales the matrix-free saddle solve's wavefield
inside both saddle orientation checks; "perturb-sweep" scales the swept
fields at the first level of the sweep kernel's second working block inside
its dense-oracle comparison, and the second copy tile of its first stepped
level on a grid wider than one tile; "perturb-sampled-sweep" scales one
sample of a point source's receiver traces from the trace-out forward sweep
inside its dense-oracle comparison; "perturb-batch-column" scales only the
second column of a lock-step batched wavefield solve inside its
dense-oracle comparison;
"perturb-nystrom" scales the eigenvalues of the Nystrom sketch that
preconditions the wavefield orientation's data-space CG by 1e-2 inside its
dense-oracle check.
That preconditioner is still SPD, so the solve stays exact and only its
iteration count exceeds the check's bound.  "perturb-h-product" scales one
time level of the matrix-free H products' intermediate stack, the first
past the forward half's first working block, between the adjoint and the
forward sweep, inside the data-space Hessian's dense-oracle comparison.
"perturb-born" scales the largest entry of the Gauss-Newton schemes'
stacked Born kernel inside its dense-oracle comparison.
"""

from __future__ import annotations

import io
import math
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .grids import (
    AcquisitionGeometry,
    GridSpec,
    ModelGrid,
    SourceField,
    TraceData,
    Wavefield,
    build_model,
)
from .oracle import (
    _reference_sweep,
    assemble_born_kernel,
    assemble_dense_operator,
    dense_multiplier_data_space,
    dense_multiplier_source_space,
    dense_sampling_operator,
    dense_saddle_solve,
    fd_gradient,
    quadratic_model_minimizer,
)
from .saddle import (
    PenaltyConfig,
    _cg,
    _hessian_products,
    assemble_data_space_hessian,
    nystrom_sketch,
    solve_saddle,
)
from .wavecore import (
    _BLOCK,
    _TILE,
    _TraceStack,
    _adjoint_sweep,
    _forward_sweep,
    adjoint_solves,
    apply_wave_operator,
    apply_wave_operator_transpose,
    forward_solves,
    forward_traces,
    sample,
    scattering_source,
)
from . import fileio, iterations

KNOWN_FAULTS = (
    "perturb-adjoint",
    "perturb-hessian",
    "perturb-wavefield-solve",
    "perturb-sweep",
    "perturb-sampled-sweep",
    "perturb-batch-column",
    "perturb-nystrom",
    "perturb-h-product",
    "perturb-born",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _residuals(m, sources, data) -> list[TraceData]:
    """delta_d = d - P A^-1 b per source, the residuals solve_saddle takes."""
    return [TraceData(d.spec, d.geometry, d.values - traces.values)
            for d, traces in zip(data, forward_traces(m, sources, data[0].geometry))]


def _tiny_setup(seed: int = 11):
    rng = np.random.default_rng(seed)
    spec = GridSpec(ndim=1, nx=9, nz=1, dx=10.0, dz=10.0, nt=12, dt=0.002)
    geom = AcquisitionGeometry((4,), (2, 6))
    velocity = 2000.0 + 80.0 * np.clip(rng.standard_normal(spec.n_space), -1.5, 1.5)
    m_true = build_model(spec, velocity)
    m0 = build_model(spec, np.full(spec.n_space, 2000.0))
    sources = []
    for node in (3, 5):
        values = np.zeros(spec.shape)
        values[node, 2:] = rng.standard_normal(spec.nt - 2)
        sources.append(SourceField(spec, values))
    data = list(forward_traces(m_true, sources, geom))
    return rng, spec, geom, m_true, m0, sources, data


def _check_adjoint_dot(faults) -> CheckResult:
    rng = np.random.default_rng(101)
    spec = GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=48, dt=0.002)
    worst = 0.0
    for _ in range(20):
        m = build_model(spec, 1500.0 + 900.0 * rng.random(spec.n_space))
        b = SourceField(spec, rng.standard_normal(spec.shape))
        r = SourceField(spec, rng.standard_normal(spec.shape))
        (u,) = forward_solves(m, [b])
        (v,) = adjoint_solves(m, [r])
        if "perturb-adjoint" in faults:
            v = Wavefield(spec, v.values * (1.0 + 1e-6))
        lhs = float(np.sum(u.values * r.values))
        rhs = float(np.sum(b.values * v.values))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return CheckResult("adjoint-dot-test", worst <= 1e-12, f"rel {worst:.3e} (tol 1e-12)")


def _check_operator_dot(faults) -> CheckResult:
    rng = np.random.default_rng(102)
    spec = GridSpec(ndim=2, nx=7, nz=5, dx=10.0, dz=10.0, nt=9, dt=0.002)
    worst = 0.0
    for _ in range(10):
        m = build_model(spec, 1500.0 + 900.0 * rng.random(spec.n_space))
        u = Wavefield(spec, rng.standard_normal(spec.shape))
        y = SourceField(spec, rng.standard_normal(spec.shape))
        lhs = float(np.sum(apply_wave_operator(m, u).values * y.values))
        rhs = float(np.sum(u.values * apply_wave_operator_transpose(m, y).values))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return CheckResult("operator-dot-test", worst <= 1e-12, f"rel {worst:.3e} (tol 1e-12)")


def _check_sampling_adjoint(faults) -> CheckResult:
    rng = np.random.default_rng(103)
    spec = GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=20, dt=0.002)
    geom = AcquisitionGeometry((7,), (1, 6, 11))
    worst = 0.0
    for _ in range(10):
        u = Wavefield(spec, rng.standard_normal(spec.shape))
        y = TraceData(spec, geom, rng.standard_normal((3, spec.nt)))
        lhs = float(np.sum(sample(u, geom).values * y.values))
        injected = (dense_sampling_operator(spec, geom).T @ y.values.ravel()).reshape(spec.shape)
        rhs = float(np.sum(u.values * injected))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    return CheckResult("sampling-dot-test", worst <= 1e-13, f"rel {worst:.3e} (tol 1e-13)")


def _check_dense_agreement(faults) -> CheckResult:
    rng, spec, geom, m_true, m0, sources, data = _tiny_setup(104)
    dense = assemble_dense_operator(m_true)
    b = sources[0]
    (u_sweep,) = forward_solves(m_true, [b])
    u_dense = dense.solve(b)
    err = _rel(u_sweep.values, u_dense.values)
    return CheckResult("dense-operator-agreement", err <= 1e-10, f"rel {err:.3e} (tol 1e-10)")


def _check_sweep_dense(faults) -> CheckResult:
    # Both sweeps cross a working-block boundary at nt = _BLOCK + 4, with two
    # batch columns. The grids are kept tiny: larger dense matrices would set
    # the battery's peak memory.
    rng = np.random.default_rng(114)
    nt = _BLOCK + 4
    worst = 0.0
    for spec in (
        GridSpec(ndim=1, nx=5, nz=1, dx=10.0, dz=10.0, nt=nt, dt=0.002),
        GridSpec(ndim=2, nx=3, nz=3, dx=10.0, dz=10.0, nt=nt, dt=0.002),
    ):
        m = build_model(spec, 1500.0 + 900.0 * rng.random(spec.n_space))
        dense = assemble_dense_operator(m)
        rhs = rng.standard_normal(spec.shape + (2,))
        columns = [rhs[..., col] for col in range(2)]
        us = _forward_sweep(spec, m.values, columns)
        vs = _adjoint_sweep(spec, m.values, columns)
        for u, v, column in zip(us, vs, columns):
            if "perturb-sweep" in faults:
                u[:, 2 + _BLOCK] *= 1.0 + 1e-6
                v[:, nt - 2 - _BLOCK] *= 1.0 + 1e-6
            b = SourceField(spec, column)
            worst = max(worst, _rel(u, dense.solve(b).values))
            worst = max(worst, _rel(v, dense.solve_transpose(b).values))
            w = Wavefield(spec, column)
            worst = max(worst, _rel(apply_wave_operator(m, w).values, dense.apply(w).values))
    # A 2D grid wider than one copy tile, against the oracle's stepped sweep:
    # its dense matrix would cost more memory than the rest of the battery.
    spec = GridSpec(ndim=2, nx=20, nz=_TILE // 20 + 1, dx=10.0, dz=10.0, nt=6, dt=0.002)
    m = build_model(spec, 1500.0 + 900.0 * rng.random(spec.n_space))
    rhs = rng.standard_normal(spec.shape + (2,))
    u = np.stack(_forward_sweep(spec, m.values, [rhs[..., col] for col in range(2)]), axis=-1)
    if "perturb-sweep" in faults:
        u[_TILE:, 2] *= 1.0 + 1e-6
    worst = max(worst, _rel(u, _reference_sweep(spec, m.values, rhs)))
    return CheckResult("sweep-vs-dense", worst <= 1e-10, f"rel {worst:.3e} (tol 1e-10)")


def _check_sampled_sweep(faults) -> CheckResult:
    # Trace-out of a point source, one-node TraceData that enters the sweep
    # as a one-row trace stack, and of a dense source, each its own batch,
    # against the dense solve sampled at receivers on the edges and corners,
    # the point source on the last one.  nt = _BLOCK + 4 crosses a
    # working-block boundary.  The 1D grid meets the dense operator; the 2D
    # one, wider than one copy tile, the oracle's stepped sweep, whose dense
    # matrix would set the battery's peak memory.  Forward sweeps only.
    rng = np.random.default_rng(117)
    nt = _BLOCK + 4
    nx, nz = 20, _TILE // 20 + 1
    last = nx * nz - 1
    worst = 0.0
    for spec, rec in (
        (GridSpec(ndim=1, nx=9, nz=1, dx=10.0, dz=10.0, nt=nt, dt=0.002), (0, 4, 8)),
        (GridSpec(ndim=2, nx=nx, nz=nz, dx=10.0, dz=10.0, nt=nt, dt=0.002),
         (0, nx // 2, nx - 1, 6 * nx, 7 * nx - 1, last - nx + 1, last - nx // 2, last)),
    ):
        geom = AcquisitionGeometry((rec[-1],), rec)
        m = build_model(spec, 1500.0 + 900.0 * rng.random(spec.n_space))
        wavelet = np.zeros((1, nt))
        wavelet[0, 2:] = rng.standard_normal(nt - 2)
        point = TraceData(spec, AcquisitionGeometry((rec[-1],), (rec[-1],)), wavelet)
        field = rng.standard_normal(spec.shape)
        traces = [d.values for batch in ([point], [SourceField(spec, field)])
                  for d in forward_traces(m, batch, geom)]
        if "perturb-sampled-sweep" in faults:
            traces[0][-1, 2 + _BLOCK] *= 1.0 + 1e-6
        rhs = np.zeros(spec.shape + (2,))
        rhs[rec[-1], :, 0] = wavelet[0]
        rhs[..., 1] = field
        if spec.ndim == 1:  # both columns in one dense solve
            u = np.linalg.solve(assemble_dense_operator(m).matrix, rhs.reshape(-1, 2))
            refs = (dense_sampling_operator(spec, geom) @ u).reshape(len(rec), nt, 2)
        else:
            refs = _reference_sweep(spec, m.values, rhs)[list(rec)]
        for j, got in enumerate(traces):
            worst = max(worst, _rel(got, refs[..., j]))
    return CheckResult("sampled-sweep-vs-dense", worst <= 1e-10, f"rel {worst:.3e} (tol 1e-10)")


def _check_hessian_dense(faults) -> CheckResult:
    # The assembled H and the matrix-free H products of the unit traces,
    # whose adjoint half sweeps into a time-major stack and whose forward
    # half sweeps out of it; nt = _BLOCK + 4 crosses a working-block
    # boundary in both.  The grids are kept as tiny as sweep-vs-dense's:
    # larger dense operators would set the battery's time and peak memory.
    rng = np.random.default_rng(113)
    nt = _BLOCK + 4
    grids = (
        (GridSpec(ndim=1, nx=5, nz=1, dx=10.0, dz=10.0, nt=nt, dt=0.002), (0, 4)),
        (GridSpec(ndim=2, nx=3, nz=3, dx=10.0, dz=10.0, nt=nt, dt=0.002), (2, 6)),
    )

    def perturb_level(fields):
        fields[:, 2 + _BLOCK] *= 1.0 + 1e-6  # past the forward's first block

    between = perturb_level if "perturb-h-product" in faults else None
    worst = 0.0
    for spec, receivers in grids:
        geom = AcquisitionGeometry((receivers[0],), receivers)
        m = build_model(spec, 1500.0 + 900.0 * rng.random(spec.n_space))
        h = assemble_data_space_hessian(m, geom).matrix
        if "perturb-hessian" in faults:
            h[: spec.nt, spec.nt :] *= 1.0 + 1e-6
        # row j of the products is H e_j, that is column j of H
        products = _hessian_products(spec, m.values, list(receivers), between)(np.eye(len(h)))
        # H = G G^T with G^T = A^-T P^T.  With the unknowns ordered by time
        # level, A is block lower triangular (level n of A u holds levels
        # <= n of u only), so G^T comes from back substitution over the
        # levels; reordering the rows of G^T leaves G G^T as it is.  Blocks
        # of one level keep every BLAS call below the size at which OpenBLAS
        # starts threads: one triangular solve of the whole A took 8 ms in
        # place of 0.5 ms under two threads on a shared two-core machine.
        ns = spec.n_space
        a = assemble_dense_operator(m).matrix.reshape(ns, nt, ns, nt).transpose(1, 0, 3, 2)
        levels = np.arange(nt)
        inverse_t = np.linalg.inv(a[levels, :, levels, :].transpose(0, 2, 1))  # A_nn^-T
        a = a.reshape(nt * ns, nt * ns)
        p = dense_sampling_operator(spec, geom)
        g_t = p.reshape(len(p), ns, nt).transpose(2, 1, 0).reshape(nt * ns, len(p))
        for level in levels[::-1]:
            rows, later = slice(level * ns, (level + 1) * ns), slice((level + 1) * ns, None)
            g_t[rows] = inverse_t[level] @ (g_t[rows] - a[later, rows].T @ g_t[later])
        ref = g_t.T @ g_t
        scale = np.max(np.abs(ref))
        for got in (h, products.T):
            worst = max(worst, float(np.max(np.abs(got - ref)) / scale))
    return CheckResult("hessian-vs-dense", worst <= 1e-11, f"rel {worst:.3e} (tol 1e-11)")


def _check_born_dense(faults) -> CheckResult:
    # The stacked Born kernel of two fields, one trace-out sweep of every
    # node's point-source kick, against the oracle's kernel of each field,
    # swept by its own stepped reference; nt = _BLOCK + 4 crosses a
    # working-block boundary.  The grids are sweep-vs-dense's: the oracle's
    # batched sweep holds n_space^2 nt doubles.
    rng = np.random.default_rng(118)
    nt = _BLOCK + 4
    worst = 0.0
    for spec, receivers in (
        (GridSpec(ndim=1, nx=5, nz=1, dx=10.0, dz=10.0, nt=nt, dt=0.002), (0, 4)),
        (GridSpec(ndim=2, nx=3, nz=3, dx=10.0, dz=10.0, nt=nt, dt=0.002), (2, 6)),
    ):
        geom = AcquisitionGeometry((receivers[0],), receivers)
        m = build_model(spec, 1500.0 + 900.0 * rng.random(spec.n_space))
        us = [Wavefield(spec, rng.standard_normal(spec.shape)) for _ in range(2)]
        kernel = iterations._born_kernel(m, us, geom)
        if "perturb-born" in faults:
            kernel.flat[np.argmax(np.abs(kernel))] *= 1.0 + 1e-6
        ref = np.vstack([assemble_born_kernel(m, u, geom) for u in us])
        worst = max(worst, float(np.max(np.abs(kernel - ref)) / np.max(np.abs(ref))))
    return CheckResult("born-vs-dense", worst <= 1e-10, f"rel {worst:.3e} (tol 1e-10)")


def _check_splitting_identity(faults) -> CheckResult:
    rng, spec, geom, m_true, m0, sources, data = _tiny_setup(105)
    u = Wavefield(spec, rng.standard_normal(spec.shape))
    dm = 1e-1 * m_true.values * rng.standard_normal(spec.n_space)
    lhs = (
        apply_wave_operator(ModelGrid(spec, m_true.values + dm), u).values
        - apply_wave_operator(m_true, u).values
        + scattering_source(u, dm).values
    )
    scale = np.linalg.norm(apply_wave_operator(m_true, u).values)
    err = float(np.linalg.norm(lhs) / scale)
    return CheckResult("splitting-identity", err <= 1e-12, f"rel {err:.3e} (tol 1e-12)")


def _check_guttman(faults) -> CheckResult:
    rng = np.random.default_rng(106)
    spec = GridSpec(ndim=1, nx=7, nz=1, dx=10.0, dz=10.0, nt=8, dt=0.002)
    geom = AcquisitionGeometry((3,), (1, 5))
    m = build_model(spec, 1500.0 + 900.0 * rng.random(spec.n_space))
    b = SourceField(spec, rng.standard_normal(spec.shape))
    d = TraceData(spec, geom, rng.standard_normal((2, spec.nt)))
    worst = 0.0
    for mu in (1.0, 1e2, 1e4):
        v_a = dense_multiplier_source_space(m, b, d, mu)
        v_b = dense_multiplier_data_space(m, b, d, mu)
        worst = max(worst, _rel(v_a.values, v_b.values))
    return CheckResult("guttman-identity", worst <= 1e-10, f"rel {worst:.3e} (tol 1e-10)")


def _check_saddle_orientations(mode: str):
    def check(faults) -> CheckResult:
        rng, spec, geom, m_true, m0, sources, data = _tiny_setup(107)
        b, d = sources[0], data[0]
        w = SourceField(spec, 0.1 * rng.standard_normal(spec.shape)) if mode == "al" else None
        residuals = _residuals(m0, [b], [d])
        worst = 0.0
        for mu in (1.0, 1e2, 1e4):
            cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
            u_ref, v_ref = dense_saddle_solve(m0, b, d, mu, w=w)
            shifts = None if w is None else [SourceField(spec, (-1.0 / mu) * w.values)]
            [u1], [lam1] = solve_saddle(m0, [b], residuals, cfg, shifts, matrix_free=True)
            if "perturb-wavefield-solve" in faults:
                u1 = Wavefield(spec, u1.values * (1.0 + 1e-6))
            [u2], [lam2] = solve_saddle(m0, [b], residuals, cfg, shifts)
            worst = max(worst, _rel(u1.values, u_ref.values))
            worst = max(worst, _rel(mu * lam1.values, v_ref.values))
            worst = max(worst, _rel(u2.values, u_ref.values))
            worst = max(worst, _rel(mu * lam2.values, v_ref.values))
        return CheckResult(
            f"saddle-orientations-{mode}", worst <= 1e-8, f"rel {worst:.3e} (tol 1e-8)"
        )

    return check


def _check_batched_wavefield(faults) -> CheckResult:
    # Two sources in one lock-step CG, the first shift zero and the second
    # -w/mu, each against its own dense saddle solve, so a mix-up between
    # columns fails.  A column that misses cg_tol raises, failing the check.
    rng, spec, geom, m_true, m0, sources, data = _tiny_setup(115)
    cfg = PenaltyConfig(mu=1e2, cg_tol=1e-13)
    ws = [None, SourceField(spec, 0.1 * rng.standard_normal(spec.shape))]
    shifts = [SourceField(spec, np.zeros(spec.shape)),
              SourceField(spec, (-1.0 / cfg.mu) * ws[1].values)]
    worst = 0.0
    us, _ = solve_saddle(m0, sources, _residuals(m0, sources, data), cfg, shifts,
                         matrix_free=True)
    for column, (u, b, d, w) in enumerate(zip(us, sources, data, ws)):
        values = u.values
        if "perturb-batch-column" in faults and column == 1:
            values = values * (1.0 + 1e-6)
        u_ref, _ = dense_saddle_solve(m0, b, d, cfg.mu, w=w)
        worst = max(worst, _rel(values, u_ref.values))
    return CheckResult("batched-wavefield-vs-dense", worst <= 1e-8, f"rel {worst:.3e} (tol 1e-8)")


def _check_nystrom(faults) -> CheckResult:
    # The Nystrom-preconditioned data-space CG of the wavefield orientation,
    # (H + mu I) y = d - P A^-1 (b - w/mu), against the dense saddle solve's
    # multiplier v = mu A^-T P^T y.  Its data dimension is 64, so the sketch
    # takes the rank cap 32; the clean solve takes 16 iterations and the
    # bound is that cap, while the unpreconditioned CG takes 90 and the
    # faulted one 64.  A wrong but SPD preconditioner leaves the answer
    # exact, so the fault shows in the count.  The grid is kept tiny: the
    # dense saddle matrix of a larger one would set the battery's peak
    # memory.
    rng = np.random.default_rng(116)
    spec = GridSpec(ndim=1, nx=7, nz=1, dx=10.0, dz=10.0, nt=16, dt=0.002)
    geom = AcquisitionGeometry((3,), (0, 2, 4, 6))
    rec = list(geom.receiver_nodes)
    m = build_model(spec, 1500.0 + 900.0 * rng.random(spec.n_space))
    b = SourceField(spec, rng.standard_normal(spec.shape))
    d = TraceData(spec, geom, rng.standard_normal((4, spec.nt)))
    w = SourceField(spec, 0.1 * rng.standard_normal(spec.shape))
    cfg = PenaltyConfig(mu=1e2, cg_tol=1e-13)
    bound = geom.n_receivers * spec.nt // 2
    sketch = nystrom_sketch(m, geom, cfg)
    if "perturb-nystrom" in faults:
        sketch = replace(sketch, eigenvalues=1e-2 * sketch.eigenvalues)
    apply_h = _hessian_products(spec, m.values, rec)
    shift = b.values - w.values / cfg.mu
    rhs = (d.values - _forward_sweep(spec, m.values, [shift])[0][rec]).ravel()
    [(y, info)] = _cg(lambda ys: [hy + cfg.mu * y for hy, y in zip(apply_h(ys), ys)], [rhs],
                      cfg.cg_tol, cfg.cg_maxiter, sketch.preconditioner(cfg.mu))
    ys = cfg.mu * y.reshape((1,) + d.values.shape)
    [v] = _adjoint_sweep(spec, m.values, _TraceStack(rec, ys))
    _, v_ref = dense_saddle_solve(m, b, d, cfg.mu, w=w)
    err = _rel(v, v_ref.values) if info.converged else math.inf
    return CheckResult(
        "nystrom-pcg-vs-dense", err <= 1e-8 and info.iterations <= bound,
        f"rel {err:.3e} (tol 1e-8), {info.iterations} iterations at rank {sketch.rank} "
        f"(bound {bound})")


def _run_iterates(scheme: str, m0, sources, data, cfg, n):
    state = iterations.initial_state(m0, sources)
    out = []
    for _ in range(n):
        state = iterations.with_forward_fields(
            iterations.step_scheme(scheme, state, sources, data, cfg)[0], sources)
        out.append(state)
    return out


def _check_scheme_pair(name: str, scheme_a: str, scheme_b: str):
    def check(faults) -> CheckResult:
        rng, spec, geom, m_true, m0, sources, data = _tiny_setup(108)
        cfg = PenaltyConfig(mu=50.0, cg_tol=1e-13)
        ha = _run_iterates(scheme_a, m0, sources, data, cfg, 3)
        hb = _run_iterates(scheme_b, m0, sources, data, cfg, 3)
        worst = max(_rel(a.model.values, b.model.values) for a, b in zip(ha, hb))
        return CheckResult(name, worst <= 1e-8, f"rel {worst:.3e} (tol 1e-8)")

    return check


def _check_wri_oracle(faults) -> CheckResult:
    rng, spec, geom, m_true, m0, sources, data = _tiny_setup(109)
    mu = 50.0
    cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
    state = iterations.initial_state(m0, sources[:1])
    m_ref = m0
    worst = 0.0
    for _ in range(3):
        state = iterations.with_forward_fields(iterations.step_scheme(
            "penalty-wavefield", state, sources[:1], data[:1], cfg)[0], sources[:1])
        [u_ref], _ = solve_saddle(m_ref, sources[:1], _residuals(m_ref, sources[:1], data[:1]),
                                  cfg, matrix_free=True)
        m_ref = ModelGrid(spec, quadratic_model_minimizer(u_ref, sources[0], m_ref, mu=mu))
        worst = max(worst, _rel(state.model.values, m_ref.values))
    return CheckResult("wri-alternation-oracle", worst <= 1e-8, f"rel {worst:.3e} (tol 1e-8)")


def _check_gradient_fd(faults) -> CheckResult:
    rng, spec, geom, m_true, m0, sources, data = _tiny_setup(110)
    _, g = iterations.reduced_objective_and_gradient(m0, sources, data)
    g_fd = fd_gradient(m0, sources, data, h=1e-6)
    mask = np.abs(g) > 1e-8 * np.abs(g).max()
    worst = float(np.max(np.abs(g[mask] - g_fd[mask]) / np.abs(g[mask])))
    return CheckResult("gradient-vs-fd", worst <= 1e-5, f"rel {worst:.3e} (tol 1e-5)")


def _check_fixed_points(faults) -> CheckResult:
    rng, spec, geom, m_true, m0, sources, data = _tiny_setup(111)
    cfg = PenaltyConfig(mu=50.0, cg_tol=1e-13)
    state = iterations.initial_state(m_true, sources)
    worst, worst_name = 0.0, ""
    for scheme in iterations.SCHEMES:
        stepped, _, _ = iterations.step_scheme(scheme, state, sources, data, cfg)
        err = _rel(stepped.model.values, m_true.values)
        if err > worst:
            worst, worst_name = err, scheme
    return CheckResult(
        "fixed-points", worst <= 1e-10, f"rel {worst:.3e} at {worst_name or 'n/a'} (tol 1e-10)"
    )


def _check_file_roundtrip(faults) -> CheckResult:
    rng, spec, geom, m_true, m0, sources, data = _tiny_setup(112)
    ok = True
    detail = "exact"
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "m.dat")
        fileio.save_model(p, m_true)
        ok &= np.array_equal(fileio.load_model(p).values, m_true.values)
        (u,) = forward_solves(m_true, sources[:1])
        p = os.path.join(tmp, "u.dat")
        fileio.save_field(p, u)
        ok &= np.array_equal(fileio.load_field(p).values, u.values)
        p = os.path.join(tmp, "d.dat")
        fileio.save_traces(p, data[0])
        ok &= np.array_equal(fileio.load_traces(p, spec, geom).values, data[0].values)
        p = os.path.join(tmp, "log.csv")
        history = [
            fileio.Diagnostics(0, 1.25, 0.5, float("nan"), 0.0, 0.0, 0.01),
            fileio.Diagnostics(1, 0.4, 0.25, 0.3, 1.5, 2.5, 0.02),
        ]
        fileio.write_log(p, history, seed=42, scheme="fwi")
        rows, meta = fileio.read_log(p)
        ok &= meta.get("seed") == 42 and len(rows) == 2
        ok &= rows[1].as_row() == history[1].as_row()
        ok &= math.isnan(rows[0].model_error)
    if not ok:
        detail = "round-trip mismatch"
    return CheckResult("file-roundtrip", bool(ok), detail)


_CHECKS = (
    _check_adjoint_dot,
    _check_operator_dot,
    _check_sampling_adjoint,
    _check_dense_agreement,
    _check_sweep_dense,
    _check_sampled_sweep,
    _check_hessian_dense,
    _check_born_dense,
    _check_splitting_identity,
    _check_guttman,
    _check_saddle_orientations("penalty"),
    _check_saddle_orientations("al"),
    _check_batched_wavefield,
    _check_nystrom,
    _check_scheme_pair("equivalence-split-gs-penalty", "split-gs", "penalty-multiplier"),
    _check_scheme_pair("equivalence-refined-eps-al", "refined-epsilon", "al-multiplier"),
    _check_scheme_pair("equivalence-refined-variants", "refined-direct", "refined-epsilon"),
    _check_scheme_pair("equivalence-wri-scaled-penalty", "wri-scaled", "penalty-multiplier"),
    _check_wri_oracle,
    _check_gradient_fd,
    _check_fixed_points,
    _check_file_roundtrip,
)


def run_battery(faults: frozenset[str] | set[str] = frozenset()) -> list[CheckResult]:
    unknown = set(faults) - set(KNOWN_FAULTS)
    if unknown:
        raise ValueError(f"unknown fault hooks: {sorted(unknown)}")
    results = []
    for check in _CHECKS:
        try:
            results.append(check(frozenset(faults)))
        except Exception as exc:  # a crashed check is a failed check
            name = getattr(check, "__name__", "check").replace("_check_", "").replace("_", "-")
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
    return results


def format_report(results) -> str:
    stream = io.StringIO()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        stream.write(f"{status} {result.name}: {result.detail}\n")
    failed = sum(1 for r in results if not r.passed)
    stream.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return stream.getvalue()
