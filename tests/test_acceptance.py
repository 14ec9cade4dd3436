"""Acceptance battery: ten go/no-go criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each criterion also asserts, so a plain pytest run enforces all ten.
The two benchmark criteria share one 50-iteration augmented-Lagrangian run
through a module-scoped fixture.
"""

import os
import time

import numpy as np
import pytest

from lagfwi.config import (
    build_sources,
    make_observed_data,
    true_model_grid,
    two_scatterer_benchmark,
)
from lagfwi.fileio import read_log
from lagfwi.grids import (
    AcquisitionGeometry,
    GridSpec,
    ModelGrid,
    SourceField,
    TraceData,
    Wavefield,
    build_model,
)
from lagfwi.iterations import SCHEMES, initial_state, run_inversion, step_scheme
from lagfwi.oracle import (
    dense_multiplier_data_space,
    dense_multiplier_source_space,
    dense_saddle_solve,
    fd_gradient,
    quadratic_model_minimizer,
)
from lagfwi.saddle import (
    HessianCache,
    PenaltyConfig,
    solve_augmented_wavefield,
    solve_ls_multiplier,
)
from lagfwi.selfcheck import run_battery
from lagfwi.wavecore import (
    adjoint_solve,
    apply_wave_operator,
    apply_wave_operator_transpose,
    forward_solve,
    inject,
    sample,
    scattering_source,
)
from lagfwi import iterations as it

from conftest import random_model, random_source, random_wavefield
from test_iterations import iterate, rel, tiny_problem

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def verdict(number, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {name} ({detail})")
    assert ok, f"criterion {number}: {name}: {detail}"


@pytest.fixture(scope="module")
def benchmark_run():
    config = two_scatterer_benchmark()
    data = make_observed_data(config)
    started = time.monotonic()
    result = run_inversion(config, data, true_model=true_model_grid(config))
    elapsed = time.monotonic() - started
    source_scale = np.sqrt(sum(float(np.sum(b.values**2)) for b in build_sources(config)))
    return config, data, result, elapsed, source_scale


def test_criterion_01_adjoint_dot_tests():
    """<Au, v> = <u, A^T v>, <A^-1 b, r> = <b, A^-T r>, <Pu, y> = <u, P^T y>."""
    worst = 0.0
    rng = np.random.default_rng(1001)
    specs = [
        GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=48, dt=0.003),
        GridSpec(ndim=2, nx=7, nz=5, dx=10.0, dz=10.0, nt=20, dt=0.002),
    ]
    for trial in range(20):
        spec = specs[trial % 2]
        m = random_model(spec, rng)
        u = random_wavefield(spec, rng)
        v = random_source(spec, rng)
        lhs = float(np.vdot(apply_wave_operator(m, u).values, v.values))
        rhs = float(np.vdot(u.values, apply_wave_operator_transpose(m, v).values))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))

        b = random_source(spec, rng)
        r = random_source(spec, rng)
        lhs = float(np.vdot(forward_solve(m, b).values, r.values))
        rhs = float(np.vdot(b.values, adjoint_solve(m, r).values))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))

        geom = AcquisitionGeometry((1,), (2, spec.n_space - 2))
        d = sample(u, geom)
        y = rng.standard_normal(d.values.shape)
        lhs = float(np.vdot(d.values, y))
        rhs = float(np.vdot(u.values, inject(TraceData(spec, geom, y)).values))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    verdict(1, "adjoint dot tests", worst <= 1e-12, f"worst rel {worst:.2e}, tol 1e-12")


def test_criterion_02_gradient_matches_finite_differences():
    spec, geom, m_true, m0, sources, data = tiny_problem(110)
    _, grad = it.reduced_objective_and_gradient(m0, sources, data)
    ref = fd_gradient(m0, sources, data, h=1e-6)
    err = float(np.linalg.norm(grad - ref) / np.linalg.norm(ref))
    verdict(2, "adjoint-state gradient vs finite differences", err <= 1e-5,
            f"rel {err:.2e}, tol 1e-5")


def test_criterion_03_push_through_identity():
    spec = GridSpec(ndim=1, nx=7, nz=1, dx=10.0, dz=10.0, nt=8, dt=0.003)
    rng = np.random.default_rng(1003)
    m = random_model(spec, rng)
    geom = AcquisitionGeometry((3,), (1, 5))
    worst = 0.0
    for mu in (1.0, 100.0):
        b = random_source(spec, rng)
        d = TraceData(spec, geom, rng.standard_normal((2, spec.nt)))
        v_src = dense_multiplier_source_space(m, b, d, mu)
        v_dat = dense_multiplier_data_space(m, b, d, mu)
        scale = max(np.abs(v_src.values).max(), 1.0)
        worst = max(worst, float(np.abs(v_src.values - v_dat.values).max() / scale))
    verdict(3, "source-space vs data-space multiplier elimination", worst <= 1e-10,
            f"worst rel {worst:.2e}, tol 1e-10")


def test_criterion_04_orientations_match_dense_saddle():
    spec = GridSpec(ndim=1, nx=11, nz=1, dx=10.0, dz=10.0, nt=16, dt=0.003)
    rng = np.random.default_rng(1004)
    m = random_model(spec, rng)
    geom = AcquisitionGeometry((5,), (2, 8))
    b = random_source(spec, rng)
    d = TraceData(spec, geom, rng.standard_normal((2, spec.nt)))
    worst = 0.0
    for mu in (1.0, 1e2, 1e4):
        cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
        u_ref, v_ref = dense_saddle_solve(m, b, d, mu)
        scale = max(np.abs(u_ref.values).max(), np.abs(v_ref.values).max(), 1.0)
        u, _ = solve_augmented_wavefield(m, b, d, cfg)
        v = solve_ls_multiplier(m, b, d, cfg)
        worst = max(worst, float(np.abs(u.values - u_ref.values).max() / scale))
        worst = max(worst, float(np.abs(v.values - v_ref.values).max() / scale))
    verdict(4, "wavefield and multiplier orientations vs dense saddle", worst <= 1e-8,
            f"worst rel {worst:.2e} over mu in {{1, 1e2, 1e4}}, tol 1e-8")


def test_criterion_05_scheme_equivalences():
    spec, geom, m_true, m0, sources, data = tiny_problem()
    cfg = PenaltyConfig(mu=50.0, cg_tol=1e-13)
    pairs = [
        ("split-gs", "penalty-multiplier"),
        ("wri-scaled", "penalty-multiplier"),
        ("penalty-wavefield", "penalty-multiplier"),
        ("al-wavefield", "al-multiplier"),
        ("refined-direct", "refined-rearranged"),
        ("refined-rearranged", "refined-epsilon"),
        ("refined-epsilon", "al-multiplier"),
    ]
    worst, worst_pair = 0.0, "n/a"
    for scheme_a, scheme_b in pairs:
        ha = iterate(scheme_a, m0, sources, data, cfg, 5)
        hb = iterate(scheme_b, m0, sources, data, cfg, 5)
        gap = max(rel(a.model.values, b.model.values) for a, b in zip(ha, hb))
        if gap > worst:
            worst, worst_pair = gap, f"{scheme_a} vs {scheme_b}"
    # the two alternation oracles close the loop to the textbook updates
    state = initial_state(m0, sources[:1])
    m_ref, w_ref = m0, SourceField(spec, np.zeros(spec.shape))
    for _ in range(5):
        state = step_scheme("al-wavefield", state, sources[:1], data[:1], cfg)
        u_ref, _ = solve_augmented_wavefield(m_ref, sources[0], data[0], cfg, w=w_ref)
        m_ref = ModelGrid(
            spec, quadratic_model_minimizer(u_ref, sources[0], m_ref, mu=cfg.mu, w=w_ref)
        )
        resid = apply_wave_operator(m_ref, u_ref).values - sources[0].values
        w_ref = SourceField(spec, w_ref.values + cfg.mu * resid)
        gap = rel(state.model.values, m_ref.values)
        if gap > worst:
            worst, worst_pair = gap, "al-wavefield vs admm oracle"
    verdict(5, "five-iteration scheme equivalences", worst <= 1e-8,
            f"worst rel {worst:.2e} at {worst_pair}, tol 1e-8")


def test_criterion_06_true_model_is_a_fixed_point():
    spec, geom, m_true, m0, sources, data = tiny_problem(111)
    cfg = PenaltyConfig(mu=50.0, cg_tol=1e-13)
    cache = HessianCache()
    state = initial_state(m_true, sources)
    worst, worst_scheme = 0.0, "n/a"
    for scheme in SCHEMES:
        stepped = step_scheme(scheme, state, sources, data, cfg, cache=cache)
        gap = rel(stepped.model.values, m_true.values)
        if gap > worst:
            worst, worst_scheme = gap, scheme
    verdict(6, "consistent data fixes the true model for all schemes", worst <= 1e-10,
            f"worst rel {worst:.2e} at {worst_scheme}, tol 1e-10")


def test_criterion_07_splitting_identity():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for spec in (
        GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=48, dt=0.003),
        GridSpec(ndim=2, nx=7, nz=5, dx=10.0, dz=10.0, nt=20, dt=0.002),
    ):
        m = random_model(spec, rng)
        u = random_wavefield(spec, rng)
        dm = m.values * rng.uniform(-0.5, 0.5, spec.n_space)
        m2 = ModelGrid(spec, m.values + dm)
        phi = scattering_source(u, dm)
        resid = (
            apply_wave_operator(m2, u).values - apply_wave_operator(m, u).values + phi.values
        )
        worst = max(worst, float(np.abs(resid).max() / max(np.abs(phi.values).max(), 1.0)))
    verdict(7, "operator splitting identity", worst <= 1e-12,
            f"worst rel {worst:.2e}, tol 1e-12")


def test_criterion_08_al_beats_penalty_on_the_constraint(benchmark_run):
    # row 0 is excluded: its plain forward fields satisfy the constraint by
    # construction, the comparison is about the relaxed iterates
    config, data, result, elapsed, source_scale = benchmark_run
    al_cons = min(h.constraint for h in result.history[1:]) / source_scale

    from dataclasses import replace

    pen_config = replace(config, scheme="penalty-multiplier")
    started = time.monotonic()
    pen_result = run_inversion(pen_config, data, true_model=true_model_grid(pen_config))
    pen_elapsed = time.monotonic() - started
    pen_cons = min(h.constraint for h in pen_result.history[1:]) / source_scale

    ok = al_cons < 1e-3 and pen_cons >= 1e-3 and elapsed + pen_elapsed < 300.0
    verdict(8, "running multiplier drives the constraint below fixed-penalty reach", ok,
            f"AL best rel constraint {al_cons:.2e} (<1e-3), penalty best {pen_cons:.2e} "
            f"(>=1e-3), {elapsed + pen_elapsed:.0f} s (<300 s)")


def test_criterion_09_benchmark_accuracy_and_frozen_log(benchmark_run):
    config, data, result, elapsed, _ = benchmark_run
    err = result.history[-1].model_error
    rows, meta = read_log(os.path.join(DATA_DIR, "benchmark_log.csv"))
    same = len(rows) == len(result.history) and meta.get("scheme") == config.scheme
    worst = 0.0
    if same:
        for got, ref in zip(result.history, rows):
            g, r = got.as_row(), ref.as_row()
            same = same and g[0] == r[0]
            for field in range(1, 6):  # seconds (field 6) is excluded
                worst = max(worst, abs(g[field] - r[field]) / max(abs(r[field]), 1.0))
    ok = err <= 0.05 and len(result.history) <= 51 and same and worst <= 1e-8
    verdict(9, "benchmark model error and frozen-log replay", ok,
            f"model error {err:.3f} (<=0.05), {len(result.history) - 1} iterations, "
            f"log drift {worst:.2e} (tol 1e-8, seconds excluded)")


def test_criterion_10_selfcheck_battery_and_fault_injection():
    started = time.monotonic()
    clean = run_battery()
    elapsed = time.monotonic() - started
    clean_ok = all(r.passed for r in clean)

    faulted = run_battery(frozenset({"perturb-adjoint"}))
    failed = [r.name for r in faulted if not r.passed]
    fault_ok = failed == ["adjoint-dot-test"]

    ok = clean_ok and fault_ok and elapsed <= 120.0
    verdict(10, "selfcheck battery clean and fault injection caught", ok,
            f"{len(clean)} checks in {elapsed:.1f} s (<=120 s), injected fault tripped "
            f"{failed or 'nothing'}")
