"""Production saddle solvers against the dense 2N x 2N reference."""

import numpy as np
import pytest

from lagfwi.grids import (
    AcquisitionGeometry,
    GridSpec,
    SourceField,
    TraceData,
    build_model,
)
from lagfwi.oracle import (
    assemble_dense_operator,
    dense_multiplier_data_space,
    dense_multiplier_source_space,
    dense_saddle_solve,
)
from lagfwi.saddle import (
    HessianCache,
    PenaltyConfig,
    _cg,
    assemble_data_space_hessian,
    companion_wavefield,
    damped_trace_multiplier,
    solve_augmented_wavefield,
    solve_ls_multiplier,
)
from lagfwi.wavecore import forward_solve, sample

from conftest import random_model, random_source


@pytest.fixture
def setup():
    spec = GridSpec(ndim=1, nx=11, nz=1, dx=10.0, dz=10.0, nt=16, dt=0.003)
    rng = np.random.default_rng(41)
    m = random_model(spec, rng)
    geom = AcquisitionGeometry(source_nodes=(5,), receiver_nodes=(2, 8))
    b = random_source(spec, rng)
    d = TraceData(spec, geom, rng.standard_normal((2, spec.nt)))
    return spec, m, geom, b, d, rng


@pytest.mark.parametrize("mu", [1.0, 1e2, 1e4])
def test_wavefield_orientation_matches_dense(setup, mu):
    spec, m, geom, b, d, _ = setup
    cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
    u, info = solve_augmented_wavefield(m, b, d, cfg)
    assert info.converged
    u_ref, _ = dense_saddle_solve(m, b, d, mu)
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-8 * max(
        np.abs(u_ref.values).max(), 1.0
    )


def test_cg_breakdown_reports_completed_iterations():
    """On an operator that is not positive definite CG stops at the first
    non-positive curvature and reports the steps it actually took."""
    rhs = np.ones(2)
    _, info = _cg(lambda x: -x, rhs, np.zeros(2), 1e-10, 50)
    assert not info.converged and info.iterations == 0
    # diag(3, -1): one step with p.Ap = 2 > 0, then p.Ap = -24
    _, info = _cg(lambda x: np.array([3.0, -1.0]) * x, rhs, np.zeros(2), 1e-10, 50)
    assert not info.converged and info.iterations == 1


@pytest.mark.parametrize("mu", [1.0, 1e2, 1e4])
def test_multiplier_orientation_matches_dense(setup, mu):
    spec, m, geom, b, d, _ = setup
    cfg = PenaltyConfig(mu=mu)
    v = solve_ls_multiplier(m, b, d, cfg)
    _, v_ref = dense_saddle_solve(m, b, d, mu)
    assert np.max(np.abs(v.values - v_ref.values)) <= 1e-8 * max(
        np.abs(v_ref.values).max(), 1.0
    )


@pytest.mark.parametrize("mu", [1.0, 1e3])
def test_al_mode_matches_shifted_dense(setup, mu):
    spec, m, geom, b, d, rng = setup
    w = random_source(spec, rng)
    cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
    v = solve_ls_multiplier(m, b, d, cfg, w=w)
    u, info = solve_augmented_wavefield(m, b, d, cfg, w=w)
    u_ref, v_ref = dense_saddle_solve(m, b, d, mu, w=w)
    scale = max(np.abs(v_ref.values).max(), np.abs(u_ref.values).max(), 1.0)
    assert np.max(np.abs(v.values - v_ref.values)) <= 1e-8 * scale
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-8 * scale


def test_companion_wavefield_satisfies_first_block_row(setup):
    spec, m, geom, b, d, _ = setup
    cfg = PenaltyConfig(mu=25.0)
    v = solve_ls_multiplier(m, b, d, cfg)
    u = companion_wavefield(m, b, v, cfg)
    from lagfwi.wavecore import apply_wave_operator

    resid = apply_wave_operator(m, u).values - v.values / cfg.mu - b.values
    assert np.max(np.abs(resid)) < 1e-9 * max(np.abs(v.values).max(), 1.0)


def test_guttman_identity_at_spec_size():
    """Source-space and data-space eliminations agree on the 7 x 8 grid with
    two receivers, to 1e-10."""
    spec = GridSpec(ndim=1, nx=7, nz=1, dx=10.0, dz=10.0, nt=8, dt=0.003)
    rng = np.random.default_rng(13)
    m = random_model(spec, rng)
    geom = AcquisitionGeometry(source_nodes=(3,), receiver_nodes=(1, 5))
    b = random_source(spec, rng)
    d = TraceData(spec, geom, rng.standard_normal((2, spec.nt)))
    for mu in (1.0, 317.0):
        v_src = dense_multiplier_source_space(m, b, d, mu)
        v_dat = dense_multiplier_data_space(m, b, d, mu)
        scale = max(np.abs(v_src.values).max(), 1.0)
        assert np.max(np.abs(v_src.values - v_dat.values)) <= 1e-10 * scale


def test_hessian_matches_dense_and_is_spd(setup):
    spec, m, geom, b, d, _ = setup
    hess = assemble_data_space_hessian(m, geom)
    a = assemble_dense_operator(m).matrix
    from lagfwi.oracle import dense_sampling_operator

    p = dense_sampling_operator(spec, geom)
    ref = p @ np.linalg.solve(a, np.linalg.solve(a.T, p.T))
    assert np.max(np.abs(hess.matrix - ref)) < 1e-8 * np.abs(ref).max()
    eigs = np.linalg.eigvalsh(hess.matrix)
    assert eigs.min() > 0


def test_cache_reuses_hessian_and_factors(setup):
    spec, m, geom, b, d, _ = setup
    cache = HessianCache()
    h1 = cache.hessian(m, geom)
    h2 = cache.hessian(m, geom)
    assert h1 is h2
    f1 = cache.shifted_factor(m, geom, 10.0)
    f2 = cache.shifted_factor(m, geom, 10.0)
    assert f1 is f2
    # a different damping factorizes separately but reuses the Hessian
    f3 = cache.shifted_factor(m, geom, 20.0)
    assert f3 is not f1
    assert cache.hessian(m, geom) is h1


def test_cache_new_model_replaces_entry(setup):
    spec, m, geom, *_ = setup
    rng = np.random.default_rng(5)
    cache = HessianCache()
    models = [random_model(spec, rng) for _ in range(3)]
    first = cache.hessian(models[0], geom)
    cache.hessian(models[1], geom)
    cache.hessian(models[2], geom)  # each new model replaces the entry
    assert cache.hessian(models[0], geom) is not first


def test_damped_multiplier_defining_equation(setup):
    """lam = A^-T P^T y with (H + mu I) y = rhs, checked densely."""
    spec, m, geom, b, d, _ = setup
    rng = np.random.default_rng(99)
    rhs = rng.standard_normal((2, spec.nt))
    mu = 7.0
    lam = damped_trace_multiplier(m, geom, rhs, mu)
    hess = assemble_data_space_hessian(m, geom)
    y = np.linalg.solve(hess.matrix + mu * np.eye(hess.n), rhs.ravel())
    a = assemble_dense_operator(m).matrix
    from lagfwi.oracle import dense_sampling_operator

    p = dense_sampling_operator(spec, geom)
    ref = np.linalg.solve(a.T, p.T @ y).reshape(spec.shape)
    assert np.max(np.abs(lam.values - ref)) < 1e-8 * max(np.abs(ref).max(), 1.0)


def test_consistent_data_gives_zero_multiplier(setup):
    spec, m, geom, b, _, _ = setup
    u_true = forward_solve(m, b)
    d = sample(u_true, geom)
    for mu in (1.0, 1e3):
        cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
        v = solve_ls_multiplier(m, b, d, cfg)
        assert np.abs(v.values).max() < 1e-8 * max(np.abs(u_true.values).max(), 1.0)
        u, _ = solve_augmented_wavefield(m, b, d, cfg)
        assert np.max(np.abs(u.values - u_true.values)) < 1e-8 * np.abs(u_true.values).max()


def test_large_mu_recovers_constraint_solution(setup):
    """As mu grows the relaxed wavefield approaches A^-1 b monotonically."""
    spec, m, geom, b, d, _ = setup
    u0 = forward_solve(m, b).values
    gaps = []
    for mu in (1.0, 1e2, 1e4, 1e6):
        u, _ = dense_saddle_solve(m, b, d, mu)
        gaps.append(np.linalg.norm(u.values - u0))
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_penalty_config_validation():
    cfg = PenaltyConfig(mu=4.0)
    assert cfg.step_length == pytest.approx(0.25)
    assert PenaltyConfig(mu=4.0, alpha=2.0).step_length == 2.0
    with pytest.raises(ValueError):
        PenaltyConfig(mu=0.0)
    with pytest.raises(ValueError):
        PenaltyConfig(mu=1.0, alpha=-1.0)
    with pytest.raises(ValueError):
        PenaltyConfig(mu=1.0, cg_tol=2.0)
    with pytest.raises(ValueError):
        PenaltyConfig(mu=1.0, cg_maxiter=0)
