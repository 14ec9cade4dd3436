"""Scheme algebra: equivalences, fixed points, invariants, and the driver.

Equivalence tests run two schemes side by side for five iterations and
compare every model iterate; the claimed identities are exact up to solver
tolerance, so the 1e-8 bound is generous (measured agreement is ~1e-14 on
these grids).
"""

import numpy as np
import pytest

from lagfwi.config import (
    ExperimentConfig,
    ModelDescriptor,
    StopRules,
    make_observed_data,
    true_model_grid,
)
from lagfwi.errors import ConfigurationError
from lagfwi.grids import (
    AcquisitionGeometry,
    GridSpec,
    ModelGrid,
    SourceField,
    build_model,
)
from lagfwi.oracle import quadratic_model_minimizer
from lagfwi.saddle import HessianCache, PenaltyConfig, solve_augmented_wavefield
from lagfwi.wavecore import (
    apply_wave_operator,
    correlation_terms,
    forward_solve,
    operator_time_curvature,
    sample,
)
from lagfwi.iterations import (
    DIAGNOSTIC_FIELDS,
    SCHEMES,
    initial_state,
    run_inversion,
    step_scheme,
)


def tiny_problem(seed=108, n_sources=2):
    rng = np.random.default_rng(seed)
    spec = GridSpec(ndim=1, nx=9, nz=1, dx=10.0, dz=10.0, nt=12, dt=0.002)
    geom = AcquisitionGeometry((4,), (2, 6))
    velocity = 2000.0 + 80.0 * np.clip(rng.standard_normal(spec.n_space), -1.5, 1.5)
    m_true = build_model(spec, velocity)
    m0 = build_model(spec, np.full(spec.n_space, 2000.0))
    sources = []
    for node in (3, 5)[:n_sources]:
        values = np.zeros(spec.shape)
        values[node, 2:] = rng.standard_normal(spec.nt - 2)
        sources.append(SourceField(spec, values))
    data = [sample(forward_solve(m_true, b), geom) for b in sources]
    return spec, geom, m_true, m0, sources, data


def iterate(scheme, m0, sources, data, cfg, n, update_mode="sum-terms"):
    state = initial_state(m0, sources)
    cache = HessianCache()
    out = []
    for _ in range(n):
        state = step_scheme(scheme, state, sources, data, cfg, cache=cache,
                            update_mode=update_mode)
        out.append(state)
    return out


def rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def born_config(scheme, mu, max_iter, misfit_tol=1e-12, velocity=2010.0):
    """Weak single scatterer watched by a full receiver line."""
    spec = GridSpec(ndim=1, nx=21, nz=1, dx=10.0, dz=10.0, nt=80, dt=0.0028)
    return ExperimentConfig(
        grid=spec,
        true_model=ModelDescriptor(
            kind="box-anomaly", velocity=2000.0, boxes=((10, 11, 0, 1, velocity),)
        ),
        initial_model=ModelDescriptor(kind="uniform", velocity=2000.0),
        source_nodes=(3,),
        receiver_nodes=tuple(range(1, 20)),
        wavelet_frequency=10.0,
        scheme=scheme,
        penalty=PenaltyConfig(mu=mu),
        stop=StopRules(max_iter=max_iter, misfit_tol=misfit_tol),
    )


# ---------------------------------------------------------------- fixed points


def test_all_schemes_fix_the_true_model():
    spec, geom, m_true, m0, sources, data = tiny_problem()
    cfg = PenaltyConfig(mu=50.0, cg_tol=1e-13)
    cache = HessianCache()
    state = initial_state(m_true, sources)
    for scheme in SCHEMES:
        stepped = step_scheme(scheme, state, sources, data, cfg, cache=cache)
        assert rel(stepped.model.values, m_true.values) <= 1e-10, scheme


# ---------------------------------------------------------------- equivalences


@pytest.mark.parametrize(
    "scheme_a,scheme_b",
    [
        ("split-gs", "penalty-multiplier"),
        ("wri-scaled", "penalty-multiplier"),
        ("penalty-wavefield", "penalty-multiplier"),
        ("al-wavefield", "al-multiplier"),
        ("refined-direct", "refined-rearranged"),
        ("refined-rearranged", "refined-epsilon"),
        ("refined-epsilon", "al-multiplier"),
    ],
)
def test_scheme_pairs_agree_for_five_iterations(scheme_a, scheme_b):
    spec, geom, m_true, m0, sources, data = tiny_problem()
    cfg = PenaltyConfig(mu=50.0, cg_tol=1e-13)
    ha = iterate(scheme_a, m0, sources, data, cfg, 5)
    hb = iterate(scheme_b, m0, sources, data, cfg, 5)
    for a, b in zip(ha, hb):
        assert rel(a.model.values, b.model.values) <= 1e-8


def test_scaled_and_unscaled_multipliers_track_each_other():
    """The accumulated constraint error eps and the scaled multiplier lam of
    the refined iteration are w/mu and v/mu of the augmented-Lagrangian one,
    per source and per iterate."""
    spec, geom, m_true, m0, sources, data = tiny_problem()
    mu = 50.0
    cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
    href = iterate("refined-epsilon", m0, sources, data, cfg, 5)
    hal = iterate("al-multiplier", m0, sources, data, cfg, 5)
    for sa, sb in zip(href, hal):
        for eps, w in zip(sa.scatter_errors, sb.running_multipliers):
            assert rel(eps.values, w.values / mu) <= 1e-12 or np.abs(w.values).max() == 0
        for lam, v in zip(sa.scatter_sources, sb.multipliers):
            assert rel(lam.values, v.values / mu) <= 1e-12


def test_penalty_wavefield_matches_alternation_oracle():
    """penalty-wavefield must reproduce exact alternating minimization:
    relaxed wavefield solve, then the per-node parabola-vertex model step."""
    spec, geom, m_true, m0, sources, data = tiny_problem(109)
    mu = 50.0
    cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
    state = initial_state(m0, sources[:1])
    m_ref = m0
    for _ in range(4):
        state = step_scheme("penalty-wavefield", state, sources[:1], data[:1], cfg)
        u_ref, _ = solve_augmented_wavefield(m_ref, sources[0], data[0], cfg)
        m_ref = ModelGrid(spec, quadratic_model_minimizer(u_ref, sources[0], m_ref, mu=mu))
        assert rel(state.model.values, m_ref.values) <= 1e-8


def test_al_wavefield_matches_admm_oracle():
    """al-wavefield is ADMM: shifted wavefield solve, exact model argmin with
    the linear multiplier term, then the running multiplier update at the
    new model."""
    spec, geom, m_true, m0, sources, data = tiny_problem(109)
    mu = 50.0
    cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
    state = initial_state(m0, sources[:1])
    m_ref = m0
    w_ref = SourceField(spec, np.zeros(spec.shape))
    for _ in range(4):
        state = step_scheme("al-wavefield", state, sources[:1], data[:1], cfg)
        u_ref, _ = solve_augmented_wavefield(m_ref, sources[0], data[0], cfg, w=w_ref)
        m_ref = ModelGrid(
            spec, quadratic_model_minimizer(u_ref, sources[0], m_ref, mu=mu, w=w_ref)
        )
        resid = apply_wave_operator(m_ref, u_ref).values - sources[0].values
        w_ref = SourceField(spec, w_ref.values + mu * resid)
        assert rel(state.model.values, m_ref.values) <= 1e-8
        assert rel(state.running_multipliers[0].values, w_ref.values) <= 1e-8


def test_split_gn_approaches_fwi_for_large_damping():
    """The damped trace back-projection tends to the plain adjoint as mu
    grows, so split-gn at damping mu approaches fwi at step 1/mu."""
    spec, geom, m_true, m0, sources, data = tiny_problem()
    gaps = []
    for mu in (1e6, 1e8):
        cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
        m_split = iterate("split-gn", m0, sources, data, cfg, 1)[0].model.values
        m_fwi = iterate("fwi", m0, sources, data, cfg, 1)[0].model.values
        gaps.append(np.linalg.norm(m_split - m_fwi) / np.linalg.norm(m_fwi - m0.values))
    assert gaps[1] < 0.02 * gaps[0]


def test_larger_damping_shrinks_the_multiplier():
    spec, geom, m_true, m0, sources, data = tiny_problem()
    norms = []
    for mu in (1.0, 1e2, 1e4):
        cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
        state = iterate("split-gn", m0, sources, data, cfg, 1)[0]
        norms.append(max(lam.norm() for lam in state.scatter_sources))
    assert norms[0] > norms[1] > norms[2]


# ------------------------------------------------------------- physics checks


def test_gauss_newton_localizes_a_weak_scatterer():
    config = born_config("gauss-newton", mu=1e-4, max_iter=1)
    data = make_observed_data(config)
    m_true = true_model_grid(config)
    result = run_inversion(config, data, true_model=m_true)
    update = result.model.values - build_model(config.grid, 2000.0).values
    assert int(np.argmax(np.abs(update))) == 10
    err0 = result.history[0].model_error
    assert result.history[-1].model_error < 0.2 * err0


def test_split_gs_multiplier_concentrates_at_the_scatterer():
    config = born_config("split-gs", mu=1e2, max_iter=3)
    data = make_observed_data(config)
    result = run_inversion(config, data, true_model=true_model_grid(config))
    lam = result.state.scatter_sources[0].values
    energy = np.sum(lam**2, axis=1)
    assert int(np.argmax(energy)) == 10


def test_gauss_seidel_converges_with_lagged_linearization():
    """The lagged variant pays one linear solve per iteration instead of a
    fresh kernel assembly and still solves the 5% scatterer."""
    cfg_gn = born_config("gauss-newton", mu=1e-4, max_iter=5, velocity=2100.0)
    cfg_gs = born_config("gauss-seidel", mu=1e-4, max_iter=5, velocity=2100.0)
    data = make_observed_data(cfg_gn)
    m_true = true_model_grid(cfg_gn)
    r_gn = run_inversion(cfg_gn, data, true_model=m_true)
    r_gs = run_inversion(cfg_gs, data, true_model=m_true)
    err0 = r_gn.history[0].model_error
    assert r_gn.history[-1].model_error < 1e-3 * err0
    assert r_gs.history[-1].model_error < 1e-2 * err0
    assert r_gs.status == "misfit_tol"


# ---------------------------------------------------------- structural claims


def structure_residual(state):
    """How much of the multiplier survives removing its per-node projection
    onto the wavefield curvature profile."""
    pairs = list(zip(state.multipliers, state.wavefields))
    if not any(v.values.any() for v, _ in pairs):
        pairs = list(zip(state.scatter_sources, state.wavefields))
    num = np.zeros(state.model.spec.n_space)
    den = np.zeros(state.model.spec.n_space)
    for v, u in pairs:
        n_, d_ = correlation_terms(v, u)
        num += n_
        den += d_
    worst = 0.0
    for v, u in pairs:
        ddu = operator_time_curvature(u)
        c = np.divide(num, den, out=np.zeros_like(num), where=den > 1e-10 * den.max())
        worst = max(
            worst,
            np.linalg.norm(v.values - c[:, None] * ddu) / np.linalg.norm(v.values),
        )
    return worst


@pytest.mark.parametrize("mu", [10.0, 100.0])
def test_converged_multiplier_has_scattering_structure(mu):
    """A run that stops because the data are explained ends with a multiplier
    that is, node by node, close to a model perturbation acting through the
    wavefield curvature: v ~ -dm * ddu."""
    config = born_config("penalty-multiplier", mu=mu, max_iter=40, misfit_tol=1e-8)
    data = make_observed_data(config)
    result = run_inversion(config, data, true_model=true_model_grid(config))
    assert result.status == "misfit_tol"
    assert structure_residual(result.state) <= 0.1


@pytest.mark.parametrize("scheme", ["al-multiplier", "al-wavefield"])
@pytest.mark.parametrize("mu", [1e3, 1e4])
def test_al_constraint_decays_after_warmup(scheme, mu):
    """With a complete receiver line the augmented-Lagrangian constraint
    violation never increases once the first three iterations are past."""
    config = born_config(scheme, mu=mu, max_iter=15)
    data = make_observed_data(config)
    result = run_inversion(config, data, true_model=true_model_grid(config))
    cons = [h.constraint for h in result.history]
    assert all(cons[i + 1] <= cons[i] for i in range(3, len(cons) - 1))
    assert cons[-1] < cons[3]


# ---------------------------------------------------------------- the driver


def test_history_rows_are_sequential_and_named():
    config = born_config("fwi", mu=1e4, max_iter=4)
    data = make_observed_data(config)
    result = run_inversion(config, data, true_model=true_model_grid(config))
    assert DIAGNOSTIC_FIELDS == (
        "iter",
        "misfit",
        "constraint",
        "model_error",
        "v_norm",
        "w_norm",
        "seconds",
    )
    assert [h.iteration for h in result.history] == list(range(len(result.history)))
    row = result.history[-1].as_row()
    assert len(row) == 7 and row[0] == result.history[-1].iteration


def test_driver_is_deterministic():
    config = born_config("al-multiplier", mu=1e3, max_iter=6)
    data = make_observed_data(config)
    r1 = run_inversion(config, data, true_model=true_model_grid(config))
    r2 = run_inversion(config, data, true_model=true_model_grid(config))
    assert np.array_equal(r1.model.values, r2.model.values)
    for a, b in zip(r1.history, r2.history):
        assert a.as_row()[:6] == b.as_row()[:6]  # seconds may differ


def test_zero_iteration_budget_reports_initial_row():
    config = born_config("fwi", mu=1e4, max_iter=0)
    data = make_observed_data(config)
    result = run_inversion(config, data)
    assert result.status == "max_iter"
    assert len(result.history) == 1
    assert result.history[0].iteration == 0
    assert np.array_equal(
        result.model.values, build_model(config.grid, 2000.0).values
    )


def test_identical_start_stops_immediately():
    config = born_config("al-multiplier", mu=1e3, max_iter=10, velocity=2000.0)
    data = make_observed_data(config)
    result = run_inversion(config, data)
    assert result.status == "misfit_tol"
    assert len(result.history) == 1
    assert result.history[0].misfit == 0.0


@pytest.mark.parametrize(
    "velocity,max_iter,alpha",
    [
        (2010.0, 10, 1e3),  # the update makes the model non-positive
        (2200.0, 3, 1e-5),  # the update leaves the CFL bound
    ],
    ids=["non-positive", "cfl"],
)
def test_divergent_step_aborts_with_last_state(velocity, max_iter, alpha):
    config = born_config("fwi", mu=1e4, max_iter=max_iter, velocity=velocity)
    object.__setattr__(config, "penalty", PenaltyConfig(mu=1e4, alpha=alpha))
    data = make_observed_data(config)
    result = run_inversion(config, data)
    assert result.status == "diverged"
    assert len(result.history) >= 1
    assert np.all(np.isfinite(result.model.values))


def test_driver_solves_each_model_once(monkeypatch):
    """Two fwi iterations visit three models, and each model's forward field
    is solved once: the steps and the stopping rule share it."""
    calls = []

    def counting(m, b):
        calls.append(m)
        return forward_solve(m, b)

    monkeypatch.setattr("lagfwi.iterations.forward_solve", counting)
    config = born_config("fwi", mu=1e4, max_iter=2)
    result = run_inversion(config, make_observed_data(config))
    assert result.status == "max_iter" and len(result.history) == 3
    assert len(calls) == 3


def test_unknown_scheme_and_update_mode_are_rejected():
    spec, geom, m_true, m0, sources, data = tiny_problem()
    cfg = PenaltyConfig(mu=10.0)
    with pytest.raises(ConfigurationError):
        step_scheme("downhill", initial_state(m0, sources), sources, data, cfg)
    config = born_config("fwi", mu=1e4, max_iter=2)
    object.__setattr__(config, "scheme", "downhill")
    with pytest.raises(ConfigurationError):
        run_inversion(config, make_observed_data(born_config("fwi", 1e4, 2)))


def test_data_geometry_mismatch_is_rejected():
    config = born_config("fwi", mu=1e4, max_iter=2)
    other = born_config("fwi", mu=1e4, max_iter=2)
    object.__setattr__(other, "receiver_nodes", (1, 2, 3))
    wrong = make_observed_data(other)
    with pytest.raises(ConfigurationError):
        run_inversion(config, wrong)


def test_update_modes_coincide_for_one_source_and_split_for_two():
    spec, geom, m_true, m0, sources, data = tiny_problem()
    cfg = PenaltyConfig(mu=50.0, alpha=1e-6, cg_tol=1e-13)
    one_t = iterate("fwi", m0, sources[:1], data[:1], cfg, 2, "sum-terms")
    one_u = iterate("fwi", m0, sources[:1], data[:1], cfg, 2, "sum-updates")
    assert np.array_equal(one_t[-1].model.values, one_u[-1].model.values)
    two_t = iterate("fwi", m0, sources, data, cfg, 2, "sum-terms")
    two_u = iterate("fwi", m0, sources, data, cfg, 2, "sum-updates")
    assert not np.array_equal(two_t[-1].model.values, two_u[-1].model.values)


def test_penalty_continuation_tightens_the_constraint():
    fixed = born_config("penalty-multiplier", mu=1e2, max_iter=8)
    grown = born_config("penalty-multiplier", mu=1e2, max_iter=8)
    object.__setattr__(grown, "mu_growth", 4.0)
    data = make_observed_data(fixed)
    r_fixed = run_inversion(fixed, data)
    r_grown = run_inversion(grown, data)
    assert r_grown.history[-1].constraint < r_fixed.history[-1].constraint
