"""Scheme algebra: equivalences, fixed points, invariants, and the driver.

Equivalence tests run two schemes side by side for five iterations and
compare every model iterate; the claimed identities are exact up to solver
tolerance, so the 1e-8 bound is generous (measured agreement is ~1e-14 on
these grids).
"""

import tracemalloc
from dataclasses import fields, replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfwi.config import (
    ExperimentConfig,
    ModelDescriptor,
    StopRules,
    build_model_values,
    build_sources,
    make_observed_data,
    true_model_grid,
)
from lagfwi.errors import ConfigurationError, SingularSystemError, SolverNotConvergedError
from lagfwi.fileio import DIAGNOSTIC_FIELDS
from lagfwi.grids import (
    AcquisitionGeometry,
    GridSpec,
    ModelGrid,
    SourceField,
    TraceData,
    Wavefield,
    build_model,
)
from lagfwi import iterations, saddle, wavecore
from lagfwi.oracle import SIZE_GUARD, assemble_born_kernel, quadratic_model_minimizer
from lagfwi.saddle import PenaltyConfig, solve_saddle
from lagfwi.wavecore import (
    _BLOCK,
    apply_wave_operator,
    correlation_terms,
    forward_solves,
    forward_traces,
    operator_time_curvature,
    sample,
)
from lagfwi.iterations import (
    _diagnostics,
    SCHEMES,
    IterationState,
    initial_state,
    run_inversion,
    step_scheme,
    with_forward_fields,
)

from conftest import al_shifts, forward_residuals, random_model


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
    data = [sample(forward_solves(m_true, [b])[0], geom) for b in sources]
    return spec, geom, m_true, m0, sources, data


def advance(scheme, state, sources, data, cfg):
    """One step as run_inversion takes it: (carry with its forward fields at
    the new model, us, vs)."""
    carry, us, vs = step_scheme(scheme, state, sources, data, cfg)
    return with_forward_fields(carry, sources), us, vs


def iterate(scheme, m0, sources, data, cfg, n):
    """The first n steps from initial_state, each as advance returns it."""
    out = []
    state = initial_state(m0, sources)
    for _ in range(n):
        out.append(advance(scheme, state, sources, data, cfg))
        state = out[-1][0]
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
    state = initial_state(m_true, sources)
    for scheme in SCHEMES:
        stepped, _, _ = step_scheme(scheme, state, sources, data, cfg)
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
    for (a, _, _), (b, _, _) in zip(ha, hb):
        assert rel(a.model.values, b.model.values) <= 1e-8


# ---------------------------------------------------------------- batched steps


def source_slice(state, j):
    """The state of source j alone: every per-source slot cut to its entry."""
    slots = {f.name: getattr(state, f.name)[j:j + 1] for f in fields(IterationState)
             if isinstance(getattr(state, f.name), tuple)}
    return replace(state, **slots)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_solves_each_source_as_if_alone(scheme):
    """Each source's solve outputs in a step of two sources are, byte for
    byte, those of a step given that source alone.  The step starts one
    iteration in, so dm, lam and the memories are nonzero, and a field
    paired with another source's inputs would show."""
    spec, geom, m_true, m0, sources, data = tiny_problem()
    if scheme.startswith("gauss-"):
        cfg = PenaltyConfig(mu=1e14)  # Born damping that keeps both steps' models positive
    else:
        cfg = PenaltyConfig(mu=50.0, alpha=1e-6 if scheme == "fwi" else None, cg_tol=1e-13)
    state, _, _ = advance(scheme, initial_state(m0, sources), sources, data, cfg)
    batch = step_scheme(scheme, state, sources, data, cfg)
    for j in range(len(sources)):
        alone = step_scheme(scheme, source_slice(state, j), sources[j:j + 1], data[j:j + 1], cfg)
        for slot, name in ((1, "us"), (2, "vs")):
            if batch[slot] is None:
                assert alone[slot] is None
                continue
            got = alone[slot][0].values.tobytes()
            assert got == batch[slot][j].values.tobytes(), (name, j)


# the per-source slots of each scheme's carry besides forward_fields: what
# its next step reads
CARRIED = {
    "fwi": (),
    "penalty-wavefield": (),
    "penalty-multiplier": (),
    "wri-scaled": (),
    "al-wavefield": ("memory",),
    "al-multiplier": ("memory",),
    "gauss-newton": (),
    "gauss-seidel": ("wavefields",),
    "split-gn": (),
    "split-gs": (),
    "refined-direct": ("wavefields", "scatter_sources"),
    "refined-rearranged": ("wavefields", "scatter_sources"),
    "refined-epsilon": ("memory",),
}


def _per_source_slots(state) -> set:
    return {f.name for f in fields(IterationState) if isinstance(getattr(state, f.name), tuple)}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_carry_holds_only_what_the_next_step_reads(scheme):
    """A step's carry holds the slots of CARRIED and no forward fields, and
    the next step reads each of them: without it, that step's model moves."""
    spec, geom, m_true, m0, sources, data = tiny_problem()
    if scheme.startswith("gauss-"):
        cfg = PenaltyConfig(mu=1e14)
    else:
        cfg = PenaltyConfig(mu=50.0, alpha=1e-6 if scheme == "fwi" else None, cg_tol=1e-13)
    assert _per_source_slots(initial_state(m0, sources)) == {"forward_fields"}
    state, _, _ = advance(scheme, initial_state(m0, sources), sources, data, cfg)
    assert _per_source_slots(state) == {"forward_fields", *CARRIED[scheme]}
    carry, _, _ = step_scheme(scheme, state, sources, data, cfg)
    assert _per_source_slots(carry) == set(CARRIED[scheme])
    for slot in CARRIED[scheme]:
        dropped, _, _ = step_scheme(scheme, replace(state, **{slot: None}), sources, data, cfg)
        assert not np.array_equal(dropped.model.values, carry.model.values), slot


def test_fwi_run_holds_two_fields_per_shot():
    """Two fwi steps on a 2D grid with three shots peak, by tracemalloc,
    under two fields per shot (the forward and the adjoint fields in a
    step, the old and the new forward fields in its sweep) plus one field
    of slack for the sweeps' working blocks and finiteness checks."""
    config = ExperimentConfig(
        grid=GridSpec(ndim=2, nx=25, nz=25, dx=10.0, dz=10.0, nt=300, dt=0.0028),
        true_model=ModelDescriptor(kind="box-anomaly", velocity=2000.0,
                                   boxes=((10, 14, 10, 16, 2200.0),)),
        initial_model=ModelDescriptor(kind="uniform", velocity=2000.0),
        source_nodes=(54, 62, 70),
        receiver_nodes=tuple(range(26, 49, 3)),
        scheme="fwi",
        penalty=PenaltyConfig(mu=100.0, alpha=1e-6),
        stop=StopRules(max_iter=2),
    )
    data = make_observed_data(config)
    tracemalloc.start()
    try:
        result = run_inversion(config, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status == "max_iter" and len(result.history) == 3
    field = config.grid.n_space * config.grid.nt * 8
    assert peak <= (2 * len(config.source_nodes) + 1) * field


# (forward sweeps, their columns, data_space_multipliers calls) of the first
# step of each dense extended-source row and of gauss-seidel on tiny_problem
# (two sources, two receivers, nine nodes), with the sweep of the new
# model's forward fields: H's assembly sweeps one column per receiver; a
# shift, the refresh and the new model's forward fields one column per
# source each; the Born kernel one column per source and node.  The
# residuals d - P A^-1 b come from the forward fields the state holds, so no
# row sweeps b for them, and initial_state holds no history, so the AL rows
# and the refined ones sweep no shift, and gauss-seidel linearizes about the
# forward fields without re-solving them.
DENSE_ROW_WORK = {
    "penalty-multiplier": (3, 6, 1),
    "al-multiplier": (3, 6, 1),
    "wri-scaled": (3, 6, 1),
    "split-gs": (3, 6, 1),
    "split-gn": (2, 4, 1),
    "refined-direct": (3, 6, 1),
    "refined-rearranged": (3, 6, 1),
    "refined-epsilon": (3, 6, 1),
    "gauss-seidel": (2, 20, 0),
}


@pytest.mark.parametrize("scheme", DENSE_ROW_WORK)
def test_dense_rows_sweep_only_their_shifts(monkeypatch, scheme):
    """The first step of each dense extended-source row makes the forward
    sweeps and the one multiplier solve of DENSE_ROW_WORK: an unshifted row,
    or one whose history is unwritten, makes no residual sweep, and split-gn
    no refresh; gauss-seidel (at damping 1e16) sweeps only its Born
    kernel's kicks and the new forward fields."""
    spec, geom, m_true, m0, sources, data = tiny_problem()
    state = initial_state(m0, sources)
    sweeps, solves = [], []
    forward_sweep = wavecore._forward_sweep
    multipliers = saddle.data_space_multipliers

    def counting_sweep(spec, m_values, rhs, out=None):
        sweeps.append(len(rhs))
        return forward_sweep(spec, m_values, rhs, out)

    def counting_multipliers(*args, **kwargs):
        solves.append(args)
        return multipliers(*args, **kwargs)

    for module in (wavecore, saddle):  # each holds the sweep by name
        monkeypatch.setattr(module, "_forward_sweep", counting_sweep)
    for module in (saddle, iterations):
        monkeypatch.setattr(module, "data_space_multipliers", counting_multipliers)
    cfg = PenaltyConfig(mu=1e16 if scheme == "gauss-seidel" else 50.0)
    advance(scheme, state, sources, data, cfg)
    assert (len(sweeps), sum(sweeps), len(solves)) == DENSE_ROW_WORK[scheme]


# the first steps from initial_state that give byte-equal models, us and vs:
# every row whose history is unwritten runs its unshifted solve
FIRST_STEP_GROUPS = (
    ("refined-direct", "refined-rearranged", "refined-epsilon", "wri-scaled", "split-gs"),
    ("al-multiplier", "penalty-multiplier"),
    ("al-wavefield", "penalty-wavefield"),
)


@pytest.mark.parametrize("group", FIRST_STEP_GROUPS, ids=lambda group: group[0])
def test_first_steps_are_the_unshifted_solves_bitwise(group):
    spec, geom, m_true, m0, sources, data = tiny_problem()
    cfg = PenaltyConfig(mu=50.0, cg_tol=1e-13)
    state = initial_state(m0, sources)
    steps = []
    for scheme in group:
        carry, us, vs = step_scheme(scheme, state, sources, data, cfg)
        steps.append([carry.model.values.tobytes(), *(f.values.tobytes() for f in us + vs)])
    for scheme, step in zip(group[1:], steps[1:]):
        assert step == steps[0], scheme


def _step_or_error(scheme, state, sources, data, cfg):
    """(carry with its new forward fields, us, vs) of one step, or the type
    of the error it raised."""
    try:
        return advance(scheme, state, sources, data, cfg)
    except Exception as exc:  # compared across source forms, never swallowed
        return type(exc)


def _state_bytes(state, *step_fields) -> list:
    """Every slot of a state, then each of step_fields (a step's us and vs):
    its fields' bytes, the iteration count, or None."""
    out = []
    for value in [getattr(state, slot.name) for slot in fields(IterationState)] + list(step_fields):
        if isinstance(value, tuple):
            out.append(tuple(f.values.tobytes() for f in value))
        elif value is None or isinstance(value, int):
            out.append(value)
        else:
            out.append(value.values.tobytes())
    return out


@settings(max_examples=20, deadline=None)
@given(
    ndim=st.sampled_from([1, 2]),
    nx=st.integers(min_value=5, max_value=9),
    nz=st.integers(min_value=3, max_value=4),
    nt=st.integers(min_value=8, max_value=24),
    n_sources=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_point_sources_step_as_their_dense_fields_bitwise(ndim, nx, nz, nt, n_sources, seed):
    """One step of every scheme gives bitwise the same carry, us and vs with
    point sources as one-node TraceData as with the same sources as dense
    SourceFields (or the same error), on random 1D/2D grids with 1-3
    sources, from a state with a nonzero model increment whose memories w
    and eps and multiplier lam hold +0.0 and -0.0 among small values."""
    gen = np.random.default_rng(seed)
    spec = GridSpec(ndim=ndim, nx=nx, nz=nz if ndim == 2 else 1, dx=10.0, dz=10.0, nt=nt,
                    dt=0.002)
    m_prev, m0, m_true = (random_model(spec, gen) for _ in range(3))
    nodes = gen.integers(0, spec.n_space, n_sources).tolist()
    points = [TraceData(spec, AcquisitionGeometry((node,), (node,)), gen.standard_normal((1, nt)))
              for node in nodes]
    dense = []
    for node, b in zip(nodes, points):
        values = np.zeros(spec.shape)
        values[node] = b.values[0]
        dense.append(SourceField(spec, values))
    rec = tuple(sorted({0, spec.n_space - 1, *gen.integers(0, spec.n_space, 2).tolist()}))
    data = list(forward_traces(m_true, points, AcquisitionGeometry((0,), rec)))

    def signed_zeros():
        values = 1e-3 * gen.standard_normal(spec.shape)
        values[gen.random(spec.shape) < 0.4] = 0.0
        values[gen.random(spec.shape) < 0.3] = -0.0
        return SourceField(spec, values)

    u0 = forward_solves(m0, points)
    assert _state_bytes(initial_state(m0, points)) == _state_bytes(initial_state(m0, dense))
    mems = tuple(signed_zeros() for _ in points)
    state = IterationState(
        m0, m_prev, u0, wavefields=u0, memory=mems,
        scatter_sources=tuple(signed_zeros() for _ in points), iteration=1)
    for scheme in SCHEMES:
        if scheme.startswith("gauss-"):
            cfg = PenaltyConfig(mu=1e14)
        else:
            cfg = PenaltyConfig(mu=50.0, alpha=1e-6 if scheme == "fwi" else None, cg_tol=1e-13)
        got, want = (_step_or_error(scheme, state, sources, data, cfg)
                     for sources in (points, dense))
        if isinstance(want, type):
            assert got is want, scheme
        else:
            assert _state_bytes(*got) == _state_bytes(*want), scheme


# fwi back-propagates each source's residuals on its own receivers; every
# other scheme samples one batched sweep at shared receivers: H, the
# lock-step CG or the Born kernel's kicks
SHARED_RECEIVER_SCHEMES = [s for s in SCHEMES if s != "fwi"]


@pytest.mark.parametrize("scheme", SHARED_RECEIVER_SCHEMES)
def test_step_needs_shared_receivers(scheme):
    spec, geom, m_true, m0, sources, data = tiny_problem()
    other = AcquisitionGeometry(geom.source_nodes, (2, 7))
    data = [data[0], TraceData(spec, other, data[1].values)]
    with pytest.raises(ValueError, match="share their receivers"):
        step_scheme(scheme, initial_state(m0, sources), sources, data, PenaltyConfig(mu=50.0))


def test_scaled_and_unscaled_multipliers_track_each_other():
    """The accumulated constraint error eps and the scaled multiplier lam of
    the refined iteration are w/mu and v/mu of the augmented-Lagrangian one,
    per source and per iterate."""
    spec, geom, m_true, m0, sources, data = tiny_problem()
    mu = 50.0
    cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
    href = iterate("refined-epsilon", m0, sources, data, cfg, 5)
    hal = iterate("al-multiplier", m0, sources, data, cfg, 5)
    for (sa, _, lams), (sb, _, vs) in zip(href, hal):
        for eps, w in zip(sa.memory, sb.memory):
            assert rel(eps.values, w.values / mu) <= 1e-12 or np.abs(w.values).max() == 0
        for lam, v in zip(lams, vs):
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
        state, _, _ = advance("penalty-wavefield", state, sources[:1], data[:1], cfg)
        residuals = forward_residuals(m_ref, sources[:1], data[:1])
        [u_ref], _ = solve_saddle(m_ref, sources[:1], residuals, cfg, matrix_free=True)
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
        state, _, _ = advance("al-wavefield", state, sources[:1], data[:1], cfg)
        residuals = forward_residuals(m_ref, sources[:1], data[:1])
        [u_ref], _ = solve_saddle(m_ref, sources[:1], residuals, cfg, al_shifts([w_ref], mu),
                                  matrix_free=True)
        m_ref = ModelGrid(
            spec, quadratic_model_minimizer(u_ref, sources[0], m_ref, mu=mu, w=w_ref)
        )
        resid = apply_wave_operator(m_ref, u_ref).values - sources[0].values
        w_ref = SourceField(spec, w_ref.values + mu * resid)
        assert rel(state.model.values, m_ref.values) <= 1e-8
        assert rel(state.memory[0].values, w_ref.values) <= 1e-8


def test_split_gn_approaches_fwi_for_large_damping():
    """The damped trace back-projection tends to the plain adjoint as mu
    grows, so split-gn at damping mu approaches fwi at step 1/mu."""
    spec, geom, m_true, m0, sources, data = tiny_problem()
    gaps = []
    for mu in (1e6, 1e8):
        cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
        m_split = iterate("split-gn", m0, sources, data, cfg, 1)[0][0].model.values
        m_fwi = iterate("fwi", m0, sources, data, cfg, 1)[0][0].model.values
        gaps.append(np.linalg.norm(m_split - m_fwi) / np.linalg.norm(m_fwi - m0.values))
    assert gaps[1] < 0.02 * gaps[0]


def test_larger_damping_shrinks_the_multiplier():
    spec, geom, m_true, m0, sources, data = tiny_problem()
    norms = []
    for mu in (1.0, 1e2, 1e4):
        cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
        _, _, lams = iterate("split-gn", m0, sources, data, cfg, 1)[0]
        norms.append(max(np.linalg.norm(lam.values) for lam in lams))
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


@settings(max_examples=20, deadline=None)
@given(
    ndim=st.sampled_from([1, 2]),
    nx=st.integers(min_value=3, max_value=8),
    nz=st.integers(min_value=3, max_value=5),
    nt=st.integers(min_value=_BLOCK + 1, max_value=2 * _BLOCK + 3),
    k=st.integers(min_value=1, max_value=3),
    per_group=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_born_kernel_equals_the_oracle_bitwise(ndim, nx, nz, nt, k, per_group, seed):
    """The stacked Born kernel of k fields, one trace-out sweep of every
    node's kick in column groups of per_group kicks, is byte for byte the
    oracle's kernels stacked, C-ordered as they are, on fields that hold
    +0.0 and -0.0 among their values."""
    gen = np.random.default_rng(seed)
    spec = GridSpec(ndim=ndim, nx=nx, nz=nz if ndim == 2 else 1, dx=10.0, dz=10.0, nt=nt,
                    dt=0.002)
    m = random_model(spec, gen)
    rec = tuple(sorted({0, spec.n_space - 1, *gen.integers(0, spec.n_space, 2).tolist()}))
    geom = AcquisitionGeometry((0,), rec)
    us = []
    for _ in range(k):
        values = gen.standard_normal(spec.shape)
        values[gen.random(spec.shape) < 0.3] = 0.0
        values[gen.random(spec.shape) < 0.2] = -0.0
        us.append(Wavefield(spec, values))
    with patch.object(wavecore, "_GROUP_BYTES", per_group * 8 * spec.n_space):
        kernel = iterations._born_kernel(m, us, geom)
    want = np.vstack([assemble_born_kernel(m, u, geom) for u in us])
    assert kernel.flags.c_contiguous and kernel.shape == want.shape
    assert kernel.tobytes() == want.tobytes()


def test_damped_ls_solve_matches_normal_equations(rng):
    """(K^T K + delta I) x = K^T r, and a factorization that fails (here of
    a shift past K^T K's spectrum) raises SingularSystemError."""
    k = rng.standard_normal((8, 5))
    r = rng.standard_normal(8)
    damping = 0.37
    x = iterations._damped_ls_solve(k, r, damping)
    expected = np.linalg.solve(k.T @ k + damping * np.eye(5), k.T @ r)
    assert np.allclose(x, expected, rtol=1e-12)
    with pytest.raises(SingularSystemError):
        iterations._damped_ls_solve(k, r, -2.0 * np.linalg.norm(k) ** 2)


def test_gauss_newton_runs_past_the_oracle_size_guard():
    """The Born kernel comes from the production sweep, so a gauss-newton
    step on a grid with more space-time unknowns than the dense references
    accept runs, and localizes born_config's scatterer on a longer line."""
    config = replace(born_config("gauss-newton", mu=1e-4, max_iter=1),
                     grid=GridSpec(ndim=1, nx=101, nz=1, dx=10.0, dz=10.0, nt=256, dt=0.0028),
                     receiver_nodes=tuple(range(1, 100, 3)))
    assert config.grid.n_space * config.grid.nt > SIZE_GUARD
    result = run_inversion(config, make_observed_data(config), true_model=true_model_grid(config))
    assert result.status == "max_iter" and len(result.history) == 2
    update = result.model.values - build_model(config.grid, 2000.0).values
    assert int(np.argmax(np.abs(update))) == 10
    assert result.history[-1].model_error < result.history[0].model_error


def last_step(config, data):
    """run_inversion's result and its last step, (carry, us, vs), stepped
    again from the start: the run keeps only the carry."""
    result = run_inversion(config, data, true_model=true_model_grid(config))
    m0 = ModelGrid(config.grid, build_model_values(config.grid, config.initial_model))
    steps = iterate(config.scheme, m0, build_sources(config), data, config.penalty,
                    len(result.history) - 1)
    assert steps[-1][0].model.values.tobytes() == result.model.values.tobytes()
    return result, steps[-1]


def test_split_gs_multiplier_concentrates_at_the_scatterer():
    config = born_config("split-gs", mu=1e2, max_iter=3)
    data = make_observed_data(config)
    _, (_, _, lams) = last_step(config, data)
    lam = lams[0].values
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


def structure_residual(us, vs):
    """How much of a step's multiplier survives removing its per-node
    projection onto the wavefield curvature profile."""
    pairs = list(zip(vs, us))
    num = np.zeros(us[0].spec.n_space)
    den = np.zeros(us[0].spec.n_space)
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
    result, (_, us, vs) = last_step(config, data)
    assert result.status == "misfit_tol"
    assert structure_residual(us, vs) <= 0.1


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


@pytest.mark.parametrize("scheme", ["penalty-wavefield", "al-wavefield"])
def test_unconverged_wavefield_solve_raises(scheme):
    """A CG solve cut off before cg_tol never reaches the model update."""
    spec, geom, m_true, m0, sources, data = tiny_problem()
    cfg = PenaltyConfig(mu=50.0, cg_maxiter=1)
    with pytest.raises(SolverNotConvergedError, match=r"after 1 iterations at relative residual"):
        step_scheme(scheme, initial_state(m0, sources), sources, data, cfg)


def test_driver_solves_each_model_once(monkeypatch):
    """Two fwi iterations visit three models, and each model's forward fields
    are solved once, all sources in one batch: the steps and the stopping
    rule share them."""
    calls = []

    def counting(m, sources):
        calls.append(m)
        return forward_solves(m, sources)

    monkeypatch.setattr("lagfwi.iterations.forward_solves", counting)
    config = born_config("fwi", mu=1e4, max_iter=2)
    result = run_inversion(config, make_observed_data(config))
    assert result.status == "max_iter" and len(result.history) == 3
    assert len(calls) == 3 and len(set(map(id, calls))) == 3


def test_unknown_scheme_is_rejected():
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


def test_penalty_continuation_tightens_the_constraint():
    fixed = born_config("penalty-multiplier", mu=1e2, max_iter=8)
    grown = born_config("penalty-multiplier", mu=1e2, max_iter=8)
    object.__setattr__(grown, "mu_growth", 4.0)
    data = make_observed_data(fixed)
    r_fixed = run_inversion(fixed, data)
    r_grown = run_inversion(grown, data)
    assert r_grown.history[-1].constraint < r_fixed.history[-1].constraint


def _full_slot_state(seed=5):
    """A 2D state whose every slot holds random fields, two sources, and a
    step's random us and vs."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(ndim=2, nx=61, nz=61, dx=10.0, dz=10.0, nt=300, dt=0.002)
    geom = AcquisitionGeometry((100,), (70, 90, 110))
    m = build_model(spec, 2000.0 + 100.0 * rng.random(spec.n_space))

    def fields_of(cls):
        return tuple(cls(spec, rng.standard_normal(spec.shape)) for _ in range(2))

    state = IterationState(
        m, m, fields_of(Wavefield), wavefields=fields_of(Wavefield),
        memory=fields_of(SourceField), scatter_sources=fields_of(SourceField))
    us, vs = fields_of(Wavefield), fields_of(Wavefield)
    sources = fields_of(SourceField)
    data = [TraceData(spec, geom, rng.standard_normal((3, spec.nt))) for _ in range(2)]
    return state, us, vs, sources, data


def test_streamed_diagnostics_match_whole_array_sums():
    state, us, vs, sources, data = _full_slot_state()
    diag = _diagnostics(state, us, vs, sources, data, None, 0.0)
    m = state.model
    constraint = sum(np.sum((apply_wave_operator(m, u).values - b.values) ** 2)
                     for b, u in zip(sources, us))

    def norm_sq(*slots):
        return sum(np.sum(f.values**2) for slot in slots for f in slot)

    assert diag.constraint == pytest.approx(np.sqrt(constraint), rel=1e-13)
    assert diag.v_norm == pytest.approx(np.sqrt(norm_sq(vs)), rel=1e-13)
    assert diag.w_norm == pytest.approx(
        np.sqrt(norm_sq(state.memory)), rel=1e-13)


def test_diagnostics_peak_well_below_one_field():
    state, us, vs, sources, data = _full_slot_state()
    tracemalloc.start()
    try:
        _diagnostics(state, us, vs, sources, data, None, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * state.model.spec.n_space * state.model.spec.nt * 8
