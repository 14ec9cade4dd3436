"""Production saddle solvers against the dense 2N x 2N reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagfwi.config import (
    build_acquisition,
    build_model_values,
    build_sources,
    make_observed_data,
    two_scatterer_benchmark,
)
from lagfwi.grids import (
    AcquisitionGeometry,
    GridSpec,
    ModelGrid,
    SourceField,
    TraceData,
    build_model,
)
from lagfwi.oracle import (
    assemble_dense_operator,
    dense_multiplier_data_space,
    dense_multiplier_source_space,
    dense_sampling_operator,
    dense_saddle_solve,
)
from lagfwi.saddle import (
    HessianCache,
    NystromSketch,
    PenaltyConfig,
    _cg,
    _hessian_products,
    assemble_data_space_hessian,
    companion_wavefields,
    damped_trace_multipliers,
    nystrom_sketch,
    solve_augmented_wavefields,
    solve_ls_multipliers,
)
from lagfwi.wavecore import _adjoint_sweep, _forward_sweep, forward_solve, sample

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
    [(u, info)] = solve_augmented_wavefields(m, [b], [d], cfg)
    assert info.converged
    u_ref, _ = dense_saddle_solve(m, b, d, mu)
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-8 * max(
        np.abs(u_ref.values).max(), 1.0
    )


def test_wavefield_orientation_converges_on_benchmark():
    """At the benchmark's mu = 3e6 every source's preconditioned CG meets
    cg_tol = 1e-10 within 200 iterations and matches the multiplier
    orientation's companion wavefield."""
    config = two_scatterer_benchmark()
    m = ModelGrid(config.grid, build_model_values(config.grid, config.initial_model))
    cfg = PenaltyConfig(mu=3e6, cg_maxiter=200)
    cache = HessianCache()
    for b, d in zip(build_sources(config), make_observed_data(config)):
        [(u, info)] = solve_augmented_wavefields(m, [b], [d], cfg)
        assert info.converged and info.relative_residual <= cfg.cg_tol
        [u_ref] = companion_wavefields(m, [b], solve_ls_multipliers(m, [b], [d], cfg, cache=cache),
                                       cfg)
        assert np.max(np.abs(u.values - u_ref.values)) <= 1e-8 * np.abs(u_ref.values).max()


def test_cg_breakdown_reports_completed_iterations():
    """On an operator that is not positive definite CG stops at the first
    non-positive curvature and reports the steps it actually took."""
    rhs = np.ones(2)
    [(_, info)] = _cg(lambda xs: [-x for x in xs], [rhs], [np.zeros(2)], 1e-10, 50)
    assert not info.converged and info.iterations == 0
    # diag(3, -1): one step with p.Ap = 2 > 0, then p.Ap = -24
    diag = np.array([3.0, -1.0])
    [(_, info)] = _cg(lambda xs: [diag * x for x in xs], [rhs], [np.zeros(2)], 1e-10, 50)
    assert not info.converged and info.iterations == 1


def test_lock_step_cg_columns_finish_on_their_own():
    """Five columns share diag(1..8, -1): a zero rhs, one exact at x0, one
    converging in one step, one breaking down after one step and one cut
    off at maxiter.  Each column reports its own count and equals its own
    solve bitwise, and a finished column leaves the batch."""
    diag = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -1.0])
    e = np.eye(9)
    cases = [  # (rhs, x0)
        (np.zeros(9), np.zeros(9)),
        (4.0 * e[3], e[3]),
        (2.0 * e[1], np.zeros(9)),
        (e[2] + e[8], np.zeros(9)),   # p.Ap = 2, then -24
        (np.r_[np.ones(8), 0.0], np.zeros(9)),
    ]
    batch_sizes = []

    def apply_op(xs):
        batch_sizes.append(len(xs))
        return [diag * x for x in xs]

    rhs, x0 = [b for b, _ in cases], [x for _, x in cases]
    results = _cg(apply_op, rhs, x0, 1e-10, 3)
    infos = [info for _, info in results]
    assert [(i.converged, i.iterations) for i in infos] == [
        (True, 0), (True, 0), (True, 1), (False, 1), (False, 3)]
    assert infos[0].relative_residual == infos[1].relative_residual == 0.0
    assert infos[4].relative_residual > 1e-10
    assert batch_sizes == [4, 3, 2, 1]
    for (x, info), b, start in zip(results, rhs, x0):
        [(x_alone, info_alone)] = _cg(lambda xs: [diag * x for x in xs], [b], [start], 1e-10, 3)
        assert x.tobytes() == x_alone.tobytes() and info == info_alone


def test_cg_identity_preconditioner_returns_unpreconditioned_bytes():
    """M = I passed as a preconditioner does exactly the unpreconditioned
    operations: every column's iterate and SolveInfo are the same bytes,
    on SPD systems solved in lock step, through the periodic residual
    refresh, and on the mixed batch of the lock-step test (zero rhs, exact
    x0, breakdown, maxiter).  A zero start (x0 None) equals x0 = 0."""
    rng = np.random.default_rng(7)
    q = rng.standard_normal((40, 40))
    spd = q @ q.T + 1e-2 * np.eye(40)
    rhs = [rng.standard_normal(40) for _ in range(3)] + [np.zeros(40)]
    x0 = [rng.standard_normal(40) for _ in range(4)]
    diag = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -1.0])
    e = np.eye(9)
    cases = [
        (lambda xs: [spd @ x for x in xs], rhs, x0, 120),
        (lambda xs: [spd @ x for x in xs], rhs, [np.zeros(40)] * 4, 120),
        (lambda xs: [diag * x for x in xs],
         [np.zeros(9), 4.0 * e[3], 2.0 * e[1], e[2] + e[8], np.r_[np.ones(8), 0.0]],
         [np.zeros(9), e[3], np.zeros(9), np.zeros(9), np.zeros(9)], 3),
    ]
    for apply_op, b, start, maxiter in cases:
        plain = _cg(apply_op, b, start, 1e-12, maxiter)
        identity = _cg(apply_op, b, start, 1e-12, maxiter, lambda rs: rs)
        for (x, info), (x_id, info_id) in zip(plain, identity):
            assert x.tobytes() == x_id.tobytes() and info == info_id
    zero_start = _cg(cases[1][0], rhs, None, 1e-12, 120)
    for (x, info), (x_zero, info_zero) in zip(_cg(cases[1][0], rhs, cases[1][2], 1e-12, 120),
                                              zero_start):
        assert x.tobytes() == x_zero.tobytes() and info == info_zero


@pytest.mark.parametrize("mu", [1e2, 1e4])
def test_nystrom_preconditioned_spectrum(mu):
    """On the oracle's dense H, the Nystrom preconditioner P = U^T L U + mu I
    puts the spectrum of P^-1 (H + mu I) in [1, 1 + lambda_{k+1}(H)/mu]
    when U and L are H's exact top k eigenpairs, and the randomized sketch,
    which satisfies U^T L U <= H, puts it in [1, 1 + ||H - U^T L U||/mu],
    whose top is never below 1 + lambda_{k+1}(H)/mu; all up to round-off."""
    spec = GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=24, dt=0.002)
    m = random_model(spec, np.random.default_rng(3))
    geom = AcquisitionGeometry(source_nodes=(7,), receiver_nodes=(2, 7, 12))
    h = _dense_hessian(m, geom)
    n = len(h)
    lam, vec = np.linalg.eigh(h)  # ascending

    def spectrum(sketch):
        precondition = sketch.preconditioner(mu)
        shifted = h + mu * np.eye(n)
        pinv = np.column_stack(precondition(list(np.eye(n))))
        return np.sort(np.linalg.eigvals(pinv @ shifted).real)

    for k in (1, 10, n // 2):
        exact = NystromSketch(np.ascontiguousarray(vec[:, n - k:].T), lam[n - k:])
        eigs = spectrum(exact)
        assert eigs[0] >= 1.0 - 1e-10 and eigs[-1] <= 1.0 + lam[n - k - 1] / mu + 1e-8 * eigs[-1]
        assert eigs[-1] >= 1.0 + lam[n - k - 1] / mu - 1e-8 * eigs[-1]
    sketch = nystrom_sketch(m, geom, PenaltyConfig(mu=mu))
    k = sketch.rank
    approx = sketch.basis.T @ np.diag(sketch.eigenvalues) @ sketch.basis
    gap = np.linalg.eigvalsh(h - approx)
    assert gap[0] >= -1e-10 * lam[-1]  # U^T L U <= H
    eigs = spectrum(sketch)
    assert eigs[0] >= 1.0 - 1e-8
    assert eigs[-1] <= 1.0 + gap[-1] / mu + 1e-8 * eigs[-1]
    assert eigs[-1] >= 1.0 + lam[n - k - 1] / mu - 1e-8 * eigs[-1]


def test_nystrom_sketch_is_deterministic(setup):
    """The sketch draws its test vectors from a fixed-seed local generator,
    so two sketches of one H are the same bytes, whatever the global
    random state."""
    spec, m, geom, *_ = setup
    cfg = PenaltyConfig(mu=10.0)
    first = nystrom_sketch(m, geom, cfg)
    np.random.seed(123)
    np.random.standard_normal(17)
    second = nystrom_sketch(m, geom, cfg)
    assert first.basis.tobytes() == second.basis.tobytes()
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert 1 <= first.rank <= geom.n_receivers * spec.nt // 2


def test_nystrom_sketch_memory_follows_its_rank():
    """The sketch holds Y = Omega (H + nu I) one chunk of rows at a time, so
    its traced peak follows the rank it reaches, not the cap of n/2 rows: at
    n = 40000 a sketch that stops at one chunk of 64 rows peaks below three
    64 x n arrays, where Y reserved at the cap would be 6.4 GB."""
    spec = GridSpec(ndim=1, nx=202, nz=1, dx=10.0, dz=10.0, nt=200, dt=0.002)
    m = build_model(spec, np.full(spec.n_space, 2000.0))
    geom = AcquisitionGeometry(source_nodes=(0,), receiver_nodes=tuple(range(1, 201)))
    n = geom.n_receivers * spec.nt
    tracemalloc.start()
    try:
        sketch = nystrom_sketch(m, geom, PenaltyConfig(mu=1e12))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 1 <= sketch.rank <= 64
    assert peak <= 3 * 64 * n * 8


def test_batched_wavefield_solve_needs_shared_receivers(setup):
    spec, m, geom, b, d, rng = setup
    other = AcquisitionGeometry(source_nodes=(5,), receiver_nodes=(3, 8))
    d2 = TraceData(spec, other, rng.standard_normal((2, spec.nt)))
    with pytest.raises(ValueError, match="share their receivers"):
        solve_augmented_wavefields(m, [b, b], [d, d2], PenaltyConfig(mu=1.0))


@pytest.mark.parametrize("mu", [1.0, 1e2, 1e4])
def test_multiplier_orientation_matches_dense(setup, mu):
    spec, m, geom, b, d, _ = setup
    cfg = PenaltyConfig(mu=mu)
    [v] = solve_ls_multipliers(m, [b], [d], cfg)
    _, v_ref = dense_saddle_solve(m, b, d, mu)
    assert np.max(np.abs(v.values - v_ref.values)) <= 1e-8 * max(
        np.abs(v_ref.values).max(), 1.0
    )


@pytest.mark.parametrize("mu", [1.0, 1e3])
def test_al_mode_matches_shifted_dense(setup, mu):
    spec, m, geom, b, d, rng = setup
    w = random_source(spec, rng)
    cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
    [v] = solve_ls_multipliers(m, [b], [d], cfg, [w])
    [(u, info)] = solve_augmented_wavefields(m, [b], [d], cfg, [w])
    u_ref, v_ref = dense_saddle_solve(m, b, d, mu, w=w)
    scale = max(np.abs(v_ref.values).max(), np.abs(u_ref.values).max(), 1.0)
    assert np.max(np.abs(v.values - v_ref.values)) <= 1e-8 * scale
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-8 * scale


def test_companion_wavefield_satisfies_first_block_row(setup):
    spec, m, geom, b, d, _ = setup
    cfg = PenaltyConfig(mu=25.0)
    [v] = solve_ls_multipliers(m, [b], [d], cfg)
    [u] = companion_wavefields(m, [b], [v], cfg)
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


def _dense_hessian(m, geom):
    a = assemble_dense_operator(m).matrix
    p = dense_sampling_operator(m.spec, geom)
    return p @ np.linalg.solve(a, np.linalg.solve(a.T, p.T))


def test_hessian_matches_dense_and_is_spd(setup):
    spec, m, geom, b, d, _ = setup
    hess = assemble_data_space_hessian(m, geom)
    ref = _dense_hessian(m, geom)
    assert np.max(np.abs(hess.matrix - ref)) < 1e-8 * np.abs(ref).max()
    eigs = np.linalg.eigvalsh(hess.matrix)
    assert eigs.min() > 0


@st.composite
def _hessian_problems(draw):
    ndim = draw(st.sampled_from([1, 2]))
    nx = draw(st.integers(min_value=3, max_value=12 if ndim == 1 else 6))
    nz = 1 if ndim == 1 else draw(st.integers(min_value=3, max_value=6))
    nt = draw(st.integers(min_value=3, max_value=16))
    spec = GridSpec(ndim=ndim, nx=nx, nz=nz, dx=10.0, dz=10.0, nt=nt, dt=0.002)
    last = spec.n_space - 1
    node = st.one_of(st.just(0), st.just(last), st.integers(min_value=0, max_value=last))
    receivers = draw(st.lists(node, min_size=1, max_size=3, unique=True))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    m = random_model(spec, np.random.default_rng(seed), jitter=0.2)  # CFL <= 0.68
    return m, AcquisitionGeometry(source_nodes=(0,), receiver_nodes=tuple(receivers))


@settings(max_examples=30, deadline=None)
@given(problem=_hessian_problems())
def test_hessian_matches_dense_property(problem):
    """Green's-function assembly equals P A^-1 A^-T P^T on random 1D/2D grids,
    models and receiver sets (boundary nodes included), to 1e-11."""
    m, geom = problem
    h = assemble_data_space_hessian(m, geom).matrix
    ref = _dense_hessian(m, geom)
    assert np.max(np.abs(h - ref)) <= 1e-11 * np.abs(ref).max()


@st.composite
def _saddle_problems(draw):
    m, geom = draw(_hessian_problems())
    mu = 10.0 ** draw(st.floats(min_value=0.0, max_value=6.0))
    with_w = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    spec = m.spec
    b = random_source(spec, rng)
    d = TraceData(spec, geom, rng.standard_normal((geom.n_receivers, spec.nt)))
    w = random_source(spec, rng) if with_w else None
    return m, b, d, mu, w


@settings(max_examples=30, deadline=None)
@given(problem=_saddle_problems())
def test_wavefield_orientation_matches_dense_property(problem):
    """The wave-equation-preconditioned CG converges and equals the dense
    2N x 2N saddle solve on random 1D/2D grids, receiver sets (boundary
    nodes included), mu in [1, 1e6] and with or without w."""
    m, b, d, mu, w = problem
    [(u, info)] = solve_augmented_wavefields(m, [b], [d], PenaltyConfig(mu=mu, cg_tol=1e-13),
                                             [w])
    assert info.converged
    u_ref, _ = dense_saddle_solve(m, b, d, mu, w=w)
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-8 * max(
        np.abs(u_ref.values).max(), 1.0
    )


@st.composite
def _batched_problems(draw):
    m, geom = draw(_hessian_problems())
    spec = m.spec
    k = draw(st.integers(min_value=1, max_value=4))
    mu = 10.0 ** draw(st.floats(min_value=0.0, max_value=6.0))
    with_w = draw(st.booleans())
    consistent = draw(st.integers(min_value=0, max_value=k - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    sources = [random_source(spec, rng) for _ in range(k)]
    ws = [random_source(spec, rng) for _ in range(k)] if with_w else None
    data = [TraceData(spec, geom, rng.standard_normal((geom.n_receivers, spec.nt)))
            for _ in range(k)]
    # data explained by b - w/mu itself: CG starts at the solution
    shift = sources[consistent].values
    if with_w:
        shift = shift - (1.0 / mu) * ws[consistent].values
    data[consistent] = TraceData(spec, geom, _forward_sweep(spec, m.values, shift)[
        list(geom.receiver_nodes)])
    return m, sources, data, mu, ws, consistent


@settings(max_examples=30, deadline=None)
@given(problem=_batched_problems())
def test_batched_saddle_solves_equal_single_solves_bitwise(problem):
    """The lock-step CG of 1-4 sources returns, column by column, the bytes
    and the SolveInfo of each source's own solve, on random 1D/2D grids,
    with and without w, including a column that converges at iteration 0.
    The batched multiplier orientation matches its single solves too."""
    m, sources, data, mu, ws, consistent = problem
    cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
    batch = solve_augmented_wavefields(m, sources, data, cfg, ws)
    assert batch[consistent][1].iterations == 0 and batch[consistent][1].converged
    cache = HessianCache()
    vs = solve_ls_multipliers(m, sources, data, cfg, ws, cache)
    companions = companion_wavefields(m, sources, vs, cfg, ws)
    for j, (u, info) in enumerate(batch):
        w = None if ws is None else ws[j]
        [(u_alone, info_alone)] = solve_augmented_wavefields(m, [sources[j]], [data[j]], cfg, [w])
        assert u.values.tobytes() == u_alone.values.tobytes()
        assert info == info_alone
        [v_alone] = solve_ls_multipliers(m, [sources[j]], [data[j]], cfg, [w], cache)
        assert vs[j].values.tobytes() == v_alone.values.tobytes()
        [u2_alone] = companion_wavefields(m, [sources[j]], [v_alone], cfg, [w])
        assert companions[j].values.tobytes() == u2_alone.values.tobytes()


def _data_space_operator(m, geom, mu):
    apply_h = _hessian_products(m.spec, m.values, list(geom.receiver_nodes))
    return lambda ys: [hy + mu * y for hy, y in zip(apply_h(ys), ys)]


@settings(max_examples=30, deadline=None)
@given(problem=_batched_problems())
def test_preconditioned_lock_step_columns_equal_single_solves_bitwise(problem):
    """PCG on (H + mu I) y = d with the Nystrom preconditioner, 1-4 columns
    in lock step, returns each column's bytes and SolveInfo as a solve of
    that column alone, on random 1D/2D grids and receiver sets."""
    m, sources, data, mu, ws, consistent = problem
    geom = data[0].geometry
    apply_op = _data_space_operator(m, geom, mu)
    precondition = nystrom_sketch(m, geom, PenaltyConfig(mu=mu, cg_tol=1e-13)).preconditioner(mu)
    rhs = [d.values.ravel() for d in data]
    batch = _cg(apply_op, rhs, None, 1e-13, 300, precondition)
    for b, (y, info) in zip(rhs, batch):
        [(y_alone, info_alone)] = _cg(apply_op, [b], None, 1e-13, 300, precondition)
        assert y.tobytes() == y_alone.tobytes() and info == info_alone


def _column_hessian(m, geom):
    """Reference H, one unit trace per column through an adjoint and a
    forward sweep, one receiver's columns per batch."""
    spec = m.spec
    rec = list(geom.receiver_nodes)
    blocks = []
    for node in rec:
        units = np.zeros((spec.n_space, spec.nt, spec.nt))
        units[node, range(spec.nt), range(spec.nt)] = 1.0
        y = _forward_sweep(spec, m.values, _adjoint_sweep(spec, m.values, units))
        blocks.append(y[rec].reshape(-1, spec.nt))
    return np.hstack(blocks)


@pytest.mark.parametrize("which", ["initial", "true"])
def test_hessian_matches_column_assembly_on_benchmark(which):
    config = two_scatterer_benchmark()
    desc = config.initial_model if which == "initial" else config.true_model
    m = ModelGrid(config.grid, build_model_values(config.grid, desc))
    geom = build_acquisition(config)
    h = assemble_data_space_hessian(m, geom).matrix
    ref = _column_hessian(m, geom)
    assert np.array_equal(h, h.T)
    assert np.max(np.abs(h - ref)) <= 1e-12 * np.abs(ref).max()


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
    [lam] = damped_trace_multipliers(m, geom, [rhs], mu)
    hess = assemble_data_space_hessian(m, geom)
    y = np.linalg.solve(hess.matrix + mu * np.eye(hess.n), rhs.ravel())
    a = assemble_dense_operator(m).matrix
    p = dense_sampling_operator(spec, geom)
    ref = np.linalg.solve(a.T, p.T @ y).reshape(spec.shape)
    assert np.max(np.abs(lam.values - ref)) < 1e-8 * max(np.abs(ref).max(), 1.0)


def test_consistent_data_gives_zero_multiplier(setup):
    spec, m, geom, b, _, _ = setup
    u_true = forward_solve(m, b)
    d = sample(u_true, geom)
    for mu in (1.0, 1e3):
        cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
        [v] = solve_ls_multipliers(m, [b], [d], cfg)
        assert np.abs(v.values).max() < 1e-8 * max(np.abs(u_true.values).max(), 1.0)
        [(u, _)] = solve_augmented_wavefields(m, [b], [d], cfg)
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
