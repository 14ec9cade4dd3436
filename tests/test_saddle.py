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
from lagfwi.errors import DivergenceError
from lagfwi.grids import (
    AcquisitionGeometry,
    GridSpec,
    ModelGrid,
    SourceField,
    TraceData,
    Wavefield,
    build_model,
)
from lagfwi.oracle import (
    assemble_dense_operator,
    dense_multiplier_data_space,
    dense_multiplier_source_space,
    dense_sampling_operator,
    dense_saddle_solve,
)
from lagfwi import saddle
from lagfwi.saddle import (
    NystromSketch,
    PenaltyConfig,
    _cg,
    _hessian_products,
    assemble_data_space_hessian,
    data_space_multipliers,
    nystrom_sketch,
    solve_saddle,
)
from lagfwi.wavecore import _adjoint_sweep, _forward_sweep, forward_solves, sample

from conftest import al_shifts, forward_residuals, random_model, random_source


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
    [u], _ = solve_saddle(m, [b], forward_residuals(m, [b], [d]), cfg, matrix_free=True)
    u_ref, _ = dense_saddle_solve(m, b, d, mu)
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-8 * max(
        np.abs(u_ref.values).max(), 1.0
    )


def test_wavefield_orientation_converges_on_benchmark():
    """At the benchmark's mu = 3e6 every source's preconditioned CG meets
    cg_tol = 1e-10 within 200 iterations (or the solve raises) and matches
    the dense backend's wavefield."""
    config = two_scatterer_benchmark()
    m = ModelGrid(config.grid, build_model_values(config.grid, config.initial_model))
    cfg = PenaltyConfig(mu=3e6, cg_maxiter=200)
    for b, d in zip(build_sources(config), make_observed_data(config)):
        residuals = forward_residuals(m, [b], [d])
        [u], _ = solve_saddle(m, [b], residuals, cfg, matrix_free=True)
        [u_ref], _ = solve_saddle(m, [b], residuals, cfg)
        assert np.max(np.abs(u.values - u_ref.values)) <= 1e-8 * np.abs(u_ref.values).max()


def test_cg_breakdown_reports_completed_iterations():
    """On an operator that is not positive definite CG stops at the first
    non-positive curvature and reports the steps it actually took."""
    rhs = np.ones(2)
    [(_, info)] = _cg(lambda xs: [-x for x in xs], [rhs], 1e-10, 50, lambda rs: rs)
    assert not info.converged and info.iterations == 0
    # diag(3, -1): one step with p.Ap = 2 > 0, then p.Ap = -24
    diag = np.array([3.0, -1.0])
    [(_, info)] = _cg(lambda xs: [diag * x for x in xs], [rhs], 1e-10, 50, lambda rs: rs)
    assert not info.converged and info.iterations == 1


def test_lock_step_cg_columns_finish_on_their_own():
    """Four columns share diag(1..8, -1): a zero rhs, one converging in one
    step, one breaking down after one step and one cut off at maxiter.
    Each column reports its own count and equals its own solve bitwise, and
    a finished column leaves the batch."""
    diag = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -1.0])
    e = np.eye(9)
    rhs = [
        np.zeros(9),
        2.0 * e[1],
        e[2] + e[8],   # p.Ap = 2, then -24
        np.r_[np.ones(8), 0.0],
    ]
    batch_sizes = []

    def apply_op(xs):
        batch_sizes.append(len(xs))
        return [diag * x for x in xs]

    results = _cg(apply_op, rhs, 1e-10, 3, lambda rs: rs)
    infos = [info for _, info in results]
    assert [(i.converged, i.iterations) for i in infos] == [
        (True, 0), (True, 1), (False, 1), (False, 3)]
    assert infos[0].relative_residual == 0.0
    assert infos[3].relative_residual > 1e-10
    assert batch_sizes == [3, 2, 1]
    for (x, info), b in zip(results, rhs):
        [(x_alone, info_alone)] = _cg(lambda xs: [diag * x for x in xs], [b], 1e-10, 3,
                                      lambda rs: rs)
        assert x.tobytes() == x_alone.tobytes() and info == info_alone


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


def test_nystrom_sketch_is_deterministic(setup, monkeypatch):
    """The sketch draws its test vectors from a fixed-seed local generator,
    so two sketches of one H are the same bytes, whatever the global
    random state.  Nor do its bytes depend on the batch budget of its H
    products, _SKETCH_BATCH_BYTES.  This grid's chunk is 16 vectors: the
    default sweeps it whole, one column per sweep takes 16 sweeps, three
    columns take five full batches and a partial one, and four columns
    split it into four equal batches, as the benchmark grid's 64-vector
    chunk is split into four of 16."""
    spec, m, geom, *_ = setup
    cfg = PenaltyConfig(mu=10.0)
    first = nystrom_sketch(m, geom, cfg)
    column = 8 * spec.n_space * spec.nt  # bytes of one swept field
    assert saddle._sketch_width(spec) >= geom.n_receivers * spec.nt // 2
    for budget in (saddle._SKETCH_BATCH_BYTES, column, 3 * column, 4 * column):
        monkeypatch.setattr(saddle, "_SKETCH_BATCH_BYTES", budget)
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
    for matrix_free in (True, False):
        with pytest.raises(ValueError, match="share their receivers"):
            solve_saddle(m, [b, b], [d, d2], PenaltyConfig(mu=1.0), matrix_free=matrix_free)


def test_non_finite_sampled_shift_raises_divergence(setup):
    """A shift whose sampled sweep overflows raises DivergenceError (from
    forward_traces), so a run ends diverged with its history written."""
    spec, m, geom, b, d, rng = setup
    huge = SourceField(spec, np.full(spec.shape, 1e308))
    for matrix_free in (True, False):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite"):
                solve_saddle(m, [b], [d], PenaltyConfig(mu=1.0), [huge], matrix_free)


@pytest.mark.parametrize("mu", [1.0, 1e2, 1e4])
def test_multiplier_orientation_matches_dense(setup, mu):
    spec, m, geom, b, d, _ = setup
    cfg = PenaltyConfig(mu=mu)
    _, [lam] = solve_saddle(m, [b], forward_residuals(m, [b], [d]), cfg)
    v = Wavefield(spec, mu * lam.values)
    _, v_ref = dense_saddle_solve(m, b, d, mu)
    assert np.max(np.abs(v.values - v_ref.values)) <= 1e-8 * max(
        np.abs(v_ref.values).max(), 1.0
    )


@pytest.mark.parametrize("mu", [1.0, 1e3])
def test_al_mode_matches_shifted_dense(setup, mu):
    spec, m, geom, b, d, rng = setup
    w = random_source(spec, rng)
    cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
    u_ref, v_ref = dense_saddle_solve(m, b, d, mu, w=w)
    scale = max(np.abs(v_ref.values).max(), np.abs(u_ref.values).max(), 1.0)
    for matrix_free in (True, False):
        [u], [lam] = solve_saddle(m, [b], forward_residuals(m, [b], [d]), cfg,
                                  al_shifts([w], mu), matrix_free=matrix_free)
        v = Wavefield(spec, mu * lam.values)
        assert np.max(np.abs(v.values - v_ref.values)) <= 1e-8 * scale
        assert np.max(np.abs(u.values - u_ref.values)) <= 1e-8 * scale


def test_companion_wavefield_satisfies_first_block_row(setup):
    """u = A^-1 (b + lam) and v = mu lam satisfy A u - v/mu = b on both
    backends."""
    spec, m, geom, b, d, _ = setup
    cfg = PenaltyConfig(mu=25.0, cg_tol=1e-13)
    from lagfwi.wavecore import apply_wave_operator

    for matrix_free in (True, False):
        [u], [lam] = solve_saddle(m, [b], forward_residuals(m, [b], [d]), cfg,
                                  matrix_free=matrix_free)
        v = Wavefield(spec, cfg.mu * lam.values)
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
    models and receiver sets (boundary nodes included), to 1e-11, and is
    C-contiguous and exactly symmetric."""
    m, geom = problem
    h = assemble_data_space_hessian(m, geom).matrix
    ref = _dense_hessian(m, geom)
    assert np.max(np.abs(h - ref)) <= 1e-11 * np.abs(ref).max()
    assert h.flags.c_contiguous
    assert np.array_equal(h, h.T)


def test_hessian_in_row_blocks_matches_dense(monkeypatch):
    """The B terms taken one z row of nodes at a time (each block's
    Laplacian reading its neighbour rows from F) give the dense oracle's H,
    and the one-block H to round-off."""
    spec = GridSpec(ndim=2, nx=5, nz=4, dx=10.0, dz=10.0, nt=10, dt=0.002)
    m = random_model(spec, np.random.default_rng(8), jitter=0.2)
    geom = AcquisitionGeometry(source_nodes=(0,), receiver_nodes=(0, 7, 19))
    one_block = assemble_data_space_hessian(m, geom).matrix
    monkeypatch.setattr(saddle, "_B_BLOCK_BYTES", 1)
    h = assemble_data_space_hessian(m, geom).matrix
    ref = _dense_hessian(m, geom)
    assert np.max(np.abs(h - ref)) <= 1e-11 * np.abs(ref).max()
    assert np.max(np.abs(h - one_block)) <= 1e-14 * np.abs(one_block).max()
    assert np.array_equal(h, h.T)


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
    """Both backends of the saddle solve, the preconditioned CG (which must
    converge) and the Cholesky solve, give the dense 2N x 2N saddle solve's
    u and v on random 1D/2D grids, receiver sets (boundary nodes included),
    mu in [1, 1e6] and with or without w."""
    m, b, d, mu, w = problem
    u_ref, v_ref = dense_saddle_solve(m, b, d, mu, w=w)
    for matrix_free in (True, False):
        [u], [lam] = solve_saddle(m, [b], forward_residuals(m, [b], [d]),
                                  PenaltyConfig(mu=mu, cg_tol=1e-13),
                                  None if w is None else al_shifts([w], mu),
                                  matrix_free=matrix_free)
        v = Wavefield(m.spec, mu * lam.values)
        assert np.max(np.abs(u.values - u_ref.values)) <= 1e-8 * max(
            np.abs(u_ref.values).max(), 1.0
        )
        assert np.max(np.abs(v.values - v_ref.values)) <= 1e-8 * max(
            np.abs(v_ref.values).max(), 1.0
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
    residuals = [TraceData(spec, geom, rng.standard_normal((geom.n_receivers, spec.nt)))
                 for _ in range(k)]
    # a residual d - P A^-1 b that the shift s = -w/mu itself explains (zero
    # without w): CG starts at the solution
    explained = np.zeros((geom.n_receivers, spec.nt))
    if with_w:
        explained = _forward_sweep(spec, m.values, [(-1.0 / mu) * ws[consistent].values])[0][
            list(geom.receiver_nodes)]
    residuals[consistent] = TraceData(spec, geom, explained)
    return m, sources, residuals, mu, ws, consistent


@settings(max_examples=30, deadline=None)
@given(problem=_batched_problems())
def test_batched_saddle_solves_equal_single_solves_bitwise(problem):
    """The saddle solve of 1-4 sources returns, column by column, the bytes
    of u and v of each source's own solve, on both backends (the lock-step
    CG and the multi-column Cholesky solve), on random 1D/2D grids, with and
    without w, including a column whose residual the shift itself explains,
    whose multiplier is exactly zero."""
    m, sources, residuals, mu, ws, consistent = problem
    cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
    shifts = al_shifts(ws, mu)
    for matrix_free in (True, False):
        us, lams = solve_saddle(m, sources, residuals, cfg, shifts, matrix_free)
        vs = [Wavefield(m.spec, mu * lam.values) for lam in lams]
        assert not vs[consistent].values.any()
        for j, (u, v) in enumerate(zip(us, vs)):
            [u_alone], [lam_alone] = solve_saddle(m, [sources[j]], [residuals[j]], cfg,
                                                  None if ws is None else [shifts[j]],
                                                  matrix_free)
            v_alone = Wavefield(m.spec, mu * lam_alone.values)
            assert u.values.tobytes() == u_alone.values.tobytes()
            assert v.values.tobytes() == v_alone.values.tobytes()


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
    batch = _cg(apply_op, rhs, 1e-13, 300, precondition)
    for b, (y, info) in zip(rhs, batch):
        [(y_alone, info_alone)] = _cg(apply_op, [b], 1e-13, 300, precondition)
        assert y.tobytes() == y_alone.tobytes() and info == info_alone


def _column_hessian(m, geom):
    """Reference H, one unit trace per column through an adjoint and a
    forward sweep, one receiver's columns per batch."""
    spec = m.spec
    rec = list(geom.receiver_nodes)
    blocks = []
    for node in rec:
        units = []
        for n in range(spec.nt):
            units.append(np.zeros(spec.shape))
            units[-1][node, n] = 1.0
        y = _forward_sweep(spec, m.values, _adjoint_sweep(spec, m.values, units))
        blocks.append(np.stack([col[rec] for col in y], axis=-1).reshape(-1, spec.nt))
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


def test_dense_path_holds_one_hessian_sized_array():
    """A dense multiplier solve on the benchmark geometry (assembling H,
    factoring H + mu I in H's own buffer, the Cholesky solve and the
    adjoint sweep) peaks at one n x n array plus F and the B terms,
    (n, n_space) and (n, 2 n_space), and 1 MiB of sweep and mirror
    scratch: no shifted copy of H, and no n x n product temporary."""
    config = two_scatterer_benchmark()
    m = ModelGrid(config.grid, build_model_values(config.grid, config.initial_model))
    geom = build_acquisition(config)
    n = geom.n_receivers * config.grid.nt
    green_bytes = 3 * n * config.grid.n_space * 8  # F and [B0 | B1]
    traces = make_observed_data(config)[0].values
    tracemalloc.start()
    try:
        data_space_multipliers(m, geom, [traces], config.penalty)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= n * n * 8 + green_bytes + (1 << 20)


def test_damped_multiplier_defining_equation(setup):
    """lam = A^-T P^T y with (H + mu I) y = rhs, checked densely, on both
    backends."""
    spec, m, geom, b, d, _ = setup
    rng = np.random.default_rng(99)
    rhs = rng.standard_normal((2, spec.nt))
    mu = 7.0
    hess = assemble_data_space_hessian(m, geom)
    y = np.linalg.solve(hess.matrix + mu * np.eye(len(hess.matrix)), rhs.ravel())
    a = assemble_dense_operator(m).matrix
    p = dense_sampling_operator(spec, geom)
    ref = np.linalg.solve(a.T, p.T @ y).reshape(spec.shape)
    for matrix_free in (True, False):
        [lam] = data_space_multipliers(m, geom, [rhs], PenaltyConfig(mu=mu, cg_tol=1e-13),
                                       matrix_free=matrix_free)
        assert np.max(np.abs(lam.values - ref)) < 1e-8 * max(np.abs(ref).max(), 1.0)


def test_consistent_data_gives_zero_multiplier(setup):
    spec, m, geom, b, _, _ = setup
    (u_true,) = forward_solves(m, [b])
    d = sample(u_true, geom)
    for mu in (1.0, 1e3):
        cfg = PenaltyConfig(mu=mu, cg_tol=1e-13)
        for matrix_free in (True, False):
            [u], [lam] = solve_saddle(m, [b], forward_residuals(m, [b], [d]), cfg,
                                      matrix_free=matrix_free)
            v = Wavefield(spec, mu * lam.values)
            assert np.abs(v.values).max() < 1e-8 * max(np.abs(u_true.values).max(), 1.0)
            assert np.max(np.abs(u.values - u_true.values)) < 1e-8 * np.abs(u_true.values).max()


def test_large_mu_recovers_constraint_solution(setup):
    """As mu grows the relaxed wavefield approaches A^-1 b monotonically."""
    spec, m, geom, b, d, _ = setup
    u0 = forward_solves(m, [b])[0].values
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
