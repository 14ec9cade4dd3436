"""Core operator checks.

The dense stencil table in ``literal_operator_matrix`` is written out
longhand from the scheme definition (identity rows at the two initial time
levels, then m/dt^2 second differences minus the lagged Laplacian) so the
vectorized implementation is compared against an independent construction,
not against itself.
"""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagfwi import wavecore
from lagfwi.errors import DivergenceError
from lagfwi.grids import (
    AcquisitionGeometry, GridSpec, ModelGrid, SourceField, TraceData, Wavefield, build_model,
)
from lagfwi.iterations import combined_model_update
from lagfwi.oracle import _reference_laplacian, _reference_sweep
from lagfwi.saddle import _hessian_products
from lagfwi.wavecore import (
    DENOMINATOR_FLOOR_REL,
    adjoint_solves,
    apply_wave_operator,
    apply_wave_operator_transpose,
    correlation_terms,
    forward_solves,
    forward_traces,
    operator_time_curvature,
    preconditioned_ratio,
    sample,
    scattering_source,
    updated_model,
    _BLOCK,
    _CHUNK_BYTES,
    _DenseStack,
    _TraceStack,
    _adjoint_sweep,
    _apply,
    _forward_sweep,
    _laplacian_into,
    _scales,
    add_source,
    residual_sum_of_squares,
    subtract_source,
    sum_of_squares,
)

from conftest import random_model, random_source, random_wavefield


def literal_operator_matrix(m: ModelGrid) -> np.ndarray:
    """Dense A(m) assembled entry by entry from the stencil definition.

    Space-time unknowns are ordered (node, time) -> node * nt + n with
    node = iz * nx + ix.  Out-of-grid Laplacian neighbours are zero
    (homogeneous Dirichlet ghosts).
    """
    spec = m.spec
    nx, nz, nt = spec.nx, spec.nz, spec.nt
    n_total = spec.n_space * nt
    A = np.zeros((n_total, n_total))

    def idx(node, n):
        return node * nt + n

    wx = 1.0 / spec.dx**2
    wz = 1.0 / spec.dz**2
    for iz in range(nz):
        for ix in range(nx):
            node = iz * nx + ix
            c = m.values[node] / spec.dt**2
            A[idx(node, 0), idx(node, 0)] = 1.0
            A[idx(node, 1), idx(node, 1)] = 1.0
            for n in range(2, nt):
                row = idx(node, n)
                A[row, idx(node, n)] += c
                A[row, idx(node, n - 1)] += -2.0 * c
                A[row, idx(node, n - 2)] += c
                # minus Laplacian at the lagged time level
                A[row, idx(node, n - 1)] += 2.0 * wx
                if ix > 0:
                    A[row, idx(node - 1, n - 1)] -= wx
                if ix < nx - 1:
                    A[row, idx(node + 1, n - 1)] -= wx
                if spec.ndim == 2:
                    A[row, idx(node, n - 1)] += 2.0 * wz
                    if iz > 0:
                        A[row, idx(node - nx, n - 1)] -= wz
                    if iz < nz - 1:
                        A[row, idx(node + nx, n - 1)] -= wz
    return A


@pytest.mark.parametrize("ndim", [1, 2])
def test_operator_matches_literal_stencil_table(ndim, rng):
    if ndim == 1:
        spec = GridSpec(ndim=1, nx=5, nz=1, dx=7.0, dz=7.0, nt=6, dt=0.002)
    else:
        spec = GridSpec(ndim=2, nx=4, nz=3, dx=7.0, dz=9.0, nt=5, dt=0.002)
    m = random_model(spec, rng)
    A = literal_operator_matrix(m)
    u = random_wavefield(spec, rng)
    got = apply_wave_operator(m, u).values.ravel()
    assert np.max(np.abs(got - A @ u.values.ravel())) < 1e-12 * max(1.0, np.abs(A).max())

    v = random_source(spec, rng)
    got_t = apply_wave_operator_transpose(m, v).values.ravel()
    assert np.max(np.abs(got_t - A.T @ v.values.ravel())) < 1e-12 * max(1.0, np.abs(A).max())


def test_manufactured_quadratic_in_time(spec1d, model1d):
    # u(x, t) = t^2 has exact discrete second difference 2 dt^2 / dt^2 = 2,
    # and zero Laplacian away from the boundary ghosts.
    t = spec1d.times()
    u = Wavefield(spec1d, np.tile(t**2, (spec1d.n_space, 1)))
    f = apply_wave_operator(model1d, u)
    interior = slice(1, spec1d.nx - 1)
    expected = 2.0 * model1d.values[interior]
    for n in range(2, spec1d.nt):
        assert np.allclose(f.values[interior, n], expected, rtol=1e-11)


def test_identity_rows_pass_through_initial_levels(spec1d, model1d, rng):
    u = random_wavefield(spec1d, rng)
    f = apply_wave_operator(model1d, u)
    assert np.array_equal(f.values[:, :2], u.values[:, :2])


def test_forward_solve_inverts_operator(spec1d, model1d, rng):
    b = random_source(spec1d, rng)
    (u,) = forward_solves(model1d, [b])
    back = apply_wave_operator(model1d, u)
    assert np.max(np.abs(back.values - b.values)) < 1e-9 * np.abs(b.values).max()


def test_adjoint_solve_inverts_transpose(spec1d, model1d, rng):
    r = random_source(spec1d, rng)
    (v,) = adjoint_solves(model1d, [r])
    back = apply_wave_operator_transpose(model1d, Wavefield(spec1d, v.values))
    assert np.max(np.abs(back.values - r.values)) < 1e-9 * np.abs(r.values).max()


@pytest.mark.parametrize("ndim", [1, 2])
def test_dot_tests_tight(ndim, rng):
    """<Au, v> == <u, A^T v> and <A^-1 b, r> == <b, A^-T r> to 1e-12."""
    if ndim == 1:
        spec = GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=48, dt=0.003)
    else:
        spec = GridSpec(ndim=2, nx=7, nz=5, dx=10.0, dz=10.0, nt=20, dt=0.002)
    m = random_model(spec, rng)
    u = random_wavefield(spec, rng)
    v = random_source(spec, rng)
    lhs = float(np.vdot(apply_wave_operator(m, u).values, v.values))
    rhs = float(np.vdot(u.values, apply_wave_operator_transpose(m, v).values))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    b = random_source(spec, rng)
    r = random_source(spec, rng)
    lhs = float(np.vdot(forward_solves(m, [b])[0].values, r.values))
    rhs = float(np.vdot(b.values, adjoint_solves(m, [r])[0].values))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_sampling_injection_adjoint_pair(spec1d, geom1d, rng):
    u = random_wavefield(spec1d, rng)
    d = sample(u, geom1d)
    probe = np.asarray(rng.standard_normal(d.values.shape))
    from lagfwi.grids import TraceData

    lhs = float(np.vdot(d.values, probe))
    injected = np.zeros(spec1d.shape)
    injected[list(geom1d.receiver_nodes)] = probe
    rhs = float(np.vdot(u.values, injected))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def _laplacian(spec, values):
    """L values through the sweeps' _laplacian_into, on a whole field."""
    out = np.empty((spec.nz, spec.nx) + values.shape[1:])
    _laplacian_into(spec, out, np.empty_like(out))(values.reshape(out.shape))
    return out.reshape(values.shape)


def test_laplacian_is_symmetric(spec2d, rng):
    u = random_wavefield(spec2d, rng)
    w = random_wavefield(spec2d, rng)
    lhs = float(np.vdot(_laplacian(spec2d, u.values), w.values))
    rhs = float(np.vdot(u.values, _laplacian(spec2d, w.values)))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
    assert np.array_equal(_laplacian(spec2d, u.values), _reference_laplacian(spec2d, u.values))


def test_frozen_forward_field(spec1d, model1d, ricker_source):
    (u,) = forward_solves(model1d, [ricker_source])
    assert u.values[7, 20] == pytest.approx(-95.86058135327849, rel=1e-13)
    assert u.values[7, 22] == pytest.approx(-120.8670610771004, rel=1e-13)
    assert np.linalg.norm(u.values) == pytest.approx(2753.0022510015806, rel=1e-13)


def test_curvature_rows_align_with_operator(spec1d, model1d, rng):
    """d(A(m)u)/dm must be row aligned: zero at the identity rows, lagged
    second difference at the stencil rows."""
    u = random_wavefield(spec1d, rng)
    ddu = operator_time_curvature(u)
    assert np.array_equal(ddu[:, :2], np.zeros((spec1d.n_space, 2)))

    dm = 1e-7 * rng.standard_normal(spec1d.n_space)
    m2 = ModelGrid(spec1d, model1d.values + dm)
    diff = apply_wave_operator(m2, u).values - apply_wave_operator(model1d, u).values
    assert np.max(np.abs(diff - dm[:, None] * ddu)) < 1e-12 * np.abs(diff).max()


def test_splitting_identity_exact(spec1d, model1d, rng):
    """A(m + dm) u - A(m) u + phi(u, dm) = 0, exactly, for finite dm."""
    u = random_wavefield(spec1d, rng)
    dm = model1d.values * rng.uniform(-0.5, 0.5, spec1d.n_space)
    m2 = ModelGrid(spec1d, model1d.values + dm)
    phi = scattering_source(u, dm)
    resid = (
        apply_wave_operator(m2, u).values
        - apply_wave_operator(model1d, u).values
        + phi.values
    )
    scale = max(np.abs(phi.values).max(), 1.0)
    assert np.max(np.abs(resid)) <= 1e-12 * scale


def test_scattering_source_is_minus_dm_times_curvature(spec1d, rng):
    u = random_wavefield(spec1d, rng)
    dm = rng.standard_normal(spec1d.n_space)
    phi = scattering_source(u, dm)
    assert np.array_equal(phi.values, -dm[:, None] * operator_time_curvature(u))


def test_correlation_terms_against_direct_sums(spec1d, rng):
    v = random_wavefield(spec1d, rng)
    u = random_wavefield(spec1d, rng)
    num, den = correlation_terms(v, u)
    ddu = operator_time_curvature(u)
    num_direct = np.array(
        [sum(v.values[j, n] * ddu[j, n] for n in range(spec1d.nt)) for j in range(spec1d.n_space)]
    )
    den_direct = np.array(
        [sum(ddu[j, n] ** 2 for n in range(spec1d.nt)) for j in range(spec1d.n_space)]
    )
    assert np.allclose(num, num_direct, rtol=1e-12)
    assert np.allclose(den, den_direct, rtol=1e-12)


def test_preconditioned_ratio_floors_weak_nodes():
    num = np.array([2.0, 4.0, 6.0, 1.0])
    den = np.array([1.0, 2.0, 3.0, 1e-12])
    ratio = preconditioned_ratio(num, den)
    assert ratio[:3] == pytest.approx([2.0, 2.0, 2.0])
    # denominator below 1e-10 * max(den) leaves the node untouched
    assert den[3] < DENOMINATOR_FLOOR_REL * den.max()
    assert ratio[3] == 0.0


def test_solves_scan_each_field_once_and_reject_non_finite(spec1d, model1d, geom1d, rng,
                                                          monkeypatch):
    sources = [random_source(spec1d, rng) for _ in range(2)]
    scanned = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        if np.shape(x) == spec1d.shape:
            scanned.append(x)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    fields = forward_solves(model1d, sources)
    assert len(scanned) == 2
    assert all(a is f.values for a, f in zip(scanned, fields))
    monkeypatch.undo()
    huge = [SourceField(spec1d, np.full(spec1d.shape, 1e307))]
    for solves, name in ((forward_solves, "forward"), (adjoint_solves, "adjoint"),
                         (lambda m, fs: forward_traces(m, fs, geom1d), "forward")):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match=f"{name} solve produced non-finite values"):
            solves(model1d, huge)


def test_updated_model_guards(spec1d, model1d):
    with pytest.raises(DivergenceError):
        updated_model(model1d, 1.0, np.full(spec1d.n_space, np.inf))
    with pytest.raises(DivergenceError):
        # stepping past zero squared slowness is a divergence, not a model
        updated_model(model1d, 1.0, np.full(spec1d.n_space, model1d.values.max()))
    with pytest.raises(DivergenceError):
        # a tenth of the squared slowness is ~3.2x the velocity, past the CFL bound
        updated_model(model1d, 1.0, 0.9 * model1d.values)


def test_structural_multiplier_inverts_update(spec1d, model1d, rng):
    """A multiplier of the exact scattered form v = -dm * ddu makes the
    unit-step correlation update recover m + dm on every active node."""
    (u,) = forward_solves(model1d, [random_source(spec1d, rng)])
    dm = 1e-8 * rng.standard_normal(spec1d.n_space)
    ddu = operator_time_curvature(u)
    v = Wavefield(spec1d, -dm[:, None] * ddu)
    m_new = combined_model_update(model1d, [(v, u)], 1.0)
    active = np.sum(ddu**2, axis=1) > DENOMINATOR_FLOOR_REL * np.sum(ddu**2, axis=1).max()
    assert np.allclose(m_new.values[active], model1d.values[active] + dm[active], rtol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(min_value=3, max_value=9),
    nt=st.integers(min_value=3, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_dot_test_property(nx, nt, seed):
    spec = GridSpec(ndim=1, nx=nx, nz=1, dx=5.0, dz=5.0, nt=nt, dt=0.001)
    gen = np.random.default_rng(seed)
    m = random_model(spec, gen)
    u = random_wavefield(spec, gen)
    v = random_source(spec, gen)
    lhs = float(np.vdot(apply_wave_operator(m, u).values, v.values))
    rhs = float(np.vdot(u.values, apply_wave_operator_transpose(m, v).values))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_operator_is_linear_in_field(seed):
    spec = GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=48, dt=0.003)
    gen = np.random.default_rng(seed)
    m = build_model(spec, 2000.0)
    u = random_wavefield(spec, gen)
    w = random_wavefield(spec, gen)
    a, b = gen.standard_normal(2)
    combo = Wavefield(spec, a * u.values + b * w.values)
    left = apply_wave_operator(m, combo).values
    right = a * apply_wave_operator(m, u).values + b * apply_wave_operator(m, w).values
    assert np.allclose(left, right, rtol=1e-12, atol=1e-9)


def _stepped_adjoint(spec, m_values, rhs):
    """A(m)^T v = rhs by a plain reverse loop, one level per step."""
    nt = spec.nt
    c, s = _scales(spec, m_values, rhs.ndim - 2)
    v = np.zeros_like(rhs)
    v[:, nt - 1] = s * rhs[:, nt - 1]
    for n in range(nt - 2, 1, -1):
        v[:, n] = s * (rhs[:, n] + _reference_laplacian(spec, v[:, n + 1])) + 2.0 * v[:, n + 1]
        if n + 2 <= nt - 1:
            v[:, n] = v[:, n] - v[:, n + 2]
    t1 = rhs[:, 1] + 2.0 * c * v[:, 2] + _reference_laplacian(spec, v[:, 2])
    v[:, 1] = t1 - c * v[:, 3] if nt >= 4 else t1
    v[:, 0] = rhs[:, 0] - c * v[:, 2]
    return v


def _whole_array_apply(spec, m_values, u):
    """A(m) u on the whole array at once."""
    c, _ = _scales(spec, m_values, u.ndim - 1)
    out = np.empty_like(u)
    out[:, :2] = u[:, :2]
    lap = _reference_laplacian(spec, u[:, 1:-1])
    out[:, 2:] = c * (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) - lap
    return out


@settings(max_examples=30, deadline=None)
@given(
    ndim=st.sampled_from([1, 2]),
    nx=st.integers(min_value=3, max_value=8),
    nz=st.integers(min_value=3, max_value=5),
    nt=st.integers(min_value=3, max_value=2 * _BLOCK + 3),
    columns=st.sampled_from([None, 1, 3]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# 91 x 91 nodes span 33 copy tiles, and its three columns three groups
@example(ndim=2, nx=91, nz=91, nt=_BLOCK + 3, columns=3, seed=91)
def test_kernels_match_stepped_references_bitwise(ndim, nx, nz, nt, columns, seed):
    """The blocked sweeps and the row-blocked A(m) do the references'
    floating-point operations in the same order, so they agree exactly,
    whatever the column groups and copy tiles.  A sequence of k fields is
    swept as one batch into k separate contiguous results, each equal to
    its column's reference; A(m) takes the k columns as one batch axis."""
    gen = np.random.default_rng(seed)
    dx, dz = gen.uniform(5.0, 20.0, 2)
    spec = GridSpec(
        ndim=ndim, nx=nx, nz=nz if ndim == 2 else 1, dx=dx, dz=dz, nt=nt,
        dt=0.2 * min(dx, dz) / 2400.0,
    )
    m = random_model(spec, gen).values
    shape = spec.shape if columns is None else spec.shape + (columns,)
    field = gen.standard_normal(shape)
    assert np.array_equal(_apply(spec, m, field), _whole_array_apply(spec, m, field))
    sequence = [field] if columns is None else [field[..., j].copy() for j in range(columns)]
    for sweep, reference in ((_forward_sweep, _reference_sweep),
                             (_adjoint_sweep, _stepped_adjoint)):
        out = sweep(spec, m, sequence)
        assert len(out) == len(sequence)
        for got, rhs in zip(out, sequence):
            assert got.shape == spec.shape and got.flags.c_contiguous
            assert np.array_equal(got, reference(spec, m, rhs))


def _injected(d: TraceData) -> np.ndarray:
    """P^T d, the traces spread onto their receiver nodes of a zero field."""
    out = np.zeros(d.spec.shape)
    out[list(d.geometry.receiver_nodes)] = d.values
    return out


@settings(max_examples=30, deadline=None)
@given(
    ndim=st.sampled_from([1, 2]),
    nx=st.integers(min_value=3, max_value=20),
    nz=st.integers(min_value=3, max_value=14),
    nt=st.integers(min_value=3, max_value=2 * _BLOCK + 3),
    k=st.integers(min_value=1, max_value=5),
    per_group=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# 20 x 14 nodes span two copy tiles, and its five columns three groups
@example(ndim=2, nx=20, nz=14, nt=_BLOCK + 3, k=5, per_group=2, seed=20)
def test_stacked_batches_equal_column_lists_bitwise(ndim, nx, nz, nt, k, per_group, seed):
    """A _DenseStack or a _TraceStack, as the right-hand sides or as the
    output, sweeps bitwise as its list of dense columns (a _TraceStack's
    injected fields), forward and adjoint, with per_group columns to a group
    (the adjoint's output is dense); and the H products through the stacks
    give the bytes of the per-column composition, the adjoint fields of the
    injected traces sampled at the receivers."""
    gen = np.random.default_rng(seed)
    spec = GridSpec(ndim=ndim, nx=nx, nz=nz if ndim == 2 else 1, dx=10.0, dz=10.0, nt=nt,
                    dt=0.002)
    m = random_model(spec, gen).values
    n_space = spec.n_space
    rec = sorted({0, n_space - 1, *gen.integers(0, n_space, size=3).tolist()})
    fields = gen.standard_normal((k, nt, n_space))
    traces = gen.standard_normal((k, len(rec), nt))
    geom = AcquisitionGeometry((0,), tuple(rec))
    injected = [_injected(TraceData(spec, geom, t)) for t in traces]
    batches = (([f.T.copy() for f in fields], _DenseStack(fields)),
               (injected, _TraceStack(rec, traces)))

    def dense_out():
        return _DenseStack(np.empty((k, nt, n_space)))

    with patch.object(wavecore, "_GROUP_BYTES", per_group * 8 * n_space):
        for columns, stack in batches:
            for sweep in (_forward_sweep, _adjoint_sweep):
                want = np.stack(sweep(spec, m, columns)).tobytes()
                assert np.stack(sweep(spec, m, stack)).tobytes() == want
                for rhs in (columns, stack):
                    got = sweep(spec, m, rhs, dense_out()).values.transpose(0, 2, 1)
                    assert got.tobytes() == want
            want = np.stack(_forward_sweep(spec, m, columns))[:, rec].tobytes()
            for rhs in (columns, stack):
                sampled = _TraceStack(rec, np.empty((k, len(rec), nt)))
                assert _forward_sweep(spec, m, rhs, sampled).values.tobytes() == want
        swept = _forward_sweep(spec, m, _adjoint_sweep(spec, m, injected))
        want = np.stack(swept)[:, rec].reshape(k, -1).tobytes()
        apply_h = _hessian_products(spec, m, rec)
        ys = traces.reshape(k, -1)
        assert apply_h(ys).tobytes() == want
        assert apply_h(list(ys)).tobytes() == want


@settings(max_examples=30, deadline=None)
@given(
    ndim=st.sampled_from([1, 2]),
    nx=st.integers(min_value=3, max_value=8),
    nz=st.integers(min_value=3, max_value=5),
    nt=st.integers(min_value=3, max_value=2 * _BLOCK + 3),
    n_traces=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# 91 x 91 nodes span 33 copy tiles, and the solves' columns three groups
@example(ndim=2, nx=91, nz=91, nt=_BLOCK + 3, n_traces=2, seed=91)
def test_trace_columns_equal_injected_fields_bitwise(ndim, nx, nz, nt, n_traces, seed):
    """Columns of receiver traces, one _TraceStack written into the
    zero-filled working block, give bitwise the sweeps of their dense
    injected fields, in both sweeps; adjoint_solves and forward_solves of
    TraceData, with a point source added whose node the traces may not
    share (one stack on the union of their nodes), give bitwise those of
    the injected SourceFields."""
    gen = np.random.default_rng(seed)
    spec = GridSpec(ndim=ndim, nx=nx, nz=nz if ndim == 2 else 1, dx=10.0, dz=10.0, nt=nt,
                    dt=0.002)
    m = random_model(spec, gen)
    last = spec.n_space - 1
    rec = sorted({0, last, *gen.integers(0, last + 1, size=3).tolist()})
    geom = AcquisitionGeometry(source_nodes=(0,), receiver_nodes=tuple(rec))
    traces = [TraceData(spec, geom, gen.standard_normal((len(rec), nt)))
              for _ in range(n_traces)]
    dense = [_injected(d) for d in traces]
    stack = _TraceStack(rec, np.stack([d.values for d in traces]))
    for sweep in (_forward_sweep, _adjoint_sweep):
        for got, want in zip(sweep(spec, m.values, stack), sweep(spec, m.values, dense)):
            assert got.tobytes() == want.tobytes()
    node = int(gen.integers(0, last + 1))
    traces.append(TraceData(spec, AcquisitionGeometry((node,), (node,)),
                            gen.standard_normal((1, nt))))
    dense.append(_injected(traces[-1]))
    for solves in (forward_solves, adjoint_solves):
        for got, want in zip(solves(m, traces), solves(m, [SourceField(spec, f) for f in dense])):
            assert got.values.tobytes() == want.values.tobytes()


def _edge_weighted_nodes(gen, n_space, count):
    """The distinct nodes of count picks, each node 0, node n_space - 1 or a
    uniform node with probability 1/3."""
    picks = [int(gen.choice([0, n_space - 1, gen.integers(0, n_space)])) for _ in range(count)]
    return sorted(set(picks))


@settings(max_examples=30, deadline=None)
@given(
    ndim=st.sampled_from([1, 2]),
    nx=st.integers(min_value=8, max_value=40),
    nz=st.integers(min_value=3, max_value=8),
    nt=st.integers(min_value=3, max_value=2 * _BLOCK + 3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# 30 x 30 nodes span four copy tiles
@example(ndim=2, nx=30, nz=30, nt=2 * _BLOCK + 3, seed=30)
def test_sampled_sweeps_equal_full_sweeps_bitwise(ndim, nx, nz, nt, seed):
    """Trace-out gives bitwise sample(forward_solves(...)) for a batch of
    dense, few-row, all-zero and signed-zero columns and for one of
    TraceData, each kind its own batch."""
    gen = np.random.default_rng(seed)
    # a 1D line holds as many nodes as the 2D grid
    spec = GridSpec(ndim=ndim, nx=nx if ndim == 2 else nx * nz, nz=nz if ndim == 2 else 1,
                    dx=10.0, dz=10.0, nt=nt, dt=0.002)
    m = random_model(spec, gen)
    n_space = spec.n_space
    geom = AcquisitionGeometry((0,), tuple(_edge_weighted_nodes(gen, n_space, 4)))
    few = np.zeros(spec.shape)
    few_rows = _edge_weighted_nodes(gen, n_space, 2)
    few[few_rows] = gen.standard_normal((len(few_rows), nt))
    signed_zero = np.zeros(spec.shape)
    signed_zero[n_space - 1] = -0.0
    signed_zero[0, nt - 1] = gen.standard_normal()
    fields = [gen.standard_normal(spec.shape), few, np.zeros(spec.shape), signed_zero]
    sources = [SourceField(spec, f) for f in fields]
    rec_in = tuple(_edge_weighted_nodes(gen, n_space, 3))
    injected = TraceData(spec, AcquisitionGeometry((0,), rec_in),
                         gen.standard_normal((len(rec_in), nt)))
    for batch in (sources, [injected]):
        for got, want in zip(forward_traces(m, batch, geom), forward_solves(m, batch)):
            assert got.geometry == geom
            assert got.values.tobytes() == sample(want, geom).values.tobytes()


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("shared", [False, True], ids=["distinct-nodes", "one-node"])
def test_point_source_batches_sweep_as_their_dense_fields_bitwise(ndim, shared, rng):
    """Point sources on distinct nodes, or two shots on one node, sweep as
    one stack on the union of their nodes, bitwise as their dense injected
    fields, through forward_solves, forward_traces and adjoint_solves."""
    spec = (GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=_BLOCK + 5, dt=0.002)
            if ndim == 1 else
            GridSpec(ndim=2, nx=7, nz=5, dx=10.0, dz=10.0, nt=_BLOCK + 5, dt=0.002))
    m = random_model(spec, rng)
    last = spec.n_space - 1
    nodes = (last // 2, last // 2) if shared else (last, 0, last // 2)
    sources = [TraceData(spec, AcquisitionGeometry((node,), (node,)),
                         rng.standard_normal((1, spec.nt))) for node in nodes]
    dense = [SourceField(spec, _injected(b)) for b in sources]
    geom = AcquisitionGeometry((0,), (0, last // 2 + 1, last))
    for solves in (forward_solves, adjoint_solves):
        for got, want in zip(solves(m, sources), solves(m, dense), strict=True):
            assert got.values.tobytes() == want.values.tobytes()
    for got, want in zip(forward_traces(m, sources, geom), forward_traces(m, dense, geom),
                         strict=True):
        assert got.values.tobytes() == want.values.tobytes()


def test_mixed_batches_raise(rng):
    """A batch holds SourceFields or TraceData, not both."""
    spec = GridSpec(ndim=1, nx=9, nz=1, dx=10.0, dz=10.0, nt=12, dt=0.002)
    m = random_model(spec, rng)
    geom = AcquisitionGeometry((4,), (4,))
    mixed = [random_source(spec, rng), TraceData(spec, geom, rng.standard_normal((1, spec.nt)))]
    for solve in (forward_solves, adjoint_solves, lambda m, b: forward_traces(m, b, geom)):
        with pytest.raises(ValueError, match="mixes"):
            solve(m, mixed)


def test_trace_out_of_point_sources_peaks_below_one_field(rng):
    """Trace-in and trace-out together allocate neither the sources' dense
    columns nor any field: three point sources (one-node TraceData) on a 2D
    grid peak below one field's bytes, where sampling full solves holds
    three fields."""
    spec = GridSpec(ndim=2, nx=41, nz=41, dx=10.0, dz=10.0, nt=300, dt=0.002)
    m = random_model(spec, rng)
    geom = AcquisitionGeometry((43, 60, 77), tuple(range(42, 82, 4)))
    sources = [TraceData(spec, AcquisitionGeometry((node,), (node,)),
                         rng.standard_normal((1, spec.nt)))
               for node in geom.source_nodes]
    field_bytes = spec.n_space * spec.nt * 8
    tracemalloc.start()
    try:
        forward_traces(m, sources, geom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < field_bytes


@pytest.mark.parametrize("kernel", [_apply, _forward_sweep, _adjoint_sweep])
def test_kernel_peak_memory_is_its_output(kernel, rng):
    spec = GridSpec(ndim=2, nx=41, nz=41, dx=10.0, dz=10.0, nt=200, dt=0.002)
    m = random_model(spec, rng).values
    field = rng.standard_normal(spec.shape)
    tracemalloc.start()
    try:
        out = kernel(spec, m, field) if kernel is _apply else kernel(spec, m, [field])[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * out.nbytes


def _chunked_spec():
    """A 2D grid whose fields span several row chunks of the streamed passes."""
    spec = GridSpec(ndim=2, nx=20, nz=15, dx=10.0, dz=10.0, nt=400, dt=0.002)
    assert spec.n_space * spec.nt * 8 > 3 * _CHUNK_BYTES
    return spec


def test_streamed_curvature_and_correlation_equal_whole_array_bitwise(rng):
    spec = _chunked_spec()
    u = random_wavefield(spec, rng)
    v = random_wavefield(spec, rng)
    vals = u.values
    ddu = np.zeros(spec.shape)
    ddu[:, 2:] = (vals[:, 2:] - 2.0 * vals[:, 1:-1] + vals[:, :-2]) / spec.dt**2
    assert np.array_equal(operator_time_curvature(u), ddu)
    num, den = correlation_terms(v, u)
    assert np.array_equal(num, np.sum(v.values * ddu, axis=1))
    assert np.array_equal(den, np.sum(ddu * ddu, axis=1))


def test_streamed_sums_of_squares_match_whole_array_sums(rng):
    spec = _chunked_spec()
    m = random_model(spec, rng)
    u = random_wavefield(spec, rng)
    b = random_source(spec, rng)
    expected = np.sum((_whole_array_apply(spec, m.values, u.values) - b.values) ** 2)
    assert residual_sum_of_squares(m, u, b) == pytest.approx(expected, rel=1e-13)
    assert sum_of_squares(u.values) == pytest.approx(np.sum(u.values**2), rel=1e-13)


def test_streamed_passes_peak_well_below_one_field(rng):
    spec = GridSpec(ndim=2, nx=61, nz=61, dx=10.0, dz=10.0, nt=300, dt=0.002)
    m = random_model(spec, rng)
    u = random_wavefield(spec, rng)
    v = random_wavefield(spec, rng)
    b = random_source(spec, rng)
    for call in (lambda: correlation_terms(v, u),
                 lambda: residual_sum_of_squares(m, u, b),
                 lambda: sum_of_squares(u.values)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * u.values.nbytes


@pytest.mark.parametrize("ndim", [1, 2])
def test_source_helpers_equal_dense_expressions_bitwise(ndim, rng):
    """add_source and subtract_source meet a point source (one-node
    TraceData) with a field bitwise as its dense injected field does, where
    the field holds -0.0 on and off the source's row: b + x is a fresh
    array with 0.0 + x = +0.0 off the row, and x - b leaves x's -0.0 there.
    A row/level window subtracts only what falls inside it, and the
    constraint norm of the point source equals that of its dense field."""
    spec = (GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=20, dt=0.002) if ndim == 1
            else GridSpec(ndim=2, nx=7, nz=5, dx=10.0, dz=10.0, nt=20, dt=0.002))
    node = spec.n_space // 2
    wavelet = rng.standard_normal((1, spec.nt))
    wavelet[0, :3] = (0.0, -0.0, -0.0)
    point = TraceData(spec, AcquisitionGeometry((node,), (node,)), wavelet)
    dense = SourceField(spec, _injected(point))
    x = rng.standard_normal(spec.shape)
    x[node, 1:4] = -0.0
    x[0, :] = -0.0
    x[-1, ::2] = -0.0
    before = x.tobytes()
    for b in (point, dense):
        total = add_source(b, x)
        assert total is not x and x.tobytes() == before
        assert total.tobytes() == (dense.values + x).tobytes()
        y = x.copy()
        assert subtract_source(y, b) is y
        assert y.tobytes() == (x - dense.values).tobytes()
        for rows in (slice(0, node), slice(node, node + 1), slice(node - 1, spec.n_space)):
            for levels in (slice(0, 2), slice(2, None)):
                y = x[rows, levels].copy()
                subtract_source(y, b, rows, levels)
                assert y.tobytes() == (x[rows, levels] - dense.values[rows, levels]).tobytes()
    m = random_model(spec, rng)
    u = random_wavefield(spec, rng)
    assert residual_sum_of_squares(m, u, point) == residual_sum_of_squares(m, u, dense)
