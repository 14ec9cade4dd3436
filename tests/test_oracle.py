"""Dense references against the matrix-free kernels and against numpy."""

import ast
import os

import numpy as np
import pytest

import lagfwi
from lagfwi.errors import OracleSizeError
from lagfwi.grids import (
    AcquisitionGeometry,
    GridSpec,
    SourceField,
    TraceData,
    Wavefield,
    build_model,
)
from lagfwi.oracle import (
    assemble_born_kernel,
    assemble_dense_operator,
    dense_laplacian,
    dense_multiplier_data_space,
    dense_multiplier_source_space,
    dense_saddle_solve,
    dense_sampling_operator,
    fd_gradient,
    quadratic_model_minimizer,
)
from lagfwi.wavecore import (
    adjoint_solves,
    apply_wave_operator,
    apply_wave_operator_transpose,
    forward_solves,
    operator_time_curvature,
    sample,
    scattering_source,
)
from lagfwi.iterations import reduced_objective_and_gradient

from conftest import random_model, random_source, random_wavefield


@pytest.fixture
def tiny():
    spec = GridSpec(ndim=1, nx=9, nz=1, dx=10.0, dz=10.0, nt=12, dt=0.003)
    rng = np.random.default_rng(7)
    m = random_model(spec, rng)
    geom = AcquisitionGeometry(source_nodes=(4,), receiver_nodes=(2, 6))
    return spec, m, geom, rng


def test_dense_operator_agrees_with_matrix_free(tiny):
    spec, m, _, rng = tiny
    dense = assemble_dense_operator(m)
    u = random_wavefield(spec, rng)
    b = random_source(spec, rng)
    assert np.allclose(dense.apply(u).values, apply_wave_operator(m, u).values, rtol=1e-12)
    assert np.allclose(dense.solve(b).values, forward_solves(m, [b])[0].values, rtol=1e-9)
    assert np.allclose(
        dense.solve_transpose(b).values, adjoint_solves(m, [b])[0].values, rtol=1e-9
    )
    got_t = apply_wave_operator_transpose(m, b).values.ravel()
    assert np.allclose(got_t, dense.matrix.T @ b.values.ravel(), rtol=1e-12)


def _package_imports(tree):
    """The lagfwi modules that a parsed module names in its imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:  # relative to the package
                module = "lagfwi" + (f".{module}" if module else "")
            names |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return {name.split(".")[1] for name in names if name.startswith("lagfwi.")}


def test_only_selfcheck_imports_the_oracle():
    """No production module depends on the dense references: of the
    package's modules, selfcheck alone imports oracle."""
    root = os.path.dirname(lagfwi.__file__)
    importers = set()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=name)
            if "oracle" in _package_imports(tree):
                importers.add(name[:-3])
    assert importers == {"selfcheck"}


def test_size_guard_rejects_large_grids():
    big = GridSpec(ndim=1, nx=500, nz=1, dx=10.0, dz=10.0, nt=200, dt=0.001)
    m = build_model(big, 2000.0)
    with pytest.raises(OracleSizeError):
        assemble_dense_operator(m)


def test_dense_laplacian_symmetric_and_consistent(spec2d, rng):
    lap = dense_laplacian(spec2d)
    assert np.array_equal(lap, lap.T)
    from lagfwi.oracle import _reference_laplacian

    u = random_wavefield(spec2d, rng)
    per_slice = lap @ u.values
    assert np.allclose(per_slice, _reference_laplacian(spec2d, u.values), rtol=1e-12)


def test_sampling_operator_entries(tiny):
    spec, _, geom, _ = tiny
    p = dense_sampling_operator(spec, geom)
    assert p.shape == (2 * spec.nt, spec.n_space * spec.nt)
    assert p.sum() == 2 * spec.nt
    u = np.arange(spec.n_space * spec.nt, dtype=float)
    picked = (p @ u).reshape(2, spec.nt)
    field = Wavefield(spec, u.reshape(spec.shape))
    assert np.array_equal(picked, sample(field, geom).values)


def test_saddle_solution_satisfies_block_equations(tiny):
    spec, m, geom, rng = tiny
    b = random_source(spec, rng)
    d = TraceData(spec, geom, rng.standard_normal((2, spec.nt)))
    mu = 53.0
    u, v = dense_saddle_solve(m, b, d, mu)
    a = assemble_dense_operator(m).matrix
    p = dense_sampling_operator(spec, geom)
    uv, vv = u.values.ravel(), v.values.ravel()
    r1 = a @ uv - vv / mu - b.values.ravel()
    r2 = p.T @ (p @ uv) + a.T @ vv - p.T @ d.values.ravel()
    scale = max(np.abs(vv).max(), np.abs(uv).max(), 1.0)
    assert np.max(np.abs(r1)) < 1e-10 * scale
    assert np.max(np.abs(r2)) < 1e-10 * scale


def test_saddle_with_shift_term(tiny):
    spec, m, geom, rng = tiny
    b = random_source(spec, rng)
    d = TraceData(spec, geom, rng.standard_normal((2, spec.nt)))
    w = random_source(spec, rng)
    mu = 19.0
    u, v = dense_saddle_solve(m, b, d, mu, w=w)
    a = assemble_dense_operator(m).matrix
    r1 = a @ u.values.ravel() - v.values.ravel() / mu - (b.values - w.values / mu).ravel()
    assert np.max(np.abs(r1)) < 1e-10 * max(np.abs(v.values).max(), 1.0)


def test_multiplier_routes_match_each_other_and_the_saddle(tiny):
    """Push-through identity: eliminating in source space and in data space
    must produce the same multiplier, and both must equal the saddle v."""
    spec, m, geom, rng = tiny
    b = random_source(spec, rng)
    d = TraceData(spec, geom, rng.standard_normal((2, spec.nt)))
    for mu in (1.0, 100.0):
        v_src = dense_multiplier_source_space(m, b, d, mu)
        v_dat = dense_multiplier_data_space(m, b, d, mu)
        _, v_sad = dense_saddle_solve(m, b, d, mu)
        scale = np.abs(v_sad.values).max()
        assert np.max(np.abs(v_src.values - v_dat.values)) < 1e-10 * scale
        assert np.max(np.abs(v_src.values - v_sad.values)) < 1e-9 * scale


def test_born_kernel_matches_scattering_forward(tiny):
    spec, m, geom, rng = tiny
    (u0,) = forward_solves(m, [random_source(spec, rng)])
    kernel = assemble_born_kernel(m, u0, geom)
    assert kernel.shape == (2 * spec.nt, spec.n_space)
    dm = rng.standard_normal(spec.n_space)
    via_kernel = kernel @ dm
    (scattered,) = forward_solves(m, [scattering_source(u0, dm)])
    direct = sample(scattered, geom).values.ravel()
    assert np.max(np.abs(via_kernel - direct)) < 1e-12 * max(np.abs(direct).max(), 1.0)


def test_fd_gradient_matches_adjoint_state(tiny):
    spec, m, geom, rng = tiny
    from lagfwi.config import ricker_wavelet

    wavelet = ricker_wavelet(spec, 24.0, 1.0)
    bv = np.zeros(spec.shape)
    bv[4, :] = wavelet
    b = SourceField(spec, bv)
    true_m = build_model(spec, 2000.0)
    d = sample(forward_solves(true_m, [b])[0], geom)
    _, grad = reduced_objective_and_gradient(m, [b], [d])
    ref = fd_gradient(m, [b], [d], h=1e-6)
    assert np.linalg.norm(grad - ref) <= 1e-5 * np.linalg.norm(ref)


def test_quadratic_minimizer_matches_analytic_vertex(tiny):
    """The probe-three-points oracle must land on the exact per-node argmin
    of mu/2 ||A(m')u - b||^2 + <w, A(m')u - b>."""
    spec, m, geom, rng = tiny
    u = random_wavefield(spec, rng)
    b = random_source(spec, rng)
    w = random_source(spec, rng)
    mu = 3.7
    ddu = operator_time_curvature(u)
    r0 = apply_wave_operator(m, u).values - b.values
    num = mu * np.sum(r0 * ddu, axis=1) + np.sum(w.values * ddu, axis=1)
    den = mu * np.sum(ddu * ddu, axis=1)
    expected = m.values.copy()
    ok = den > 0
    expected[ok] -= num[ok] / den[ok]
    got = quadratic_model_minimizer(u, b, m, mu, w=w)
    assert np.allclose(got[ok], expected[ok], rtol=1e-7)
