"""Discrete scalar wave operator, its solves, and model-update correlations.

The operator A(m) acts on space-time fields u[node, n]. With c = m / dt**2
and L the 3-point (1D) or 5-point (2D) Laplacian with zero-Dirichlet ghost
nodes, the rows of A(m) u are

    n = 0, 1 :  u[:, n]                                  (quiescent start)
    n >= 2  :  c * (u[:, n] - 2 u[:, n-1] + u[:, n-2]) - L u[:, n-1]

i.e. each stencil row holds the centered second time difference evaluated at
level n - 1 but is stored at row n, which makes A block lower triangular in
time. A forward solve is then a single explicit time-stepping sweep and a
transposed solve is the same sweep run backwards.

The time derivative used throughout is ``operator_time_curvature``, d/dm of
A(m) u contracted row by row: zero at the two initial-condition rows and the
lagged difference (u[:, n] - 2 u[:, n-1] + u[:, n-2]) / dt**2 at rows n >= 2.
Every scattering source, gradient correlation, and model update in the
package uses it, so the update formulas invert the scattering relation
exactly and the adjoint-state gradient is the exact gradient of the discrete
misfit (not an O(dt) approximation of it).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .grids import (
    AcquisitionGeometry,
    GridSpec,
    ModelGrid,
    SourceField,
    TraceData,
    Wavefield,
    check_cfl,
)

__all__ = [
    "laplacian",
    "apply_wave_operator",
    "apply_wave_operator_transpose",
    "forward_solve",
    "adjoint_solve",
    "sample",
    "inject",
    "operator_time_curvature",
    "scattering_source",
    "correlation_terms",
    "DENOMINATOR_FLOOR_REL",
]

# Relative floor applied to the preconditioner denominator in model updates.
DENOMINATOR_FLOOR_REL = 1e-10


def _laplacian(spec: GridSpec, arr: np.ndarray) -> np.ndarray:
    """Zero-Dirichlet Laplacian on the leading (flattened space) axis.

    Accepts (n_space,) or (n_space, k); out-of-grid neighbours count as zero.
    """
    g = arr.reshape(spec.nz, spec.nx, -1)
    wx = 1.0 / spec.dx**2
    out = -2.0 * wx * g
    out[:, 1:] += wx * g[:, :-1]
    out[:, :-1] += wx * g[:, 1:]
    if spec.ndim == 2:
        wz = 1.0 / spec.dz**2
        out -= 2.0 * wz * g
        out[1:] += wz * g[:-1]
        out[:-1] += wz * g[1:]
    return out.reshape(arr.shape)


def laplacian(u: Wavefield) -> Wavefield:
    """Spatial Laplacian applied to every time slice of a field."""
    return Wavefield(u.spec, _laplacian(u.spec, u.values))


def _scales(spec: GridSpec, m_values: np.ndarray, trailing_axes: int):
    """Stencil scale m/dt^2 and its inverse, shaped to broadcast over
    ``trailing_axes`` axes after the space axis."""
    shape = (m_values.shape[0],) + (1,) * trailing_axes
    c = (m_values / spec.dt**2).reshape(shape)
    s = (spec.dt**2 / m_values).reshape(shape)
    return c, s


def _apply(spec: GridSpec, m_values: np.ndarray, u: np.ndarray) -> np.ndarray:
    c, _ = _scales(spec, m_values, u.ndim - 1)
    out = np.empty_like(u)
    out[:, :2] = u[:, :2]
    out[:, 2:] = c * (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) - _laplacian(
        spec, u[:, 1:-1]
    )
    return out


def _apply_transpose(spec: GridSpec, m_values: np.ndarray, v: np.ndarray) -> np.ndarray:
    nt = spec.nt
    c, _ = _scales(spec, m_values, v.ndim - 1)
    out = np.zeros_like(v)
    out[:, :2] += v[:, :2]
    out[:, 2:] += c * v[:, 2:]
    # stencil row n couples columns n-1 (with -2c - L) and n-2 (with +c)
    out[:, 1 : nt - 1] += -2.0 * c * v[:, 2:] - _laplacian(spec, v[:, 2:])
    out[:, : nt - 2] += c * v[:, 2:]
    return out


def _forward_sweep(spec: GridSpec, m_values: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Explicit time stepping, solves A(m) u = rhs. Supports batched rhs."""
    _, s = _scales(spec, m_values, rhs.ndim - 2)
    u = np.empty_like(rhs)
    u[:, 0] = rhs[:, 0]
    u[:, 1] = rhs[:, 1]
    for n in range(2, spec.nt):
        u[:, n] = (
            s * (rhs[:, n] + _laplacian(spec, u[:, n - 1]))
            + 2.0 * u[:, n - 1]
            - u[:, n - 2]
        )
    return u


def _adjoint_sweep(spec: GridSpec, m_values: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Reverse time stepping, solves A(m)^T v = rhs. Supports batched rhs."""
    nt = spec.nt
    c, s = _scales(spec, m_values, rhs.ndim - 2)
    v = np.zeros_like(rhs)
    v[:, nt - 1] = s * rhs[:, nt - 1]
    for n in range(nt - 2, 1, -1):
        term = (
            s * (rhs[:, n] + _laplacian(spec, v[:, n + 1]))
            + 2.0 * v[:, n + 1]
        )
        if n + 2 <= nt - 1:
            term = term - v[:, n + 2]
        v[:, n] = term
    # columns 0 and 1 meet the identity rows, so no 1/c scaling there
    t1 = rhs[:, 1] + 2.0 * c * v[:, 2] + _laplacian(spec, v[:, 2])
    if nt >= 4:
        t1 = t1 - c * v[:, 3]
    v[:, 1] = t1
    v[:, 0] = rhs[:, 0] - c * v[:, 2]
    return v


def _check_pair(m: ModelGrid, f) -> None:
    if f.spec != m.spec:
        raise ValueError("model and field live on different grids")


def apply_wave_operator(m: ModelGrid, u: Wavefield) -> SourceField:
    """Compute A(m) u without forming the matrix."""
    _check_pair(m, u)
    return SourceField(u.spec, _apply(u.spec, m.values, u.values))


def apply_wave_operator_transpose(m: ModelGrid, f: SourceField) -> Wavefield:
    """Compute A(m)^T f without forming the matrix."""
    _check_pair(m, f)
    return Wavefield(f.spec, _apply_transpose(f.spec, m.values, f.values))


def forward_solve(m: ModelGrid, b: SourceField) -> Wavefield:
    """Solve A(m) u = b by explicit time stepping.

    The CFL bound is re-checked here because inversion loops update the
    model between solves; a non-finite result raises DivergenceError.
    """
    _check_pair(m, b)
    check_cfl(b.spec, m.values)
    u = _forward_sweep(b.spec, m.values, b.values)
    if not np.all(np.isfinite(u)):
        raise DivergenceError("forward solve produced non-finite values")
    return Wavefield(b.spec, u)


def adjoint_solve(m: ModelGrid, r: SourceField) -> Wavefield:
    """Solve A(m)^T v = r by reverse time stepping."""
    _check_pair(m, r)
    check_cfl(r.spec, m.values)
    v = _adjoint_sweep(r.spec, m.values, r.values)
    if not np.all(np.isfinite(v)):
        raise DivergenceError("adjoint solve produced non-finite values")
    return Wavefield(r.spec, v)


def sample(u: Wavefield, geometry: AcquisitionGeometry) -> TraceData:
    """Restrict a field to the receiver nodes (the operator P)."""
    geometry.validate_for(u.spec)
    values = u.values[list(geometry.receiver_nodes), :]
    return TraceData(u.spec, geometry, values.copy())


def inject(d: TraceData) -> SourceField:
    """Spread traces back onto their receiver nodes (the operator P^T)."""
    d.geometry.validate_for(d.spec)
    out = np.zeros(d.spec.shape)
    out[list(d.geometry.receiver_nodes), :] = d.values
    return SourceField(d.spec, out)


def operator_time_curvature(u: Wavefield) -> np.ndarray:
    """Row-aligned time curvature of a field, i.e. d(A(m) u)/dm per node.

    Zero at the two initial-condition rows; rows n >= 2 hold
    (u[:, n] - 2 u[:, n-1] + u[:, n-2]) / dt**2, matching the operator's
    internal stencil placement exactly.
    """
    vals = u.values
    out = np.zeros_like(vals)
    out[:, 2:] = (vals[:, 2:] - 2.0 * vals[:, 1:-1] + vals[:, :-2]) / u.spec.dt**2
    return out


def _perturbation_values(dm, n_space: int) -> np.ndarray:
    if isinstance(dm, ModelGrid):
        return dm.values
    arr = np.asarray(dm, dtype=float)
    if arr.shape != (n_space,):
        raise ValueError(f"model perturbation: expected shape ({n_space},), got {arr.shape}")
    return arr


def scattering_source(u: Wavefield, dm) -> SourceField:
    """Secondary source radiated by a model perturbation dm acting on u.

    Returns -dm * operator_time_curvature(u); bilinear in (u, dm), and by
    construction A(m + dm) u = A(m) u - scattering_source(u, dm) holds to
    machine precision for every field u.
    """
    vals = _perturbation_values(dm, u.spec.n_space)
    return SourceField(u.spec, -vals[:, None] * operator_time_curvature(u))


def correlation_terms(v: Wavefield, u: Wavefield) -> tuple[np.ndarray, np.ndarray]:
    """Per-node numerator <v, ddu>_t and denominator <ddu, ddu>_t.

    ddu is the operator-aligned curvature of u, so the numerator evaluated
    with the reduced-problem adjoint field is the exact discrete gradient of
    the data misfit with respect to the model.
    """
    if v.spec != u.spec:
        raise ValueError("fields live on different grids")
    ddu = operator_time_curvature(u)
    numerator = np.sum(v.values * ddu, axis=1)
    denominator = np.sum(ddu * ddu, axis=1)
    return numerator, denominator


def preconditioned_ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Per-node numerator / denominator with a relative floor.

    Nodes whose denominator falls below DENOMINATOR_FLOOR_REL times the
    largest denominator get a zero ratio (they carry no usable curvature
    energy, so the model is left unchanged there).
    """
    floor = DENOMINATOR_FLOOR_REL * float(np.max(denominator, initial=0.0))
    ratio = np.zeros_like(denominator)
    if floor > 0.0:
        active = denominator >= floor
        np.divide(numerator, denominator, out=ratio, where=active)
    return ratio


def updated_model(m: ModelGrid, alpha: float, update: np.ndarray) -> ModelGrid:
    """Apply m - alpha * update; a non-finite, non-positive or unstable
    (CFL-breaking) result raises DivergenceError."""
    new_values = m.values - alpha * update
    if not np.all(np.isfinite(new_values)):
        raise DivergenceError("model update produced non-finite values")
    if np.any(new_values <= 0.0):
        raise DivergenceError("model update produced non-positive squared slowness")
    try:
        check_cfl(m.spec, new_values)
    except ConfigurationError as exc:
        raise DivergenceError(f"model update broke the stability bound: {exc}") from exc
    return ModelGrid(m.spec, new_values)

