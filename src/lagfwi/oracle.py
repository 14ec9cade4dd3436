"""Dense brute-force references for tiny grids.

Everything here materializes operators as explicit matrices and leans on
LAPACK factorizations, so it is only usable on very small problems (the
size guard enforces that).  No production module imports it: the tests
and ``selfcheck`` compare the fast paths against it.  The dense operator
is assembled entry by entry from the stencil definition, deliberately not
sharing code with the vectorized sweeps in wavecore, so the two paths
cross-validate each other.  The Born kernel and the finite-difference
gradient step through time with ``_reference_sweep``, a plain per-level
loop written here from the same stencil rows; the Born kernel's time
curvature and the quadratic model minimizer's A(m) u are whole-array
formulas written here too, so nothing in this module runs a wavecore
kernel.

Space-time vectors are flattened with ``index = node * nt + n`` (time
fastest), matching ``values.ravel()`` of the field containers; receiver
vectors use ``index = receiver * nt + n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OracleSizeError, SingularSystemError
from .grids import AcquisitionGeometry, GridSpec, ModelGrid, SourceField, TraceData, Wavefield

__all__ = [
    "SIZE_GUARD",
    "DenseOperator",
    "assemble_dense_operator",
    "dense_laplacian",
    "dense_sampling_operator",
    "dense_saddle_solve",
    "dense_multiplier_source_space",
    "dense_multiplier_data_space",
    "assemble_born_kernel",
    "fd_gradient",
    "quadratic_model_minimizer",
]

SIZE_GUARD = 20000


def _guard(spec: GridSpec) -> int:
    n = spec.n_space * spec.nt
    if n > SIZE_GUARD:
        raise OracleSizeError(
            f"dense reference requested for {n} unknowns, guard is {SIZE_GUARD}"
        )
    return n


def dense_laplacian(spec: GridSpec) -> np.ndarray:
    """Dense zero-Dirichlet Laplacian on the flattened spatial nodes."""
    ns = spec.n_space
    lap = np.zeros((ns, ns))
    wx = 1.0 / spec.dx**2
    wz = 1.0 / spec.dz**2
    for iz in range(spec.nz):
        for ix in range(spec.nx):
            row = iz * spec.nx + ix
            lap[row, row] -= 2.0 * wx
            if ix > 0:
                lap[row, row - 1] += wx
            if ix < spec.nx - 1:
                lap[row, row + 1] += wx
            if spec.ndim == 2:
                lap[row, row] -= 2.0 * wz
                if iz > 0:
                    lap[row, row - spec.nx] += wz
                if iz < spec.nz - 1:
                    lap[row, row + spec.nx] += wz
    return lap


def _reference_sweep(spec: GridSpec, m_values: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A(m) u = rhs one time level at a time, from the stencil rows.

    u[:, n] = dt^2/m (rhs[:, n] + L u[:, n-1]) + 2 u[:, n-1] - u[:, n-2] for
    n >= 2, with the zero-Dirichlet Laplacian L summing its x terms before
    its z terms.  Accepts a trailing batch axis on rhs.
    """
    s = (spec.dt**2 / m_values).reshape((-1,) + (1,) * (rhs.ndim - 2))
    u = np.empty(rhs.shape)
    u[:, :2] = rhs[:, :2]
    for n in range(2, spec.nt):
        lap = _reference_laplacian(spec, u[:, n - 1])
        u[:, n] = s * (rhs[:, n] + lap) + 2.0 * u[:, n - 1] - u[:, n - 2]
    return u


def _reference_laplacian(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """Zero-Dirichlet Laplacian over the leading (node) axis of values,
    x terms before z terms; trailing axes are carried along."""
    wx = 1.0 / spec.dx**2
    wz = 1.0 / spec.dz**2
    g = values.reshape(spec.nz, spec.nx, -1)
    lap = -2.0 * wx * g
    lap[:, 1:] += wx * g[:, :-1]
    lap[:, :-1] += wx * g[:, 1:]
    if spec.ndim == 2:
        lap -= 2.0 * wz * g
        lap[1:] += wz * g[:-1]
        lap[:-1] += wz * g[1:]
    return lap.reshape(values.shape)


def _reference_curvature(spec: GridSpec, u: np.ndarray) -> np.ndarray:
    """d(A(m) u)/dm per node: zero at rows 0 and 1, then the lagged second
    difference (u[:, n] - 2 u[:, n-1] + u[:, n-2]) / dt^2."""
    out = np.zeros(u.shape)
    out[:, 2:] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / spec.dt**2
    return out


def _reference_apply(spec: GridSpec, m_values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A(m) u from the stencil rows: u at rows 0 and 1, then
    m/dt^2 (u[:, n] - 2 u[:, n-1] + u[:, n-2]) - L u[:, n-1]."""
    c = (m_values / spec.dt**2)[:, None]
    out = np.empty(u.shape)
    out[:, :2] = u[:, :2]
    lap = _reference_laplacian(spec, u[:, 1:-1])
    out[:, 2:] = c * (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) - lap
    return out


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Explicit N x N wave operator with helpers for dense solves."""

    spec: GridSpec
    matrix: np.ndarray

    def apply(self, u: Wavefield) -> SourceField:
        vec = self.matrix @ u.values.ravel()
        return SourceField(self.spec, vec.reshape(self.spec.shape))

    def solve(self, b: SourceField) -> Wavefield:
        vec = np.linalg.solve(self.matrix, b.values.ravel())
        return Wavefield(self.spec, vec.reshape(self.spec.shape))

    def solve_transpose(self, r: SourceField) -> Wavefield:
        vec = np.linalg.solve(self.matrix.T, r.values.ravel())
        return Wavefield(self.spec, vec.reshape(self.spec.shape))


def assemble_dense_operator(m: ModelGrid) -> DenseOperator:
    """Build A(m) explicitly from the stencil definition, each stencil term
    written into every stencil row (node, tl >= 2) at once through the
    4-index view a[node, tl, node', tl'] of the matrix."""
    spec = m.spec
    n = _guard(spec)
    nt = spec.nt
    ns = spec.n_space
    lap = dense_laplacian(spec)
    a = np.zeros((n, n))
    a4 = a.reshape(ns, nt, ns, nt)
    nodes = np.arange(ns)[:, None]
    first, tl = np.arange(2), np.arange(2, nt)
    a4[nodes, first, nodes, first] = 1.0
    c = (m.values / spec.dt**2)[:, None]
    a4[nodes, tl, nodes, tl] += c
    a4[nodes, tl, nodes, tl - 1] += -2.0 * c
    a4[nodes, tl, nodes, tl - 2] += c
    # minus the Laplacian acting on time level tl - 1
    a4[:, tl, :, tl - 1] -= lap
    return DenseOperator(spec, a)


def dense_sampling_operator(spec: GridSpec, geometry: AcquisitionGeometry) -> np.ndarray:
    """Dense M x N receiver restriction matrix P."""
    geometry.validate_for(spec)
    nt = spec.nt
    m_rows = geometry.n_receivers * nt
    p = np.zeros((m_rows, spec.n_space * nt))
    for r, node in enumerate(geometry.receiver_nodes):
        for tl in range(nt):
            p[r * nt + tl, node * nt + tl] = 1.0
    return p


def dense_saddle_solve(
    m: ModelGrid,
    b: SourceField,
    d: TraceData,
    mu: float,
    w: SourceField | None = None,
) -> tuple[Wavefield, Wavefield]:
    """Solve the coupled 2N x 2N penalty saddle system directly.

    The block system is [[A, -I/mu], [P^T P, A^T]] (u, v) = (b - w/mu, P^T d),
    where the w term appears only in the proximally regularized variant.
    """
    spec = m.spec
    n = _guard(spec)
    if mu <= 0:
        raise ValueError("mu must be positive")
    a = assemble_dense_operator(m).matrix
    p = dense_sampling_operator(spec, d.geometry)
    k = np.zeros((2 * n, 2 * n))
    k[:n, :n] = a
    k[:n, n:] = -np.eye(n) / mu
    k[n:, :n] = p.T @ p
    k[n:, n:] = a.T
    rhs = np.concatenate([b.values.ravel(), p.T @ d.values.ravel()])
    if w is not None:
        rhs[:n] -= w.values.ravel() / mu
    try:
        sol = np.linalg.solve(k, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"saddle system is singular: {exc}") from exc
    u = Wavefield(spec, sol[:n].reshape(spec.shape))
    v = Wavefield(spec, sol[n:].reshape(spec.shape))
    return u, v


def _dense_residual_pieces(m: ModelGrid, b: SourceField, d: TraceData):
    a = assemble_dense_operator(m).matrix
    p = dense_sampling_operator(m.spec, d.geometry)
    u0 = np.linalg.solve(a, b.values.ravel())
    delta_d = d.values.ravel() - p @ u0
    return a, p, delta_d


def dense_multiplier_source_space(
    m: ModelGrid, b: SourceField, d: TraceData, mu: float
) -> Wavefield:
    """Penalty multiplier via the N x N source-space normal matrix.

    v = (I + (1/mu) A^-T P^T P A^-1)^-1 A^-T P^T (d - P A^-1 b).
    """
    a, p, delta_d = _dense_residual_pieces(m, b, d)
    x = np.linalg.solve(a.T, p.T)  # A^-T P^T, one column per receiver sample
    n = a.shape[0]
    lhs = np.eye(n) + (x @ x.T) / mu
    v = np.linalg.solve(lhs, x @ delta_d)
    return Wavefield(m.spec, v.reshape(m.spec.shape))


def dense_multiplier_data_space(
    m: ModelGrid, b: SourceField, d: TraceData, mu: float
) -> Wavefield:
    """Penalty multiplier via the M x M data-space matrix.

    v = A^-T P^T (I + (1/mu) P A^-1 A^-T P^T)^-1 (d - P A^-1 b).

    Equal to the source-space formula for every mu > 0 (push-through
    identity); the pair gives a two-sided oracle for the reduced solves.
    """
    a, p, delta_d = _dense_residual_pieces(m, b, d)
    x = np.linalg.solve(a.T, p.T)
    m_rows = p.shape[0]
    lhs = np.eye(m_rows) + (x.T @ x) / mu
    v = x @ np.linalg.solve(lhs, delta_d)
    return Wavefield(m.spec, v.reshape(m.spec.shape))


def assemble_born_kernel(
    m: ModelGrid, u: Wavefield, geometry: AcquisitionGeometry
) -> np.ndarray:
    """The dense single-scattering map from model perturbations to traces,
    (n_receivers * nt, n_space): column x is P A(m)^-1 scattering_source(u,
    e_x).

    By bilinearity, the kernel @ dm equals sampling the forward solve of
    scattering_source(u, dm) for any perturbation dm.
    """
    spec = m.spec
    _guard(spec)
    geometry.validate_for(spec)
    ddu = _reference_curvature(spec, u.values)
    ns = spec.n_space
    # one scattering source per node, batched over the trailing axis
    rhs = np.zeros((ns, spec.nt, ns))
    for node in range(ns):
        rhs[node, :, node] = -ddu[node]
    fields = _reference_sweep(spec, m.values, rhs)
    traces = fields[list(geometry.receiver_nodes)]  # (n_rec, nt, ns)
    return traces.reshape(geometry.n_receivers * spec.nt, ns).copy()


def _misfit(m: ModelGrid, sources, data) -> float:
    total = 0.0
    for b, d in zip(sources, data):
        u = _reference_sweep(m.spec, m.values, b.values)
        resid = u[list(d.geometry.receiver_nodes), :] - d.values
        total += 0.5 * float(np.sum(resid * resid))
    return total


def fd_gradient(m: ModelGrid, sources, data, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the reduced data misfit, node by node.

    ``h`` is a relative step: node x is probed at m(x) * (1 +/- h). The
    misfit is exactly the objective whose adjoint-state gradient the
    iteration schemes compute, which makes this the reference for gradient
    verification.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    sources = list(sources)
    data = list(data)
    grad = np.zeros(m.spec.n_space)
    base = m.values
    for node in range(m.spec.n_space):
        step = h * base[node]
        plus = base.copy()
        plus[node] += step
        minus = base.copy()
        minus[node] -= step
        f_plus = _misfit(ModelGrid(m.spec, plus), sources, data)
        f_minus = _misfit(ModelGrid(m.spec, minus), sources, data)
        grad[node] = (f_plus - f_minus) / (2.0 * step)
    return grad


def quadratic_model_minimizer(
    u: Wavefield,
    b: SourceField,
    m: ModelGrid,
    mu: float = 1.0,
    w: SourceField | None = None,
    rel_probe: float = 0.1,
) -> np.ndarray:
    """Per-node minimizer of mu/2 ||A(m') u - b||^2 + <w, A(m') u - b>.

    The objective separates over nodes and is exactly quadratic in each
    m'(x), so probing it at three model values and taking the vertex of the
    fitted parabola gives the exact alternating-minimization model update
    of the wavefield-reconstruction family, independent of any correlation
    formula. Nodes with zero curvature keep their current value.
    """
    spec = m.spec

    def node_objectives(values: np.ndarray) -> np.ndarray:
        r = _reference_apply(spec, values, u.values) - b.values
        per_node = 0.5 * mu * np.sum(r * r, axis=1)
        if w is not None:
            per_node += np.sum(w.values * r, axis=1)
        return per_node

    delta = rel_probe * m.values
    f_minus = node_objectives(m.values - delta)
    f_mid = node_objectives(m.values)
    f_plus = node_objectives(m.values + delta)
    curvature = f_minus - 2.0 * f_mid + f_plus
    out = m.values.copy()
    ok = curvature > 0.0
    out[ok] = m.values[ok] + 0.5 * delta[ok] * (f_minus[ok] - f_plus[ok]) / curvature[ok]
    return out
