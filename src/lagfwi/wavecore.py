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

Fields are stored [node, n], so one time level is a strided column.  Every
pass over a full space-time field works through cache-sized pieces and
makes no full-size temporary:

* Both sweeps run one recurrence, ``_recurrence``, over time-major working
  blocks of _BLOCK levels: a block of the right-hand side is copied
  transposed into a contiguous buffer, stepped there with in-place
  operations on reused scratch, and copied back, so each step reads and
  writes contiguous memory while the stored layout stays [node, n].  The
  copy in goes _TILE nodes at a time, so the rows it reads stay in cache
  until every level of them is used.
* A sweep takes k right-hand sides at once, either as the trailing batch
  axis of one array or as a sequence of k separate fields
  (``forward_solves``/``adjoint_solves``, the batched solves of a step's
  sources).  The columns are stepped in groups whose time level, (node,
  column), fits _GROUP_BYTES: on a 101 x 101 grid that is one column per
  group, on the 1D grids all of them.  The columns of a group share only
  its working block, (level, node, column), and each sequence column gets
  its own contiguous [node, n] result, so no stacked copy of the fields
  exists.  Small grids are bound by the Python cost of each time step, not
  by flops, so one sweep of k columns costs little more than one of a
  single column.
* A column may be receiver traces instead of a field (``_Traces``; a
  TraceData right-hand side of ``adjoint_solves``): P^T d is written into
  the column's zero-filled slice of the working block during the copy in,
  so no dense injected field is built.
* The Laplacian of a 2D block adds each x neighbour as one contiguous add
  over the whole block, shifted by one node, and puts back the row-end
  nodes that add must not touch (``_laplacian_into``).
* ``_stencil_rows`` computes the stencil rows of A(m) u one z row of nodes
  at a time, with two rows of scratch.  It has two consumers:
  ``_apply`` (``apply_wave_operator``) writes the rows into its output, and
  ``residual_sum_of_squares`` reduces ||A(m) u - b||^2 row by row without
  forming A(m) u.
* ``_curvature_into`` computes the time curvature of a chunk of rows of at
  most _CHUNK_BYTES; ``operator_time_curvature`` writes the chunks into its
  output and ``correlation_terms`` reduces each chunk to its per-node sums.
  ``sum_of_squares`` squares a field in the same chunks.

Each sweep, ``_apply``, the curvature and the correlation sums perform the
same IEEE operations in the same order for every element (and every
per-node sum) as the plain whole-array or per-level code they replace (the
Laplacian's x terms, then its z terms: row above, then row below), so
their results are bitwise identical to it, batched, grouped and tiled or
not.  The two sums of squares add their pieces in another order than a
whole-array ``np.sum``, so they agree with it to round-off only.

The time derivative used throughout is ``operator_time_curvature``, d/dm of
A(m) u contracted row by row: zero at the two initial-condition rows and the
lagged difference (u[:, n] - 2 u[:, n-1] + u[:, n-2]) / dt**2 at rows n >= 2.
Every scattering source, gradient correlation, and model update in the
package uses it, so the update formulas invert the scattering relation
exactly and the adjoint-state gradient is the exact gradient of the discrete
misfit (not an O(dt) approximation of it).
"""

from __future__ import annotations

from typing import NamedTuple

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
    "apply_wave_operator",
    "apply_wave_operator_transpose",
    "forward_solve",
    "forward_solves",
    "adjoint_solve",
    "adjoint_solves",
    "sample",
    "inject",
    "operator_time_curvature",
    "scattering_source",
    "correlation_terms",
    "sum_of_squares",
    "residual_sum_of_squares",
    "DENOMINATOR_FLOOR_REL",
]

# Relative floor applied to the preconditioner denominator in model updates.
DENOMINATOR_FLOOR_REL = 1e-10

# Time levels per working block of the sweeps.  On a 101 x 101 grid a block
# is 2.6 MB, small enough to stay in cache between its copy in, its steps
# and its copy out.
_BLOCK = 32

# Bytes of one time level of a sweep's column group.  A step touches six
# such slabs (three levels, the Laplacian, its scratch and the scale), so
# 128 KB keeps them well inside a 2 MB L2 cache: one column of a 101 x 101
# grid (81.6 KB) per group.  Three columns in one group are 1.1-1.4x slower
# per column there (scripts/bench.py, BENCH_9.json).
_GROUP_BYTES = 128 * 1024

# Nodes per tile of a working block's transposed copy in.  A tile reads 256
# rows of _BLOCK levels (64 KB); 128 and 512 are within 7% of it, and the
# whole block at once is 1.1-1.3x slower (BENCH_9.json).
_TILE = 256

# Bytes of the row chunks of the curvature and the sums of squares.
_CHUNK_BYTES = 256 * 1024


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


def _laplacian_into(spec: GridSpec, out: np.ndarray, tmp: np.ndarray):
    """Return ``lap(g)``, which writes L g into ``out``, in ``_laplacian``'s order.

    g has out's shape (rows, nx, ...) and ``tmp`` is scratch of that shape;
    both are contiguous.  Every element sees the same IEEE operations as in
    ``_laplacian``: the centre x term, the left and right neighbours, then
    the centre z term and the neighbours in the rows above and below that
    lie inside g.  A neighbour product w * g[i] is formed once into ``tmp``
    and added to both neighbours; it is the same rounded value.

    With several x rows (a 2D block), each neighbour add is one contiguous
    add of ``tmp`` shifted by one node over the whole block, instead of one
    short loop per row: the node at the row end the add must not touch (the
    first node for the left neighbour, the last for the right) is saved
    before the add and restored after it.  One x row (1D, or one row of
    _stencil_rows) keeps the sliced add, which is contiguous already.  The
    views are made here once, because the sweeps call ``lap`` every step.
    """
    wx = 1.0 / spec.dx**2
    wz = 1.0 / spec.dz**2
    if len(out) > 1:
        node = out[0, 0].size  # elements per node
        flat_out, flat_tmp = out.reshape(-1), tmp.reshape(-1)
        edge = np.empty_like(out[:, 0])
        x_terms = ((flat_out[node:], flat_tmp[:-node], out[:, 0]),
                   (flat_out[:-node], flat_tmp[node:], out[:, -1]))
        z_terms = ((out[1:], tmp[:-1]), (out[:-1], tmp[1:]))
    else:
        x_terms = ((out[:, 1:], tmp[:, :-1], None), (out[:, :-1], tmp[:, 1:], None))
        z_terms = ()
    two_d = spec.ndim == 2

    def lap(g: np.ndarray) -> None:
        np.multiply(g, -2.0 * wx, out=out)
        np.multiply(g, wx, out=tmp)
        for target, term, kept in x_terms:
            if kept is None:
                np.add(target, term, out=target)
            else:
                np.copyto(edge, kept)
                np.add(target, term, out=target)
                np.copyto(kept, edge)
        if two_d:
            np.multiply(g, 2.0 * wz, out=tmp)
            np.subtract(out, tmp, out=out)
            if z_terms:
                np.multiply(g, wz, out=tmp)
                for target, term in z_terms:
                    np.add(target, term, out=target)

    return lap


def _scales(spec: GridSpec, m_values: np.ndarray, trailing_axes: int):
    """Stencil scale m/dt^2 and its inverse, shaped to broadcast over
    ``trailing_axes`` axes after the space axis."""
    shape = (m_values.shape[0],) + (1,) * trailing_axes
    c = (m_values / spec.dt**2).reshape(shape)
    s = (spec.dt**2 / m_values).reshape(shape)
    return c, s


def _stencil_rows(spec: GridSpec, m_values: np.ndarray, u: np.ndarray, out=None):
    """Yield (rows, block) for each z row of nodes, where block holds the
    stencil rows n >= 2 of A(m) u at those nodes.

    The block is written into out[rows, 2:] when ``out`` is given, else
    into scratch that the next row overwrites, so a consumer may reduce or
    modify it in place.  The scratch is two rows of nodes.
    """
    c, _ = _scales(spec, m_values, u.ndim - 1)
    nx, nz = spec.nx, spec.nz
    wz = 1.0 / spec.dz**2
    lap = np.empty((1, nx, spec.nt - 2) + u.shape[2:])
    tmp = np.empty_like(lap)
    row_laplacian = _laplacian_into(spec, lap, tmp)
    for iz in range(nz):
        rows = slice(iz * nx, (iz + 1) * nx)
        row_laplacian(u[None, rows, 1:-1])
        # the one-row halo, in _laplacian's order: the row above, then below
        if iz > 0:
            np.multiply(u[rows.start - nx : rows.start, 1:-1], wz, out=tmp[0])
            np.add(lap[0], tmp[0], out=lap[0])
        if iz < nz - 1:
            np.multiply(u[rows.stop : rows.stop + nx, 1:-1], wz, out=tmp[0])
            np.add(lap[0], tmp[0], out=lap[0])
        # c (u[n] - 2 u[n-1] + u[n-2]) - L u[n-1], in contiguous scratch
        np.multiply(u[rows, 1:-1], 2.0, out=tmp[0])
        np.subtract(u[rows, 2:], tmp[0], out=tmp[0])
        np.add(tmp[0], u[rows, :-2], out=tmp[0])
        np.multiply(tmp[0], c[rows], out=tmp[0])
        block = tmp[0] if out is None else out[rows, 2:]
        np.subtract(tmp[0], lap[0], out=block)
        yield rows, block


def _apply(spec: GridSpec, m_values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A(m) u, one z row of nodes at a time."""
    out = np.empty(u.shape)
    out[:, :2] = u[:, :2]
    for _ in _stencil_rows(spec, m_values, u, out):
        pass
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


def _recurrence(
    spec: GridSpec,
    s: np.ndarray,
    rhs: list[np.ndarray],
    out: list[np.ndarray],
    levels: range,
    prev2: list[np.ndarray],
    prev1: list[np.ndarray],
) -> None:
    """Write out[j][:, n] = s (rhs[j][:, n] + L p1) + 2 p1 - p2 for every
    column j and every n in ``levels``.

    rhs and out hold k (n_space, nt) fields each, and prev2/prev1 their
    starting levels.  ``levels`` runs forward or backward in time; p1 and p2
    are the one and two levels before n in that direction, and prev2/prev1
    are the two before the first.  The columns are stepped in groups whose
    time level fits _GROUP_BYTES, one group after the other; the columns are
    independent, so grouping changes no result.  Within a group the levels
    are stepped in time-major blocks of at most _BLOCK levels: each column's
    block of rhs is copied transposed, _TILE nodes at a time, into one
    contiguous (level, node, column) buffer, stepped there in place, written
    back into its own output, and the last two levels are carried into the
    next block.  A _Traces column is written into its zero-filled slice of
    the buffer instead.  The columns meet only inside the buffer, and the
    stencil scale is expanded to the buffer's full (nz, nx, k) shape, so
    every ufunc runs one flat loop.
    """
    if not levels:
        return
    width = max(1, _GROUP_BYTES // (8 * spec.n_space))
    for first in range(0, len(rhs), width):
        group = slice(first, first + width)
        _recurrence_group(spec, s, rhs[group], out[group], levels, prev2[group], prev1[group])


def _recurrence_group(spec, s, rhs, out, levels, prev2, prev1) -> None:
    """_recurrence for the columns of one group."""
    nz, nx, n_space = spec.nz, spec.nx, spec.n_space
    k = len(rhs)
    size = min(_BLOCK, len(levels))
    buf = np.empty((size + 2, n_space, k))
    for j in range(k):
        buf[0, :, j] = prev2[j]
        buf[1, :, j] = prev1[j]
    work = np.empty((nz, nx, k))
    laplacian = _laplacian_into(spec, work, np.empty_like(work))
    s = np.repeat(s.reshape(nz, nx, 1), k, axis=2)
    views = list(buf.reshape(size + 2, nz, nx, k))
    tiles = [slice(a, a + _TILE) for a in range(0, n_space, _TILE)]
    for first in range(0, len(levels), size):
        part = levels[first : first + size]
        count = len(part)
        lo = min(part[0], part[-1])
        block = buf[2 : 2 + count][:: levels.step]
        for j, col in enumerate(rhs):
            if isinstance(col, _Traces):
                block[:, :, j] = 0.0
                block[:, col.rows, j] = col.values[:, lo : lo + count].T
            else:
                for t in tiles:
                    block[:, t, j] = col[t, lo : lo + count].T
        for p2, p1, level in zip(views, views[1:], views[2 : 2 + count]):
            laplacian(p1)
            np.add(level, work, out=work)
            np.multiply(work, s, out=work)
            np.multiply(p1, 2.0, out=level)
            np.add(work, level, out=level)
            np.subtract(level, p2, out=level)
        for j in range(k):
            out[j][:, lo : lo + count] = block[..., j].T
        buf[:2] = buf[count : count + 2]


class _Traces(NamedTuple):
    """A sweep column that is zero except at the nodes ``rows``, where it
    holds ``values`` (len(rows), nt): the injection P^T d of receiver traces,
    never built as a dense field."""

    rows: list
    values: np.ndarray


def _level(col, n: int, n_space: int) -> np.ndarray:
    """Time level n of a sweep column, dense: a view of a field's column, or
    a zero-filled vector holding a _Traces column's samples."""
    if isinstance(col, _Traces):
        level = np.zeros(n_space)
        level[col.rows] = col.values[:, n]
        return level
    return col[:, n]


def _batch(spec: GridSpec, rhs, out=None):
    """(rhs columns, result, result columns) of a sweep's right-hand side.

    An array (n_space, nt, ...) has its trailing axes as batch columns, and
    its result is one array of the same shape; a sequence of k columns, each
    an (n_space, nt) array or a _Traces, is its own list of columns, and its
    result is a list of k separate arrays, or ``out`` when given.  Columns
    are (n_space, nt) views.
    """
    if isinstance(rhs, np.ndarray):
        out = np.empty(rhs.shape)
        rhs_cols, out_cols = (list(np.moveaxis(a.reshape(spec.n_space, spec.nt, -1), 2, 0))
                              for a in (rhs, out))
        return rhs_cols, out, out_cols
    out = [np.empty(spec.shape) for _ in rhs] if out is None else out
    return list(rhs), out, out


def _forward_sweep(spec: GridSpec, m_values: np.ndarray, rhs, out=None):
    """Explicit time stepping, solves A(m) u = rhs.

    rhs is an array with optional trailing batch axes, or a sequence of k
    columns, (n_space, nt) arrays or _Traces, swept as one batch; the result
    takes rhs's form.  A _Traces column gives bitwise the result of its
    dense injected field.  For a sequence, ``out`` may name the k arrays to
    write the result into, rhs's own arrays included: each block of rhs is
    read before the same block of the result is written.
    """
    _, s = _scales(spec, m_values, 0)
    n_space = spec.n_space
    rhs_cols, u, u_cols = _batch(spec, rhs, out)
    for r, uc in zip(rhs_cols, u_cols):
        uc[:, 0] = _level(r, 0, n_space)
        uc[:, 1] = _level(r, 1, n_space)
    _recurrence(spec, s, rhs_cols, u_cols, range(2, spec.nt),
                [uc[:, 0] for uc in u_cols], [uc[:, 1] for uc in u_cols])
    return u


def _adjoint_sweep(spec: GridSpec, m_values: np.ndarray, rhs):
    """Reverse time stepping, solves A(m)^T v = rhs; rhs as in _forward_sweep."""
    nt, n_space = spec.nt, spec.n_space
    c, s = _scales(spec, m_values, 0)
    rhs_cols, v, v_cols = _batch(spec, rhs)
    for r, vc in zip(rhs_cols, v_cols):
        vc[:, nt - 1] = s * _level(r, nt - 1, n_space)
    # the level after nt - 1 is zero, and x - 0.0 == x, so the first step
    # matches the stencil row that has no v[:, n + 2] term
    zero = np.zeros(n_space)
    _recurrence(spec, s, rhs_cols, v_cols, range(nt - 2, 1, -1),
                [zero] * len(rhs_cols), [vc[:, nt - 1] for vc in v_cols])
    # columns 0 and 1 meet the identity rows, so no 1/c scaling there
    for r, vc in zip(rhs_cols, v_cols):
        t1 = _level(r, 1, n_space) + 2.0 * c * vc[:, 2] + _laplacian(spec, vc[:, 2])
        if nt >= 4:
            t1 = t1 - c * vc[:, 3]
        vc[:, 1] = t1
        vc[:, 0] = _level(r, 0, n_space) - c * vc[:, 2]
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


def _solve(sweep, name: str, m: ModelGrid, fields) -> tuple[Wavefield, ...]:
    """Sweep a batch of fields on m's grid, one batched sweep for all.  A
    TraceData right-hand side is injected at its receivers (P^T d) inside
    the sweep's working block, so no dense injected field is built."""
    columns = []
    for f in fields:
        _check_pair(m, f)
        if isinstance(f, TraceData):
            f.geometry.validate_for(f.spec)
            columns.append(_Traces(list(f.geometry.receiver_nodes), f.values))
        else:
            columns.append(f.values)
    check_cfl(m.spec, m.values)
    out = sweep(m.spec, m.values, columns)
    try:
        return tuple(Wavefield(m.spec, values) for values in out)
    except ValueError as exc:  # Wavefield's finiteness check, one scan per field
        raise DivergenceError(f"{name} solve produced non-finite values") from exc


def forward_solve(m: ModelGrid, b: SourceField) -> Wavefield:
    """Solve A(m) u = b by explicit time stepping.

    The CFL bound is re-checked here because inversion loops update the
    model between solves; a non-finite result raises DivergenceError.
    """
    (u,) = _solve(_forward_sweep, "forward", m, [b])
    return u


def forward_solves(m: ModelGrid, sources) -> tuple[Wavefield, ...]:
    """forward_solve for every source, as one batched sweep."""
    return _solve(_forward_sweep, "forward", m, sources)


def adjoint_solve(m: ModelGrid, r: SourceField) -> Wavefield:
    """Solve A(m)^T v = r by reverse time stepping, checked as forward_solve."""
    (v,) = _solve(_adjoint_sweep, "adjoint", m, [r])
    return v


def adjoint_solves(m: ModelGrid, rhs) -> tuple[Wavefield, ...]:
    """adjoint_solve for every right-hand side, as one batched sweep.  A
    right-hand side is a SourceField, or TraceData standing for P^T d, which
    is injected inside the sweep and gives bitwise the same field as
    adjoint_solve(m, inject(d))."""
    return _solve(_adjoint_sweep, "adjoint", m, rhs)


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


def _row_chunks(n_rows: int, row_bytes: int) -> list[slice]:
    """Slices of at most _CHUNK_BYTES worth of rows each, covering n_rows."""
    size = max(1, _CHUNK_BYTES // row_bytes)
    return [slice(a, min(a + size, n_rows)) for a in range(0, n_rows, size)]


def operator_time_curvature(u: Wavefield) -> np.ndarray:
    """Row-aligned time curvature of a field, i.e. d(A(m) u)/dm per node.

    Zero at the two initial-condition rows; rows n >= 2 hold
    (u[:, n] - 2 u[:, n-1] + u[:, n-2]) / dt**2, matching the operator's
    internal stencil placement exactly.
    """
    vals = u.values
    out = np.empty(vals.shape)
    for rows in _row_chunks(len(vals), vals[0].nbytes):
        _curvature_into(u.spec.dt, vals[rows], out[rows])
    return out


def _curvature_into(dt: float, u: np.ndarray, out: np.ndarray) -> None:
    """Write the curvature of the field rows u (rows, nt) into out.

    (u[:, n] - 2 u[:, n-1] + u[:, n-2]) / dt**2 at n >= 2, zero before,
    evaluated left to right like the whole-array expression.
    """
    out[:, :2] = 0.0
    d = out[:, 2:]
    np.multiply(u[:, 1:-1], 2.0, out=d)
    np.subtract(u[:, 2:], d, out=d)
    np.add(d, u[:, :-2], out=d)
    np.divide(d, dt**2, out=d)


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
    n_space = u.spec.n_space
    chunks = _row_chunks(n_space, u.values[0].nbytes)
    ddu = np.empty((chunks[0].stop, u.spec.nt))
    product = np.empty_like(ddu)
    numerator = np.empty(n_space)
    denominator = np.empty(n_space)
    for rows in chunks:
        n = rows.stop - rows.start
        d, p = ddu[:n], product[:n]
        _curvature_into(u.spec.dt, u.values[rows], d)
        np.multiply(v.values[rows], d, out=p)
        np.sum(p, axis=1, out=numerator[rows])
        np.multiply(d, d, out=p)
        np.sum(p, axis=1, out=denominator[rows])
    return numerator, denominator


def sum_of_squares(values: np.ndarray) -> float:
    """np.sum(values**2) over a field, in row chunks, without a full-size
    temporary; it may differ from the whole-array sum at round-off."""
    chunks = _row_chunks(len(values), values[0].nbytes)
    scratch = np.empty((chunks[0].stop,) + values.shape[1:])
    total = 0.0
    for rows in chunks:
        part = scratch[: rows.stop - rows.start]
        np.multiply(values[rows], values[rows], out=part)
        total += float(np.sum(part))
    return total


def residual_sum_of_squares(m: ModelGrid, u: Wavefield, b: SourceField) -> float:
    """||A(m) u - b||^2 without forming A(m) u: the stencil rows are reduced
    one row of nodes at a time, so it may differ from the whole-array sum at
    round-off."""
    _check_pair(m, u)
    _check_pair(m, b)
    head = u.values[:, :2] - b.values[:, :2]
    total = float(np.sum(head * head))
    for rows, block in _stencil_rows(u.spec, m.values, u.values):
        np.subtract(block, b.values[rows, 2:], out=block)
        np.multiply(block, block, out=block)
        total += float(np.sum(block))
    return total


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

