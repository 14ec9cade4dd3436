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
  until every level of them is used.  The level loop issues the
  stencil's ufunc calls itself (``_recurrence_group``).
* A sweep takes a batch of k right-hand sides at once
  (``forward_solves``/``adjoint_solves``, the batched solves of a step's
  sources).  The columns are stepped in groups whose time level, (node,
  column), fits _GROUP_BYTES: on a 101 x 101 grid that is one column per
  group, on the 1D grids all of them; the columns of a group share only
  its working block, (level, node, column).  Small grids are bound by the
  Python cost of each time step, not by flops, so one sweep of k columns
  costs little more than one of a single column.
* A batch, in or out, is one of three kinds, which ``_load`` and
  ``_store`` copy into and out of the working block:
  - a list of k [node, n] fields, copied transposed tile by tile; each
    output column gets its own contiguous field, so no stacked copy
    of the fields exists;
  - a ``_DenseStack``, k dense columns held time-major as one
    (k, nt, n_space) array, copied in or out by one array operation with
    no [node, n] field to transpose: the data-space Hessian's Green's
    functions and the H products' intermediate fields;
  - a ``_TraceStack``, k columns of receiver traces on shared rows, one
    (k, n_rows, nt) array, injected or sampled by one indexed operation
    per block.  As a right-hand side it is P^T d, written into the
    zero-filled block, so no dense injected field is built.  A batch of
    TraceData is one (``_columns``): point sources (one-node TraceData
    holding their wavelets, config.build_sources) or data residuals; so
    are the H products' traces and the Hessian's impulses.
    As the forward sweep's output it receives P A^-1 f, the swept field at
    its rows (``forward_traces``, ``_sampled_sweep``): only those rows of
    each block are written and the first two levels come from the
    right-hand side (``_levels``), so the field is never allocated.  This
    is how every caller that only samples the field sweeps.
  Each stacked sweep is bitwise that of its list of dense columns.  Where
  a point source meets a dense field, ``add_source`` and
  ``subtract_source`` give bitwise the dense b + x and x - b while touching
  only the source's nodes.
* The Laplacian of a 2D block adds each x neighbour as one contiguous add
  over the whole block, shifted by one node, and puts back the row-end
  nodes that add must not touch (``_laplacian_into``).
* Every scalar operand of a per-step ufunc call (the Laplacian's four
  weights, the recurrence's 2.0) is a 0-d float64 array made once per
  column group, so numpy converts no Python float per call; the IEEE
  products are the same.
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

from dataclasses import dataclass

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
    "forward_solves",
    "forward_traces",
    "adjoint_solves",
    "sample",
    "operator_time_curvature",
    "scattering_source",
    "correlation_terms",
    "sum_of_squares",
    "residual_sum_of_squares",
    "add_source",
    "subtract_source",
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


def _laplacian_operands(spec: GridSpec, out: np.ndarray, tmp: np.ndarray):
    """(weights, x_terms, z_terms, edge): the operands of L g written into
    ``out`` with the scratch ``tmp``, made once for every g.

    weights are the 0-d centre x, side x, centre z and side z weights (a
    ufunc converts a Python float on every call).  x_terms holds the left
    then the right neighbour add as (target, term, kept) views, z_terms the
    row above then the row below as (target, term) views.  With several x
    rows (a 2D block), each x add is one contiguous add of ``tmp`` shifted
    by one node over the whole block, instead of one short loop per row:
    the node at the row end the add must not touch (``kept``, the first
    node for the left neighbour, the last for the right) is saved into
    ``edge`` before the add and restored after it.  One x row (1D, or one
    row of _stencil_rows) keeps the sliced add, which is contiguous
    already; its kept and edge are None and it has no z_terms."""
    wx = 1.0 / spec.dx**2
    wz = 1.0 / spec.dz**2
    weights = tuple(np.array(w) for w in (-2.0 * wx, wx, 2.0 * wz, wz))
    if len(out) == 1:
        return weights, ((out[:, 1:], tmp[:, :-1], None), (out[:, :-1], tmp[:, 1:], None)), (), None
    node = out[0, 0].size  # elements per node
    flat_out, flat_tmp = out.reshape(-1), tmp.reshape(-1)
    x_terms = ((flat_out[node:], flat_tmp[:-node], out[:, 0]),
               (flat_out[:-node], flat_tmp[node:], out[:, -1]))
    z_terms = ((out[1:], tmp[:-1]), (out[:-1], tmp[1:]))
    return weights, x_terms, z_terms, np.empty_like(out[:, 0])


def _laplacian_into(spec: GridSpec, out: np.ndarray, tmp: np.ndarray):
    """Return ``lap(g)``, which writes the zero-Dirichlet Laplacian L g into
    ``out``; out-of-grid neighbours count as zero.

    g has out's shape (rows, nx, ...) and ``tmp`` is scratch of that shape;
    both are contiguous.  Every element sees the IEEE operations of the
    whole-array form, in its order: the centre x term, the left and right
    neighbours, then the centre z term and the neighbours in the rows above
    and below that lie inside g.  A neighbour product w * g[i] is formed
    once into ``tmp`` and added to both neighbours; it is the same rounded
    value.  The views (``_laplacian_operands``) are made here once.  The
    sweeps' level loop spells the same calls inline (``_recurrence_group``).
    """
    weights, x_terms, z_terms, edge = _laplacian_operands(spec, out, tmp)
    centre_x, side_x, centre_z, side_z = weights
    two_d = spec.ndim == 2

    def lap(g: np.ndarray) -> None:
        np.multiply(g, centre_x, out=out)
        np.multiply(g, side_x, out=tmp)
        for target, term, kept in x_terms:
            if kept is None:
                np.add(target, term, out=target)
            else:
                np.copyto(edge, kept)
                np.add(target, term, out=target)
                np.copyto(kept, edge)
        if two_d:
            np.multiply(g, centre_z, out=tmp)
            np.subtract(out, tmp, out=out)
            if z_terms:
                np.multiply(g, side_z, out=tmp)
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
        # the one-row halo, in the Laplacian's order: the row above, then below
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
    lap = np.empty((spec.nz, spec.nx, nt - 2) + v.shape[2:])
    _laplacian_into(spec, lap, np.empty_like(lap))(v[:, 2:].reshape(lap.shape))
    out[:, 1 : nt - 1] += -2.0 * c * v[:, 2:] - lap.reshape(v[:, 2:].shape)
    out[:, : nt - 2] += c * v[:, 2:]
    return out


def _recurrence(
    spec: GridSpec,
    s: np.ndarray,
    rhs,
    out,
    levels: range,
    prev2: np.ndarray,
    prev1: np.ndarray,
) -> None:
    """Write out[j][:, n] = s (rhs[j][:, n] + L p1) + 2 p1 - p2 for every
    column j and every n in ``levels``.

    rhs and out are batches of k sweep columns each (a list of (n_space, nt)
    fields, a _DenseStack or a _TraceStack), and prev2/prev1 the
    columns' two starting levels, dense (n_space, k) arrays.  ``levels``
    runs forward or backward in time; p1 and p2 are the one and two levels
    before n in that direction, and prev2/prev1 are the two before the
    first.  The columns are stepped in groups whose time level fits
    _GROUP_BYTES, one group after the other; the columns are independent,
    so grouping changes no result.  Within a group the levels are stepped in
    time-major blocks of at most _BLOCK levels: each block of rhs is copied
    into one contiguous (level, node, column) buffer (_load), stepped there
    in place, written back into out (_store), and the last two levels are
    carried into the next block.  The columns meet only inside the buffer,
    and the stencil scale is expanded to the buffer's full (nz, nx, k)
    shape, so every ufunc runs one flat loop (the level loop:
    _recurrence_group).
    """
    if not levels:
        return
    width = max(1, _GROUP_BYTES // (8 * spec.n_space))
    for first in range(0, len(rhs), width):
        group = slice(first, first + width)
        _recurrence_group(spec, s, rhs[group], out[group], levels, prev2[:, group],
                          prev1[:, group])


def _recurrence_group(spec, s, rhs, out, levels, prev2, prev1) -> None:
    """_recurrence for the columns of one group.

    The level loop issues the ufunc calls of L p1 itself, in
    ``_laplacian_into``'s order (the x terms, then the row above, then the
    row below), on views and 0-d operands made once here, so stepping a
    level calls no Python function: on the Python-bound 1D grids a function
    call per level costs about a tenth of a sweep.  The order is thus
    spelled twice, here and in ``_laplacian_into``;
    test_kernels_match_stepped_references_bitwise pins both against the
    stepped reference, and scripts/digest_iterates.py checks the iterates'
    bytes."""
    nz, nx, n_space = spec.nz, spec.nx, spec.n_space
    k = len(rhs)
    size = min(_BLOCK, len(levels))
    buf = np.empty((size + 2, n_space, k))
    buf[0] = prev2
    buf[1] = prev1
    work, tmp = np.empty((nz, nx, k)), np.empty((nz, nx, k))
    weights, x_terms, z_terms, edge = _laplacian_operands(spec, work, tmp)
    centre_x, side_x, centre_z, side_z = weights
    (from_left, left_products, row_firsts), (from_right, right_products, row_lasts) = x_terms
    (from_above, above_products), (from_below, below_products) = z_terms or 2 * ((None, None),)
    s = np.repeat(s.reshape(nz, nx, 1), k, axis=2)
    two = np.array(2.0)  # a 0-d operand, as the weights
    add, multiply, subtract, copyto = np.add, np.multiply, np.subtract, np.copyto
    views = list(buf.reshape(size + 2, nz, nx, k))
    for first in range(0, len(levels), size):
        part = levels[first : first + size]
        count = len(part)
        lo = min(part[0], part[-1])
        block = buf[2 : 2 + count][:: levels.step]
        _load(rhs, block, lo)
        for p2, p1, level in zip(views, views[1:], views[2 : 2 + count]):
            # the third argument is out: a keyword costs each call a parse
            multiply(p1, centre_x, work)
            multiply(p1, side_x, tmp)
            if edge is None:  # 1D: one x row, no z terms
                add(from_left, left_products, from_left)
                add(from_right, right_products, from_right)
            else:
                copyto(edge, row_firsts)
                add(from_left, left_products, from_left)
                copyto(row_firsts, edge)
                copyto(edge, row_lasts)
                add(from_right, right_products, from_right)
                copyto(row_lasts, edge)
                multiply(p1, centre_z, tmp)
                subtract(work, tmp, work)
                multiply(p1, side_z, tmp)
                add(from_above, above_products, from_above)
                add(from_below, below_products, from_below)
            add(level, work, work)
            multiply(work, s, work)
            multiply(p1, two, level)
            add(work, level, level)
            subtract(level, p2, level)
        _store(out, block, lo)
        buf[:2] = buf[count : count + 2]


@dataclass(frozen=True)
class _DenseStack:
    """A batch of k dense sweep columns held time-major as one
    (k, nt, n_space) array: values[j, n] is level n of column j.  A working
    block of all k columns is copied in or out by one array operation."""

    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, group: slice) -> _DenseStack:
        return _DenseStack(self.values[group])


@dataclass(frozen=True)
class _TraceStack:
    """A batch of k sweep columns that are zero except at the distinct nodes
    ``rows``, where column j holds values[j], (len(rows), nt): the injection
    P^T d of receiver traces, never built as a dense field.  As the output
    of the forward sweep it receives the rows of the swept fields, P u.  A
    working block of all k columns is injected or sampled by one indexed
    operation."""

    rows: list
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, group: slice) -> _TraceStack:
        return _TraceStack(self.rows, self.values[group])


def _load(cols, block: np.ndarray, lo: int) -> None:
    """Copy levels lo, lo + 1, ... of the batch cols into the working block,
    (level, node, column).  A list's [node, n] fields are copied transposed,
    _TILE nodes at a time, so the rows it reads stay in cache until every
    level of them is used; a _TraceStack is written into the zero-filled
    block at its rows."""
    hi = lo + len(block)
    if isinstance(cols, _DenseStack):
        block[...] = cols.values[:, lo:hi].transpose(1, 2, 0)
    elif isinstance(cols, _TraceStack):
        block[...] = 0.0
        block[:, cols.rows] = cols.values[:, :, lo:hi].transpose(2, 1, 0)
    else:
        for j, col in enumerate(cols):
            for a in range(0, block.shape[1], _TILE):
                t = slice(a, a + _TILE)
                block[:, t, j] = col[t, lo:hi].T


def _store(cols, block: np.ndarray, lo: int) -> None:
    """Copy the working block (level, node, column) into levels lo, lo + 1,
    ... of the batch cols; a _TraceStack receives its rows only."""
    hi = lo + len(block)
    if isinstance(cols, _DenseStack):
        cols.values[:, lo:hi] = block.transpose(2, 0, 1)
    elif isinstance(cols, _TraceStack):
        cols.values[:, :, lo:hi] = block[:, cols.rows].transpose(2, 1, 0)
    else:
        for j, col in enumerate(cols):
            col[:, lo:hi] = block[..., j].T


def _levels(cols, n: int, n_space: int) -> np.ndarray:
    """Time level n of every column of the batch cols, dense, as one fresh
    (n_space, k) array (_load of that one level): a field's level, or zeros
    holding a trace stack's samples."""
    level = np.empty((1, n_space, len(cols)))
    _load(cols, level, n)
    return level[0]


def _forward_sweep(spec: GridSpec, m_values: np.ndarray, rhs, out=None):
    """Explicit time stepping, solves A(m) u = rhs.

    rhs is a batch of k columns of one kind: a list of (n_space, nt)
    arrays, a _DenseStack or a _TraceStack, swept by default into a list of
    k separate (n_space, nt) arrays.  A stack gives bitwise the result of
    its list of dense columns (a _TraceStack that of its injected fields).
    ``out`` may name the batch to write the result into: (n_space, nt)
    arrays, rhs's own arrays included (each block of rhs is read before the
    same block of the result is written), or either stack; a _TraceStack
    receives the fields at its rows only.  The first two levels of u are
    those of rhs, so they are taken from rhs.
    """
    _, s = _scales(spec, m_values, 0)
    u = [np.empty(spec.shape) for _ in range(len(rhs))] if out is None else out
    start = [_levels(rhs, n, spec.n_space) for n in (0, 1)]
    for n, level in enumerate(start):
        _store(u, level[None], n)
    _recurrence(spec, s, rhs, u, range(2, spec.nt), *start)
    return u


def _sampled_sweep(spec: GridSpec, m_values: np.ndarray, rhs, rows: list) -> np.ndarray:
    """P A(m)^-1 f for each column f of the batch rhs: the (k, len(rows), nt)
    traces of the swept fields at the nodes ``rows``, bitwise those of
    _forward_sweep, from one batched sweep into a _TraceStack that never
    builds a field."""
    out = _TraceStack(rows, np.empty((len(rhs), len(rows), spec.nt)))
    return _forward_sweep(spec, m_values, rhs, out).values


def _adjoint_sweep(spec: GridSpec, m_values: np.ndarray, rhs, out=None):
    """Reverse time stepping, solves A(m)^T v = rhs; rhs, out and the result
    as in _forward_sweep, except that out holds dense columns only (a list
    of (n_space, nt) arrays or a _DenseStack), since levels 0 and 1 are
    finished from levels 2 and 3 of the result."""
    nt, n_space = spec.nt, spec.n_space
    c, s = _scales(spec, m_values, 1)
    v = [np.empty(spec.shape) for _ in range(len(rhs))] if out is None else out
    last = s * _levels(rhs, nt - 1, n_space)
    _store(v, last[None], nt - 1)
    # the level after nt - 1 is zero, and x - 0.0 == x, so the first step
    # matches the stencil row that has no v[:, n + 2] term
    _recurrence(spec, s, rhs, v, range(nt - 2, 1, -1), np.zeros_like(last), last)
    # levels 0 and 1 meet the identity rows, so no 1/c scaling there; they
    # are finished for the whole batch at once, on (n_space, k) arrays
    v2 = _levels(v, 2, n_space)
    lap = np.empty((spec.nz, spec.nx, len(v)))
    _laplacian_into(spec, lap, np.empty_like(lap))(v2.reshape(lap.shape))
    t1 = _levels(rhs, 1, n_space) + 2.0 * c * v2 + lap.reshape(v2.shape)
    if nt >= 4:
        t1 = t1 - c * _levels(v, 3, n_space)
    t0 = _levels(rhs, 0, n_space) - c * v2
    _store(v, t1[None], 1)
    _store(v, t0[None], 0)
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


def _columns(m: ModelGrid, fields):
    """The sweep batch of right-hand sides on m's grid, all of one kind: the
    list of SourceFields' values, or TraceData as one _TraceStack on the
    sorted union of their receiver nodes, column j zero on the rows it does
    not own, injected (P^T d) inside the sweep's working block, so no dense
    injected field is built.  A batch that mixes the two raises
    ValueError."""
    fields = list(fields)
    for f in fields:
        _check_pair(m, f)
        if isinstance(f, TraceData):
            f.geometry.validate_for(f.spec)
    check_cfl(m.spec, m.values)
    traces = [f for f in fields if isinstance(f, TraceData)]
    if not traces:
        return [f.values for f in fields]
    if len(traces) < len(fields):
        raise ValueError("a batch mixes SourceField and TraceData right-hand sides")
    rows = sorted({node for d in traces for node in d.geometry.receiver_nodes})
    values = np.zeros((len(traces), len(rows), m.spec.nt))
    for j, d in enumerate(traces):
        values[j, np.searchsorted(rows, d.geometry.receiver_nodes)] = d.values
    return _TraceStack(rows, values)


def _solve(sweep, name: str, m: ModelGrid, fields) -> tuple[Wavefield, ...]:
    """Sweep a batch of right-hand sides on m's grid, one batched sweep for
    all."""
    out = sweep(m.spec, m.values, _columns(m, fields))
    try:
        return tuple(Wavefield(m.spec, values) for values in out)
    except ValueError as exc:  # Wavefield's finiteness check, one scan per field
        raise DivergenceError(f"{name} solve produced non-finite values") from exc


def forward_solves(m: ModelGrid, sources) -> tuple[Wavefield, ...]:
    """Solve A(m) u = b for every source b by explicit time stepping, as one
    batched sweep.  The sources are all SourceFields or all TraceData, each
    standing for its injection P^T d (a point source), which is injected
    inside the sweep; a batch of both kinds raises ValueError.  The CFL
    bound is re-checked here because inversion loops update the model
    between solves; a non-finite result raises DivergenceError."""
    return _solve(_forward_sweep, "forward", m, sources)


def forward_traces(m: ModelGrid, sources, geometry: AcquisitionGeometry) -> tuple[TraceData, ...]:
    """sample(u, geometry) of each u in forward_solves(m, sources), bitwise,
    as one batched sweep that writes only the receiver rows: no field is
    allocated.  The sources are of one kind, as in forward_solves;
    non-finite traces raise DivergenceError."""
    geometry.validate_for(m.spec)
    traces = _sampled_sweep(m.spec, m.values, _columns(m, sources),
                            list(geometry.receiver_nodes))
    try:
        return tuple(TraceData(m.spec, geometry, values) for values in traces)
    except ValueError as exc:  # TraceData's finiteness check
        raise DivergenceError("forward solve produced non-finite values") from exc


def adjoint_solves(m: ModelGrid, rhs) -> tuple[Wavefield, ...]:
    """Solve A(m)^T v = r for every right-hand side r by reverse time
    stepping, as one batched sweep, checked as forward_solves.  The
    right-hand sides are all SourceFields or all TraceData, standing for
    P^T d, which is injected inside the sweep and gives bitwise the same
    field as the adjoint solve of its dense injected field."""
    return _solve(_adjoint_sweep, "adjoint", m, rhs)


def sample(u: Wavefield, geometry: AcquisitionGeometry) -> TraceData:
    """Restrict a field to the receiver nodes (the operator P)."""
    geometry.validate_for(u.spec)
    values = u.values[list(geometry.receiver_nodes), :]
    return TraceData(u.spec, geometry, values.copy())


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


def residual_sum_of_squares(m: ModelGrid, u: Wavefield, b) -> float:
    """||A(m) u - b||^2 without forming A(m) u: the stencil rows are reduced
    one row of nodes at a time, so it may differ from the whole-array sum at
    round-off.  b is a source as in forward_solves."""
    _check_pair(m, u)
    _check_pair(m, b)
    head = subtract_source(u.values[:, :2].copy(), b, levels=slice(0, 2))
    total = float(np.sum(head * head))
    for rows, block in _stencil_rows(u.spec, m.values, u.values):
        subtract_source(block, b, rows, slice(2, None))
        np.multiply(block, block, out=block)
        total += float(np.sum(block))
    return total


def add_source(b, x: np.ndarray) -> np.ndarray:
    """b + x as a fresh array, for a source b (as in forward_solves) on the
    grid of the field x: bitwise the dense b.values + x.  A TraceData
    source is added at its nodes only; off them the dense sum is 0.0 + x,
    which turns -0.0 into +0.0, and x + 0.0 does the same."""
    if not isinstance(b, TraceData):
        return b.values + x
    out = x + 0.0
    nodes = list(b.geometry.receiver_nodes)
    out[nodes] = b.values + x[nodes]
    return out


def subtract_source(x: np.ndarray, b, rows: slice = slice(None),
                    levels: slice = slice(None)) -> np.ndarray:
    """x - b in place, returned, where x holds the nodes ``rows`` and the
    time levels ``levels`` of a field and b is a source as in
    forward_solves: bitwise the dense x - b.values[rows, levels].  Off a
    TraceData source's nodes that is x - 0.0, which is x, so only its nodes
    are written."""
    if not isinstance(b, TraceData):
        return np.subtract(x, b.values[rows, levels], out=x)
    window = range(b.spec.n_space)[rows]
    for i, node in enumerate(b.geometry.receiver_nodes):
        if node in window:
            j = window.index(node)
            np.subtract(x[j], b.values[i, levels], out=x[j])
    return x


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

