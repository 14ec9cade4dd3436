"""Extended-source saddle solves: the penalty, augmented-Lagrangian and
scattering-type iterations in one data-space solve.

The saddle system for penalty weight mu and the source b extended by s is

    [ A        -I/mu ] [u]   [b + s]
    [ P^T P     A^T  ] [v] = [P^T d]

with s = 0 in the plain penalty variant, s = -w/mu in the augmented one,
and s = -eps or phi - lam_prev in the scattering-type iterations.
Eliminating u pushes the solve into data space,

    v = A^-T P^T (I + (1/mu) H)^-1 (d - P A^-1 (b + s)),
    H = P A^-1 A^-T P^T = G G^T,   G = P A^-1,

and eliminating v instead gives the normal equations
(P^T P + mu A^T A) u = P^T d + mu A^T (b + s); with u = A^-1 z they are
(I + G^T G / mu) z = (b + s) + G^T d / mu, whose solution is
z = (b + s) + G^T y with the same y.  So the wavefield and the multiplier
orientations are one system, (H + mu I) y = delta_d - G s with the plain
forward residual delta_d = d - G b, and one solve: data_space_multipliers
maps receiver-trace right-hand sides r to the scaled multiplier
lam = A^-T P^T (H + mu I)^-1 r, and solve_saddle lifts it into
u = A^-1 ((b + lam) + s) and v = mu lam.  Since A u = b + s + lam, that v
is also the wavefield orientation's w + mu (A u - b).  The scaled
multiplier is the damped least-squares solution of P A^-1 lam = r with
damping mu.

y comes from one of two backends, picked by the caller:

* dense: H is assembled as a small receiver-sample Gram matrix built from
  one Green's function per receiver (a single batched forward sweep), and
  H + mu I is factorized once per call.  Every call sees a new model, so
  nothing is kept between calls, and the path holds one n x n array: H is
  assembled in one buffer by BLAS dsyrk, mu is added to its diagonal, and
  the factor is computed in place in that buffer.  The factor's entries are
  checked for finiteness when it is computed; the Cholesky solve checks its
  right-hand sides.
* matrix-free: CG on (H + mu I) y, each H product one adjoint sweep of
  receiver traces and one forward sweep that writes only the receiver
  rows (trace-out).  The batch's traces enter as one stack, and the
  adjoint sweep writes its fields time-major into one (k, nt, n_space)
  stack that the forward sweep reads block by block, so the intermediate
  fields are never transposed into [node, n] fields
  (_hessian_products).  H's spectrum decays fast, so a randomized Nystrom
  sketch of H (nystrom_sketch, its rank grown while a chunk of it is
  estimated to save more H products than it costs) preconditions the CG
  and deflates its large eigenvalues; the CG vectors are traces.  A column
  that misses cg_tol raises SolverNotConvergedError, so its result is never
  used.

Every solve takes the sources of one step, which share the model and the
receivers (traces that disagree on receivers raise ValueError); a caller
with one source passes one-element lists.  Each stage is one batched sweep
over the sources; the dense backend makes one multi-column Cholesky solve,
and the matrix-free backend runs the sources' CGs in lock step with one
sketch shared by the step.  Every column does the same floating-point
operations as a batch of its source alone, so a source's result does not
depend on the batch it is solved in, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyrk

from .errors import SingularSystemError, SolverNotConvergedError
from .grids import AcquisitionGeometry, GridSpec, ModelGrid, SourceField
from .wavecore import (
    _DenseStack,
    _TraceStack,
    _adjoint_sweep,
    _forward_sweep,
    _sampled_sweep,
    _scales,
    add_source,
    forward_solves,
    forward_traces,
)

__all__ = [
    "PenaltyConfig",
    "SolveInfo",
    "NystromSketch",
    "nystrom_sketch",
    "DataSpaceHessian",
    "assemble_data_space_hessian",
    "data_space_multipliers",
    "solve_saddle",
]


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weight and solver knobs shared by the saddle-based schemes.

    ``alpha`` is the model step length; None means 1/mu, which is the value
    every equivalence between the penalty/AL family and the scattering
    family is stated at. ``cg_tol`` and ``cg_maxiter`` drive the CG of
    data_space_multipliers' matrix-free backend: ``cg_tol`` bounds the
    residual of its data-space system (H + mu I) y = r relative to that
    system's right-hand side (the unpreconditioned residual, whatever the
    preconditioner); 1e-10 is oracle-grade, 1e-6 is plenty for production
    inversion runs.  gauss-newton and gauss-seidel take ``mu`` unscaled as
    the damping delta of (J^T J + delta I); on the two-scatterer benchmark
    and on a 15 x 13 x 60 2D grid both diverge after one step for every
    delta from 1e-4 to 1e12.
    """

    mu: float
    alpha: float | None = None
    cg_tol: float = 1e-10
    cg_maxiter: int = 20000

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if self.alpha is not None and not self.alpha > 0:
            raise ValueError("alpha must be positive when given")
        if not 0 < self.cg_tol < 1:
            raise ValueError("cg_tol must lie in (0, 1)")
        if self.cg_maxiter < 1:
            raise ValueError("cg_maxiter must be at least 1")

    @property
    def step_length(self) -> float:
        return 1.0 / self.mu if self.alpha is None else self.alpha


@dataclass(frozen=True)
class SolveInfo:
    converged: bool
    iterations: int
    relative_residual: float


# CG replaces its recursive residual by the true one every this many iterations.
_CG_RECOMPUTE_EVERY = 50


class _Column:
    """One right-hand side's CG state: its iterate, residual and its norm,
    direction and scalars, from x = 0."""

    def __init__(self, index: int, rhs: np.ndarray):
        self.index = index
        self.rhs = rhs
        self.rhs_norm = float(np.linalg.norm(rhs))
        self.x = np.zeros_like(rhs)
        self.r = rhs.copy()
        self.res = self.rhs_norm

    def info(self, converged: bool, iterations: int) -> SolveInfo:
        return SolveInfo(converged, iterations, self.res / self.rhs_norm)


def _cg(apply_op, rhs, tol, maxiter, precondition):
    """Preconditioned conjugate gradients on an SPD operator, k right-hand
    sides in lock step.

    rhs is a sequence of k flat arrays, each column starts at zero, and
    apply_op maps a list of flat arrays to the list of their products.
    precondition maps a list of residuals to the list of M^-1 r for an SPD
    M, one column at a time (``lambda rs: rs`` is M = I).  This is the
    column-wise form of block CG (O'Leary, Linear Algebra Appl. 29, 1980):
    every column keeps its own scalars, convergence test and exit on loss of
    positive definiteness, and does the same floating-point operations as a
    solve of its own.  A column that has finished leaves the batch, so each
    iteration applies the operator and the preconditioner once to the
    columns still in it.  The convergence test is on the unpreconditioned
    residual, whose true value is recomputed periodically so the recursion
    cannot drift.  Returns one (last iterate, SolveInfo) per column; a
    converged column's last iterate is the first to meet tol, so it has the
    smallest residual of its iterates.
    """
    results = [None] * len(rhs)
    live = []
    for j, b in enumerate(rhs):
        column = _Column(j, b)
        if column.rhs_norm == 0.0:
            results[j] = (np.zeros_like(b), SolveInfo(True, 0, 0.0))
        else:
            live.append(column)

    def finish(column, converged, iterations):
        results[column.index] = (column.x, column.info(converged, iterations))

    def directions(columns, first=False):
        """Start (first) or update each column's direction from its
        preconditioned residual z."""
        for column, z in zip(columns, precondition([c.r for c in columns])):
            rs_new = float(column.r @ z)
            if first:
                column.p = z.copy()
            else:
                np.multiply(column.p, rs_new / column.rs, out=column.p)
                np.add(z, column.p, out=column.p)
            column.rs = rs_new

    directions(live, first=True)
    it = 0
    for it in range(1, maxiter + 1):
        if not live:
            break
        stepped, steps = [], []
        for column, ap in zip(live, apply_op([c.p for c in live])):
            denom = float(column.p @ ap)
            if denom <= 0.0:
                # loss of positive definiteness: this iteration made no step
                finish(column, False, it - 1)
                continue
            step = column.rs / denom
            column.x += step * column.p
            stepped.append(column)
            steps.append((step, ap))
        if it % _CG_RECOMPUTE_EVERY == 0 and stepped:
            for column, ax in zip(stepped, apply_op([c.x for c in stepped])):
                column.r = column.rhs - ax
        else:
            for column, (step, ap) in zip(stepped, steps):
                column.r -= step * ap
        live = []
        for column in stepped:
            column.res = np.sqrt(float(column.r @ column.r))
            if column.res / column.rhs_norm <= tol:
                finish(column, True, it)
            else:
                live.append(column)
        directions(live)
    for column in live:
        finish(column, False, it)
    return results


def _hessian_products(spec: GridSpec, m_values: np.ndarray, rec: list, between=None):
    """apply_h(ys): the (k, n) array of H y = P A^-1 A^-T P^T y for the k
    flat trace vectors y of ys, a (k, n) array or a sequence of them.

    The traces enter one batched adjoint sweep as a _TraceStack on the
    receiver rows rec, which writes the fields A^-T P^T y into one
    time-major (k, nt, n_space) _DenseStack; one batched forward sweep
    reads that stack block by block and writes only the receiver rows
    (trace-out).  So the intermediate fields, one full field per column,
    are never built or transposed in [node, n] layout, and the forward half
    builds no field.  ``between``, when given, is called with the
    intermediate stack's array between the two sweeps (the selfcheck fault
    perturb-h-product).  The bytes are those of the per-column composition:
    the adjoint sweep of each column's dense injected field P^T y, sampled
    at rec."""
    shape = (len(rec), spec.nt)

    def apply_h(ys):
        ys = np.asarray(ys)
        k = len(ys)
        fields = _DenseStack(np.empty((k, spec.nt, spec.n_space)))
        _adjoint_sweep(spec, m_values, _TraceStack(rec, ys.reshape((k,) + shape)), fields)
        if between is not None:
            between(fields.values)
        return _sampled_sweep(spec, m_values, fields, rec).reshape(k, -1)

    return apply_h


# The Nystrom sketch of H: its Gaussian test vectors come from a generator
# seeded with _SKETCH_SEED, so every sketch of one H is the same bytes; its
# rank grows by _SKETCH_CHUNK test vectors at a time; and each batch of H
# products sweeps at most _SKETCH_BATCH_BYTES of fields per sweep (8 columns
# of the 61 x 256 benchmark grid).
_SKETCH_SEED = 20230501
_SKETCH_CHUNK = 64
_SKETCH_BATCH_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class NystromSketch:
    """Randomized Nystrom approximation H ~ U^T diag(eigenvalues) U of the
    data-space Hessian, the preconditioner of (H + mu I) y = r.

    basis holds the approximate eigenvectors as rows, (k, n), orthonormal
    to round-off wherever their eigenvalue is not negligible; eigenvalues
    holds the k positive eigenvalues, ascending.  Frangella, Tropp & Udell,
    Randomized Nystrom preconditioning, SIAM J. Matrix Anal. Appl. 44(2),
    2023; the sketch follows Tropp, Yurtsever, Udell & Cevher, SIAM J.
    Matrix Anal. Appl. 38(4), 2017.
    """

    basis: np.ndarray
    eigenvalues: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.eigenvalues)

    def preconditioner(self, mu: float):
        """The map of a list of residuals r to (U^T L U + mu I)^-1 r,
        L = diag(eigenvalues):

            (r - U^T (L (L + mu I)^-1 U r)) / mu.

        H + mu I preconditioned by it has its spectrum in
        [1, 1 + ||H - U^T L U|| / mu]: on the sketched directions H is
        divided out, on the rest only mu.  Each r is mapped on its own, so
        a column's result does not depend on its batch.
        """
        weights = self.eigenvalues / (self.eigenvalues + mu)
        basis = self.basis

        def apply(rs):
            out = []
            for r in rs:
                z = r - basis.T @ (weights * (basis @ r))
                z /= mu
                out.append(z)
            return out

        return apply


def nystrom_sketch(m: ModelGrid, geometry: AcquisitionGeometry, cfg: PenaltyConfig) -> NystromSketch:
    """Nystrom sketch of H = P A^-1 A^-T P^T at m for the matrix-free PCG of
    data_space_multipliers at cfg, from H products alone.

    Gaussian test vectors Omega (rows) are drawn _SKETCH_CHUNK at a time and
    swept in batches of H products into Y = Omega (H + nu I), one block of
    rows per chunk, so the memory held follows the rank reached.  The sketch
    of H + nu I is Y^T (Omega Y^T)^-1 Y = B^T B with B = D^-1/2 V^T Y and
    Omega Y^T = V D V^T, and B B^T = D^-1/2 V^T (Y Y^T) V D^-1/2 = W S W^T
    gives its eigenpairs S - nu and S^-1/2 W^T B; those with S <= nu are
    dropped.  So the factorization is two symmetric eigendecompositions of
    Gram matrices that grow by a chunk of rows at a time (no QR, Cholesky,
    triangular solve or SVD).

    The rank is set by cost, counted in H products per source.  After each
    chunk, _pcg_iterations estimates the PCG's iteration count at the
    sketch's smallest eigenvalue (and the plain CG's at its largest).
    Another chunk can save at most that many iterations, and, the
    eigenvalues decaying, no more than the last chunk saved; the rank stops
    growing once either is at most the chunk's _SKETCH_CHUNK products, or at
    half the data dimension n.  The count is per source because the sketch
    must not depend on the batch.  It is about right where a sweep of k
    columns costs k sweeps (2D grids) and errs small where a batched sweep
    costs about one sweep (the Python-bound 1D grids), where a larger sketch
    would still pay.

    The shift nu = n eps lambda, with lambda the RMS of the first chunk's
    rows of H Omega (about lambda_max(H)), keeps Omega Y^T positive definite
    in floating point (Tropp, Yurtsever, Udell & Cevher 2017 shift by
    sqrt(n) eps ||Y||).  The sketch depends on m, the receivers, mu and
    cg_tol alone.
    """
    spec = m.spec
    geometry.validate_for(spec)
    rec = list(geometry.receiver_nodes)
    n = len(rec) * spec.nt
    apply_h = _hessian_products(spec, m.values, rec)
    cap = max(1, n // 2)
    width = max(1, _SKETCH_BATCH_BYTES // (8 * spec.n_space * spec.nt))
    rng = np.random.default_rng(_SKETCH_SEED)
    ys = []  # the rows of Y, one block per chunk
    core = gram = np.zeros((0, 0))  # Omega Y^T and Y Y^T
    nu = 0.0
    before = None
    while len(core) < cap:
        omega = rng.standard_normal((min(cap - len(core), _SKETCH_CHUNK), n))
        block = np.empty_like(omega)
        for a in range(0, len(omega), width):
            block[a : a + width] = apply_h(omega[a : a + width])
        if not ys:
            nu = n * np.finfo(float).eps * float(np.linalg.norm(block)) / np.sqrt(len(block))
        for i in range(len(block)):  # row by row: no third chunk-sized array
            block[i] += nu * omega[i]
        ys.append(block)
        core = _extended(core, np.hstack([omega @ y.T for y in ys]))
        gram = _extended(gram, np.hstack([block @ y.T for y in ys]))
        factor, s, w = _sketch_eigenpairs(core, gram, nu)
        if before is None:
            before = _pcg_iterations(s[-1] - nu, cfg)
        now = _pcg_iterations(s[0] - nu, cfg)
        if min(now, before - now) <= _SKETCH_CHUNK:
            break
        before = now
    del omega, block  # Y's rows are held by ys alone
    y = np.vstack(ys)
    del ys
    basis = ((w / np.sqrt(s)).T @ factor) @ y
    return NystromSketch(basis, s - nu)


def _sketch_eigenpairs(core: np.ndarray, gram: np.ndarray, nu: float):
    """(F, S, W) with B = F Y the factor of the sketch Y^T (Omega Y^T)^-1 Y
    = B^T B of H + nu I, and B B^T = F (Y Y^T) F^T = W diag(S) W^T with its
    eigenvalues S > nu, ascending, and their eigenvectors W."""
    d, v = np.linalg.eigh(core)
    kept = d > 0.0
    factor = (v[:, kept] / np.sqrt(d[kept])).T
    s, w = np.linalg.eigh(factor @ gram @ factor.T)
    kept = s > nu
    return factor, s[kept], w[:, kept]


def _pcg_iterations(eigenvalue: float, cfg: PenaltyConfig) -> float:
    """Estimated CG iterations on (H + mu I) y = r, to cg_tol, preconditioned
    by a sketch whose smallest eigenvalue is ``eigenvalue``:
    sqrt(1 + eigenvalue/mu) ln(2/cg_tol).  That is CG's bound
    sqrt(kappa) ln(2/tol) / 2 at kappa = 4 (1 + eigenvalue/mu): the
    preconditioned spectrum lies in [1, 1 + ||H - sketch||/mu], and the
    error of a sketch drawn without oversampling is a few times its smallest
    eigenvalue.  Wherever eigenvalue >= mu on the born_config al-wavefield
    solves (mu = 1e3, 1e4, ranks 64-320) it came within 10% of the measured
    count; below that it overestimates."""
    return np.sqrt(1.0 + eigenvalue / cfg.mu) * np.log(2.0 / cfg.cg_tol)


def _extended(square: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The symmetric matrix ``square`` bordered by the block ``rows`` below
    it and its transpose to the right of it."""
    r, size = len(square), rows.shape[1]
    out = np.empty((size, size))
    out[:r, :r] = square
    out[r:] = rows
    out[:r, r:] = rows[:, :r].T
    return out


def _shared_geometry(data) -> AcquisitionGeometry:
    """The acquisition geometry of a batch of traces, which must share their
    receivers."""
    geometry = data[0].geometry
    if any(d.geometry.receiver_nodes != geometry.receiver_nodes for d in data):
        raise ValueError("the traces of one batch must share their receivers")
    return geometry


@dataclass(frozen=True, eq=False)
class DataSpaceHessian:
    """Dense receiver-sample Gram matrix H = P A^-1 A^-T P^T.

    ``matrix`` is C-contiguous and exactly symmetric: the assembly computes
    one triangle and mirrors it.  The dense backend of data_space_multipliers
    shifts and factors it in this buffer.  Its values are guarded
    elsewhere: cho_factor rejects non-finite entries, and the tests and
    selfcheck compare H with the dense oracle.
    """

    matrix: np.ndarray


# Bytes of the (n, 2 nodes) block of B terms that one dsyrk adds into H: the
# B terms are taken this many bytes of z rows at a time (at least one row,
# so a 1D grid is one block).
_B_BLOCK_BYTES = 64 << 20
# Side of the square tiles in which H's triangle is mirrored.
_MIRROR_TILE = 64


def assemble_data_space_hessian(
    m: ModelGrid,
    geometry: AcquisitionGeometry,
) -> DataSpaceHessian:
    """Assemble H = G G^T, G = P A^-1, from one Green's function per receiver.

    With c = m / dt**2 and L the Laplacian, let F[(r, t), x] be the response
    at receiver r and time t to a unit impulse at node x in row 2 of A.

    Reciprocity: the field at time t of a row-2 impulse at x is
    p_t(S L) S e_x with S = diag(1/c) and p_t a polynomial, and p_t(S L) S
    is symmetric because S and L are.  So F[(r, t), x] is also the response
    at node x to a row-2 impulse at receiver node r, and one batched forward
    sweep of one _TraceStack on the receiver rows, column r holding the
    impulse at rec[r], gives all of F.

    Toeplitz: rows n >= 2 of A do not depend on n, so the column of G for an
    impulse at (x, n >= 2) is F shifted n - 2 samples later in time.  Their
    share K of G G^T is the diagonal cumulative sum of C = F F^T,
    K(t, t') = K(t-1, t'-1) + C(t, t').

    Initial conditions: a row-0 impulse at x is the identity entry at t = 0
    plus the row-2 source -c e_x, so B0 = e_{t=0} - F c.  A row-1 impulse is
    the identity entry at t = 1 plus (2c + L) e_x at row 2 and -c e_x at
    row 3, so B1 = e_{t=1} + F (2c + L) - (F c delayed one sample).

    Hence H = K + B B^T with B = [B0 | B1], and H lives in one n x n buffer:
    the sweep writes F straight into its (n, n_space) layout (a time-major
    stack of one Green's function per receiver, _DenseStack), one dsyrk
    computes the upper triangle of C, the cumulative sum runs on the blocks
    on and above the diagonal, the B terms are formed _B_BLOCK_BYTES of z
    rows at a time (_b_terms) and each block is added by a dsyrk with
    beta = 1, and the triangle is mirrored once.  So the assembly holds H,
    F and one block of B terms, and no other n x n or F-sized array.  On a
    1D grid B is one block, and H equals the whole-array numpy form
    f @ f.T, cumulative sum, + b @ b.T bit for bit wherever numpy's and
    scipy's BLAS share their dsyrk kernel (numpy forms both products by
    dsyrk and mirrors each).  On a 2D grid, where BLAS splits the long inner
    dimension, the B terms are added in another order and agree to
    round-off.
    """
    spec = m.spec
    geometry.validate_for(spec)
    rec = list(geometry.receiver_nodes)
    nr, nt, n_space = len(rec), spec.nt, spec.n_space
    n = nr * nt
    f = np.empty((n, n_space))  # f[(r, t), x] = F[(r, t), x]
    impulses = np.zeros((nr, nr, nt))
    impulses[range(nr), range(nr), 2] = 1.0
    _forward_sweep(spec, m.values, _TraceStack(rec, impulses),
                   out=_DenseStack(f.reshape(nr, nt, n_space)))

    # dsyrk on the Fortran-ordered transposes: the lower triangle of the
    # Fortran result is the upper triangle of its C-ordered transpose h
    upper = dsyrk(1.0, f.T, c=np.zeros((n, n), order="F"), trans=1, lower=1, overwrite_c=1)
    h = upper.T
    k = h.reshape(nr, nt, nr, nt)
    for r in range(nr):
        # block row r from its diagonal block on; that block's strict lower
        # half, which dsyrk leaves zero, only adds zeros to zeros
        blocks = k[r, :, r:, :]
        for t in range(1, nt):
            blocks[t, :, 1:] += blocks[t - 1, :, :-1]
    c, _ = _scales(spec, m.values, 0)
    nx = spec.nx
    rows = max(1, _B_BLOCK_BYTES // (16 * n * nx))
    for z0 in range(0, spec.nz, rows):
        b = _b_terms(spec, c, f, rec, z0, min(z0 + rows, spec.nz))
        upper = dsyrk(1.0, b.T, beta=1.0, c=upper, trans=1, lower=1, overwrite_c=1)
    _mirror_upper(h)
    return DataSpaceHessian(h)


def _b_terms(spec: GridSpec, c: np.ndarray, f: np.ndarray, rec: list, z0: int, z1: int):
    """[B0 | B1] at the nodes of z rows z0..z1-1, an (n, 2 nodes) array.

    f holds F as (n, n_space) and c the stencil scale per node.  Every
    element sees the operations, in their order, of the whole-array
    formulas B0 = -c F and B1 = 2 c F + L F - c F(t - 1) with the sweeps'
    order inside L (x terms, then z terms: row above, then row below); the
    B0 half is the scratch of B1's terms before B0 is written into it.
    """
    nr, nt, nz, nx = len(rec), spec.nt, spec.nz, spec.nx
    out = np.empty((nr, nt, 2, z1 - z0, nx))
    b0, b1 = out[:, :, 0], out[:, :, 1]
    full = f.reshape(nr, nt, nz, nx)
    g = full[:, :, z0:z1]
    cz = c.reshape(nz, nx)[z0:z1]
    wx = 1.0 / spec.dx**2
    np.multiply(g, -2.0 * wx, out=b1)
    np.multiply(g[..., :-1], wx, out=b0[..., :-1])
    np.add(b1[..., 1:], b0[..., :-1], out=b1[..., 1:])
    np.multiply(g[..., 1:], wx, out=b0[..., 1:])
    np.add(b1[..., :-1], b0[..., 1:], out=b1[..., :-1])
    if spec.ndim == 2:
        wz = 1.0 / spec.dz**2
        np.multiply(g, 2.0 * wz, out=b0)
        np.subtract(b1, b0, out=b1)
        a = max(z0, 1) - z0  # the chunk rows with a row above
        np.multiply(full[:, :, z0 + a - 1 : z1 - 1], wz, out=b0[:, :, a:])
        np.add(b1[:, :, a:], b0[:, :, a:], out=b1[:, :, a:])
        e = min(z1, nz - 1) - z0  # the chunk rows with a row below
        np.multiply(full[:, :, z0 + 1 : z0 + e + 1], wz, out=b0[:, :, :e])
        np.add(b1[:, :, :e], b0[:, :, :e], out=b1[:, :, :e])
    np.multiply(g, 2.0 * cz, out=b0)
    np.add(b0, b1, out=b1)
    np.multiply(g[:, :-1], cz, out=b0[:, 1:])
    np.subtract(b1[:, 1:], b0[:, 1:], out=b1[:, 1:])
    np.multiply(g, -cz, out=b0)
    for r, node in enumerate(rec):
        z, x = divmod(node, nx)
        if z0 <= z < z1:
            b0[r, 0, z - z0, x] = 1.0
            b1[r, 1, z - z0, x] = 1.0
    return out.reshape(nr * nt, -1)


def _mirror_upper(h: np.ndarray) -> None:
    """Copy the upper triangle of the square C-contiguous h onto its lower
    triangle, _MIRROR_TILE x _MIRROR_TILE tiles at a time."""
    n, size = len(h), _MIRROR_TILE
    below = np.tri(size, k=-1, dtype=bool)
    for a in range(0, n, size):
        rows = slice(a, a + size)
        for b in range(a + size, n, size):
            h[b : b + size, rows] = h[rows, b : b + size].T
        tile = h[rows, rows]
        np.copyto(tile, tile.T, where=below[: len(tile), : len(tile)])


def data_space_multipliers(m: ModelGrid, geometry: AcquisitionGeometry, rhs_traces,
                           cfg: PenaltyConfig, matrix_free: bool = False) -> list[SourceField]:
    """Scaled multiplier lam = A^-T P^T y, (H + mu I) y = r, for every set of
    receiver traces r in rhs_traces: the damped least-squares solution of
    P A^-1 lam = r with damping mu, moved into data space by the push-through
    identity (G^T G + mu I)^-1 G^T = G^T (G G^T + mu I)^-1, G = P A^-1.

    The dense backend assembles H, factors H + mu I in H's own buffer (a
    failed factorization raises SingularSystemError) and makes one
    multi-column Cholesky solve.  The matrix-free one (matrix_free=True)
    runs the sources' Nystrom-preconditioned CGs in lock step from y0 = 0,
    with one sketch; a column that misses cg_tol, relative to its r, within
    cg_maxiter raises SolverNotConvergedError.  Then one batched adjoint
    sweep of the y as one trace stack.  Non-finite traces raise
    ValueError.  Each column's bytes are those of a call with its traces
    alone.
    """
    spec = m.spec
    geometry.validate_for(spec)
    rec = list(geometry.receiver_nodes)
    rhs = [np.asarray_chkfinite(traces, dtype=float).ravel() for traces in rhs_traces]
    mu = cfg.mu
    if matrix_free:
        apply_h = _hessian_products(spec, m.values, rec)
        precondition = nystrom_sketch(m, geometry, cfg).preconditioner(mu)
        ys = []
        for y, info in _cg(lambda xs: [hx + mu * x for hx, x in zip(apply_h(xs), xs)], rhs,
                           cfg.cg_tol, cfg.cg_maxiter, precondition):
            if not info.converged:
                raise SolverNotConvergedError(
                    f"wavefield CG stopped after {info.iterations} iterations at relative "
                    f"residual {info.relative_residual:.3e} (cg_tol {cfg.cg_tol:g})")
            ys.append(y)
    else:
        shifted = assemble_data_space_hessian(m, geometry).matrix
        shifted.flat[:: len(shifted) + 1] += mu
        try:
            # H + mu I is exactly symmetric, so its Fortran-ordered transpose
            # holds the bytes of the Fortran copy cho_factor would make, and
            # LAPACK factors it in place in H's own buffer
            factor = scipy.linalg.cho_factor(shifted.T, overwrite_a=True)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"H + mu I failed to factorize at mu={mu}: {exc}") from exc
        # the rows of a (k, n) array are the columns of its Fortran-ordered transpose
        ys = scipy.linalg.cho_solve(factor, np.array(rhs).T, overwrite_b=True,
                                    check_finite=False).T
    lams = _adjoint_sweep(spec, m.values,
                          _TraceStack(rec, np.reshape(ys, (len(ys), len(rec), spec.nt))))
    return [SourceField(spec, lam) for lam in lams]


def solve_saddle(m: ModelGrid, sources, residuals, cfg: PenaltyConfig, shifts=None,
                 matrix_free: bool = False):
    """(us, lams): each source's wavefield and scaled multiplier for the
    source b extended by s.

    residuals are the plain forward residuals delta_d = d - P A^-1 b, as
    receiver TraceData sharing their receivers; shifts the SourceFields s
    (None: s = 0 for every source).  r = delta_d - P A^-1 s, one batched
    trace-out sweep of the shifts (forward_traces, whose non-finite traces
    raise DivergenceError), skipped without them; lam =
    data_space_multipliers(r) on the chosen backend (non-finite r raise
    ValueError); u = A^-1 ((b + lam) + s), summed in that order, one
    batched sweep.  v = mu lam, and the AL variants pass s = -w/mu.  A
    source b is a SourceField or a point source (TraceData, see
    wavecore.forward_solves), added to lam by wavecore.add_source.
    """
    spec = m.spec
    geometry = _shared_geometry(residuals)
    rhs = [d.values for d in residuals]
    if shifts is not None:
        sampled = forward_traces(m, shifts, geometry)
        rhs = [r - traces.values for r, traces in zip(rhs, sampled)]
    lams = data_space_multipliers(m, geometry, rhs, cfg, matrix_free)
    fields = [add_source(b, lam.values) for b, lam in zip(sources, lams)]
    for field, s in zip(fields, shifts or ()):
        field += s.values
    return forward_solves(m, [SourceField(spec, f) for f in fields]), lams
