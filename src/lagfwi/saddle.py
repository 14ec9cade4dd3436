"""Penalty and augmented-Lagrangian saddle solves in both orientations.

The saddle system for penalty weight mu is

    [ A        -I/mu ] [u]   [b - w/mu]
    [ P^T P     A^T  ] [v] = [P^T d   ]

with w = 0 in the plain penalty variant. Eliminating u pushes the solve into
data space,

    v = A^-T P^T (I + (1/mu) H)^-1 (d - P A^-1 (b - w/mu)),
    H = P A^-1 A^-T P^T = G G^T,   G = P A^-1,

and both orientations solve that one system, (H + mu I) y = d - G shift
with shift = b - w/mu, in two ways:

* The multiplier orientation (solve_ls_multipliers) assembles H densely,
  a small receiver-sample Gram matrix built from one Green's function per
  receiver (a single batched forward sweep), and factorizes H + mu I once
  per model.  The scaled multiplier lam = v / mu is the damped
  least-squares solution of P A^-1 lam = d - P A^-1 b with damping mu,
  which is how the scattering-type iterations consume the same machinery.
* The wavefield orientation (solve_augmented_wavefields) solves it
  matrix-free.  Eliminating v gives the normal equations
  (P^T P + mu A^T A) u = P^T d + mu A^T b - A^T w; with u = A^-1 z they are
  (I + G^T G / mu) z = shift + G^T d / mu, whose CG from z0 = shift never
  leaves shift + range(G^T).  So z = shift + G^T y with the y above, and
  the solve runs CG on (H + mu I) y in data space, each H product one
  adjoint sweep of receiver traces and one forward sweep sampled at the
  receivers.  H's spectrum decays fast, so a randomized Nystrom sketch of
  H (nystrom_sketch, its rank grown while a chunk of it is estimated to
  save more H products than it costs) preconditions the CG and deflates
  its large eigenvalues; the CG vectors are traces, and
  u = A^-1 (shift + G^T y) costs one more adjoint and forward sweep.

Every solve takes the sources of one step, which share the model and the
receivers (traces that disagree on receivers raise ValueError); a caller
with one source passes one-element lists.  solve_augmented_wavefields runs
the sources' CGs in lock step with one sketch shared by the step, so each
iteration is one batched adjoint sweep and one batched forward sweep, and
solve_ls_multipliers, damped_trace_multipliers and companion_wavefields
make one batched sweep per stage (the Cholesky solves stay one per source).  Every column does the
same floating-point operations as a batch of its source alone, so a
source's result does not depend on the batch it is solved in, bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularSystemError
from .grids import (
    AcquisitionGeometry,
    GridSpec,
    ModelGrid,
    SourceField,
    Wavefield,
)
from .wavecore import (
    _Traces,
    _adjoint_sweep,
    _forward_sweep,
    _laplacian,
    _scales,
    forward_solves,
)

__all__ = [
    "PenaltyConfig",
    "SolveInfo",
    "NystromSketch",
    "nystrom_sketch",
    "DataSpaceHessian",
    "HessianCache",
    "solve_augmented_wavefields",
    "assemble_data_space_hessian",
    "damped_trace_multipliers",
    "solve_ls_multipliers",
    "companion_wavefields",
]


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weight and solver knobs shared by the saddle-based schemes.

    ``alpha`` is the model step length; None means 1/mu, which is the value
    every equivalence between the penalty/AL family and the scattering
    family is stated at. ``cg_tol`` and ``cg_maxiter`` drive the CG of
    solve_augmented_wavefields: ``cg_tol`` bounds the residual of its
    data-space system (H + mu I) y = d - G (b - w/mu) relative to that
    system's right-hand side (the unpreconditioned residual, whatever the
    preconditioner); 1e-10 is oracle-grade, 1e-6 is plenty for production
    inversion runs.
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
    """One right-hand side's CG state: its iterate, residual, direction and
    scalars.  ``x`` is replaced, never written in place, so the best
    iterate is kept by reference."""

    def __init__(self, index: int, rhs: np.ndarray, x0: np.ndarray | None):
        self.index = index
        self.rhs = rhs
        self.rhs_norm = float(np.linalg.norm(rhs))
        self.x = np.zeros_like(rhs) if x0 is None else x0.copy()

    def start(self, ax: np.ndarray | None, tol: float) -> bool:
        """Take the residual of x0 (ax None: x0 = 0); True if x0 already
        meets tol."""
        self.r = self.rhs.copy() if ax is None else self.rhs - ax
        self.best_x = self.x
        self.best_res = float(np.linalg.norm(self.r))
        return self.best_res / self.rhs_norm <= tol

    def info(self, converged: bool, iterations: int) -> SolveInfo:
        return SolveInfo(converged, iterations, self.best_res / self.rhs_norm)


def _cg(apply_op, rhs, x0, tol, maxiter, precondition=None):
    """Conjugate gradients on an SPD operator, k right-hand sides in lock step.

    rhs and x0 are sequences of k flat arrays (x0 None starts every column
    at zero without applying the operator), and apply_op maps a list of flat
    arrays to the list of their products.  precondition, when given, maps a
    list of residuals to the list of M^-1 r for an SPD M, one column at a
    time; None is M = I and does exactly the unpreconditioned operations.
    This is the column-wise form of block CG (O'Leary, Linear Algebra Appl.
    29, 1980): every column keeps its own scalars, best iterate (by residual
    norm), convergence test and exit on loss of positive definiteness, and
    does the same floating-point operations as a solve of its own.  A column
    that has finished leaves the batch, so each iteration applies the
    operator (and the preconditioner) once to the columns still in it.  The
    convergence test is on the unpreconditioned residual, whose true value
    is recomputed periodically so the recursion cannot drift.  Returns one
    (best iterate, SolveInfo) per column.
    """
    results = [None] * len(rhs)
    live = []
    for j, b in enumerate(rhs):
        column = _Column(j, b, None if x0 is None else x0[j])
        if column.rhs_norm == 0.0:
            results[j] = (np.zeros_like(b), SolveInfo(True, 0, 0.0))
        else:
            live.append(column)

    def finish(column, converged, iterations):
        results[column.index] = (column.best_x, column.info(converged, iterations))

    def directions(columns, squares, first=False):
        """Start (first) or update each column's direction from its
        preconditioned residual z; squares holds r.r per column, which is
        r.z when M = I."""
        zs = [c.r for c in columns] if precondition is None else precondition(
            [c.r for c in columns])
        for column, rr, z in zip(columns, squares, zs):
            rs_new = rr if precondition is None else float(column.r @ z)
            if first:
                column.p = z.copy()
            else:
                np.multiply(column.p, rs_new / column.rs, out=column.p)
                np.add(z, column.p, out=column.p)
            column.rs = rs_new

    if live:
        axs = [None] * len(live) if x0 is None else apply_op([c.x for c in live])
        started = []
        for column, ax in zip(live, axs):
            if column.start(ax, tol):
                finish(column, True, 0)
            else:
                started.append(column)
        live = started
        directions(live, [float(c.r @ c.r) for c in live], first=True)
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
            column.x = column.x + step * column.p
            stepped.append(column)
            steps.append((step, ap))
        if it % _CG_RECOMPUTE_EVERY == 0 and stepped:
            for column, ax in zip(stepped, apply_op([c.x for c in stepped])):
                column.r = column.rhs - ax
        else:
            for column, (step, ap) in zip(stepped, steps):
                column.r -= step * ap
        live, squares = [], []
        for column in stepped:
            rr = float(column.r @ column.r)
            res = np.sqrt(rr)
            if res < column.best_res:
                column.best_res = res
                column.best_x = column.x
            if res / column.rhs_norm <= tol:
                finish(column, True, it)
                continue
            live.append(column)
            squares.append(rr)
        directions(live, squares)
    for column in live:
        finish(column, False, it)
    return results


def solve_augmented_wavefields(
    m: ModelGrid,
    sources,
    data,
    cfg: PenaltyConfig,
    ws=None,
) -> list[tuple[Wavefield, SolveInfo]]:
    """Wavefield-oriented saddle solve for every source, by Nystrom-
    preconditioned CG in data space, the sources' CGs in lock step.

    With u = A^-1 z and G = P A^-1 the normal equations
    (P^T P / mu + A^T A) u = P^T d / mu + A^T (b - w/mu) become
    (I + G^T G / mu) z = shift + G^T d / mu, shift = b - w/mu.  CG on that
    system from z0 = shift never leaves shift + range(G^T), so its solution
    is z = shift + G^T y with

        (H + mu I) y = d - G shift,    H = G G^T,

    the system solve_ls_multipliers factorizes densely (its multiplier is
    v = mu A^-T P^T y).  This solve runs CG on it, from y0 = 0,
    preconditioned by a Nystrom sketch of H (nystrom_sketch, one per call,
    shared by the sources), which puts the spectrum in
    [1, 1 + ||H - sketch||/mu], and returns u = A^-1 (shift + A^-T P^T y).
    Each H product is one adjoint sweep of the traces y and one forward
    sweep sampled at the receivers; the CG vectors are traces, not fields.
    cg_tol is relative to the norm of the data-space right-hand side
    d - G shift, and each returned SolveInfo describes its source's
    data-space system.  A source whose right-hand side is zero (data
    explained by shift itself) returns A^-1 shift without iterating.

    ws holds one w (or None) per source; ws=None means no w anywhere.  The
    sources must share their receivers.  Each CG iteration is one batched
    adjoint sweep and one batched forward sweep over the columns that have
    not finished, the sketch depends on m, the receivers and cfg alone, and each
    column's iterates and SolveInfo are bitwise those of a batch of its
    source alone.
    """
    spec = m.spec
    geom = _shared_geometry(data)
    geom.validate_for(spec)
    rec = list(geom.receiver_nodes)
    shape = (len(rec), spec.nt)
    mvals = m.values
    mu = cfg.mu
    ws = [None] * len(sources) if ws is None else ws

    shifts = [b.values if w is None else b.values - (1.0 / mu) * w.values
              for b, w in zip(sources, ws)]
    rhs = [(d.values - u[rec]).ravel() for d, u in zip(data, _forward_sweep(spec, mvals, shifts))]
    apply_h = _hessian_products(spec, mvals, rec)

    def apply_op(ys):
        out = apply_h(ys)
        for hy, y in zip(out, ys):
            hy += mu * y
        return out

    precondition = None
    if any(r.any() for r in rhs):
        precondition = nystrom_sketch(m, geom, cfg).preconditioner(mu)
    results = _cg(apply_op, rhs, None, cfg.cg_tol, cfg.cg_maxiter, precondition)
    zs = _adjoint_sweep(spec, mvals, [_Traces(rec, y.reshape(shape)) for y, _ in results])
    for z, shift in zip(zs, shifts):
        z += shift
    us = _forward_sweep(spec, mvals, zs)
    return [(Wavefield(spec, u), info) for u, (_, info) in zip(us, results)]


def _hessian_products(spec: GridSpec, m_values: np.ndarray, rec: list):
    """apply_h(ys): H y = P A^-1 A^-T P^T y for each flat trace vector y in
    the list ys, one batched adjoint sweep of the traces and one batched
    forward sweep, in place, sampled at the receivers rec."""
    shape = (len(rec), spec.nt)

    def apply_h(ys):
        fields = _adjoint_sweep(spec, m_values, [_Traces(rec, y.reshape(shape)) for y in ys])
        return [u[rec].ravel() for u in _forward_sweep(spec, m_values, fields, out=fields)]

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
    """Nystrom sketch of H = P A^-1 A^-T P^T at m for the PCG of
    solve_augmented_wavefields at cfg, from H products alone.

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
            block[a : a + width] = apply_h(list(omega[a : a + width]))
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

    Only the shape is checked here.  The assembly is symmetric by
    construction, and its values are guarded elsewhere: cho_factor rejects
    non-finite entries, and the tests and selfcheck compare H with the
    dense oracle.
    """

    spec: GridSpec
    geometry: AcquisitionGeometry
    matrix: np.ndarray

    def __post_init__(self):
        h = self.matrix
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("Hessian must be square")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


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
    sweep with an impulse per receiver gives all of F.

    Toeplitz: rows n >= 2 of A do not depend on n, so the column of G for an
    impulse at (x, n >= 2) is F shifted n - 2 samples later in time.  Their
    share K of G G^T is the diagonal cumulative sum of C = F F^T,
    K(t, t') = K(t-1, t'-1) + C(t, t').

    Initial conditions: a row-0 impulse at x is the identity entry at t = 0
    plus the row-2 source -c e_x, so B0 = e_{t=0} - F c.  A row-1 impulse is
    the identity entry at t = 1 plus (2c + L) e_x at row 2 and -c e_x at
    row 3, so B1 = e_{t=1} + F (2c + L) - (F c delayed one sample).

    Hence H = K + B0 B0^T + B1 B1^T.
    """
    spec = m.spec
    geometry.validate_for(spec)
    rec = list(geometry.receiver_nodes)
    receivers = range(len(rec))
    nt = spec.nt
    n = len(rec) * nt
    impulses = np.zeros((spec.n_space, nt, len(rec)))
    impulses[rec, 2, receivers] = 1.0
    green = _forward_sweep(spec, m.values, impulses)  # green[x, t, r] = F[(r, t), x]
    c, _ = _scales(spec, m.values, 2)
    b0 = -c * green
    b0[rec, 0, receivers] = 1.0
    b1 = 2.0 * c * green + _laplacian(spec, green)
    b1[:, 1:] -= c * green[:, :-1]
    b1[rec, 1, receivers] = 1.0

    f = green.transpose(2, 1, 0).reshape(n, spec.n_space)
    h = f @ f.T
    k = h.reshape(len(rec), nt, len(rec), nt)
    for t in range(1, nt):
        k[:, t, :, 1:] += k[:, t - 1, :, :-1]
    b = np.concatenate([b0, b1]).transpose(2, 1, 0).reshape(n, 2 * spec.n_space)
    h += b @ b.T
    return DataSpaceHessian(spec, geometry, h)


class HessianCache:
    """Holds H for the latest (model, geometry) and its shifted Cholesky
    factors, one per damping value.

    H depends only on the model and the acquisition geometry, so inside one
    outer iteration every source and every multiplier solve shares a single
    assembly and a single factorization per damping value.  An iteration
    never returns to an older model, so a new (model, geometry) replaces the
    entry.
    """

    def __init__(self):
        self._key = None
        self._hessian: DataSpaceHessian | None = None
        self._factors: dict[float, tuple] = {}

    def hessian(self, m: ModelGrid, geometry: AcquisitionGeometry) -> DataSpaceHessian:
        key = (hashlib.sha1(m.values.tobytes()).hexdigest(), m.spec, geometry)
        if key != self._key:
            # release the old entry before the new assembly allocates
            self._key, self._hessian, self._factors = None, None, {}
            self._hessian = assemble_data_space_hessian(m, geometry)
            self._key = key
        return self._hessian

    def shifted_factor(self, m: ModelGrid, geometry: AcquisitionGeometry, mu: float):
        """Cholesky factor of H + mu I."""
        hess = self.hessian(m, geometry)
        factor = self._factors.get(mu)
        if factor is None:
            shifted = hess.matrix.copy()
            shifted.flat[:: hess.n + 1] += mu
            try:
                factor = scipy.linalg.cho_factor(shifted, overwrite_a=True)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(
                    f"H + mu I failed to factorize at mu={mu}: {exc}"
                ) from exc
            self._factors[mu] = factor
        return factor


def damped_trace_multipliers(
    m: ModelGrid,
    geometry: AcquisitionGeometry,
    rhs_traces,
    mu: float,
    cache: HessianCache | None = None,
) -> list[SourceField]:
    """Scaled multiplier lam = A^-T P^T (H + mu I)^-1 rhs for every set of
    receiver traces rhs in rhs_traces.

    This is the damped least-squares solution of P A^-1 lam = rhs with
    damping mu, restricted to the range of A^-T P^T: the push-through
    identity (G^T G + mu I)^-1 G^T = G^T (G G^T + mu I)^-1, G = P A^-1,
    moves the damped normal solve into data space, where H is small and
    dense.  One factorization serves every set: one Cholesky solve per set,
    then one batched adjoint sweep.  Without a cache, H is assembled for
    this call alone.
    """
    cache = HessianCache() if cache is None else cache
    spec = m.spec
    factor = cache.shifted_factor(m, geometry, mu)
    rec = list(geometry.receiver_nodes)
    columns = []
    for traces in rhs_traces:
        y = scipy.linalg.cho_solve(factor, np.asarray(traces, dtype=float).ravel())
        columns.append(_Traces(rec, y.reshape(len(rec), spec.nt)))
    return [SourceField(spec, lam) for lam in _adjoint_sweep(spec, m.values, columns)]


def solve_ls_multipliers(
    m: ModelGrid,
    sources,
    data,
    cfg: PenaltyConfig,
    ws=None,
    cache: HessianCache | None = None,
) -> list[Wavefield]:
    """Multiplier-oriented saddle solve for every source through the
    data-space Hessian.

    penalty (no w):  v = A^-T P^T (I + H/mu)^-1 (d - P A^-1 b)
    AL (w given):    same with b replaced by b - w/mu on the right-hand side,
                     which is exactly adding (1/mu) P A^-1 w to the residual.

    ws as in solve_augmented_wavefields.  One batched forward sweep, one
    Cholesky solve per source and one batched adjoint sweep.
    """
    spec = m.spec
    geometry = _shared_geometry(data)
    ws = [None] * len(sources) if ws is None else ws
    shifts = [b.values if w is None else b.values - w.values / cfg.mu
              for b, w in zip(sources, ws)]
    rec = list(geometry.receiver_nodes)
    residuals = [d.values - u0[rec, :]
                 for d, u0 in zip(data, _forward_sweep(spec, m.values, shifts))]
    # (I + H/mu)^-1 r  ==  mu (H + mu I)^-1 r
    lams = damped_trace_multipliers(m, geometry, residuals, cfg.mu, cache)
    return [Wavefield(spec, cfg.mu * lam.values) for lam in lams]


def companion_wavefields(m: ModelGrid, sources, vs, cfg: PenaltyConfig,
                         ws=None) -> tuple[Wavefield, ...]:
    """Wavefields consistent with computed multipliers, one batched forward
    solve.

    Each satisfies the first saddle block row A u - v/mu = b [- w/mu], i.e.
    the multiplier acts as a secondary volume source (and w, when given, as
    a tertiary one).  ws as in solve_augmented_wavefields.
    """
    ws = [None] * len(sources) if ws is None else ws
    rhs = []
    for b, v, w in zip(sources, vs, ws):
        vals = b.values + v.values / cfg.mu
        if w is not None:
            vals = vals - w.values / cfg.mu
        rhs.append(SourceField(m.spec, vals))
    return forward_solves(m, rhs)
