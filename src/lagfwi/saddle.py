"""Penalty and augmented-Lagrangian saddle solves in both orientations.

The saddle system for penalty weight mu is

    [ A        -I/mu ] [u]   [b - w/mu]
    [ P^T P     A^T  ] [v] = [P^T d   ]

with w = 0 in the plain penalty variant. Eliminating v gives the
wavefield-oriented normal equations

    (P^T P + mu A^T A) u = P^T d + mu A^T b - A^T w.

The wave equation preconditions them: with u = A^-1 z and G = P A^-1 they
become (I + G^T G / mu) z = b - w/mu + G^T d / mu, solved matrix-free by
conjugate gradients (each product costs one forward sweep and one adjoint
sweep; the spectrum lies in [1, 1 + lambda_max(H)/mu], with H = G G^T as
below). Eliminating u instead pushes the solve into data space,

    v = A^-T P^T (I + (1/mu) H)^-1 (d - P A^-1 (b - w/mu)),
    H = P A^-1 A^-T P^T,

where H is a small dense receiver-sample Gram matrix, assembled from one
Green's function per receiver (a single batched forward sweep) and
factorized once per model. The scaled multiplier lam = v / mu is the damped
least-squares solution of P A^-1 lam = d - P A^-1 b with damping mu, which
is how the scattering-type iterations consume the same machinery.

Every solve takes the sources of one step, which share the model and the
receivers (traces that disagree on receivers raise ValueError); a caller
with one source passes one-element lists.  solve_augmented_wavefields runs
the sources' CGs in lock step, so each iteration is one batched forward
sweep and one batched adjoint sweep, and solve_ls_multipliers,
damped_trace_multipliers and companion_wavefields make one batched sweep
per stage (the Cholesky solves stay one per source).  Every column does the
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
    _adjoint_sweep,
    _forward_sweep,
    _laplacian,
    _scales,
    forward_solves,
)

__all__ = [
    "PenaltyConfig",
    "SolveInfo",
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
    solve_augmented_wavefields: ``cg_tol`` is the residual of its
    preconditioned system relative to that system's right-hand side; 1e-10
    is oracle-grade, 1e-6 is plenty for production inversion runs.
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

    def __init__(self, index: int, rhs: np.ndarray, x0: np.ndarray):
        self.index = index
        self.rhs = rhs
        self.rhs_norm = float(np.linalg.norm(rhs))
        self.x = x0.copy()

    def start(self, ax: np.ndarray, tol: float) -> bool:
        """Take the residual of x0; True if x0 already meets tol."""
        self.r = self.rhs - ax
        self.best_x = self.x
        self.best_res = float(np.linalg.norm(self.r))
        if self.best_res / self.rhs_norm <= tol:
            return True
        self.p = self.r.copy()
        self.rs = float(self.r @ self.r)
        return False

    def info(self, converged: bool, iterations: int) -> SolveInfo:
        return SolveInfo(converged, iterations, self.best_res / self.rhs_norm)


def _cg(apply_op, rhs, x0, tol, maxiter):
    """Conjugate gradients on an SPD operator, k right-hand sides in lock step.

    rhs and x0 are sequences of k flat arrays, and apply_op maps a list of
    flat arrays to the list of their products.  This is the column-wise form
    of block CG (O'Leary, Linear Algebra Appl. 29, 1980): every column keeps
    its own scalars, best iterate (by residual norm), convergence test and
    exit on loss of positive definiteness, and does the same floating-point
    operations as a solve of its own.  A column that has finished leaves the
    batch, so each iteration applies the operator once to the columns still
    in it.  The true residual is recomputed periodically so the recursion
    cannot drift.  Returns one (best iterate, SolveInfo) per column.
    """
    results = [None] * len(rhs)
    live = []
    for j, (b, x) in enumerate(zip(rhs, x0)):
        column = _Column(j, b, x)
        if column.rhs_norm == 0.0:
            results[j] = (np.zeros_like(b), SolveInfo(True, 0, 0.0))
        else:
            live.append(column)

    def finish(column, converged, iterations):
        results[column.index] = (column.best_x, column.info(converged, iterations))

    if live:
        started = []
        for column, ax in zip(live, apply_op([c.x for c in live])):
            if column.start(ax, tol):
                finish(column, True, 0)
            else:
                started.append(column)
        live = started
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
        live = []
        for column in stepped:
            rs_new = float(column.r @ column.r)
            res = np.sqrt(rs_new)
            if res < column.best_res:
                column.best_res = res
                column.best_x = column.x
            if res / column.rhs_norm <= tol:
                finish(column, True, it)
                continue
            np.multiply(column.p, rs_new / column.rs, out=column.p)
            np.add(column.r, column.p, out=column.p)
            column.rs = rs_new
            live.append(column)
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
    """Wavefield-oriented saddle solve for every source, CG preconditioned
    by the wave equation, the sources' CGs in lock step.

    With u = A^-1 z and G = P A^-1 the normal equations
    (P^T P / mu + A^T A) u = P^T d / mu + A^T (b - w/mu) become

        (I + G^T G / mu) z = (b - w/mu) + G^T d / mu,

    the identity plus a part of rank at most n_rec * nt, so the spectrum
    lies in [1, 1 + lambda_max(H)/mu].  Each product costs one forward sweep
    of z, a sample at the receivers and one adjoint sweep of the injected
    traces.  CG starts at z0 = b - w/mu (u0 = A^-1 (b - w/mu)), which is
    exact whenever the data are consistent, and cg_tol is relative to the
    norm of the right-hand side.  u = A^-1 z costs one more forward sweep;
    each returned SolveInfo describes its source's z system.

    ws holds one w (or None) per source; ws=None means no w anywhere.  The
    sources must share their receivers.  Each CG iteration is one batched
    forward sweep and one batched adjoint sweep over the columns that have
    not finished, and each column's iterates and SolveInfo are bitwise
    those of a batch of its source alone.
    """
    spec = m.spec
    geom = _shared_geometry(data)
    geom.validate_for(spec)
    rec = list(geom.receiver_nodes)
    mvals = m.values
    inv_mu = 1.0 / cfg.mu
    ws = [None] * len(sources) if ws is None else ws

    def back_project(traces) -> list[np.ndarray]:
        """G^T t / mu for each set of traces t."""
        fields = []
        for t in traces:
            field = np.zeros(spec.shape)
            field[rec, :] = inv_mu * t
            fields.append(field)
        return _adjoint_sweep(spec, mvals, fields)

    def apply_op(zflats):
        zs = [z.reshape(spec.shape) for z in zflats]
        out = back_project([u[rec, :] for u in _forward_sweep(spec, mvals, zs)])
        for g, z in zip(out, zs):
            np.add(g, z, out=g)  # z + G^T G z / mu; addition commutes exactly
        return [g.ravel() for g in out]

    shifts = [b.values if w is None else b.values - inv_mu * w.values
              for b, w in zip(sources, ws)]
    rhs = back_project([d.values for d in data])
    for g, shift in zip(rhs, shifts):
        np.add(g, shift, out=g)
    results = _cg(apply_op, [g.ravel() for g in rhs], [shift.ravel() for shift in shifts],
                  cfg.cg_tol, cfg.cg_maxiter)
    us = _forward_sweep(spec, mvals, [z.reshape(spec.shape) for z, _ in results])
    return [(Wavefield(spec, u), info) for u, (_, info) in zip(us, results)]


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
    fields = []
    for traces in rhs_traces:
        y = scipy.linalg.cho_solve(factor, np.asarray(traces, dtype=float).ravel())
        field = np.zeros(spec.shape)
        field[list(geometry.receiver_nodes), :] = y.reshape(geometry.n_receivers, spec.nt)
        fields.append(field)
    return [SourceField(spec, lam) for lam in _adjoint_sweep(spec, m.values, fields)]


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
