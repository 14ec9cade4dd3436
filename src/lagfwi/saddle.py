"""Penalty and augmented-Lagrangian saddle solves in both orientations.

The saddle system for penalty weight mu is

    [ A        -I/mu ] [u]   [b - w/mu]
    [ P^T P     A^T  ] [v] = [P^T d   ]

with w = 0 in the plain penalty variant. Eliminating v gives the
wavefield-oriented normal equations

    (P^T P + mu A^T A) u = P^T d + mu A^T b - A^T w,

solved matrix-free by conjugate gradients (each product costs one operator
application and one transposed application). Eliminating u instead pushes
the solve into data space,

    v = A^-T P^T (I + (1/mu) H)^-1 (d - P A^-1 (b - w/mu)),
    H = P A^-1 A^-T P^T,

where H is a small dense receiver-sample Gram matrix, assembled column by
column (one adjoint and one forward sweep per column) and factorized once
per model. The scaled multiplier lam = v / mu is the damped least-squares
solution of P A^-1 lam = d - P A^-1 b with damping mu, which is how the
scattering-type iterations consume the same machinery.
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
    TraceData,
    Wavefield,
)
from .wavecore import (
    _adjoint_sweep,
    _apply,
    _apply_transpose,
    _forward_sweep,
    forward_solve,
)

__all__ = [
    "PenaltyConfig",
    "SolveInfo",
    "DataSpaceHessian",
    "HessianCache",
    "solve_augmented_wavefield",
    "assemble_data_space_hessian",
    "solve_ls_multiplier",
    "companion_wavefield",
    "damped_trace_multiplier",
]


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty weight and solver knobs shared by the saddle-based schemes.

    ``alpha`` is the model step length; None means 1/mu, which is the value
    every equivalence between the penalty/AL family and the scattering
    family is stated at. ``cg_tol`` is a relative residual; 1e-10 is
    oracle-grade, 1e-6 is plenty for production inversion runs.
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


def _cg(apply_op, rhs, x0, tol, maxiter):
    """Plain conjugate gradients on an SPD operator, flat arrays.

    Returns the best iterate seen (by residual norm) plus a SolveInfo; the
    true residual is recomputed periodically so the recursion cannot drift.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), SolveInfo(True, 0, 0.0)
    x = x0.copy()
    r = rhs - apply_op(x)
    best_x = x.copy()
    best_res = float(np.linalg.norm(r))
    if best_res / rhs_norm <= tol:
        return best_x, SolveInfo(True, 0, best_res / rhs_norm)
    p = r.copy()
    rs = float(r @ r)
    it = 0
    for it in range(1, maxiter + 1):
        ap = apply_op(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            it -= 1  # loss of positive definiteness: this iteration made no step
            break
        step = rs / denom
        x += step * p
        if it % _CG_RECOMPUTE_EVERY == 0:
            r = rhs - apply_op(x)
        else:
            r -= step * ap
        rs_new = float(r @ r)
        res = np.sqrt(rs_new)
        if res < best_res:
            best_res = res
            best_x = x.copy()
        if res / rhs_norm <= tol:
            return best_x, SolveInfo(True, it, best_res / rhs_norm)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return best_x, SolveInfo(False, it, best_res / rhs_norm)


def solve_augmented_wavefield(
    m: ModelGrid,
    b: SourceField,
    d: TraceData,
    cfg: PenaltyConfig,
    w: SourceField | None = None,
) -> tuple[Wavefield, SolveInfo]:
    """Wavefield-oriented saddle solve via matrix-free CG.

    Solves (P^T P + mu A^T A) u = P^T d + mu A^T b - mu^0 A^T w, scaled by
    1/mu for better floating-point behaviour at large mu. Warm-started at
    the constraint solution A^-1 (b - w/mu), which is exact whenever the
    data are consistent, so consistent problems converge immediately.
    """
    spec = m.spec
    geom = d.geometry
    geom.validate_for(spec)
    rec = list(geom.receiver_nodes)
    mvals = m.values
    inv_mu = 1.0 / cfg.mu

    def apply_op(xflat: np.ndarray) -> np.ndarray:
        x = xflat.reshape(spec.shape)
        out = _apply_transpose(spec, mvals, _apply(spec, mvals, x))
        out[rec, :] += inv_mu * x[rec, :]
        return out.ravel()

    rhs = np.zeros(spec.shape)
    rhs[rec, :] = inv_mu * d.values
    shift = b.values if w is None else b.values - inv_mu * w.values
    rhs += _apply_transpose(spec, mvals, shift)

    x0 = _forward_sweep(spec, mvals, shift)
    x, info = _cg(apply_op, rhs.ravel(), x0.ravel(), cfg.cg_tol, cfg.cg_maxiter)
    return Wavefield(spec, x.reshape(spec.shape)), info


@dataclass(frozen=True, eq=False)
class DataSpaceHessian:
    """Dense receiver-sample Gram matrix H = P A^-1 A^-T P^T."""

    spec: GridSpec
    geometry: AcquisitionGeometry
    matrix: np.ndarray

    def __post_init__(self):
        h = self.matrix
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("Hessian must be square")
        if not np.all(np.isfinite(h)):
            raise ValueError("Hessian has non-finite entries")
        scale = float(np.linalg.norm(h))
        if scale > 0 and float(np.linalg.norm(h - h.T)) > 1e-10 * scale:
            raise ValueError("Hessian asymmetry above tolerance")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def assemble_data_space_hessian(
    m: ModelGrid,
    geometry: AcquisitionGeometry,
    chunk: int = 256,
) -> DataSpaceHessian:
    """Assemble H column by column, batching unit traces through one
    adjoint and one forward sweep per column."""
    spec = m.spec
    geometry.validate_for(spec)
    rec = list(geometry.receiver_nodes)
    nt = spec.nt
    n_cols = geometry.n_receivers * nt
    h = np.empty((n_cols, n_cols))
    for start in range(0, n_cols, chunk):
        cols = range(start, min(start + chunk, n_cols))
        rhs = np.zeros((spec.n_space, nt, len(cols)))
        for j, col in enumerate(cols):
            r, tl = divmod(col, nt)
            rhs[rec[r], tl, j] = 1.0
        g = _adjoint_sweep(spec, m.values, rhs)
        y = _forward_sweep(spec, m.values, g)
        h[:, list(cols)] = y[rec].reshape(n_cols, len(cols))
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
            shifted = hess.matrix + mu * np.eye(hess.n)
            try:
                factor = scipy.linalg.cho_factor(shifted)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(
                    f"H + mu I failed to factorize at mu={mu}: {exc}"
                ) from exc
            self._factors[mu] = factor
        return factor


def damped_trace_multiplier(
    m: ModelGrid,
    geometry: AcquisitionGeometry,
    rhs_traces: np.ndarray,
    mu: float,
    cache: HessianCache | None = None,
) -> Wavefield:
    """Scaled multiplier lam = A^-T P^T (H + mu I)^-1 rhs.

    This is the damped least-squares solution of P A^-1 lam = rhs with
    damping mu, restricted to the range of A^-T P^T (the push-through
    identity moves the damped normal solve into data space, where H is
    small and dense).  Without a cache, H is assembled for this call alone.
    """
    cache = HessianCache() if cache is None else cache
    spec = m.spec
    factor = cache.shifted_factor(m, geometry, mu)
    y = scipy.linalg.cho_solve(factor, np.asarray(rhs_traces, dtype=float).ravel())
    rhs_field = np.zeros(spec.shape)
    rhs_field[list(geometry.receiver_nodes), :] = y.reshape(
        geometry.n_receivers, spec.nt
    )
    lam = _adjoint_sweep(spec, m.values, rhs_field)
    return Wavefield(spec, lam)


def solve_ls_multiplier(
    m: ModelGrid,
    b: SourceField,
    d: TraceData,
    cfg: PenaltyConfig,
    w: SourceField | None = None,
    cache: HessianCache | None = None,
) -> Wavefield:
    """Multiplier-oriented saddle solve through the data-space Hessian.

    penalty (no w):  v = A^-T P^T (I + H/mu)^-1 (d - P A^-1 b)
    AL (w given):    same with b replaced by b - w/mu on the right-hand side,
                     which is exactly adding (1/mu) P A^-1 w to the residual.
    """
    spec = m.spec
    shift = b.values if w is None else b.values - w.values / cfg.mu
    u0 = _forward_sweep(spec, m.values, shift)
    residual = d.values - u0[list(d.geometry.receiver_nodes), :]
    # (I + H/mu)^-1 r  ==  mu (H + mu I)^-1 r
    lam = damped_trace_multiplier(m, d.geometry, residual, cfg.mu, cache)
    return Wavefield(spec, cfg.mu * lam.values)


def companion_wavefield(
    m: ModelGrid,
    b: SourceField,
    v: Wavefield,
    cfg: PenaltyConfig,
    w: SourceField | None = None,
) -> Wavefield:
    """Wavefield consistent with a computed multiplier.

    Satisfies the first saddle block row A u - v/mu = b [- w/mu], i.e. the
    multiplier acts as a secondary volume source (and w, when given, as a
    tertiary one).
    """
    vals = b.values + v.values / cfg.mu
    if w is not None:
        vals = vals - w.values / cfg.mu
    return forward_solve(m, SourceField(m.spec, vals))
