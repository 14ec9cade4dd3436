"""Inversion iterations: thirteen schemes around a single saddle point.

Every scheme alternates between (a) estimating a wavefield u and a
multiplier-like field for each source and (b) updating the model, all in
the one pipeline of step_scheme,

    (us, v_likes) = solve(state, sources, data, cfg)
    m_new = combined_model_update(m, [(v_like, u), ...], step)
    mem   = mem + k (A(m_new) u - b)           (per source; schemes with a memory only)

and differ only in their row of _TABLE.  Nine rows are one extended-source
saddle solve (saddle.solve_saddle) of the sources b extended by s against
the plain forward residuals delta_d = d - P u0,

    lam = A^-T P^T (H + mu I)^-1 (delta_d - P A^-1 s)
    u   = A^-1 ((b + lam) + s)                 (the refresh)

with G = P A^-1 and H = G G^T, each row given by its shift s, its backend
and whether it refreshes u (one batched sweep; without it u = u0); the
wavefield and multiplier orientations differ only in the backend.  The solve
takes all of the step's sources at once: each of its sweeps is one batched
sweep over the step's sources, and its data-space solve (H + mu I) y = r
runs on the dense backend (one assembly of H at the step's model, H + mu I
factored in H's own buffer, one multi-column Cholesky solve; the model
changes every step, so nothing is kept between steps) or the matrix-free one
(the sources' Nystrom-preconditioned CGs in lock step); a row without a
shift makes no sweep for P A^-1 s.  An unscaled scheme returns v = mu lam,
steps by cfg.step_length (1/mu unless alpha is pinned) and keeps the
Lagrange multiplier w in its memory (k = mu).  A scaled scheme returns lam,
takes a unit step and keeps the accumulated constraint error eps = w/mu
(k = 1).

  scheme              s                backend      refresh  scaled  history
  fwi                 -                -            -        no      -
  penalty-wavefield   0                matrix-free  yes      no      -
  penalty-multiplier  0                dense        yes      no      -
  wri-scaled          0                dense        yes      yes     -
  al-wavefield        -w/mu            matrix-free  yes      no      memory w
  al-multiplier       -w/mu            dense        yes      no      memory w
  split-gn            0                dense        no       yes     -
  split-gs            0                dense        yes      yes     -
  refined-direct      by hand          dense        yes      yes     u, lam
  refined-rearranged  phi - lam_prev   dense        yes      yes     u, lam
  refined-epsilon     -eps             dense        yes      yes     memory eps

phi = scattering_source(u_prev, m - m_prev).  fwi keeps u = u0 and
back-propagates P u - d for v.  refined-direct solves for the multiplier
increment term by term, so its agreement with refined-epsilon checks the
shifts.

The first-step rule: a row's history is what its next step reads, and
every multiplier-oriented iteration starts from a zero multiplier and a
zero model increment, where each shift above is zero.  So while any slot
of a row's history is unwritten, as in initial_state, step_scheme runs the
row's unshifted solve on its own backend and scaling: the AL rows and
refined-epsilon sweep no P A^-1 s, the refined rows take the wri-scaled
solve, and gauss-seidel linearizes about the forward fields the state
holds.  The first memory update adds k (A u - b) to the scalar 0.0, whose
sum has the signed zeros of a zero field's.

Batching does not change an iterate: each column of a batched sweep, of the
Cholesky solve or of the lock-step CG does the same floating-point
operations as a step of its own source alone, and the CG's preconditioner, a
Nystrom sketch of H, is built from the model, the receivers and the penalty
config alone.  The sources of a step that builds H, runs the CG or builds
the Born kernels must share their receivers.

A source b is a point source, one-node TraceData (config.build_sources), or
a dense SourceField; it meets the dense fields of a step (lam, phi, eps,
A u) only through wavecore.add_source and subtract_source, which give
bitwise the dense sums, so both forms step to the same bytes.

gauss-newton and gauss-seidel return no v_likes and instead solve damped
least squares on the stacked Born kernels about their us for the model
increment; gauss-seidel's us are refreshed by the previous increment, and
carried as its history.  The kernels are one batched trace-out sweep of a
point-source kick per source and node (_born_kernel), and the damped normal
equations one Cholesky solve; no production step runs the dense oracle.

The plain forward field u0 depends on the model alone, so it is solved once
per model, all sources in one batched sweep (with_forward_fields): by
initial_state, and by run_inversion once it has reduced a step's us and
v_likes to the log row and dropped them.  It is kept in forward_fields for
the next step's solve and the stopping rule.

All ten saddle-based rows reach saddle.data_space_multipliers, eight of
them through solve_saddle, so their agreement is structural, not a numerical
accident; tests pin the correspondences (split-gs and wri-scaled track
penalty-multiplier, refined-epsilon tracks al-multiplier, the three refined
variants track each other) to round-off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.linalg

from .config import ExperimentConfig, build_acquisition, build_model_values, build_sources
from .errors import (
    ConfigurationError, DivergenceError, SingularSystemError, SolverNotConvergedError,
)
from .fileio import Diagnostics
from .grids import AcquisitionGeometry, ModelGrid, SourceField, TraceData, Wavefield
from .saddle import (
    PenaltyConfig, _shared_geometry, data_space_multipliers, solve_saddle,
)
from .wavecore import (
    add_source, adjoint_solves, apply_wave_operator, correlation_terms, forward_solves,
    forward_traces, operator_time_curvature, preconditioned_ratio, residual_sum_of_squares,
    sample, scattering_source, subtract_source, sum_of_squares, updated_model,
)


@dataclass(frozen=True, eq=False)
class IterationState:
    """What a scheme carries from one step to the next.

    Per-source tuples have one entry per source.  forward_fields, the plain
    forward fields A(model)^-1 b, are set by with_forward_fields.  The
    other slots hold a row's history, what its next step reads: the memory
    (w for an unscaled row, eps for a scaled one); u and lam for
    refined-direct and refined-rearranged; u for gauss-seidel.  A step's
    carry writes its row's history and initial_state none, so every row's
    first step runs its unshifted solve."""

    model: ModelGrid
    model_prev: ModelGrid
    forward_fields: tuple[Wavefield, ...] | None = None     # u0 = A(model)^-1 b
    wavefields: tuple[Wavefield, ...] | None = None         # u, previous wavefield
    memory: tuple[SourceField, ...] | None = None           # w (unscaled rows) or eps (scaled)
    scatter_sources: tuple[SourceField, ...] | None = None  # lam, scaled multiplier
    iteration: int = 0


def with_forward_fields(state: IterationState, sources) -> IterationState:
    """state with the forward fields A(state.model)^-1 b of every source, one
    batched sweep; a non-finite field raises DivergenceError."""
    return replace(state, forward_fields=forward_solves(state.model, sources))


def initial_state(model: ModelGrid, sources) -> IterationState:
    """State at the starting model: its forward fields and no history."""
    return with_forward_fields(IterationState(model, model), sources)


def combined_model_update(m: ModelGrid, pairs, alpha: float) -> ModelGrid:
    """Multi-source correlation update.

    pairs is a sequence of (multiplier-like field, wavefield).  The per-node
    numerators and denominators are each summed over sources before the
    floored division.
    """
    numerator = np.zeros(m.spec.n_space)
    denominator = np.zeros(m.spec.n_space)
    for v_like, u in pairs:
        num, den = correlation_terms(v_like, u)
        numerator += num
        denominator += den
    return updated_model(m, alpha, preconditioned_ratio(numerator, denominator))


def _residual_traces(data: TraceData, u: Wavefield) -> TraceData:
    predicted = sample(u, data.geometry)
    return TraceData(data.spec, data.geometry, data.values - predicted.values)


# ---------------------------------------------------------------------------
# per-step solves: (state, sources, data, cfg) -> (us, v_likes)
# ---------------------------------------------------------------------------


def _residuals(state: IterationState, data) -> list[TraceData]:
    """delta_d = d - P A^-1 b, the plain forward residual, per source."""
    return [_residual_traces(d, u0) for d, u0 in zip(data, state.forward_fields)]


def _scattering_sources(state: IterationState) -> list[SourceField]:
    """phi = scattering_source(u_prev, m - m_prev), per source."""
    dm = state.model.values - state.model_prev.values
    return [scattering_source(u, dm) for u in state.wavefields]


def _fwi(state, sources, data, cfg):
    """Reduced-space gradient: adjoint fields against the data residuals,
    whose traces are injected inside the batched adjoint sweep."""
    return state.forward_fields, adjoint_solves(state.model, _residuals(state, data))


def _extended(state, sources, data, cfg, shift=None, matrix_free=False, refresh=True,
              scaled=True):
    """One saddle solve of the sources extended by the shifts s =
    shift(state, cfg) (s = 0 without a shift) against the plain forward
    residuals, on the row's backend; with refresh u = A^-1 ((b + lam) + s),
    without it (split-gn) u = u0 and no sweep.  A scaled row keeps lam, an
    unscaled one v = mu lam.  A matrix-free solve that misses cfg.cg_tol
    raises SolverNotConvergedError, so its field never reaches the model
    update."""
    m = state.model
    residuals = _residuals(state, data)
    if refresh:
        shifts = None if shift is None else shift(state, cfg)
        us, lams = solve_saddle(m, sources, residuals, cfg, shifts, matrix_free)
    else:
        us = state.forward_fields
        lams = data_space_multipliers(m, _shared_geometry(residuals),
                                      [r.values for r in residuals], cfg, matrix_free)
    return us, lams if scaled else [Wavefield(m.spec, cfg.mu * lam.values) for lam in lams]


def _al_shifts(state, cfg) -> list[SourceField]:  # -w/mu
    return [SourceField(w.spec, (-1.0 / cfg.mu) * w.values) for w in state.memory]


def _epsilon_shifts(state, cfg) -> list[SourceField]:  # -eps
    return [SourceField(eps.spec, -eps.values) for eps in state.memory]


def _scattering_shifts(state, cfg) -> list[SourceField]:  # phi - lam_prev
    return [SourceField(phi.spec, phi.values - lam.values)
            for phi, lam in zip(_scattering_sources(state), state.scatter_sources)]


def _refined_direct(state, sources, data, cfg):
    """Solve for the increment dlam of S dlam = delta_d - S phi, the damping
    centred on lam_prev + dlam; phi = scattering_source(u_prev, m - m_prev).
    It damps the *updated* multiplier, not the bare increment, as the
    extended solve does, which keeps their iterates identical; assembled
    term by term, it checks the extended rows' shifts.  S phi and S lam_prev
    are one trace-out sweep of 2k columns.  It runs once u_prev and lam_prev
    are written; the first step is the unshifted extended solve."""
    m = state.model
    geometry = _shared_geometry(data)
    phis = _scattering_sources(state)
    olds = state.scatter_sources
    sampled = forward_traces(m, phis + list(olds), geometry)
    rhs = [delta_d.values - s_phi.values + s_lam.values for delta_d, s_phi, s_lam
           in zip(_residuals(state, data), sampled, sampled[len(olds):])]
    lams = [SourceField(m.spec, old.values + (lam.values - old.values))
            for old, lam in zip(olds, data_space_multipliers(m, geometry, rhs, cfg))]
    us = forward_solves(m, [
        SourceField(m.spec, add_source(b, phi.values) + lam.values - old.values)
        for b, phi, lam, old in zip(sources, phis, lams, olds)])
    return us, lams


def _born_fields(state, sources, data, cfg):
    """gauss-newton, and gauss-seidel's first step: linearize about the
    forward fields the state holds; no multiplier."""
    return state.forward_fields, None


def _relinearized(state, sources, data, cfg):
    """gauss-seidel once its u is written: linearize about the fields
    re-solved with the previous model increment injected as a scattering
    source, one batched sweep."""
    m = state.model
    return forward_solves(m, [SourceField(m.spec, add_source(b, phi.values))
                              for b, phi in zip(sources, _scattering_sources(state))]), None


def _born_kernel(m: ModelGrid, us, geometry: AcquisitionGeometry) -> np.ndarray:
    """The stacked Born kernels J of the fields us about m, a (k n_rec nt,
    n_space) array with rows (source, receiver, t): column x of a source's
    block is P A(m)^-1 of a point source at x carrying the wavelet -ddu[x],
    ddu = operator_time_curvature(u), the traces of a unit perturbation of
    m at x.  The k n_space kicks are one batched trace-out sweep, whose
    injected stack holds k n_space^2 nt doubles; non-finite traces raise
    DivergenceError."""
    n_space = m.spec.n_space
    kicks = [TraceData(m.spec, AcquisitionGeometry((x,), (x,)), -ddu[x : x + 1])
             for ddu in map(operator_time_curvature, us) for x in range(n_space)]
    traces = np.array([d.values for d in forward_traces(m, kicks, geometry)])
    # C order: the BLAS products of the normal equations, and so the
    # iterates, depend on the kernel's layout
    kernel = np.ascontiguousarray(traces.reshape(len(us), n_space, -1).transpose(0, 2, 1))
    return kernel.reshape(-1, n_space)


def _damped_ls_solve(kernel: np.ndarray, rhs: np.ndarray, damping: float) -> np.ndarray:
    """argmin_x ||K x - rhs||^2 + damping ||x||^2 for damping > 0, by a
    Cholesky solve of the normal equations (K^T K + damping I) x = K^T rhs;
    a failed factorization raises SingularSystemError."""
    normal = kernel.T @ kernel + damping * np.eye(kernel.shape[1])
    try:
        factor = scipy.linalg.cho_factor(normal)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"J^T J + delta I failed to factorize: {exc}") from exc
    return scipy.linalg.cho_solve(factor, kernel.T @ rhs)


def _born_update(state: IterationState, us, data, damping: float) -> ModelGrid:
    """Damped Gauss-Newton on the stacked Born kernels about us
    (_born_kernel) against the plain forward residuals.  damping is
    penalty.mu, unscaled to the Born kernel J, as the delta of
    (J^T J + delta I): on the two-scatterer benchmark and on a 15 x 13 x 60
    2D grid both gauss-* schemes diverge after one step for every delta
    from 1e-4 to 1e12."""
    m = state.model
    kernel = _born_kernel(m, us, _shared_geometry(data))
    rhs = np.concatenate([r.values.ravel() for r in _residuals(state, data)])
    return updated_model(m, -1.0, _damped_ls_solve(kernel, rhs, damping))


def _row(shift=None, matrix_free=False, refresh=True, scaled=True, history=()):
    """The _TABLE entry of an extended-source row; its unshifted solve drops
    the shift."""
    unshifted = partial(_extended, matrix_free=matrix_free, refresh=refresh, scaled=scaled)
    solve = unshifted if shift is None else partial(unshifted, shift=shift)
    return solve, unshifted, scaled, history


# name -> (solve, its unshifted solve, scaled, history): the history names
# the carry's slots, which the next step's solve reads
_TABLE = {
    "fwi": (_fwi, _fwi, False, ()),
    "penalty-wavefield": _row(matrix_free=True, scaled=False),
    "penalty-multiplier": _row(scaled=False),
    "wri-scaled": _row(),
    "al-wavefield": _row(_al_shifts, matrix_free=True, scaled=False, history=("memory",)),
    "al-multiplier": _row(_al_shifts, scaled=False, history=("memory",)),
    "gauss-newton": (_born_fields, _born_fields, False, ()),
    "gauss-seidel": (_relinearized, _born_fields, False, ("wavefields",)),
    "split-gn": _row(refresh=False),
    "split-gs": _row(),
    "refined-direct": (_refined_direct, _extended, True, ("wavefields", "scatter_sources")),
    "refined-rearranged": _row(_scattering_shifts, history=("wavefields", "scatter_sources")),
    "refined-epsilon": _row(_epsilon_shifts, history=("memory",)),
}

SCHEMES = tuple(_TABLE)


def step_scheme(scheme: str, state: IterationState, sources, data, cfg: PenaltyConfig):
    """One iteration of the named scheme (see the module docstring): the
    carry at the new model, without forward fields, and the step's us and
    vs (None for gauss-*).  While a slot of the row's history is unwritten,
    as in initial_state, the step runs the row's unshifted solve."""
    if scheme not in _TABLE:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    solve, unshifted, scaled, history = _TABLE[scheme]
    if any(getattr(state, slot) is None for slot in history):
        solve = unshifted
    m = state.model
    us, vs = solve(state, sources, data, cfg)
    if vs is None:  # gauss-*
        m_new = _born_update(state, us, data, cfg.mu)
    else:
        vs = tuple(vs)
        step = 1.0 if scaled else cfg.step_length
        m_new = combined_model_update(m, list(zip(vs, us)), step)
    carry = {"wavefields": us, "scatter_sources": vs}
    if "memory" in history:
        k = 1.0 if scaled else cfg.mu
        olds = [0.0] * len(us) if state.memory is None else [w.values for w in state.memory]
        carry["memory"] = tuple(  # 0.0 + x gives the signed zeros of zeros + x, bitwise
            SourceField(m.spec, old + k * subtract_source(apply_wave_operator(m_new, u).values, b))
            for b, u, old in zip(sources, us, olds))
    return (IterationState(m_new, m, iteration=state.iteration + 1,
                           **{slot: carry[slot] for slot in history}), us, vs)


def reduced_objective_and_gradient(m: ModelGrid, sources, data):
    """Reduced-space data misfit and its exact discrete gradient.

    Returns (0.5 * sum_s ||P u_s - d_s||^2, per-node gradient).  The gradient
    is the adjoint-state correlation <v_s, ddu_s>_t summed over sources with
    v_s back-propagating (d_s - P u_s); it matches brute-force finite
    differences of the misfit because the correlation uses the same lagged
    curvature that the operator derivative d(Au)/dm produces.
    """
    us = forward_solves(m, sources)
    vs = adjoint_solves(m, [_residual_traces(d, u) for d, u in zip(data, us)])
    gradient = np.zeros(m.spec.n_space)
    for u, v in zip(us, vs):
        num, _ = correlation_terms(v, u)
        gradient += num
    return _misfit(us, data), gradient


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InversionResult:
    model: ModelGrid
    history: tuple[Diagnostics, ...]
    status: str
    state: IterationState


def _norm_sq(fields) -> float:
    """Squared norm over a per-source slot; an unwritten (None) slot is zero."""
    return float(sum(sum_of_squares(f.values) for f in fields or ()))


def _misfit(fields, data) -> float:
    """Data misfit 0.5 * sum_s ||P u_s - d_s||^2 of per-source fields."""
    misfit = 0.0
    for u, d in zip(fields, data):
        misfit += 0.5 * float(np.sum(_residual_traces(d, u).values ** 2))
    return misfit


def _diagnostics(state: IterationState, us, vs, sources, data, true_model: ModelGrid | None,
                 seconds: float) -> Diagnostics:
    m = state.model
    constraint = sum(residual_sum_of_squares(m, u, b) for b, u in zip(sources, us))
    model_error = float("nan") if true_model is None else (
        float(np.linalg.norm(m.values - true_model.values))
        / float(np.linalg.norm(true_model.values)))
    v_norm = np.sqrt(_norm_sq(vs))
    w_norm = np.sqrt(_norm_sq(state.memory))
    return Diagnostics(iteration=state.iteration, misfit=_misfit(us, data),
                       constraint=np.sqrt(constraint), model_error=model_error,
                       v_norm=float(v_norm), w_norm=float(w_norm), seconds=seconds)


def run_inversion(
    config: ExperimentConfig,
    data,
    true_model: ModelGrid | None = None,
) -> InversionResult:
    """Run the configured scheme until a stopping rule fires.

    data is one TraceData per source, in the order build_sources produces
    them.  true_model (when given, e.g. from build_model_values on the
    config's true-model descriptor) only feeds the model_error column.

    History always has an iteration-0 row evaluated at initial_state, with
    the plain forward fields as wavefields, before any stepping.  A step's
    fields are dropped once reduced to its row, before the forward sweep
    at the new model.  Stopping rules, checked after that sweep:

      * reduced data misfit 0.5*||P A(m)^-1 b - d||^2 at the current model
        falls to stop.misfit_tol times the data energy 0.5*||d||^2.  The
        reduced misfit is read from the state's forward_fields, not from its
        wavefields, because the relaxed wavefields of the penalty/AL family
        fit the data by construction and say nothing about model
        convergence.
      * relative constraint norm (against ||b||) <= stop.constraint_tol,
        checked from iteration 1 on (iteration 0 has exact-solve fields)
      * iteration count reaching stop.max_iter
      * divergence (non-finite diagnostics or fields, or a failed update)
        aborts with the last valid state and status "diverged"
      * an iterative solve that misses its tolerance aborts the same way
        with status "solver_not_converged", and a Cholesky factorization of
        H + mu I that fails with status "singular_system"
    """
    if config.scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {config.scheme!r}")
    spec = config.grid
    geometry = build_acquisition(config)
    sources = build_sources(config)
    if len(data) != len(sources):
        raise ConfigurationError(f"got {len(data)} data records for {len(sources)} sources")
    for d in data:
        if d.geometry.receiver_nodes != geometry.receiver_nodes:
            raise ConfigurationError("data receivers disagree with configured geometry")
    m0 = ModelGrid(spec, build_model_values(spec, config.initial_model))
    cfg = config.penalty
    t0 = time.perf_counter()
    state = initial_state(m0, sources)
    history = [_diagnostics(state, state.forward_fields, None, sources, data, true_model,
                            time.perf_counter() - t0)]
    data_energy = 0.5 * sum(float(np.sum(d.values**2)) for d in data)
    source_scale = np.sqrt(_norm_sq(sources))

    status = "max_iter"
    if history[0].misfit <= config.stop.misfit_tol * data_energy:
        # initial model already explains the data
        return InversionResult(m0, tuple(history), "misfit_tol", state)

    for _ in range(config.stop.max_iter):
        t_iter = time.perf_counter()
        try:
            carry, us, vs = step_scheme(config.scheme, state, sources, data, cfg)
            diag = _diagnostics(carry, us, vs, sources, data, true_model,
                                time.perf_counter() - t_iter)
            del us, vs  # the log row is all the run keeps of the step's fields
            t_sweep = time.perf_counter()
            carry = with_forward_fields(carry, sources)
        except DivergenceError:
            status = "diverged"
            break
        except SolverNotConvergedError:
            status = "solver_not_converged"
            break
        except SingularSystemError:
            status = "singular_system"
            break
        if not np.isfinite(diag.misfit) or not np.isfinite(diag.constraint):
            status = "diverged"
            break
        state = carry
        history.append(replace(diag, seconds=diag.seconds + time.perf_counter() - t_sweep))
        if _misfit(state.forward_fields, data) <= config.stop.misfit_tol * data_energy:
            status = "misfit_tol"
            break
        if source_scale > 0 and diag.constraint / source_scale <= config.stop.constraint_tol:
            status = "constraint_tol"
            break
        if config.mu_growth != 1.0:
            # step_length keeps tracking 1/mu unless alpha was pinned
            cfg = replace(cfg, mu=cfg.mu * config.mu_growth)
    return InversionResult(state.model, tuple(history), status, state)
