"""Inversion iterations: thirteen schemes around a single saddle point.

Every scheme alternates between (a) estimating a wavefield u and a
multiplier-like field for each source and (b) updating the model.  Eleven
share the one pipeline of step_scheme,

    (us, v_likes) = solve(m, sources, data, cfg, cache, previous slots)
    m_new = combined_model_update(m, [(v_like, u), ...], step)
    mem   = mem + k (A(m_new) u - b)           (per source; schemes with a memory only)
    u0s   = A(m_new)^-1 b, all sources         (forward_fields of the new state)

and differ only in their row of _TABLE: the solve, whether the multiplier is
scaled, and whether a memory is carried.  A solve takes all of the step's
sources at once: each of its sweeps is one batched sweep over the step's
sources, the multiplier-type solves share one factorization of H + mu I,
and the wavefield orientation runs the sources' CGs in lock step.  An
unscaled scheme keeps v in `multipliers`, steps by cfg.step_length (1/mu
unless alpha is pinned) and carries the Lagrange multiplier w (k = mu) in
`running_multipliers`.  A scaled scheme keeps lam = v/mu in
`scatter_sources`, takes a unit step and carries the accumulated
constraint error eps = w/mu (k = 1) in `scatter_errors`.

  scheme              solve                                   scaled  memory
  fwi                 u = A^-1 b, v back-propagates P u - d   no      -
  penalty-wavefield   Nystrom-PCG on (H + mu I) y, then       no      -
                      u = A^-1 (b + G^T y)
  penalty-multiplier  damped trace system for v, companion u  no      -
  wri-scaled          lam against the plain residual, refresh yes     -
                      u = A^-1 (b + lam)
  al-wavefield        penalty-wavefield's solve, w passed     no      w
  al-multiplier       penalty-multiplier's solve, w passed    no      w
  split-gn            wri-scaled's solve without the refresh  yes     -
  split-gs            wri-scaled's solve                      yes     -
  refined-direct      multiplier increment, term by term      yes     -
  refined-rearranged  same iterates, rhs collected first      yes     -
  refined-epsilon     same iterates, bookkeeping through eps  yes     eps

Batching does not change an iterate: each column of a batched sweep or of
the lock-step CG does the same floating-point operations as a step of its
own source alone, and the CG's preconditioner, a Nystrom sketch of H, is
built from the model, the receivers and the penalty config alone.  The sources of a step that
builds H or runs the CG must share their receivers.

G = P A^-1 maps sources to receiver traces and H = G G^T is the data-space
Hessian; the wavefield and multiplier orientations solve the same system
(H + mu I) y = d - G (b - w/mu), matrix-free and densely (see the saddle
module).

gauss-newton and gauss-seidel instead solve damped least squares on the
stacked Born kernels for the model increment; gauss-seidel linearizes about
a field refreshed by the previous increment.

The plain forward field u0 depends on the model alone, so it is solved once
per model, all sources in one batched sweep, by initial_state and at the end
of each step, and kept in the state's forward_fields for the next step's
solve and the stopping rule.

The penalty/al multiplier orientations and the split/refined family all call
into saddle.damped_trace_multipliers, so their agreement is structural, not a
numerical accident; tests pin the correspondences (split-gs and wri-scaled
track penalty-multiplier, refined-epsilon tracks al-multiplier, the three
refined variants track each other) to round-off.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .config import (
    UPDATE_MODES, ExperimentConfig, build_acquisition, build_model_values, build_sources,
)
from .errors import ConfigurationError, DivergenceError, SolverNotConvergedError
from .grids import ModelGrid, SourceField, TraceData, Wavefield
from .oracle import assemble_born_kernel, damped_ls_solve
from .saddle import (
    HessianCache, PenaltyConfig, _shared_geometry, companion_wavefields,
    damped_trace_multipliers, solve_augmented_wavefields, solve_ls_multipliers,
)
from .wavecore import (
    adjoint_solves, apply_wave_operator, correlation_terms, forward_solves,
    preconditioned_ratio, residual_sum_of_squares, sample, scattering_source, sum_of_squares,
    updated_model,
)


@dataclass(frozen=True, eq=False)
class IterationState:
    """Everything a scheme carries between iterations.

    Per-source tuples have one entry per source.  forward_fields holds the
    plain forward fields A(model)^-1 b, always set.  initial_state sets the
    wavefields to them and zero-fills every other slot; a step leaves the
    slots its scheme does not write as None, so a state is resumed by the
    scheme that produced it.
    """

    model: ModelGrid
    model_prev: ModelGrid
    forward_fields: tuple[Wavefield, ...]                       # u0 = A(model)^-1 b
    wavefields: tuple[Wavefield, ...] | None = None
    multipliers: tuple[Wavefield, ...] | None = None            # v, unscaled multiplier
    running_multipliers: tuple[SourceField, ...] | None = None  # w, AL memory
    scatter_sources: tuple[SourceField, ...] | None = None      # lam, scaled multiplier
    scatter_errors: tuple[SourceField, ...] | None = None       # eps, accumulated constraint error
    iteration: int = 0


def initial_state(model: ModelGrid, sources) -> IterationState:
    """State at the starting model: forward_fields, also used as the
    wavefields, and zeros elsewhere.  The first step scatters dm = 0, so its
    iterates do not depend on the starting wavefields."""
    spec = model.spec
    u0 = forward_solves(model, sources)
    zf = tuple(Wavefield(spec, np.zeros(spec.shape)) for _ in sources)
    zs = tuple(SourceField(spec, np.zeros(spec.shape)) for _ in sources)
    return IterationState(model, model, u0, wavefields=u0, multipliers=zf,
                          running_multipliers=zs, scatter_sources=zs, scatter_errors=zs)


def combined_model_update(m: ModelGrid, pairs, alpha: float,
                          update_mode: str = "sum-terms") -> ModelGrid:
    """Multi-source correlation update.

    pairs is a sequence of (multiplier-like field, wavefield).  In
    "sum-terms" mode the per-node numerators and denominators are each summed
    over sources before the floored division; in "sum-updates" the floored
    per-source ratios are summed instead.  The two agree for a single source
    and differ (slightly) for several, so both are kept behind one switch.
    """
    if update_mode not in UPDATE_MODES:
        raise ConfigurationError(f"unknown update_mode {update_mode!r}")
    if update_mode == "sum-terms":
        numerator = np.zeros(m.spec.n_space)
        denominator = np.zeros(m.spec.n_space)
        for v_like, u in pairs:
            num, den = correlation_terms(v_like, u)
            numerator += num
            denominator += den
        update = preconditioned_ratio(numerator, denominator)
    else:
        update = np.zeros(m.spec.n_space)
        for v_like, u in pairs:
            num, den = correlation_terms(v_like, u)
            update += preconditioned_ratio(num, den)
    return updated_model(m, alpha, update)


def _residual_traces(data: TraceData, u: Wavefield) -> TraceData:
    predicted = sample(u, data.geometry)
    return TraceData(data.spec, data.geometry, data.values - predicted.values)


# ---------------------------------------------------------------------------
# per-step solves: (m, sources, data, cfg, cache, previous) -> (us, v_likes)
# ---------------------------------------------------------------------------


class _Previous(NamedTuple):
    """What a step's solve may read from the previous iterate, for one source."""

    u0: Wavefield              # A(m)^-1 b at the current model
    u: Wavefield               # previous wavefield
    lam: SourceField | None    # previous scaled multiplier, None if unwritten
    mem: SourceField | None    # w or eps; None for a scheme without memory
    dm: np.ndarray             # last model increment m - m_prev


def _fwi(m, sources, data, cfg, cache, prevs):
    """Reduced-space gradient: adjoint fields against the data residuals,
    whose traces are injected inside the batched adjoint sweep."""
    us = [prev.u0 for prev in prevs]
    return us, adjoint_solves(m, [_residual_traces(d, u) for d, u in zip(data, us)])


def _wavefield_orientation(m, sources, data, cfg, cache, prevs):
    """Eliminate v: the Nystrom-preconditioned data-space CG for u, the
    sources' solves in lock step, then v = w + mu (A u - b), the same v as
    the multiplier orientation in exact arithmetic.  A solve that misses
    cfg.cg_tol raises SolverNotConvergedError, so its field never reaches
    the model update."""
    ws = [prev.mem for prev in prevs]
    us, vs = [], []
    for b, w, (u, info) in zip(sources, ws, solve_augmented_wavefields(m, sources, data, cfg, ws)):
        if not info.converged:
            raise SolverNotConvergedError(
                f"wavefield CG stopped after {info.iterations} iterations at relative "
                f"residual {info.relative_residual:.3e} (cg_tol {cfg.cg_tol:g})")
        v = cfg.mu * (apply_wave_operator(m, u).values - b.values)
        us.append(u)
        vs.append(Wavefield(m.spec, v if w is None else w.values + v))
    return us, vs


def _multiplier_orientation(m, sources, data, cfg, cache, prevs):
    """Eliminate u through the damped trace system, then the companion
    wavefields A^-1 (b + (v - w)/mu); one batched sweep each."""
    ws = [prev.mem for prev in prevs]
    vs = solve_ls_multipliers(m, sources, data, cfg, ws=ws, cache=cache)
    return companion_wavefields(m, sources, vs, cfg, ws=ws), vs


def _forward_residuals(data, prevs) -> list[np.ndarray]:
    """delta_d = d - P A^-1 b, the plain forward residual, per source."""
    return [_residual_traces(d, prev.u0).values for d, prev in zip(data, prevs)]


def _sampled(m, geometry, fields) -> list[np.ndarray]:
    """S f = P A^-1 f for each field f, one batched sweep."""
    return [sample(u, geometry).values for u in forward_solves(m, fields)]


def _split(m, sources, data, cfg, cache, prevs, refresh=True):
    """lam explains the plain forward residual; with refresh the wavefield
    becomes A^-1 (b + lam), which makes the iterates those of
    penalty-multiplier with lam = v/mu and step 1 vs 1/mu."""
    rhs = _forward_residuals(data, prevs)
    lams = damped_trace_multipliers(m, _shared_geometry(data), rhs, cfg.mu, cache)
    if not refresh:
        return [prev.u0 for prev in prevs], lams
    return forward_solves(m, [SourceField(m.spec, b.values + lam.values)
                              for b, lam in zip(sources, lams)]), lams


# The three refined assemblies damp the *updated* multiplier, not the bare
# increment; that choice is what keeps their iterates identical.


def _refined_direct(m, sources, data, cfg, cache, prevs):
    """Solve for the increment dlam of S dlam = delta_d - S phi, the damping
    centred on lam_prev + dlam; phi = scattering_source(u_prev, m - m_prev).
    S phi and S lam_prev are one sweep of 2k columns."""
    spec = m.spec
    geometry = _shared_geometry(data)
    phis = [scattering_source(prev.u, prev.dm) for prev in prevs]
    sampled = _sampled(m, geometry, phis + [prev.lam for prev in prevs])
    rhs = [delta_d - s_phi + s_lam for delta_d, s_phi, s_lam
           in zip(_forward_residuals(data, prevs), sampled, sampled[len(prevs):])]
    lams = [SourceField(spec, prev.lam.values + (lam.values - prev.lam.values))
            for prev, lam in zip(prevs, damped_trace_multipliers(m, geometry, rhs, cfg.mu, cache))]
    us = forward_solves(m, [
        SourceField(spec, b.values + phi.values + lam.values - prev.lam.values)
        for b, phi, lam, prev in zip(sources, phis, lams, prevs)])
    return us, lams


def _refined_rearranged(m, sources, data, cfg, cache, prevs):
    """Collect delta_d + S (lam_prev - phi) first, solve once for lam."""
    spec = m.spec
    geometry = _shared_geometry(data)
    phis = [scattering_source(prev.u, prev.dm) for prev in prevs]
    shifts = [SourceField(spec, prev.lam.values - phi.values) for prev, phi in zip(prevs, phis)]
    rhs = [delta_d + s for delta_d, s
           in zip(_forward_residuals(data, prevs), _sampled(m, geometry, shifts))]
    lams = damped_trace_multipliers(m, geometry, rhs, cfg.mu, cache)
    us = forward_solves(m, [
        SourceField(spec, b.values + lam.values + phi.values - prev.lam.values)
        for b, lam, phi, prev in zip(sources, lams, phis, prevs)])
    return us, lams


def _refined_epsilon(m, sources, data, cfg, cache, prevs):
    """Track eps instead of (lam_prev, phi): rhs is delta_d + S eps and the
    refresh subtracts eps, which also matches al-multiplier with lam = v/mu
    and eps = w/mu."""
    geometry = _shared_geometry(data)
    epss = [prev.mem for prev in prevs]
    rhs = [delta_d + s for delta_d, s
           in zip(_forward_residuals(data, prevs), _sampled(m, geometry, epss))]
    lams = damped_trace_multipliers(m, geometry, rhs, cfg.mu, cache)
    us = forward_solves(m, [SourceField(m.spec, b.values + lam.values - eps.values)
                            for b, lam, eps in zip(sources, lams, epss)])
    return us, lams


def _born_step(state: IterationState, sources, data, damping: float, lagged: bool):
    """Damped Gauss-Newton on the stacked Born kernels (dense assembly, so
    workbench scale only).  lagged (gauss-seidel) linearizes around the fields
    re-solved with the previous model increment injected as a scattering
    source, one batched sweep; on the first iteration those are the plain
    forward fields."""
    m = state.model
    us = state.forward_fields
    if lagged:
        dm_prev = m.values - state.model_prev.values
        us = forward_solves(m, [
            SourceField(m.spec, b.values + scattering_source(u_prev, dm_prev).values)
            for b, u_prev in zip(sources, state.wavefields)])
    blocks = [assemble_born_kernel(m, u, d.geometry).matrix for u, d in zip(us, data)]
    rhs = [_residual_traces(d, u0).values.ravel() for d, u0 in zip(data, state.forward_fields)]
    dm = damped_ls_solve(np.vstack(blocks), np.concatenate(rhs), damping)
    m_new = updated_model(m, -1.0, dm)
    return IterationState(m_new, m, forward_solves(m_new, sources), wavefields=tuple(us),
                          iteration=state.iteration + 1)


# name -> (solve, scaled, memory); None marks the Born least-squares step
_TABLE = {
    "fwi": (_fwi, False, False),
    "penalty-wavefield": (_wavefield_orientation, False, False),
    "penalty-multiplier": (_multiplier_orientation, False, False),
    "wri-scaled": (_split, True, False),
    "al-wavefield": (_wavefield_orientation, False, True),
    "al-multiplier": (_multiplier_orientation, False, True),
    "gauss-newton": None,
    "gauss-seidel": None,
    "split-gn": (partial(_split, refresh=False), True, False),
    "split-gs": (_split, True, False),
    "refined-direct": (_refined_direct, True, False),
    "refined-rearranged": (_refined_rearranged, True, False),
    "refined-epsilon": (_refined_epsilon, True, True),
}

SCHEMES = tuple(_TABLE)


def step_scheme(scheme: str, state: IterationState, sources, data, cfg: PenaltyConfig,
                cache: HessianCache | None = None,
                update_mode: str = "sum-terms") -> IterationState:
    """One iteration of the named scheme (see the module docstring)."""
    if scheme not in _TABLE:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if _TABLE[scheme] is None:
        return _born_step(state, sources, data, cfg.mu, lagged=scheme == "gauss-seidel")
    solve, scaled, memory = _TABLE[scheme]
    cache = HessianCache() if cache is None else cache  # shared by this step's sources
    m = state.model
    n = len(sources)
    dm = m.values - state.model_prev.values
    mem_slot = "scatter_errors" if scaled else "running_multipliers"
    mems = getattr(state, mem_slot) if memory else (None,) * n
    lams = state.scatter_sources or (None,) * n
    prevs = [_Previous(u0, u_prev, lam, mem, dm) for u0, u_prev, lam, mem
             in zip(state.forward_fields, state.wavefields, lams, mems)]
    us, vs = solve(m, sources, data, cfg, cache, prevs)
    step = 1.0 if scaled else cfg.step_length
    m_new = combined_model_update(m, list(zip(vs, us)), step, update_mode)
    slots = {"wavefields": tuple(us), "scatter_sources" if scaled else "multipliers": tuple(vs)}
    if memory:
        k = 1.0 if scaled else cfg.mu
        slots[mem_slot] = tuple(
            SourceField(m.spec, mem.values + k * (apply_wave_operator(m_new, u).values - b.values))
            for b, u, mem in zip(sources, us, mems)
        )
    return IterationState(m_new, m, forward_solves(m_new, sources),
                          iteration=state.iteration + 1, **slots)


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
class Diagnostics:
    """One row of the convergence log.

    model_error is relative (||m - m_true|| / ||m_true||), NaN when no true
    model is available.  seconds is the wall time of the step, including
    its forward solves at the new model (row 0: initial_state), taken before
    this row's diagnostics; it is excluded from any determinism or
    regression comparison.  constraint, v_norm and w_norm are sums of
    squares streamed through row-sized pieces of each field, never whole
    temporaries; their pieces add up in another order than one whole-array
    sum, so they may differ from it at round-off.
    """

    iteration: int
    misfit: float
    constraint: float
    model_error: float
    v_norm: float
    w_norm: float
    seconds: float

    def as_row(self) -> tuple:
        return astuple(self)


DIAGNOSTIC_FIELDS = ("iter", "misfit", "constraint", "model_error", "v_norm", "w_norm", "seconds")


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


def _diagnostics(state: IterationState, sources, data, true_model: ModelGrid | None,
                 seconds: float) -> Diagnostics:
    m = state.model
    constraint = sum(residual_sum_of_squares(m, u, b) for b, u in zip(sources, state.wavefields))
    model_error = float("nan") if true_model is None else (
        float(np.linalg.norm(m.values - true_model.values))
        / float(np.linalg.norm(true_model.values)))
    v_norm = np.sqrt(_norm_sq(state.multipliers) + _norm_sq(state.scatter_sources))
    w_norm = np.sqrt(_norm_sq(state.running_multipliers) + _norm_sq(state.scatter_errors))
    return Diagnostics(iteration=state.iteration, misfit=_misfit(state.wavefields, data),
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

    History always has an iteration-0 row evaluated at initial_state, whose
    wavefields are the plain forward fields, before any stepping.  Stopping
    rules:

      * reduced data misfit 0.5*||P A(m)^-1 b - d||^2 at the current model
        falls to stop.misfit_tol times the data energy 0.5*||d||^2.  The
        reduced misfit is read from the state's forward_fields, not from its
        wavefields, because the relaxed wavefields of the penalty/AL family
        fit the data by construction and say nothing about model
        convergence.
      * relative constraint norm (against ||b||) <= stop.constraint_tol,
        checked from iteration 1 on (iteration 0 has exact-solve fields)
      * iteration count reaching stop.max_iter
      * divergence (non-finite diagnostics or a failed update) aborts with
        the last valid state and status "diverged"
      * an iterative solve that misses its tolerance aborts the same way
        with status "solver_not_converged"
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
    cache = HessianCache()
    t0 = time.perf_counter()
    state = initial_state(m0, sources)
    history = [_diagnostics(state, sources, data, true_model, time.perf_counter() - t0)]
    data_energy = 0.5 * sum(float(np.sum(d.values**2)) for d in data)
    source_scale = np.sqrt(sum(float(np.sum(b.values**2)) for b in sources))

    status = "max_iter"
    if history[0].misfit <= config.stop.misfit_tol * data_energy:
        # initial model already explains the data
        return InversionResult(m0, tuple(history), "misfit_tol", state)

    for _ in range(config.stop.max_iter):
        t_iter = time.perf_counter()
        try:
            new_state = step_scheme(config.scheme, state, sources, data, cfg, cache=cache,
                                    update_mode=config.update_mode)
        except DivergenceError:
            status = "diverged"
            break
        except SolverNotConvergedError:
            status = "solver_not_converged"
            break
        diag = _diagnostics(new_state, sources, data, true_model, time.perf_counter() - t_iter)
        if not np.isfinite(diag.misfit) or not np.isfinite(diag.constraint):
            status = "diverged"
            break
        state = new_state
        history.append(diag)
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
