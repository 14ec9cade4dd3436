"""Inversion iterations: thirteen schemes around a single saddle point.

Every scheme alternates between (a) estimating a wavefield u and a
multiplier-like field for each source and (b) updating the model.  Eleven
share the one pipeline of step_scheme,

    per source:  (u, v_like) = solve(m, b, d, cfg, cache, previous slots)
    m_new = combined_model_update(m, [(v_like, u), ...], step)
    mem   = mem + k (A(m_new) u - b)           (schemes with a memory only)
    u0    = A(m_new)^-1 b                      (forward_fields of the new state)

and differ only in their row of _TABLE: the solve, whether the multiplier is
scaled, and whether a memory is carried.  An unscaled scheme keeps v in
`multipliers`, steps by cfg.step_length (1/mu unless alpha is pinned) and
carries the Lagrange multiplier w (k = mu) in `running_multipliers`.  A
scaled scheme keeps lam = v/mu in `scatter_sources`, takes a unit step and
carries the accumulated constraint error eps = w/mu (k = 1) in
`scatter_errors`.

  scheme              solve                                   scaled  memory
  fwi                 u = A^-1 b, v back-propagates P u - d     no      -
  penalty-wavefield   CG on the data-augmented normal equations no      -
  penalty-multiplier  damped trace system for v, companion u    no      -
  wri-scaled          lam against the plain residual, refresh   yes     -
                      u = A^-1 (b + lam)
  al-wavefield        penalty-wavefield's solve, w passed       no      w
  al-multiplier       penalty-multiplier's solve, w passed      no      w
  split-gn            wri-scaled's solve without the refresh    yes     -
  split-gs            wri-scaled's solve                        yes     -
  refined-direct      multiplier increment, term by term        yes     -
  refined-rearranged  same iterates, rhs collected first        yes     -
  refined-epsilon     same iterates, bookkeeping through eps    yes     eps

gauss-newton and gauss-seidel instead solve damped least squares on the
stacked Born kernels for the model increment; gauss-seidel linearizes about
a field refreshed by the previous increment.

The plain forward field u0 depends on the model alone, so it is solved once
per model, by initial_state and at the end of each step, and kept in the
state's forward_fields for the next step's solve and the stopping rule.

The penalty/al multiplier orientations and the split/refined family all call
into saddle.damped_trace_multiplier, so their agreement is structural, not a
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
from .errors import ConfigurationError, DivergenceError
from .grids import ModelGrid, SourceField, TraceData, Wavefield
from .oracle import assemble_born_kernel, damped_ls_solve
from .saddle import (
    HessianCache, PenaltyConfig, companion_wavefield, damped_trace_multiplier,
    solve_augmented_wavefield, solve_ls_multiplier,
)
from .wavecore import (
    adjoint_solve, apply_wave_operator, correlation_terms, forward_solve, inject,
    preconditioned_ratio, sample, scattering_source, updated_model,
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


def _forward_fields(m: ModelGrid, sources) -> tuple[Wavefield, ...]:
    return tuple(forward_solve(m, b) for b in sources)


def initial_state(model: ModelGrid, sources) -> IterationState:
    """State at the starting model: forward_fields, also used as the
    wavefields, and zeros elsewhere.  The first step scatters dm = 0, so its
    iterates do not depend on the starting wavefields."""
    spec = model.spec
    u0 = _forward_fields(model, sources)
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
# per-source solves: (m, b, d, cfg, cache, previous) -> (u, v_like)
# ---------------------------------------------------------------------------


class _Previous(NamedTuple):
    """What one source's solve may read from the previous iterate."""

    u0: Wavefield              # A(m)^-1 b at the current model
    u: Wavefield               # previous wavefield
    lam: SourceField | None    # previous scaled multiplier, None if unwritten
    mem: SourceField | None    # w or eps; None for a scheme without memory
    dm: np.ndarray             # last model increment m - m_prev


def _fwi(m, b, d, cfg, cache, prev):
    """Reduced-space gradient: adjoint field against the data residual."""
    return prev.u0, adjoint_solve(m, inject(_residual_traces(d, prev.u0)))


def _wavefield_orientation(m, b, d, cfg, cache, prev):
    """Eliminate v: CG on the data-augmented normal equations, then
    v = w + mu (A u - b), the same v as the multiplier orientation in exact
    arithmetic."""
    w = prev.mem
    u, _ = solve_augmented_wavefield(m, b, d, cfg, w=w)
    v = cfg.mu * (apply_wave_operator(m, u).values - b.values)
    return u, Wavefield(m.spec, v if w is None else w.values + v)


def _multiplier_orientation(m, b, d, cfg, cache, prev):
    """Eliminate u through the damped trace system, then the companion
    wavefield A^-1 (b + (v - w)/mu)."""
    v = solve_ls_multiplier(m, b, d, cfg, w=prev.mem, cache=cache)
    return companion_wavefield(m, b, v, cfg, w=prev.mem), v


def _scaled_multiplier(m, d, rhs, cfg, cache) -> SourceField:
    """lam = A^-T P^T (H + mu I)^-1 rhs, the damped scattering source."""
    return SourceField(
        m.spec, damped_trace_multiplier(m, d.geometry, rhs, cfg.mu, cache=cache).values
    )


def _split(m, b, d, cfg, cache, prev, refresh=True):
    """lam explains the plain forward residual; with refresh the wavefield
    becomes A^-1 (b + lam), which makes the iterates those of
    penalty-multiplier with lam = v/mu and step 1 vs 1/mu."""
    lam = _scaled_multiplier(m, d, _residual_traces(d, prev.u0).values, cfg, cache)
    u = forward_solve(m, SourceField(m.spec, b.values + lam.values)) if refresh else prev.u0
    return u, lam


# The three refined assemblies damp the *updated* multiplier, not the bare
# increment; that choice is what keeps their iterates identical.


def _refined_direct(m, b, d, cfg, cache, prev):
    """Solve for the increment dlam of S dlam = delta_d - S phi, the damping
    centred on lam_prev + dlam; phi = scattering_source(u_prev, m - m_prev)."""
    spec = m.spec
    delta_d = _residual_traces(d, prev.u0).values
    phi = scattering_source(prev.u, prev.dm)
    s_phi = sample(forward_solve(m, phi), d.geometry).values
    s_lam = sample(forward_solve(m, prev.lam), d.geometry).values
    increment_rhs = delta_d - s_phi
    dlam = _scaled_multiplier(m, d, increment_rhs + s_lam, cfg, cache).values - prev.lam.values
    lam = SourceField(spec, prev.lam.values + dlam)
    u = forward_solve(m, SourceField(spec, b.values + phi.values + lam.values - prev.lam.values))
    return u, lam


def _refined_rearranged(m, b, d, cfg, cache, prev):
    """Collect delta_d + S (lam_prev - phi) first, solve once for lam."""
    spec = m.spec
    delta_d = _residual_traces(d, prev.u0).values
    phi = scattering_source(prev.u, prev.dm)
    shift = SourceField(spec, prev.lam.values - phi.values)
    rhs = delta_d + sample(forward_solve(m, shift), d.geometry).values
    lam = _scaled_multiplier(m, d, rhs, cfg, cache)
    u = forward_solve(m, SourceField(spec, b.values + lam.values + phi.values - prev.lam.values))
    return u, lam


def _refined_epsilon(m, b, d, cfg, cache, prev):
    """Track eps instead of (lam_prev, phi): rhs is delta_d + S eps and the
    refresh subtracts eps, which also matches al-multiplier with lam = v/mu
    and eps = w/mu."""
    eps = prev.mem
    delta_d = _residual_traces(d, prev.u0).values
    rhs = delta_d + sample(forward_solve(m, eps), d.geometry).values
    lam = _scaled_multiplier(m, d, rhs, cfg, cache)
    return forward_solve(m, SourceField(m.spec, b.values + lam.values - eps.values)), lam


def _born_step(state: IterationState, sources, data, damping: float, lagged: bool):
    """Damped Gauss-Newton on the stacked Born kernels (dense assembly, so
    workbench scale only).  lagged (gauss-seidel) linearizes around the field
    re-solved with the previous model increment injected as a scattering
    source; on the first iteration that is the plain forward field."""
    m = state.model
    dm_prev = m.values - state.model_prev.values
    us, blocks, rhs = [], [], []
    for b, d, u0, u_prev in zip(sources, data, state.forward_fields, state.wavefields):
        u = u0
        if lagged:
            phi = scattering_source(u_prev, dm_prev)
            u = forward_solve(m, SourceField(m.spec, b.values + phi.values))
        us.append(u)
        blocks.append(assemble_born_kernel(m, u, d.geometry).matrix)
        rhs.append(_residual_traces(d, u0).values.ravel())
    dm = damped_ls_solve(np.vstack(blocks), np.concatenate(rhs), damping)
    m_new = updated_model(m, -1.0, dm)
    return IterationState(m_new, m, _forward_fields(m_new, sources), wavefields=tuple(us),
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
    us, vs = [], []
    for b, d, u0, u_prev, lam, mem in zip(sources, data, state.forward_fields,
                                          state.wavefields, lams, mems):
        u, v_like = solve(m, b, d, cfg, cache, _Previous(u0, u_prev, lam, mem, dm))
        us.append(u)
        vs.append(v_like)
    step = 1.0 if scaled else cfg.step_length
    m_new = combined_model_update(m, list(zip(vs, us)), step, update_mode)
    slots = {"wavefields": tuple(us), "scatter_sources" if scaled else "multipliers": tuple(vs)}
    if memory:
        k = 1.0 if scaled else cfg.mu
        slots[mem_slot] = tuple(
            SourceField(m.spec, mem.values + k * (apply_wave_operator(m_new, u).values - b.values))
            for b, u, mem in zip(sources, us, mems)
        )
    return IterationState(m_new, m, _forward_fields(m_new, sources),
                          iteration=state.iteration + 1, **slots)


def reduced_objective_and_gradient(m: ModelGrid, sources, data):
    """Reduced-space data misfit and its exact discrete gradient.

    Returns (0.5 * sum_s ||P u_s - d_s||^2, per-node gradient).  The gradient
    is the adjoint-state correlation <v_s, ddu_s>_t summed over sources with
    v_s back-propagating (d_s - P u_s); it matches brute-force finite
    differences of the misfit because the correlation uses the same lagged
    curvature that the operator derivative d(Au)/dm produces.
    """
    misfit = 0.0
    gradient = np.zeros(m.spec.n_space)
    for b, d in zip(sources, data):
        u = forward_solve(m, b)
        residual = _residual_traces(d, u)
        misfit += 0.5 * float(np.sum(residual.values**2))
        v = adjoint_solve(m, inject(residual))
        num, _ = correlation_terms(v, u)
        gradient += num
    return misfit, gradient


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
    regression comparison.
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
    return float(sum(np.sum(f.values**2) for f in fields or ()))


def _misfit(fields, data) -> float:
    """Data misfit 0.5 * sum_s ||P u_s - d_s||^2 of per-source fields."""
    misfit = 0.0
    for u, d in zip(fields, data):
        misfit += 0.5 * float(np.sum(_residual_traces(d, u).values ** 2))
    return misfit


def _diagnostics(state: IterationState, sources, data, true_model: ModelGrid | None,
                 seconds: float) -> Diagnostics:
    m = state.model
    constraint = 0.0
    for b, u in zip(sources, state.wavefields):
        constraint += float(np.sum((apply_wave_operator(m, u).values - b.values) ** 2))
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
