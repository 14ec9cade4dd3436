"""Inversion iterations: thirteen schemes around a single saddle point.

Every scheme alternates between (a) estimating a wavefield u and a
multiplier-like field for each source and (b) updating the model.  Eleven
share the one pipeline of step_scheme,

    (us, v_likes) = solve(m, sources, data, cfg, previous slots)
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
shift, or with its memory unwritten, makes no sweep for P A^-1 s.  An
unscaled scheme returns v = mu lam, steps by cfg.step_length (1/mu unless
alpha is pinned) and carries the Lagrange multiplier w (k = mu).  A scaled
scheme returns lam, takes a unit step and carries the accumulated
constraint error eps = w/mu (k = 1).

  scheme              s                backend      refresh  scaled  memory
  fwi                 -                -            -        no      -
  penalty-wavefield   0                matrix-free  yes      no      -
  penalty-multiplier  0                dense        yes      no      -
  wri-scaled          0                dense        yes      yes     -
  al-wavefield        -w/mu            matrix-free  yes      no      w
  al-multiplier       -w/mu            dense        yes      no      w
  split-gn            0                dense        no       yes     -
  split-gs            0                dense        yes      yes     -
  refined-direct      by hand          dense        yes      yes     -
  refined-rearranged  phi - lam_prev   dense        yes      yes     -
  refined-epsilon     -eps             dense        yes      yes     eps

phi = scattering_source(u_prev, m - m_prev).  fwi keeps u = u0 and
back-propagates P u - d for v.  refined-direct solves for the multiplier
increment term by term, so its agreement with refined-epsilon checks the
shifts.

Batching does not change an iterate: each column of a batched sweep, of the
Cholesky solve or of the lock-step CG does the same floating-point
operations as a step of its own source alone, and the CG's preconditioner, a
Nystrom sketch of H, is built from the model, the receivers and the penalty
config alone.  The sources of a step that builds H or runs the CG must share
their receivers.

A source b is a point source, one-node TraceData (config.build_sources), or
a dense SourceField; it meets the dense fields of a step (lam, phi, eps,
A u) only through wavecore.add_source and subtract_source, which give
bitwise the dense sums, so both forms step to the same bytes.

gauss-newton and gauss-seidel instead solve damped least squares on the
stacked Born kernels for the model increment; gauss-seidel linearizes about
a field refreshed by the previous increment.

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
from dataclasses import astuple, dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .config import (
    UPDATE_MODES, ExperimentConfig, build_acquisition, build_model_values, build_sources,
)
from .errors import (
    ConfigurationError, DivergenceError, SingularSystemError, SolverNotConvergedError,
)
from .grids import ModelGrid, SourceField, TraceData, Wavefield
from .oracle import assemble_born_kernel, damped_ls_solve
from .saddle import (
    PenaltyConfig, _shared_geometry, data_space_multipliers, solve_saddle,
)
from .wavecore import (
    add_source, adjoint_solves, apply_wave_operator, correlation_terms, forward_solves,
    forward_traces, preconditioned_ratio, residual_sum_of_squares, sample, scattering_source,
    subtract_source, sum_of_squares, updated_model,
)


@dataclass(frozen=True, eq=False)
class IterationState:
    """What a scheme carries from one step to the next.

    Per-source tuples have one entry per source.  forward_fields, the plain
    forward fields A(model)^-1 b, are set by with_forward_fields.  Of the
    other slots a step's carry holds what its scheme's next step reads (w
    or eps; u and lam for refined-direct and refined-rearranged; u for
    gauss-seidel) and initial_state none: the first step reads u as u0, lam
    as zero and no memory."""

    model: ModelGrid
    model_prev: ModelGrid
    forward_fields: tuple[Wavefield, ...] | None = None         # u0 = A(model)^-1 b
    wavefields: tuple[Wavefield, ...] | None = None             # u, previous wavefield
    running_multipliers: tuple[SourceField, ...] | None = None  # w, AL memory
    scatter_sources: tuple[SourceField, ...] | None = None      # lam, scaled multiplier
    scatter_errors: tuple[SourceField, ...] | None = None       # eps, accumulated constraint error
    iteration: int = 0


def with_forward_fields(state: IterationState, sources) -> IterationState:
    """state with the forward fields A(state.model)^-1 b of every source, one
    batched sweep; a non-finite field raises DivergenceError."""
    return replace(state, forward_fields=forward_solves(state.model, sources))


def initial_state(model: ModelGrid, sources) -> IterationState:
    """State at the starting model: its forward fields, no other slot.  The
    first step scatters dm = 0, so its iterates do not depend on the
    starting wavefields."""
    return with_forward_fields(IterationState(model, model), sources)


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
# per-step solves: (m, sources, data, cfg, previous) -> (us, v_likes)
# ---------------------------------------------------------------------------


class _Previous(NamedTuple):
    """What a step's solve may read from the previous iterate, for one source."""

    u0: Wavefield              # A(m)^-1 b at the current model
    u: Wavefield               # previous wavefield, u0 before the first step
    lam: SourceField | None    # previous scaled multiplier, None if unwritten
    mem: SourceField | None    # w or eps; None without a memory or before it is written
    dm: np.ndarray             # last model increment m - m_prev


def _residuals(data, prevs) -> list[TraceData]:
    """delta_d = d - P A^-1 b, the plain forward residual, per source."""
    return [_residual_traces(d, prev.u0) for d, prev in zip(data, prevs)]


def _fwi(m, sources, data, cfg, prevs):
    """Reduced-space gradient: adjoint fields against the data residuals,
    whose traces are injected inside the batched adjoint sweep."""
    return [prev.u0 for prev in prevs], adjoint_solves(m, _residuals(data, prevs))


def _extended(m, sources, data, cfg, prevs, shift=None, matrix_free=False, refresh=True,
              scaled=True):
    """One saddle solve of the sources extended by s = shift(prev, cfg) (s = 0
    without a shift) against the plain forward residuals, on the row's
    backend; with refresh u = A^-1 ((b + lam) + s), without it (split-gn)
    u = u0 and no sweep.  A scaled row keeps lam, an unscaled one
    v = mu lam.  A matrix-free solve that misses cfg.cg_tol raises
    SolverNotConvergedError, so its field never reaches the model update."""
    residuals = _residuals(data, prevs)
    if refresh:
        shifts = None if shift is None else [shift(prev, cfg) for prev in prevs]
        us, lams = solve_saddle(m, sources, residuals, cfg, shifts, matrix_free)
    else:
        us = [prev.u0 for prev in prevs]
        lams = data_space_multipliers(m, _shared_geometry(residuals),
                                      [r.values for r in residuals], cfg, matrix_free)
    return us, lams if scaled else [Wavefield(m.spec, cfg.mu * lam.values) for lam in lams]


def _al_shift(prev, cfg) -> SourceField:  # -w/mu
    return SourceField(prev.mem.spec, (-1.0 / cfg.mu) * prev.mem.values)


def _epsilon_shift(prev, cfg) -> SourceField:  # -eps
    return SourceField(prev.mem.spec, -prev.mem.values)


def _scattering_shift(prev, cfg) -> SourceField:  # phi - lam_prev
    phi = scattering_source(prev.u, prev.dm)
    # x - 0.0 is bitwise x, so an unwritten lam_prev is the scalar 0.0
    return SourceField(phi.spec, phi.values - (0.0 if prev.lam is None else prev.lam.values))


def _refined_direct(m, sources, data, cfg, prevs):
    """Solve for the increment dlam of S dlam = delta_d - S phi, the damping
    centred on lam_prev + dlam; phi = scattering_source(u_prev, m - m_prev).
    It damps the *updated* multiplier, not the bare increment, as the
    extended solve does, which keeps their iterates identical; assembled
    term by term, it checks the extended rows' shifts.  S phi and S lam_prev
    are one trace-out sweep of 2k columns; an unwritten lam_prev is swept
    as a zero field."""
    spec = m.spec
    geometry = _shared_geometry(data)
    phis = [scattering_source(prev.u, prev.dm) for prev in prevs]
    olds = [prev.lam or SourceField(spec, np.zeros(spec.shape)) for prev in prevs]
    sampled = forward_traces(m, phis + olds, geometry)
    rhs = [delta_d.values - s_phi.values + s_lam.values for delta_d, s_phi, s_lam
           in zip(_residuals(data, prevs), sampled, sampled[len(prevs):])]
    lams = [SourceField(spec, old.values + (lam.values - old.values))
            for old, lam in zip(olds, data_space_multipliers(m, geometry, rhs, cfg))]
    us = forward_solves(m, [
        SourceField(spec, add_source(b, phi.values) + lam.values - old.values)
        for b, phi, lam, old in zip(sources, phis, lams, olds)])
    return us, lams


def _born_step(state: IterationState, sources, data, damping: float, lagged: bool):
    """Damped Gauss-Newton on the stacked Born kernels (dense assembly, so
    workbench scale only).  lagged (gauss-seidel) linearizes around the fields
    re-solved with the previous model increment injected as a scattering
    source, one batched sweep, and carries them; on the first iteration those
    are the plain forward fields.  damping is penalty.mu, unscaled to the
    Born kernel J, as the delta of (J^T J + delta I): on the two-scatterer
    benchmark and on a 15 x 13 x 60 2D grid both schemes diverge after one
    step for every delta from 1e-4 to 1e12."""
    m = state.model
    us = state.forward_fields
    if lagged:
        dm_prev = m.values - state.model_prev.values
        us = forward_solves(m, [
            SourceField(m.spec, add_source(b, scattering_source(u_prev, dm_prev).values))
            for b, u_prev in zip(sources, state.wavefields or us)])
    blocks = [assemble_born_kernel(m, u, d.geometry).matrix for u, d in zip(us, data)]
    rhs = [_residual_traces(d, u0).values.ravel() for d, u0 in zip(data, state.forward_fields)]
    dm = damped_ls_solve(np.vstack(blocks), np.concatenate(rhs), damping)
    carry = IterationState(updated_model(m, -1.0, dm), m, iteration=state.iteration + 1,
                           wavefields=tuple(us) if lagged else None)
    return carry, tuple(us), None


def _row(shift=None, matrix_free=False, refresh=True, scaled=True, memory=False):
    """The _TABLE entry of an extended-source row."""
    solve = partial(_extended, shift=shift, matrix_free=matrix_free, refresh=refresh,
                    scaled=scaled)
    return solve, scaled, memory, shift is _scattering_shift


# name -> (solve, scaled, memory, carries u and lam); None: Born least squares
_TABLE = {
    "fwi": (_fwi, False, False, False),
    "penalty-wavefield": _row(matrix_free=True, scaled=False),
    "penalty-multiplier": _row(scaled=False),
    "wri-scaled": _row(),
    "al-wavefield": _row(_al_shift, matrix_free=True, scaled=False, memory=True),
    "al-multiplier": _row(_al_shift, scaled=False, memory=True),
    "gauss-newton": None,
    "gauss-seidel": None,
    "split-gn": _row(refresh=False),
    "split-gs": _row(),
    "refined-direct": (_refined_direct, True, False, True),
    "refined-rearranged": _row(_scattering_shift),
    "refined-epsilon": _row(_epsilon_shift, memory=True),
}

SCHEMES = tuple(_TABLE)


def step_scheme(scheme: str, state: IterationState, sources, data, cfg: PenaltyConfig,
                update_mode: str = "sum-terms"):
    """One iteration of the named scheme (see the module docstring): the
    carry at the new model, without forward fields, and the step's us and
    vs (None for gauss-*)."""
    if scheme not in _TABLE:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if _TABLE[scheme] is None:
        return _born_step(state, sources, data, cfg.mu, lagged=scheme == "gauss-seidel")
    solve, scaled, memory, carries = _TABLE[scheme]
    m = state.model
    n = len(sources)
    dm = m.values - state.model_prev.values
    mem_slot = "scatter_errors" if scaled else "running_multipliers"
    mems = getattr(state, mem_slot) if memory else None
    if memory and mems is None:  # memory unwritten: s = 0, no P A^-1 s sweep
        solve = partial(solve, shift=None)
    if mems is None:
        mems = (None,) * n
    prevs = [_Previous(u0, u_prev, lam, mem, dm) for u0, u_prev, lam, mem
             in zip(state.forward_fields, state.wavefields or state.forward_fields,
                    state.scatter_sources or (None,) * n, mems)]
    us, vs = solve(m, sources, data, cfg, prevs)
    step = 1.0 if scaled else cfg.step_length
    m_new = combined_model_update(m, list(zip(vs, us)), step, update_mode)
    slots = {"wavefields": tuple(us), "scatter_sources": tuple(vs)} if carries else {}
    if memory:
        k = 1.0 if scaled else cfg.mu
        slots[mem_slot] = tuple(
            SourceField(m.spec, (0.0 if mem is None else mem.values)  # as zeros, bitwise
                        + k * subtract_source(apply_wave_operator(m_new, u).values, b))
            for b, u, mem in zip(sources, us, mems)
        )
    return IterationState(m_new, m, iteration=state.iteration + 1, **slots), tuple(us), tuple(vs)


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
    model is available.  seconds is the wall time of the step and its
    forward sweep at the new model (row 0: initial_state), not of this
    row's diagnostics, which run between the two; it is excluded from any
    determinism or regression comparison.  constraint, v_norm and w_norm
    are sums of squares streamed through row-sized pieces of each field, never whole
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


def _diagnostics(state: IterationState, us, vs, sources, data, true_model: ModelGrid | None,
                 seconds: float) -> Diagnostics:
    m = state.model
    constraint = sum(residual_sum_of_squares(m, u, b) for b, u in zip(sources, us))
    model_error = float("nan") if true_model is None else (
        float(np.linalg.norm(m.values - true_model.values))
        / float(np.linalg.norm(true_model.values)))
    v_norm = np.sqrt(_norm_sq(vs))
    w_norm = np.sqrt(_norm_sq(state.running_multipliers) + _norm_sq(state.scatter_errors))
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
            carry, us, vs = step_scheme(config.scheme, state, sources, data, cfg,
                                        update_mode=config.update_mode)
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
