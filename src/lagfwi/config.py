"""Experiment configuration: flat key=value files and synthetic model builders.

Config files are plain text, one `key = value` per line, '#' starts a
comment.  Keys are dotted; unknown keys are rejected.  The full schema:

    grid.ndim grid.nx grid.nz grid.dx grid.dz grid.nt grid.dt
    model.true.kind  model.init.kind     uniform | box-anomaly |
                                         gaussian-anomaly | two-layer | file
    model.<which>.velocity               background / uniform velocity, m/s
    model.<which>.boxes                  "ix0:ix1:vel" (1D) or
                                         "ix0:ix1:iz0:iz1:vel" (2D),
                                         ';'-separated, half-open ranges
    model.<which>.center                 node indices "ix" or "ix,iz"
    model.<which>.sigma                  gaussian width in nodes
    model.<which>.amplitude              gaussian velocity perturbation, m/s
    model.<which>.interface              first node index of the lower layer
                                         (along x in 1D, along z in 2D)
    model.<which>.v_top model.<which>.v_bottom
    model.<which>.path                   LAGFWI model file (squared slowness)
    acquisition.sources acquisition.receivers    comma-separated node ids
    wavelet.frequency wavelet.amplitude          Ricker peak Hz / scale
    scheme                                       iteration scheme name
    penalty.mu penalty.alpha penalty.cg_tol penalty.cg_maxiter
    update_mode                                  sum-terms | sum-updates
    mu_growth                                    geometric growth factor, 1 = off
    stop.max_iter stop.misfit_tol stop.constraint_tol
    noise.std                                    std relative to clean-trace RMS
    noise.seed                                   required when noise.std > 0
    paths.work_dir                               output directory

Relative paths (work_dir, model files) resolve against the directory of the
config file.  Tolerances: stop.misfit_tol is relative to the observed data
energy 0.5*||d||^2; stop.constraint_tol is relative to the source norm ||b||.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigurationError
from .fileio import load_model
from .grids import (
    AcquisitionGeometry,
    GridSpec,
    ModelGrid,
    TraceData,
    build_model,
    check_cfl,
)
from .saddle import PenaltyConfig
from .wavecore import forward_traces

MODEL_KINDS = ("uniform", "box-anomaly", "gaussian-anomaly", "two-layer", "file")
UPDATE_MODES = ("sum-terms", "sum-updates")


@dataclass(frozen=True)
class ModelDescriptor:
    """One synthetic (or file-backed) velocity model recipe."""

    kind: str
    velocity: float | None = None
    boxes: tuple[tuple[int, int, int, int, float], ...] = ()
    center: tuple[float, ...] | None = None
    sigma: float | None = None
    amplitude: float | None = None
    interface: int | None = None
    v_top: float | None = None
    v_bottom: float | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(
                f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}"
            )


@dataclass(frozen=True)
class StopRules:
    max_iter: int = 50
    misfit_tol: float = 1e-12
    constraint_tol: float = 0.0

    def __post_init__(self):
        if self.max_iter < 0:
            raise ConfigurationError("stop.max_iter must be >= 0")
        if self.misfit_tol < 0 or self.constraint_tol < 0:
            raise ConfigurationError("stopping tolerances must be >= 0")


@dataclass(frozen=True)
class NoiseSpec:
    std: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if self.std < 0:
            raise ConfigurationError("noise.std must be >= 0")
        if self.std > 0 and self.seed is None:
            raise ConfigurationError("noise.seed is required when noise.std > 0")


@dataclass(frozen=True)
class ExperimentConfig:
    grid: GridSpec
    true_model: ModelDescriptor
    initial_model: ModelDescriptor
    source_nodes: tuple[int, ...]
    receiver_nodes: tuple[int, ...]
    wavelet_frequency: float = 10.0
    wavelet_amplitude: float = 1.0
    scheme: str | None = None
    penalty: PenaltyConfig = field(default_factory=lambda: PenaltyConfig(mu=100.0))
    update_mode: str = "sum-terms"
    mu_growth: float = 1.0
    stop: StopRules = field(default_factory=StopRules)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    work_dir: str = "lagfwi-out"

    def __post_init__(self):
        AcquisitionGeometry(self.source_nodes, self.receiver_nodes).validate_for(self.grid)
        if self.wavelet_frequency <= 0:
            raise ConfigurationError("wavelet.frequency must be positive")
        if self.update_mode not in UPDATE_MODES:
            raise ConfigurationError(
                f"unknown update_mode {self.update_mode!r}; expected one of {UPDATE_MODES}"
            )
        if self.mu_growth <= 0:
            raise ConfigurationError("mu_growth must be positive")


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------


def _require(desc: ModelDescriptor, attr: str, key_hint: str):
    value = getattr(desc, attr)
    if value is None:
        raise ConfigurationError(f"model kind {desc.kind!r} needs {key_hint}")
    return value


def build_velocity(spec: GridSpec, desc: ModelDescriptor) -> np.ndarray:
    """Per-node velocity in m/s for the synthetic model kinds."""
    if desc.kind == "uniform":
        return np.full(spec.n_space, float(_require(desc, "velocity", "velocity")))
    if desc.kind == "box-anomaly":
        v = np.full(spec.n_space, float(_require(desc, "velocity", "velocity")))
        if not desc.boxes:
            raise ConfigurationError("box-anomaly model needs at least one box")
        grid_view = v.reshape(spec.nz, spec.nx)
        for ix0, ix1, iz0, iz1, vel in desc.boxes:
            if not (0 <= ix0 < ix1 <= spec.nx and 0 <= iz0 < iz1 <= spec.nz):
                raise ConfigurationError(
                    f"box {(ix0, ix1, iz0, iz1)} falls outside the grid"
                )
            grid_view[iz0:iz1, ix0:ix1] = vel
        return v
    if desc.kind == "gaussian-anomaly":
        background = float(_require(desc, "velocity", "velocity"))
        center = _require(desc, "center", "center")
        sigma = float(_require(desc, "sigma", "sigma"))
        amplitude = float(_require(desc, "amplitude", "amplitude"))
        if sigma <= 0:
            raise ConfigurationError("gaussian sigma must be positive")
        if len(center) != spec.ndim:
            raise ConfigurationError(
                f"gaussian center needs {spec.ndim} coordinates, got {len(center)}"
            )
        ix = np.arange(spec.nx, dtype=float)
        if spec.ndim == 1:
            r2 = (ix - center[0]) ** 2
        else:
            iz = np.arange(spec.nz, dtype=float)
            gx, gz = np.meshgrid(ix, iz)  # shape (nz, nx), z-major like the layout
            r2 = (gx - center[0]) ** 2 + (gz - center[1]) ** 2
        return (background + amplitude * np.exp(-r2 / (2.0 * sigma**2))).ravel()
    if desc.kind == "two-layer":
        v_top = float(_require(desc, "v_top", "v_top"))
        v_bottom = float(_require(desc, "v_bottom", "v_bottom"))
        interface = int(_require(desc, "interface", "interface"))
        axis_len = spec.nx if spec.ndim == 1 else spec.nz
        if not (0 < interface < axis_len):
            raise ConfigurationError("two-layer interface must split the grid")
        v = np.full((spec.nz, spec.nx), v_top)
        if spec.ndim == 1:
            v[:, interface:] = v_bottom
        else:
            v[interface:, :] = v_bottom
        return v.ravel()
    raise ConfigurationError(f"build_velocity cannot handle kind {desc.kind!r}")


def build_model_values(spec: GridSpec, desc: ModelDescriptor) -> np.ndarray:
    """Per-node squared slowness for any model descriptor (CFL-checked)."""
    if desc.kind == "file":
        loaded = load_model(_require(desc, "path", "path"))
        if loaded.spec != spec:
            raise ConfigurationError(
                f"model file {desc.path!r} grid disagrees with configured grid"
            )
        check_cfl(spec, loaded.values)
        return loaded.values.copy()
    return build_model(spec, build_velocity(spec, desc)).values


def build_acquisition(config: ExperimentConfig) -> AcquisitionGeometry:
    geometry = AcquisitionGeometry(config.source_nodes, config.receiver_nodes)
    geometry.validate_for(config.grid)
    return geometry


def ricker_wavelet(spec: GridSpec, frequency: float, amplitude: float = 1.0) -> np.ndarray:
    """Ricker (Mexican-hat) wavelet with its peak delayed by one period."""
    tau = spec.times() - 1.0 / frequency
    arg = (math.pi * frequency * tau) ** 2
    return amplitude * (1.0 - 2.0 * arg) * np.exp(-arg)


def build_sources(config: ExperimentConfig) -> list[TraceData]:
    """One point source per configured node, all sharing the Ricker wavelet.

    A point source is TraceData on the one-node geometry of its node,
    holding the wavelet as its one (1, nt) trace: it stands for its
    injection P^T d, which every sweep takes as a trace column, and
    wavecore.add_source/subtract_source meet it with dense fields.
    """
    spec = config.grid
    wavelet = ricker_wavelet(spec, config.wavelet_frequency, config.wavelet_amplitude)
    return [TraceData(spec, AcquisitionGeometry((node,), (node,)), np.array([wavelet]))
            for node in config.source_nodes]


def true_model_grid(config: ExperimentConfig) -> ModelGrid:
    return ModelGrid(config.grid, build_model_values(config.grid, config.true_model))


def make_observed_data(config: ExperimentConfig) -> list[TraceData]:
    """Model the observed traces: true-model forward solves plus optional noise.

    The clean traces are P A^-1 b of every source, from one batched sweep
    that writes only the receiver rows (wavecore.forward_traces), so no
    field is built; each point source enters that sweep as its one trace.
    Non-finite traces raise DivergenceError.

    Noise is additive Gaussian on the traces only, with standard deviation
    noise.std relative to the RMS of all clean samples across sources, drawn
    from a generator seeded with noise.seed (source order fixed, so reruns
    are byte-identical).
    """
    m_true = true_model_grid(config)
    geometry = build_acquisition(config)
    clean = list(forward_traces(m_true, build_sources(config), geometry))
    if config.noise.std == 0.0:
        return clean
    stacked = np.concatenate([d.values.ravel() for d in clean])
    sigma = config.noise.std * float(np.sqrt(np.mean(stacked**2)))
    rng = np.random.default_rng(config.noise.seed)
    noisy = []
    for d in clean:
        noisy.append(
            TraceData(d.spec, d.geometry, d.values + rng.normal(0.0, sigma, d.values.shape))
        )
    return noisy


# ---------------------------------------------------------------------------
# key=value parsing
# ---------------------------------------------------------------------------

_MODEL_KEYS = (
    "kind", "velocity", "boxes", "center", "sigma", "amplitude",
    "interface", "v_top", "v_bottom", "path",
)
_KNOWN_KEYS = (
    "grid.ndim", "grid.nx", "grid.nz", "grid.dx", "grid.dz", "grid.nt", "grid.dt",
    "acquisition.sources", "acquisition.receivers",
    "wavelet.frequency", "wavelet.amplitude",
    "scheme", "update_mode", "mu_growth",
    "penalty.mu", "penalty.alpha", "penalty.cg_tol", "penalty.cg_maxiter",
    "stop.max_iter", "stop.misfit_tol", "stop.constraint_tol",
    "noise.std", "noise.seed",
    "paths.work_dir",
) + tuple(
    f"model.{which}.{key}" for which in ("true", "init") for key in _MODEL_KEYS
)


def _parse_int_list(raw: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigurationError(f"{key}: expected comma-separated integers") from exc


def _parse_boxes(raw: str, ndim: int, key: str):
    boxes = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        try:
            numbers = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigurationError(f"{key}: malformed box {chunk!r}") from exc
        if ndim == 1 and len(parts) == 3:
            ix0, ix1, vel = numbers
            boxes.append((int(ix0), int(ix1), 0, 1, vel))
        elif ndim == 2 and len(parts) == 5:
            ix0, ix1, iz0, iz1, vel = numbers
            boxes.append((int(ix0), int(ix1), int(iz0), int(iz1), vel))
        else:
            raise ConfigurationError(
                f"{key}: box {chunk!r} needs "
                f"{'ix0:ix1:vel' if ndim == 1 else 'ix0:ix1:iz0:iz1:vel'}"
            )
    if not boxes:
        raise ConfigurationError(f"{key}: no boxes given")
    return tuple(boxes)


def _parse_lines(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {raw_line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _get(entries, key, caster, default=None, required=False):
    if key not in entries:
        if required:
            raise ConfigurationError(f"missing required key {key!r}")
        return default
    try:
        return caster(entries[key])
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"{key}: cannot parse {entries[key]!r}") from exc


def _given(entries, prefix: str, **casters) -> dict:
    """Keyword arguments for the keys prefix + name that entries holds, each
    parsed by its caster; an omitted key is left to the dataclass default."""
    return {name: _get(entries, prefix + name, cast) for name, cast in casters.items()
            if prefix + name in entries}


def _default(name: str):
    """The default of ExperimentConfig's field ``name``."""
    spec = next(f for f in fields(ExperimentConfig) if f.name == name)
    return spec.default if spec.default_factory is MISSING else spec.default_factory()


def _model_descriptor(entries, which: str, ndim: int, base_dir: str) -> ModelDescriptor:
    prefix = f"model.{which}."
    kind = _get(entries, prefix + "kind", str, required=True)
    boxes = ()
    if prefix + "boxes" in entries:
        boxes = _parse_boxes(entries[prefix + "boxes"], ndim, prefix + "boxes")
    center = None
    if prefix + "center" in entries:
        raw = entries[prefix + "center"]
        try:
            center = tuple(float(tok) for tok in raw.replace(",", " ").split())
        except ValueError as exc:
            raise ConfigurationError(f"{prefix}center: cannot parse {raw!r}") from exc
    path = _get(entries, prefix + "path", str)
    if path is not None and not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    return ModelDescriptor(
        kind=kind,
        velocity=_get(entries, prefix + "velocity", float),
        boxes=boxes,
        center=center,
        sigma=_get(entries, prefix + "sigma", float),
        amplitude=_get(entries, prefix + "amplitude", float),
        interface=_get(entries, prefix + "interface", int),
        v_top=_get(entries, prefix + "v_top", float),
        v_bottom=_get(entries, prefix + "v_bottom", float),
        path=path,
    )


def parse_config(text: str, base_dir: str = ".") -> ExperimentConfig:
    entries = _parse_lines(text)
    ndim = _get(entries, "grid.ndim", int, default=1)
    dx = _get(entries, "grid.dx", float, required=True)
    spec = GridSpec(
        ndim=ndim,
        nx=_get(entries, "grid.nx", int, required=True),
        nz=_get(entries, "grid.nz", int, default=1 if ndim == 1 else None,
                required=(ndim == 2)),
        dx=dx,
        dz=_get(entries, "grid.dz", float, default=dx),
        nt=_get(entries, "grid.nt", int, required=True),
        dt=_get(entries, "grid.dt", float, required=True),
    )
    penalty = replace(_default("penalty"), **_given(
        entries, "penalty.", mu=float, alpha=float, cg_tol=float, cg_maxiter=int))
    stop = StopRules(**_given(entries, "stop.", max_iter=int, misfit_tol=float,
                              constraint_tol=float))
    noise = NoiseSpec(**_given(entries, "noise.", std=float, seed=int))
    work_dir = _get(entries, "paths.work_dir", str, default=_default("work_dir"))
    if not os.path.isabs(work_dir):
        work_dir = os.path.join(base_dir, work_dir)
    wavelet = _given(entries, "wavelet.", frequency=float, amplitude=float)
    sources, receivers = (_parse_int_list(_get(entries, key, str, required=True), key)
                          for key in ("acquisition.sources", "acquisition.receivers"))
    return ExperimentConfig(
        grid=spec,
        true_model=_model_descriptor(entries, "true", ndim, base_dir),
        initial_model=_model_descriptor(entries, "init", ndim, base_dir),
        source_nodes=sources,
        receiver_nodes=receivers,
        penalty=penalty,
        stop=stop,
        noise=noise,
        work_dir=work_dir,
        **{f"wavelet_{name}": value for name, value in wavelet.items()},
        **_given(entries, "", scheme=str, update_mode=str, mu_growth=float),
    )


def parse_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))


def _format_value(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_config(config: ExperimentConfig) -> str:
    """Canonical key=value rendering; parse_config round-trips it."""
    spec = config.grid
    lines = [
        "# lagfwi experiment configuration",
        f"grid.ndim = {spec.ndim}",
        f"grid.nx = {spec.nx}",
        f"grid.nz = {spec.nz}",
        f"grid.dx = {_format_value(spec.dx)}",
        f"grid.dz = {_format_value(spec.dz)}",
        f"grid.nt = {spec.nt}",
        f"grid.dt = {_format_value(spec.dt)}",
    ]

    def emit_model(which: str, desc: ModelDescriptor):
        prefix = f"model.{which}."
        lines.append(f"{prefix}kind = {desc.kind}")
        if desc.velocity is not None:
            lines.append(f"{prefix}velocity = {_format_value(desc.velocity)}")
        if desc.boxes:
            rendered = []
            for ix0, ix1, iz0, iz1, vel in desc.boxes:
                if spec.ndim == 1:
                    rendered.append(f"{ix0}:{ix1}:{_format_value(vel)}")
                else:
                    rendered.append(f"{ix0}:{ix1}:{iz0}:{iz1}:{_format_value(vel)}")
            lines.append(f"{prefix}boxes = " + ";".join(rendered))
        if desc.center is not None:
            lines.append(
                f"{prefix}center = " + ",".join(_format_value(c) for c in desc.center)
            )
        if desc.sigma is not None:
            lines.append(f"{prefix}sigma = {_format_value(desc.sigma)}")
        if desc.amplitude is not None:
            lines.append(f"{prefix}amplitude = {_format_value(desc.amplitude)}")
        if desc.interface is not None:
            lines.append(f"{prefix}interface = {desc.interface}")
        if desc.v_top is not None:
            lines.append(f"{prefix}v_top = {_format_value(desc.v_top)}")
        if desc.v_bottom is not None:
            lines.append(f"{prefix}v_bottom = {_format_value(desc.v_bottom)}")
        if desc.path is not None:
            lines.append(f"{prefix}path = {desc.path}")

    emit_model("true", config.true_model)
    emit_model("init", config.initial_model)
    lines.append("acquisition.sources = " + ",".join(str(n) for n in config.source_nodes))
    lines.append("acquisition.receivers = " + ",".join(str(n) for n in config.receiver_nodes))
    lines.append(f"wavelet.frequency = {_format_value(config.wavelet_frequency)}")
    lines.append(f"wavelet.amplitude = {_format_value(config.wavelet_amplitude)}")
    if config.scheme is not None:
        lines.append(f"scheme = {config.scheme}")
    lines.append(f"update_mode = {config.update_mode}")
    lines.append(f"mu_growth = {_format_value(config.mu_growth)}")
    lines.append(f"penalty.mu = {_format_value(config.penalty.mu)}")
    if config.penalty.alpha is not None:
        lines.append(f"penalty.alpha = {_format_value(config.penalty.alpha)}")
    lines.append(f"penalty.cg_tol = {_format_value(config.penalty.cg_tol)}")
    lines.append(f"penalty.cg_maxiter = {config.penalty.cg_maxiter}")
    lines.append(f"stop.max_iter = {config.stop.max_iter}")
    lines.append(f"stop.misfit_tol = {_format_value(config.stop.misfit_tol)}")
    lines.append(f"stop.constraint_tol = {_format_value(config.stop.constraint_tol)}")
    lines.append(f"noise.std = {_format_value(config.noise.std)}")
    if config.noise.seed is not None:
        lines.append(f"noise.seed = {config.noise.seed}")
    lines.append(f"paths.work_dir = {config.work_dir}")
    return "\n".join(lines) + "\n"


def two_scatterer_benchmark(work_dir: str = "benchmark-out") -> ExperimentConfig:
    """The frozen 1-D two-scatterer benchmark experiment.

    A 600 m line at 10 m spacing, 2 km/s background with a fast (+10%) and a
    slow (-10%) box, three interior shots recorded on four spread receivers,
    10 Hz Ricker (20 nodes per minimum wavelength), noise-free.  The penalty
    weight sits at roughly 0.6% of the largest data-space Hessian eigenvalue:
    large enough that the running multiplier pulls the constraint violation
    under 1e-3 of the source norm inside 50 iterations, small enough that
    the plain penalty scheme at the same weight stays pinned near 7e-3.
    Callers may replace the scheme to compare others on identical data.
    """
    grid = GridSpec(ndim=1, nx=61, nz=1, dx=10.0, dz=10.0, nt=256, dt=0.0028)
    return ExperimentConfig(
        grid=grid,
        true_model=ModelDescriptor(
            kind="box-anomaly",
            velocity=2000.0,
            boxes=((22, 27, 0, 1, 2200.0), (38, 43, 0, 1, 1800.0)),
        ),
        initial_model=ModelDescriptor(kind="uniform", velocity=2000.0),
        source_nodes=(6, 30, 54),
        receiver_nodes=(3, 20, 40, 57),
        wavelet_frequency=10.0,
        wavelet_amplitude=1.0,
        scheme="al-multiplier",
        penalty=PenaltyConfig(mu=3e6),
        update_mode="sum-terms",
        mu_growth=1.0,
        stop=StopRules(max_iter=50, misfit_tol=1e-12, constraint_tol=0.0),
        noise=NoiseSpec(),
        work_dir=work_dir,
    )
