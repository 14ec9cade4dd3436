"""Experiment configuration: flat key=value files and synthetic model builders.

Config files are plain text, one `key = value` per line, '#' starts a
comment.  The table _KEYS is the schema: it maps each key to the field it
sets and to the parser of its value, and a key not in it is rejected.  The
keys, with their meanings and units:

    grid.ndim grid.nx grid.nz grid.dx grid.dz grid.nt grid.dt
                                         1 or 2, node counts, spacings m / s
    model.true.kind model.init.kind      uniform | box-anomaly |
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
    model.<which>.v_top model.<which>.v_bottom    layer velocities, m/s
    model.<which>.path                   LAGFWI model file (squared slowness)
    acquisition.sources acquisition.receivers    comma-separated node ids
    wavelet.frequency wavelet.amplitude          Ricker peak Hz / scale
    scheme                                       iteration scheme name
    penalty.mu penalty.alpha penalty.cg_tol penalty.cg_maxiter
    mu_growth                                    geometric growth factor, 1 = off
    stop.max_iter stop.misfit_tol stop.constraint_tol
    noise.std                                    std relative to clean-trace RMS
    noise.seed                                   required when noise.std > 0
    paths.work_dir                               output directory

grid.nz (in 2D only), grid.nx/dx/nt/dt, both model kinds and both node
lists are required; grid.ndim defaults to 1 and grid.dz to grid.dx.
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
    mu_growth: float = 1.0
    stop: StopRules = field(default_factory=StopRules)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    work_dir: str = "lagfwi-out"

    def __post_init__(self):
        AcquisitionGeometry(self.source_nodes, self.receiver_nodes).validate_for(self.grid)
        if self.wavelet_frequency <= 0:
            raise ConfigurationError("wavelet.frequency must be positive")
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
    injection P^T d, which a sweep takes as a column of one trace stack, and
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


def _list_of(cast):
    """Parser of a comma- or space-separated list of cast values."""
    return lambda raw: tuple(cast(tok) for tok in raw.replace(",", " ").split())


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


# key -> (ExperimentConfig field it sets, "section.field" if nested; parser), in write order
_KEYS = {
    "grid.ndim": ("grid.ndim", int),
    "grid.nx": ("grid.nx", int),
    "grid.nz": ("grid.nz", int),
    "grid.dx": ("grid.dx", float),
    "grid.dz": ("grid.dz", float),
    "grid.nt": ("grid.nt", int),
    "grid.dt": ("grid.dt", float),
    **{
        f"model.{which}.{name}": (f"{attr}.{name}", parse)
        for which, attr in (("true", "true_model"), ("init", "initial_model"))
        for name, parse in (
            ("kind", str), ("velocity", float), ("boxes", _parse_boxes),
            ("center", _list_of(float)), ("sigma", float), ("amplitude", float),
            ("interface", int), ("v_top", float), ("v_bottom", float), ("path", str),
        )
    },
    "acquisition.sources": ("source_nodes", _list_of(int)),
    "acquisition.receivers": ("receiver_nodes", _list_of(int)),
    "wavelet.frequency": ("wavelet_frequency", float),
    "wavelet.amplitude": ("wavelet_amplitude", float),
    "scheme": ("scheme", str),
    "mu_growth": ("mu_growth", float),
    "penalty.mu": ("penalty.mu", float),
    "penalty.alpha": ("penalty.alpha", float),
    "penalty.cg_tol": ("penalty.cg_tol", float),
    "penalty.cg_maxiter": ("penalty.cg_maxiter", int),
    "stop.max_iter": ("stop.max_iter", int),
    "stop.misfit_tol": ("stop.misfit_tol", float),
    "stop.constraint_tol": ("stop.constraint_tol", float),
    "noise.std": ("noise.std", float),
    "noise.seed": ("noise.seed", int),
    "paths.work_dir": ("work_dir", str),
}
_REQUIRED = ("grid.nx", "grid.dx", "grid.nt", "grid.dt", "model.true.kind",
             "model.init.kind", "acquisition.sources", "acquisition.receivers")


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
        if key not in _KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _default(name: str):
    """The default of ExperimentConfig's field ``name``."""
    spec = next(f for f in fields(ExperimentConfig) if f.name == name)
    return spec.default if spec.default_factory is MISSING else spec.default_factory()


def parse_config(text: str, base_dir: str = ".") -> ExperimentConfig:
    entries = _parse_lines(text)
    for key in _REQUIRED:
        if key not in entries:
            raise ConfigurationError(f"missing required key {key!r}")
    # section ("" for ExperimentConfig's own) -> {field: value}; omitted: default
    given: dict[str, dict] = {"": {}, "grid": {}}
    for key, (attr, parse) in _KEYS.items():
        if key not in entries:
            continue
        raw = entries[key]
        section, _, name = attr.rpartition(".")
        if parse is _parse_boxes:  # its form follows grid.ndim, parsed before it
            value = _parse_boxes(raw, given["grid"].get("ndim", 1), key)
        else:
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ConfigurationError(f"{key}: cannot parse {raw!r}") from exc
        given.setdefault(section, {})[name] = value
    grid = given["grid"]
    grid.setdefault("ndim", 1)
    if grid["ndim"] == 2 and "nz" not in grid:
        raise ConfigurationError("missing required key 'grid.nz'")
    grid.setdefault("nz", 1)
    grid.setdefault("dz", grid["dx"])
    for desc in (given["true_model"], given["initial_model"]):
        if "path" in desc:  # os.path.join keeps an absolute path as it is
            desc["path"] = os.path.join(base_dir, desc["path"])
    top = given[""]
    top["work_dir"] = os.path.join(base_dir, top.get("work_dir", _default("work_dir")))
    return ExperimentConfig(
        grid=GridSpec(**grid),
        true_model=ModelDescriptor(**given["true_model"]),
        initial_model=ModelDescriptor(**given["initial_model"]),
        penalty=replace(_default("penalty"), **given.get("penalty", {})),
        stop=StopRules(**given.get("stop", {})),
        noise=NoiseSpec(**given.get("noise", {})),
        **top,
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
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def write_config(config: ExperimentConfig) -> str:
    """Canonical key=value rendering: every key of _KEYS whose value is set
    (not None and not empty), in the table's order; parse_config round-trips it."""
    lines = ["# lagfwi experiment configuration"]
    for key, (attr, parse) in _KEYS.items():
        value = config
        for name in attr.split("."):
            value = getattr(value, name)
        if value is None or value == ():
            continue
        if parse is _parse_boxes:  # 1D boxes drop their z range
            boxes = value if config.grid.ndim == 2 else [box[:2] + box[4:] for box in value]
            text = ";".join(":".join(map(_format_value, box)) for box in boxes)
        else:
            text = _format_value(value)
        lines.append(f"{key} = {text}")
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
        mu_growth=1.0,
        stop=StopRules(max_iter=50, misfit_tol=1e-12, constraint_tol=0.0),
        noise=NoiseSpec(),
        work_dir=work_dir,
    )
