"""Containers for grids, models, space-time fields, and receiver data.

Index conventions used everywhere in the package:

* spatial nodes are flattened z-major, ``node = iz * nx + ix`` (1D has nz = 1,
  so ``node = ix``);
* space-time fields store ``values[node, n]`` with ``n`` the time index,
  logical shape (n_space, nt);
* receiver data store ``values[receiver, n]``, logical shape (n_receivers, nt).

Model values are squared slowness, 1 / velocity**2, so the wave operator is
linear in the model. All arrays are float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "GridSpec",
    "ModelGrid",
    "Wavefield",
    "SourceField",
    "AcquisitionGeometry",
    "TraceData",
    "build_model",
    "check_cfl",
]


def _checked_array(values, shape, name):
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: values must be finite")
    return arr


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid.

    ``ndim`` is 1 or 2; 1D grids must have ``nz == 1``. Spacings are in
    meters and seconds. ``nt >= 3`` is required so the second order time
    stencil has at least one interior level.
    """

    ndim: int
    nx: int
    nz: int
    dx: float
    dz: float
    nt: int
    dt: float

    def __post_init__(self):
        if self.ndim not in (1, 2):
            raise ConfigurationError(f"ndim must be 1 or 2, got {self.ndim}")
        if self.ndim == 1 and self.nz != 1:
            raise ConfigurationError("1D grids must have nz = 1")
        if self.ndim == 2 and self.nz < 3:
            raise ConfigurationError("2D grids need nz >= 3")
        if self.nx < 3:
            raise ConfigurationError("nx must be at least 3")
        if self.nt < 3:
            raise ConfigurationError("nt must be at least 3")
        if not (self.dx > 0 and self.dz > 0 and self.dt > 0):
            raise ConfigurationError("grid spacings must be positive")

    @property
    def n_space(self) -> int:
        return self.nx * self.nz

    @property
    def shape(self) -> tuple[int, int]:
        """Logical (n_space, nt) shape of space-time fields on this grid."""
        return (self.n_space, self.nt)

    def times(self) -> np.ndarray:
        return np.arange(self.nt) * self.dt

    def cfl_number(self, velocity_max: float) -> float:
        """Courant number for the explicit scheme; stability needs <= 1."""
        inv_sq = 1.0 / self.dx**2
        if self.ndim == 2:
            inv_sq += 1.0 / self.dz**2
        return velocity_max * self.dt * math.sqrt(inv_sq)


@dataclass(frozen=True, eq=False)
class ModelGrid:
    """Squared slowness per spatial node, strictly positive."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = _checked_array(self.values, (self.spec.n_space,), "ModelGrid")
        if np.any(arr <= 0.0):
            raise ValueError("ModelGrid: squared slowness must be strictly positive")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class Wavefield:
    """Space-time field, values[node, n]."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _checked_array(self.values, self.spec.shape, "Wavefield")
        )


@dataclass(frozen=True, eq=False)
class SourceField:
    """Right-hand side of the wave operator, same layout as a Wavefield.

    The two initial rows hold the prescribed values of the first two time
    levels (zero for a quiescent start); rows n >= 2 hold volume sources.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", _checked_array(self.values, self.spec.shape, "SourceField")
        )


@dataclass(frozen=True)
class AcquisitionGeometry:
    """Point sources and point receivers given as flattened node indices."""

    source_nodes: tuple[int, ...]
    receiver_nodes: tuple[int, ...]

    def __post_init__(self):
        src = tuple(int(i) for i in self.source_nodes)
        rec = tuple(int(i) for i in self.receiver_nodes)
        if len(src) == 0:
            raise ConfigurationError("at least one source node is required")
        if len(rec) == 0:
            raise ConfigurationError("at least one receiver node is required")
        if len(set(rec)) != len(rec):
            raise ConfigurationError("receiver nodes must be distinct")
        if min(src + rec) < 0:
            raise ConfigurationError("node indices must be non-negative")
        object.__setattr__(self, "source_nodes", src)
        object.__setattr__(self, "receiver_nodes", rec)

    @property
    def n_receivers(self) -> int:
        return len(self.receiver_nodes)

    def validate_for(self, spec: GridSpec) -> None:
        n = spec.n_space
        for i in self.source_nodes + self.receiver_nodes:
            if i >= n:
                raise ConfigurationError(
                    f"node index {i} outside grid with {n} spatial nodes"
                )


@dataclass(frozen=True, eq=False)
class TraceData:
    """Receiver recordings, values[receiver, n].

    As the right-hand side of a solve it stands for its injection P^T d.
    A point source is TraceData on the one-node geometry of its node,
    holding its wavelet as the one trace (config.build_sources).
    """

    spec: GridSpec
    geometry: AcquisitionGeometry
    values: np.ndarray

    def __post_init__(self):
        shape = (self.geometry.n_receivers, self.spec.nt)
        object.__setattr__(
            self, "values", _checked_array(self.values, shape, "TraceData")
        )


def check_cfl(spec: GridSpec, model_values: np.ndarray) -> float:
    """Validate the explicit-scheme stability bound for a model.

    Returns the Courant number; raises ConfigurationError naming the
    offending velocity when it exceeds 1 (with a tiny roundoff allowance).
    """
    v_max = float(1.0 / np.sqrt(np.min(model_values)))
    number = spec.cfl_number(v_max)
    if number > 1.0 + 1e-9:
        raise ConfigurationError(
            f"CFL number {number:.6g} exceeds 1 for velocity {v_max:.6g} m/s "
            f"(dt={spec.dt}, dx={spec.dx}"
            + (f", dz={spec.dz})" if spec.ndim == 2 else ")")
        )
    return number


def build_model(spec: GridSpec, velocity) -> ModelGrid:
    """Turn a velocity field (scalar or per-node array) into squared slowness.

    The CFL bound is checked here so an unstable grid/model pairing fails
    at construction time rather than mid-run.
    """
    vel = np.asarray(velocity, dtype=float)
    if vel.ndim == 0:
        vel = np.full(spec.n_space, float(vel))
    if vel.shape != (spec.n_space,):
        raise ValueError(
            f"velocity: expected scalar or shape ({spec.n_space},), got {vel.shape}"
        )
    if not np.all(np.isfinite(vel)) or np.any(vel <= 0):
        raise ValueError("velocity values must be finite and positive")
    values = 1.0 / vel**2
    check_cfl(spec, values)
    return ModelGrid(spec, values)
