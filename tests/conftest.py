"""Shared fixtures: tiny grids sized so dense oracles stay instant."""

import numpy as np
import pytest

from lagfwi.grids import (
    AcquisitionGeometry,
    GridSpec,
    SourceField,
    TraceData,
    build_model,
)
from lagfwi.config import ricker_wavelet
from lagfwi.wavecore import forward_traces


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture
def spec1d():
    return GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=48, dt=0.003)


@pytest.fixture
def spec2d():
    return GridSpec(ndim=2, nx=7, nz=5, dx=10.0, dz=10.0, nt=20, dt=0.002)


@pytest.fixture
def model1d(spec1d):
    return build_model(spec1d, 2000.0)


@pytest.fixture
def geom1d():
    return AcquisitionGeometry(source_nodes=(7,), receiver_nodes=(3, 11))


@pytest.fixture
def ricker_source(spec1d):
    wavelet = ricker_wavelet(spec1d, 10.0, 1.0)
    values = np.zeros(spec1d.shape)
    values[7, :] = wavelet
    return SourceField(spec1d, values)


def random_model(spec, rng, base=2000.0, jitter=0.05):
    velocity = base * (1.0 + jitter * (2.0 * rng.random(spec.n_space) - 1.0))
    return build_model(spec, velocity)


def random_wavefield(spec, rng, cls=None):
    from lagfwi.grids import Wavefield

    cls = cls or Wavefield
    return cls(spec, rng.standard_normal(spec.shape))


def random_source(spec, rng):
    return random_wavefield(spec, rng, SourceField)


def forward_residuals(m, sources, data):
    """delta_d = d - P A^-1 b per source, the residuals saddle.solve_saddle
    takes, from one trace-out sweep."""
    traces = forward_traces(m, sources, data[0].geometry)
    return [TraceData(d.spec, d.geometry, d.values - t.values) for d, t in zip(data, traces)]


def al_shifts(ws, mu):
    """The extensions s = -w/mu of the AL variants; None for no w at all."""
    if ws is None:
        return None
    return [SourceField(w.spec, (-1.0 / mu) * w.values) for w in ws]
