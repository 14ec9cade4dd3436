import numpy as np
import pytest

from lagfwi.errors import ConfigurationError
from lagfwi.grids import (
    AcquisitionGeometry,
    GridSpec,
    ModelGrid,
    SourceField,
    TraceData,
    Wavefield,
    build_model,
    check_cfl,
)


def test_spec_shape_and_counts(spec2d):
    assert spec2d.n_space == 35
    assert spec2d.shape == (35, 20)
    assert spec2d.times()[3] == pytest.approx(0.006)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        GridSpec(ndim=3, nx=5, nz=5, dx=1.0, dz=1.0, nt=5, dt=0.1)
    with pytest.raises(ConfigurationError):
        GridSpec(ndim=1, nx=5, nz=2, dx=1.0, dz=1.0, nt=5, dt=0.1)
    with pytest.raises(ConfigurationError):
        GridSpec(ndim=1, nx=2, nz=1, dx=1.0, dz=1.0, nt=5, dt=0.1)
    with pytest.raises(ConfigurationError):
        GridSpec(ndim=1, nx=5, nz=1, dx=1.0, dz=1.0, nt=2, dt=0.1)
    with pytest.raises(ConfigurationError):
        GridSpec(ndim=1, nx=5, nz=1, dx=-1.0, dz=1.0, nt=5, dt=0.1)
    with pytest.raises(ConfigurationError):
        GridSpec(ndim=2, nx=5, nz=2, dx=1.0, dz=1.0, nt=5, dt=0.1)


def test_cfl_number(spec1d):
    # v dt / dx with the 1D stencil; 2000 * 0.003 / 10 = 0.6
    assert spec1d.cfl_number(2000.0) == pytest.approx(0.6)


def test_check_cfl_passes_and_fails(spec1d):
    values = np.full(spec1d.n_space, 1.0 / 2000.0**2)
    assert check_cfl(spec1d, values) == pytest.approx(0.6)
    too_fast = np.full(spec1d.n_space, 1.0 / 4000.0**2)
    with pytest.raises(ConfigurationError):
        check_cfl(spec1d, too_fast)


def test_build_model_scalar_and_array(spec1d):
    m = build_model(spec1d, 2000.0)
    assert m.values.shape == (spec1d.n_space,)
    assert np.allclose(m.values, 1.0 / 2000.0**2)
    assert np.allclose(1.0 / np.sqrt(m.values), 2000.0)
    m2 = build_model(spec1d, np.full(spec1d.n_space, 1500.0))
    assert np.allclose(1.0 / np.sqrt(m2.values), 1500.0)


def test_model_grid_rejects_nonpositive(spec1d):
    bad = np.full(spec1d.n_space, 1e-6)
    bad[3] = 0.0
    with pytest.raises(ValueError):
        ModelGrid(spec1d, bad)


def test_field_shape_guards(spec1d):
    with pytest.raises(ValueError):
        Wavefield(spec1d, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        SourceField(spec1d, np.zeros(spec1d.n_space))


def test_geometry_validation(spec1d):
    with pytest.raises(ConfigurationError):
        AcquisitionGeometry(source_nodes=(), receiver_nodes=(1,))
    with pytest.raises(ConfigurationError):
        AcquisitionGeometry(source_nodes=(1,), receiver_nodes=(2, 2))
    with pytest.raises(ConfigurationError):
        AcquisitionGeometry(source_nodes=(-1,), receiver_nodes=(2,))
    geom = AcquisitionGeometry(source_nodes=(1,), receiver_nodes=(2, 40))
    with pytest.raises(ConfigurationError):
        geom.validate_for(spec1d)


def test_trace_data_shape(spec1d, geom1d):
    d = TraceData(spec1d, geom1d, np.zeros((2, spec1d.nt)))
    assert d.values.shape == (2, 48)
    with pytest.raises(ValueError):
        TraceData(spec1d, geom1d, np.zeros((3, spec1d.nt)))
