import os

import numpy as np
import pytest

from lagfwi.errors import FileFormatError
from lagfwi.fileio import (
    Diagnostics,
    load_field,
    load_model,
    load_traces,
    read_log,
    save_field,
    save_model,
    save_traces,
    write_log,
)
from lagfwi.grids import (
    AcquisitionGeometry,
    GridSpec,
    ModelGrid,
    TraceData,
    Wavefield,
    build_model,
)

from conftest import random_model, random_wavefield


@pytest.fixture
def spec():
    return GridSpec(ndim=1, nx=9, nz=1, dx=10.0, dz=5.0, nt=12, dt=0.003)


def test_model_round_trip_is_exact(tmp_path, spec, rng):
    m = random_model(spec, rng)
    path = str(tmp_path / "m.dat")
    save_model(path, m)
    back = load_model(path)
    assert back.spec == spec
    assert np.array_equal(back.values, m.values)


def test_field_round_trip_is_exact(tmp_path, spec, rng):
    u = random_wavefield(spec, rng)
    path = str(tmp_path / "u.dat")
    save_field(path, u)
    back = load_field(path)
    assert back.spec == spec
    assert np.array_equal(back.values, u.values)


def test_trace_round_trip_is_exact(tmp_path, spec, rng):
    geom = AcquisitionGeometry((4,), (2, 6, 7))
    d = TraceData(spec, geom, rng.standard_normal((3, spec.nt)))
    path = str(tmp_path / "d.dat")
    save_traces(path, d)
    back = load_traces(path, spec, geom)
    assert np.array_equal(back.values, d.values)


def test_kind_mismatch_raises(tmp_path, spec, rng):
    path = str(tmp_path / "m.dat")
    save_model(path, random_model(spec, rng))
    with pytest.raises(FileFormatError):
        load_field(path)


def test_trace_geometry_mismatch_raises(tmp_path, spec, rng):
    geom = AcquisitionGeometry((4,), (2, 6))
    d = TraceData(spec, geom, rng.standard_normal((2, spec.nt)))
    path = str(tmp_path / "d.dat")
    save_traces(path, d)
    wider = AcquisitionGeometry((4,), (2, 6, 7))
    with pytest.raises(FileFormatError):
        load_traces(path, spec, wider)
    other = GridSpec(ndim=1, nx=9, nz=1, dx=10.0, dz=5.0, nt=14, dt=0.003)
    with pytest.raises(FileFormatError):
        load_traces(path, other, geom)


def test_corrupt_files_raise(tmp_path, spec, rng):
    path = str(tmp_path / "u.dat")
    save_field(path, random_wavefield(spec, rng))
    text = open(path).read()

    truncated = str(tmp_path / "short.dat")
    with open(truncated, "w") as f:
        f.write("\n".join(text.splitlines()[:-2]))
    with pytest.raises(FileFormatError):
        load_field(truncated)

    mangled = str(tmp_path / "mangled.dat")
    with open(mangled, "w") as f:
        f.write(text.replace("LAGFWI field", "LAGFWI wobble"))
    with pytest.raises(FileFormatError):
        load_field(mangled)

    garbage = str(tmp_path / "garbage.dat")
    with open(garbage, "w") as f:
        f.write(text[: len(text) // 2] + " not-a-number\n")
    with pytest.raises(FileFormatError):
        load_field(garbage)

    with pytest.raises(FileFormatError):
        load_field(str(tmp_path / "absent.dat"))


def test_writes_are_atomic_and_overwrite(tmp_path, spec, rng):
    path = str(tmp_path / "m.dat")
    save_model(path, random_model(spec, rng))
    m2 = build_model(spec, 1234.0)
    save_model(path, m2)
    assert np.array_equal(load_model(path).values, m2.values)
    # no temp droppings next to the target
    assert os.listdir(tmp_path) == ["m.dat"]


def test_log_round_trip_with_metadata(tmp_path):
    rows = [
        Diagnostics(0, 1.5, 0.25, 0.9, 0.0, 0.0, 0.01),
        Diagnostics(1, 0.5, 0.125, 0.7, 3.25, 1.5, 0.02),
    ]
    path = str(tmp_path / "run.csv")
    write_log(path, rows, seed=17, scheme="al-multiplier")
    got, meta = read_log(path)
    assert meta["scheme"] == "al-multiplier"
    assert meta["seed"] == 17
    assert len(got) == 2
    for a, b in zip(got, rows):
        assert a.as_row() == b.as_row()
    with open(path, "rb") as handle:
        assert handle.read() == (
            b"# scheme=al-multiplier\n"
            b"# seed=17\n"
            b"iter,misfit,constraint,model_error,v_norm,w_norm,seconds\n"
            b"0,1.5,0.25,0.90000000000000002,0,0,0.01\n"
            b"1,0.5,0.125,0.69999999999999996,3.25,1.5,0.02\n"
        )


def test_log_without_metadata(tmp_path):
    path = str(tmp_path / "run.csv")
    write_log(path, [Diagnostics(0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)])
    rows, meta = read_log(path)
    assert meta == {}
    assert rows[0].misfit == 1.0


def test_bad_log_header_raises(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as f:
        f.write("iteration,cost\n0,1.0\n")
    with pytest.raises(FileFormatError):
        read_log(path)


def test_array_files_match_the_per_value_format(tmp_path, rng):
    """Model, field and trace files are byte for byte the text of one
    "%.17g" % v per value, with -0.0 (not in a model), the smallest
    subnormal 5e-324 and 1e300 among the values."""
    spec = GridSpec(ndim=2, nx=3, nz=3, dx=10.0, dz=5.0, nt=4, dt=0.003)
    specials = (-0.0, 5e-324, 1e300)
    field = rng.standard_normal(spec.shape)
    field[:3, 1] = specials
    model = rng.random(spec.n_space) + 1e-7
    model[:2] = specials[1:]
    geometry = AcquisitionGeometry((0,), (1, 4))
    traces = field[[1, 4], :].copy()
    traces[1, :3] = specials
    cases = [
        (save_model, ModelGrid(spec, model), model.reshape(1, -1)),
        (save_field, Wavefield(spec, field), field.T),
        (save_traces, TraceData(spec, geometry, traces), traces.T),
    ]
    for save, obj, rows in cases:
        path = str(tmp_path / f"{save.__name__}.dat")
        save(path, obj)
        with open(path) as handle:
            body = handle.read().split("\n", 1)[1]
        assert body == "".join(" ".join("%.17g" % v for v in row) + "\n" for row in rows)
        tokens = body.split()
        assert "4.9406564584124654e-324" in tokens and "1.0000000000000001e+300" in tokens
        assert save is save_model or "-0" in tokens
