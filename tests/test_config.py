import os
from dataclasses import replace

import numpy as np
import pytest

from lagfwi.config import (
    _KEYS,
    ExperimentConfig,
    ModelDescriptor,
    NoiseSpec,
    StopRules,
    build_acquisition,
    build_model_values,
    build_sources,
    build_velocity,
    make_observed_data,
    parse_config,
    parse_config_file,
    ricker_wavelet,
    true_model_grid,
    two_scatterer_benchmark,
    write_config,
)
from lagfwi.errors import ConfigurationError
from lagfwi.fileio import save_model
from lagfwi.grids import AcquisitionGeometry, GridSpec, build_model
from lagfwi.saddle import PenaltyConfig


CONFIG_TEXT = """
# comment lines and blanks are ignored
grid.ndim = 1
grid.nx = 21
grid.nt = 80
grid.dx = 10.0
grid.dt = 0.0028

model.true.kind = box-anomaly
model.true.velocity = 2000.0
model.true.boxes = 10:11:2010.0
model.init.kind = uniform
model.init.velocity = 2000.0

acquisition.sources = 3
acquisition.receivers = 5, 15
wavelet.frequency = 10.0
scheme = al-multiplier
penalty.mu = 1000.0
stop.max_iter = 8
"""


def test_parse_basic_config(tmp_path):
    config = parse_config(CONFIG_TEXT, base_dir=str(tmp_path))
    assert config.grid.nx == 21
    assert config.grid.dz == 10.0  # dz defaults to dx
    assert config.true_model.boxes == ((10, 11, 0, 1, 2010.0),)
    assert config.source_nodes == (3,)
    assert config.receiver_nodes == (5, 15)
    assert config.scheme == "al-multiplier"
    assert config.penalty.mu == 1000.0
    assert config.stop.max_iter == 8
    assert config.stop.misfit_tol == 1e-12
    assert config.work_dir == os.path.join(str(tmp_path), "lagfwi-out")


def all_keys_2d_config() -> ExperimentConfig:
    """A 2D config that sets every key: both descriptors carry every field,
    whatever their kind, and no value is left at its default."""
    grid = GridSpec(ndim=2, nx=15, nz=13, dx=10.0, dz=12.5, nt=60, dt=0.002)

    def descriptor(kind: str, path: str) -> ModelDescriptor:
        return ModelDescriptor(
            kind=kind, velocity=2000.0, boxes=((2, 5, 3, 7, 2100.0), (8, 12, 1, 4, 1900.5)),
            center=(7.0, 6.5), sigma=2.5, amplitude=-150.0, interface=6,
            v_top=1800.0, v_bottom=2200.0, path=path,
        )

    return ExperimentConfig(
        grid=grid,
        true_model=descriptor("gaussian-anomaly", os.path.abspath("true.dat")),
        initial_model=descriptor("two-layer", os.path.abspath("init.dat")),
        source_nodes=(17, 22),
        receiver_nodes=(16, 19, 26),
        wavelet_frequency=12.5,
        wavelet_amplitude=0.75,
        scheme="penalty-multiplier",
        penalty=PenaltyConfig(mu=250.0, alpha=1e-3, cg_tol=1e-8, cg_maxiter=500),
        mu_growth=1.5,
        stop=StopRules(max_iter=7, misfit_tol=1e-9, constraint_tol=1e-4),
        noise=NoiseSpec(std=0.05, seed=11),
        work_dir=os.path.abspath("all-keys-out"),
    )


BENCHMARK_TEXT = """\
# lagfwi experiment configuration
grid.ndim = 1
grid.nx = 61
grid.nz = 1
grid.dx = 10
grid.dz = 10
grid.nt = 256
grid.dt = 0.0028
model.true.kind = box-anomaly
model.true.velocity = 2000
model.true.boxes = 22:27:2200;38:43:1800
model.init.kind = uniform
model.init.velocity = 2000
acquisition.sources = 6,30,54
acquisition.receivers = 3,20,40,57
wavelet.frequency = 10
wavelet.amplitude = 1
scheme = al-multiplier
mu_growth = 1
penalty.mu = 3000000
penalty.cg_tol = 1e-10
penalty.cg_maxiter = 20000
stop.max_iter = 50
stop.misfit_tol = 9.9999999999999998e-13
stop.constraint_tol = 0
noise.std = 0
paths.work_dir = benchmark-out
"""


def test_write_parse_round_trip():
    """parse_config reads back every field write_config writes (base_dir ""
    leaves relative paths as they are), and the canonical text is a fixed
    point of the pair.  The all-keys config writes every key, in table order."""
    assert write_config(two_scatterer_benchmark()) == BENCHMARK_TEXT
    for config in (two_scatterer_benchmark(), all_keys_2d_config()):
        text = write_config(config)
        assert parse_config(text, base_dir="") == config
        assert write_config(parse_config(text, base_dir="")) == text
    assert [line.split(" = ")[0] for line in text.splitlines()[1:]] == list(_KEYS)


def test_unknown_duplicate_and_malformed_keys_rejected():
    with pytest.raises(ConfigurationError):
        parse_config(CONFIG_TEXT + "\nturbo = yes\n")
    with pytest.raises(ConfigurationError):
        parse_config(CONFIG_TEXT + "\ngrid.nx = 22\n")
    with pytest.raises(ConfigurationError):
        parse_config(CONFIG_TEXT + "\njust a dangling phrase\n")
    with pytest.raises(ConfigurationError):
        parse_config(CONFIG_TEXT.replace("grid.nx = 21", "grid.nx = many"))


def test_omitted_keys_take_the_dataclass_defaults(tmp_path):
    """A file of the required keys alone parses to the config the
    constructor builds from them, in every field but the work_dir, which
    resolves the default against the file's directory."""
    text = """
grid.nx = 9
grid.dx = 10.0
grid.nt = 12
grid.dt = 0.002
model.true.kind = uniform
model.init.kind = uniform
acquisition.sources = 4
acquisition.receivers = 2, 6
"""
    parsed = parse_config(text, base_dir=str(tmp_path))
    built = ExperimentConfig(
        grid=GridSpec(ndim=1, nx=9, nz=1, dx=10.0, dz=10.0, nt=12, dt=0.002),
        true_model=ModelDescriptor(kind="uniform"),
        initial_model=ModelDescriptor(kind="uniform"),
        source_nodes=(4,),
        receiver_nodes=(2, 6),
    )
    assert replace(parsed, work_dir=built.work_dir) == built
    assert parsed.work_dir == os.path.join(str(tmp_path), built.work_dir)


def test_missing_required_keys_rejected():
    with pytest.raises(ConfigurationError):
        parse_config("grid.nx = 9\n")  # no dt/dx/nt, no models, no acquisition


def test_box_parser_errors():
    with pytest.raises(ConfigurationError):
        parse_config(CONFIG_TEXT.replace("10:11:2010.0", "10:11"))
    with pytest.raises(ConfigurationError):
        parse_config(CONFIG_TEXT.replace("10:11:2010.0", "10:11:fast"))
    # a box takes the form of the grid's ndim
    with pytest.raises(ConfigurationError, match="model.true.boxes"):
        parse_config(CONFIG_TEXT.replace("10:11:2010.0", "10:11:0:1:2010.0"))
    text_2d = write_config(all_keys_2d_config())
    with pytest.raises(ConfigurationError, match="model.true.boxes"):
        parse_config(text_2d.replace("model.true.boxes = 2:5:3:7:", "model.true.boxes = 2:5:"))
    with pytest.raises(ConfigurationError, match="grid.nz"):
        parse_config(text_2d.replace("grid.nz = 13\n", ""))


def test_cfl_violation_rejected():
    bad = CONFIG_TEXT.replace("grid.dt = 0.0028", "grid.dt = 0.006")
    config = parse_config(bad)
    with pytest.raises(ConfigurationError):
        make_observed_data(config)


def test_file_model_round_trip(tmp_path):
    spec = GridSpec(ndim=1, nx=21, nz=1, dx=10.0, dz=10.0, nt=80, dt=0.0028)
    m = build_model(spec, np.linspace(1900.0, 2100.0, spec.n_space))
    model_path = tmp_path / "true.dat"
    save_model(str(model_path), m)
    text = CONFIG_TEXT.replace(
        "model.true.kind = box-anomaly", "model.true.kind = file"
    ).replace("model.true.velocity = 2000.0", "model.true.path = true.dat").replace(
        "model.true.boxes = 10:11:2010.0", ""
    )
    config_path = tmp_path / "run.cfg"
    config_path.write_text(text)
    config = parse_config_file(str(config_path))
    # relative model paths resolve against the config file directory
    assert config.true_model.path == str(model_path)
    values = build_model_values(config.grid, config.true_model)
    assert np.array_equal(values, m.values)


def test_file_model_spec_mismatch_rejected(tmp_path):
    other = GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=80, dt=0.0028)
    m = build_model(other, 2000.0)
    path = tmp_path / "wrong.dat"
    save_model(str(path), m)
    spec = GridSpec(ndim=1, nx=21, nz=1, dx=10.0, dz=10.0, nt=80, dt=0.0028)
    desc = ModelDescriptor(kind="file", path=str(path))
    with pytest.raises(ConfigurationError):
        build_model_values(spec, desc)


def test_velocity_builders():
    spec = GridSpec(ndim=1, nx=11, nz=1, dx=10.0, dz=10.0, nt=10, dt=0.002)
    uniform = build_velocity(spec, ModelDescriptor(kind="uniform", velocity=1800.0))
    assert np.all(uniform == 1800.0)

    boxed = build_velocity(
        spec,
        ModelDescriptor(kind="box-anomaly", velocity=2000.0, boxes=((3, 6, 0, 1, 2500.0),)),
    )
    assert np.all(boxed[3:6] == 2500.0)
    assert np.all(boxed[:3] == 2000.0) and np.all(boxed[6:] == 2000.0)

    bump = build_velocity(
        spec,
        ModelDescriptor(
            kind="gaussian-anomaly", velocity=2000.0, center=(5.0,), sigma=2.0, amplitude=150.0
        ),
    )
    assert bump[5] == pytest.approx(2150.0)
    assert bump[0] < 2010.0

    spec2 = GridSpec(ndim=2, nx=5, nz=6, dx=10.0, dz=10.0, nt=10, dt=0.002)
    layered = build_velocity(
        spec2,
        ModelDescriptor(kind="two-layer", interface=2, v_top=1500.0, v_bottom=2500.0),
    ).reshape(spec2.nz, spec2.nx)
    assert np.all(layered[:2] == 1500.0)
    assert np.all(layered[2:] == 2500.0)

    with pytest.raises(ConfigurationError):
        build_velocity(spec, ModelDescriptor(kind="uniform"))
    with pytest.raises(ConfigurationError):
        ModelDescriptor(kind="marble")


def test_box_bounds_are_validated():
    spec = GridSpec(ndim=1, nx=11, nz=1, dx=10.0, dz=10.0, nt=10, dt=0.002)
    with pytest.raises(ConfigurationError):
        build_velocity(
            spec,
            ModelDescriptor(kind="box-anomaly", velocity=2000.0, boxes=((8, 20, 0, 1, 2500.0),)),
        )
    with pytest.raises(ConfigurationError):
        build_velocity(
            spec,
            ModelDescriptor(kind="box-anomaly", velocity=2000.0, boxes=((6, 3, 0, 1, 2500.0),)),
        )


def test_ricker_wavelet_shape_and_frozen_values():
    spec = GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=48, dt=0.003)
    w = ricker_wavelet(spec, 10.0, 1.0)
    assert w.shape == (48,)
    # delayed by one period; the grid point nearest t = 0.1 carries the peak
    assert int(np.argmax(w)) == 33
    assert w[33] == pytest.approx(0.997041552785684, rel=1e-13)
    assert w[0] == pytest.approx(-0.0009692515861872089, rel=1e-12)
    assert ricker_wavelet(spec, 10.0, 2.5)[33] == pytest.approx(2.5 * w[33])


def test_point_sources_carry_the_wavelet():
    config = parse_config(CONFIG_TEXT)
    sources = build_sources(config)
    assert len(sources) == 1
    w = ricker_wavelet(config.grid, 10.0, 1.0)
    assert sources[0].geometry == AcquisitionGeometry((3,), (3,))
    assert sources[0].values.shape == (1, config.grid.nt)
    assert np.array_equal(sources[0].values[0], w)


def test_observed_data_mirror_symmetry():
    """A centred source between mirrored receivers in a symmetric model must
    record identical traces up to roundoff."""
    spec = GridSpec(ndim=1, nx=15, nz=1, dx=10.0, dz=10.0, nt=48, dt=0.003)
    config = ExperimentConfig(
        grid=spec,
        true_model=ModelDescriptor(kind="uniform", velocity=2000.0),
        initial_model=ModelDescriptor(kind="uniform", velocity=2000.0),
        source_nodes=(7,),
        receiver_nodes=(3, 11),
    )
    traces = make_observed_data(config)[0]
    assert np.allclose(traces.values[0], traces.values[1], atol=1e-9)
    assert np.linalg.norm(traces.values) == pytest.approx(1102.6292399460253, rel=1e-12)


def test_zero_amplitude_wavelet_gives_zero_traces():
    config = parse_config(CONFIG_TEXT + "\nwavelet.amplitude = 0.0\n")
    traces = make_observed_data(config)
    assert all(not t.values.any() for t in traces)


def test_noise_is_seeded_and_scaled():
    base = parse_config(CONFIG_TEXT)
    clean = make_observed_data(base)[0]
    noisy_cfg = parse_config(CONFIG_TEXT + "\nnoise.std = 0.05\nnoise.seed = 7\n")
    noisy1 = make_observed_data(noisy_cfg)[0]
    noisy2 = make_observed_data(noisy_cfg)[0]
    assert np.array_equal(noisy1.values, noisy2.values)
    other = parse_config(CONFIG_TEXT + "\nnoise.std = 0.05\nnoise.seed = 8\n")
    assert not np.array_equal(noisy1.values, make_observed_data(other)[0].values)
    # std is relative to the clean RMS amplitude
    rms = np.sqrt(np.mean(clean.values**2))
    added = noisy1.values - clean.values
    assert 0.5 * 0.05 * rms < added.std() < 2.0 * 0.05 * rms
    with pytest.raises(ConfigurationError):
        NoiseSpec(std=0.1)


def test_geometry_and_scheme_validation():
    with pytest.raises(ConfigurationError):
        parse_config(CONFIG_TEXT.replace("acquisition.sources = 3",
                                         "acquisition.sources = 300"))
    config = parse_config(CONFIG_TEXT)
    geom = build_acquisition(config)
    assert geom.source_nodes == (3,)
    assert geom.receiver_nodes == (5, 15)
    # the removed update_mode key is an unknown key, reported with its line
    text = CONFIG_TEXT + "\nupdate_mode = average\n"
    lineno = text.splitlines().index("update_mode = average") + 1
    with pytest.raises(ConfigurationError, match=f"^line {lineno}: unknown key 'update_mode'$"):
        parse_config(text)


def test_benchmark_constants_are_pinned():
    """The regression benchmark is frozen: two boxes on a 61-node line, six
    well-spread receivers, augmented-Lagrangian scheme, mu sized to the
    data-space Hessian scale."""
    config = two_scatterer_benchmark()
    assert config.grid == GridSpec(ndim=1, nx=61, nz=1, dx=10.0, dz=10.0, nt=256, dt=0.0028)
    assert config.true_model.boxes == (
        (22, 27, 0, 1, 2200.0),
        (38, 43, 0, 1, 1800.0),
    )
    assert config.source_nodes == (6, 30, 54)
    assert config.receiver_nodes == (3, 20, 40, 57)
    assert config.scheme == "al-multiplier"
    assert config.penalty.mu == 3e6
    assert config.stop.max_iter == 50
    m_true = true_model_grid(config)
    assert m_true.values.shape == (61,)
    # CFL safe at the fastest box velocity
    assert config.grid.cfl_number(2200.0) < 1.0
