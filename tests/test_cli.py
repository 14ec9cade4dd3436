"""End-to-end command-line runs against a temporary working directory."""

import importlib.util
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import lagfwi
from lagfwi.cli import LOG_FILE, MODEL_FILE, main
from lagfwi.config import (
    build_sources, make_observed_data, true_model_grid, two_scatterer_benchmark,
)
from lagfwi.fileio import load_model, read_log
from lagfwi.iterations import run_inversion


CONFIG = """
grid.ndim = 1
grid.nx = 21
grid.nt = 80
grid.dx = 10.0
grid.dt = 0.0028

model.true.kind = box-anomaly
model.true.velocity = 2000.0
model.true.boxes = 10:11:2020.0
model.init.kind = uniform
model.init.velocity = 2000.0

acquisition.sources = 3
acquisition.receivers = 5, 15
wavelet.frequency = 10.0
scheme = al-multiplier
penalty.mu = 1000.0
stop.max_iter = 3
paths.work_dir = out
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return str(path)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def test_forward_then_invert_round_trip(config_path, tmp_path, capsys):
    assert main(["forward", "--config", config_path]) == 0
    work = tmp_path / "out"
    assert (work / "trace_000.dat").exists()

    assert main(["invert", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "max_iter" in out
    model_path = work / MODEL_FILE
    log_path = work / LOG_FILE
    assert model_path.exists() and log_path.exists()

    rows, meta = read_log(str(log_path))
    assert meta["scheme"] == "al-multiplier"
    assert "seed" not in meta  # noiseless run records no seed
    assert len(rows) == 4  # initial row + three iterations
    assert rows[0].iteration == 0
    assert rows[-1].model_error < rows[0].model_error

    # reruns are deterministic: identical model bytes, identical log rows
    # in every column except wall-clock seconds
    model_bytes = read(model_path)
    rows1 = [r.as_row()[:6] for r in rows]
    assert main(["invert", "--config", config_path]) == 0
    assert read(model_path) == model_bytes
    rows2, _ = read_log(str(log_path))
    assert [r.as_row()[:6] for r in rows2] == rows1


def test_scheme_override(config_path, tmp_path, capsys):
    main(["forward", "--config", config_path])
    assert main(["invert", "--config", config_path, "--scheme", "penalty-multiplier"]) == 0
    _, meta = read_log(str(tmp_path / "out" / LOG_FILE))
    assert meta["scheme"] == "penalty-multiplier"


def test_usage_errors_exit_two(config_path, tmp_path, capsys):
    assert main(["invert", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["invert", "--config", config_path, "--scheme", "downhill"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text(CONFIG + "\nwarp.factor = 9\n")
    assert main(["forward", "--config", str(bad)]) == 2
    # traces not modelled yet -> unreadable input is a usage-level failure
    fresh = tmp_path / "fresh.cfg"
    fresh.write_text(CONFIG.replace("paths.work_dir = out", "paths.work_dir = elsewhere"))
    assert main(["invert", "--config", str(fresh)]) == 2
    capsys.readouterr()


def test_bad_flags_exit_two(config_path):
    with pytest.raises(SystemExit) as info:
        main(["invert"])  # missing --config
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["selfcheck", "--inject-fault", "scramble-everything"])
    assert info.value.code == 2


FWI = CONFIG.replace("scheme = al-multiplier", "scheme = fwi")
# a stronger scatterer seen by a full receiver line: the first update leaves the CFL bound
CFL_BREAKING = (
    FWI.replace("10:11:2020.0", "10:11:2200.0")
    .replace("penalty.mu = 1000.0", "penalty.mu = 1.0e4")
    .replace("acquisition.receivers = 5, 15",
             "acquisition.receivers = " + ", ".join(str(node) for node in range(1, 20)))
)


@pytest.mark.parametrize(
    "text",
    [FWI + "penalty.alpha = 1.0e9\n", CFL_BREAKING + "penalty.alpha = 1.0e-5\n"],
    ids=["non-positive", "cfl"],
)
def test_divergent_inversion_exits_one(tmp_path, capsys, text):
    diverging = tmp_path / "diverge.cfg"
    diverging.write_text(text)
    main(["forward", "--config", str(diverging)])
    assert main(["invert", "--config", str(diverging)]) == 1
    assert "diverged" in capsys.readouterr().out
    assert os.path.exists(tmp_path / "out" / MODEL_FILE)
    assert os.path.exists(tmp_path / "out" / LOG_FILE)


def test_unconverged_solve_exits_one(tmp_path, capsys):
    """A wavefield CG that misses its tolerance stops the run with status
    solver_not_converged: exit 1, the starting model and row 0 written."""
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG.replace("scheme = al-multiplier", "scheme = penalty-wavefield")
                    + "penalty.cg_maxiter = 1\n")
    assert main(["forward", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["invert", "--config", str(path)]) == 1
    assert capsys.readouterr().out.split(" ", 1)[0] == "solver_not_converged"
    rows, meta = read_log(str(tmp_path / "out" / LOG_FILE))
    assert meta["scheme"] == "penalty-wavefield"
    assert [r.iteration for r in rows] == [0]
    model = load_model(str(tmp_path / "out" / MODEL_FILE))
    assert np.allclose(model.values, 2000.0**-2, rtol=1e-15, atol=0.0)  # model.init


def test_singular_factorization_exits_one(tmp_path, capsys, monkeypatch):
    """A Cholesky factorization of H + mu I that fails stops the run with
    status singular_system: exit 1, the starting model and row 0 written."""
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    assert main(["forward", "--config", str(path)]) == 0
    capsys.readouterr()

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("leading minor not positive definite")

    monkeypatch.setattr(scipy.linalg, "cho_factor", singular)
    assert main(["invert", "--config", str(path)]) == 1
    assert capsys.readouterr().out.split(" ", 1)[0] == "singular_system"
    rows, meta = read_log(str(tmp_path / "out" / LOG_FILE))
    assert meta["scheme"] == "al-multiplier"
    assert [r.iteration for r in rows] == [0]
    model = load_model(str(tmp_path / "out" / MODEL_FILE))
    assert np.allclose(model.values, 2000.0**-2, rtol=1e-15, atol=0.0)  # model.init


def test_selfcheck_passes_and_prints_battery(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "adjoint-dot-test" in out
    assert "guttman-identity" in out
    assert "FAIL" not in out


def test_selfcheck_catches_injected_fault(capsys):
    assert main(["selfcheck", "--inject-fault", "perturb-adjoint"]) == 1
    out = capsys.readouterr().out
    failing = [line for line in out.splitlines() if "FAIL" in line]
    assert failing and "adjoint-dot-test" in failing[0]


def test_selfcheck_catches_injected_hessian_fault(capsys):
    assert main(["selfcheck", "--inject-fault", "perturb-hessian"]) == 1
    out = capsys.readouterr().out
    failing = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failing == ["FAIL hessian-vs-dense"]


def test_selfcheck_catches_injected_wavefield_solve_fault(capsys):
    assert main(["selfcheck", "--inject-fault", "perturb-wavefield-solve"]) == 1
    out = capsys.readouterr().out
    failing = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failing == ["FAIL saddle-orientations-penalty", "FAIL saddle-orientations-al"]


def test_selfcheck_catches_injected_sweep_fault(capsys):
    assert main(["selfcheck", "--inject-fault", "perturb-sweep"]) == 1
    out = capsys.readouterr().out
    failing = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failing == ["FAIL sweep-vs-dense"]


def test_selfcheck_catches_injected_h_product_fault(capsys):
    assert main(["selfcheck", "--inject-fault", "perturb-h-product"]) == 1
    out = capsys.readouterr().out
    failing = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failing == ["FAIL hessian-vs-dense"]


def test_selfcheck_catches_injected_born_fault(capsys):
    assert main(["selfcheck", "--inject-fault", "perturb-born"]) == 1
    out = capsys.readouterr().out
    failing = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failing == ["FAIL born-vs-dense"]


def test_selfcheck_catches_injected_sampled_sweep_fault(capsys):
    assert main(["selfcheck", "--inject-fault", "perturb-sampled-sweep"]) == 1
    out = capsys.readouterr().out
    failing = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failing == ["FAIL sampled-sweep-vs-dense"]


def test_selfcheck_catches_injected_batch_column_fault(capsys):
    assert main(["selfcheck", "--inject-fault", "perturb-batch-column"]) == 1
    out = capsys.readouterr().out
    failing = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failing == ["FAIL batched-wavefield-vs-dense"]


def test_selfcheck_catches_injected_nystrom_fault(capsys):
    """A corrupted sketch leaves the preconditioned solve exact, so the
    check catches it by its iteration bound, not by its accuracy."""
    assert main(["selfcheck", "--inject-fault", "perturb-nystrom"]) == 1
    out = capsys.readouterr().out
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in failing] == ["FAIL nystrom-pcg-vs-dense"]
    rel = float(failing[0].split("rel ")[1].split()[0])
    assert rel <= 1e-8


def test_module_entry_point(config_path):
    # the child needs the package on its path however this process found it
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(lagfwi.__file__)))
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lagfwi", "forward", "--config", config_path],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "trace files" in proc.stdout


def test_run_benchmark_script_prints_the_runs_relative_constraint(capsys):
    """scripts/run_benchmark.py divides the final constraint by the run's own
    scale, sqrt(sum_s ||b_s||^2), that of stop.constraint_tol and acceptance
    criterion 8, not by the largest single source norm."""
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_benchmark.py")
    spec = importlib.util.spec_from_file_location("run_benchmark", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--max-iter", "1"]) == 0
    printed = capsys.readouterr().out.split("final relative constraint = ")[1].split()[0]

    config = two_scatterer_benchmark()
    config = replace(config, stop=replace(config.stop, max_iter=1))
    result = run_inversion(config, make_observed_data(config), true_model=true_model_grid(config))
    scale = np.sqrt(sum(float(np.sum(b.values**2)) for b in build_sources(config)))
    assert printed == f"{result.history[-1].constraint / scale:.3e}"
