"""A traced benchmark run still works against the package's current API.

perfbench/layertrace.py wraps lagfwi's public functions by name and reads
attributes of what some of them return, so a change to the package API can
break `perfbench/run.py --trace 1` without failing any other test.  This
runs the benchmark's own child process, traced, on a tiny config in
tmp_path (perfbench/run.py would write into the checkout), then derives the
per-layer metrics from the recorded spans.
"""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

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
stop.max_iter = 1
paths.work_dir = out
"""


def _layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", os.path.join(PERFBENCH, "layertrace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_invert_runs_and_gives_layer_metrics(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG)
    commands = [["forward", "--config", str(config)]] + [
        ["invert", "--config", str(config), "--scheme", scheme]
        for scheme in ("al-multiplier", "penalty-wavefield")]
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"src": os.path.join(ROOT, "src"), "commands": commands,
                                "result": str(result), "spans": str(spans)}))
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "child.py"), str(task)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(result.read_text())["commands"]
    for run in runs:
        assert run["exit"] == 0 and run["error"] is None, run
    trace = json.loads(spans.read_text())
    metrics = _layertrace().layer_metrics(trace, sum(run["wall_s"] for run in runs))
    assert metrics["iterations.outer_iterations"][0] == 2
    assert metrics["saddle.hessian.assemblies"][0] >= 1
    assert metrics["saddle.factor.count"][0] >= 1
