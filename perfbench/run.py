#!/usr/bin/env python3
"""lagfwi benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload al-1d --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout (the package is imported from the
checkout's src/, never from an installed copy).  With --trace 0 the timed
command runs in a fresh process per repeat, as many repeats as fit in
--seconds (at least one), and the end-to-end metrics are medians over the
repeats.  With --trace 1 the timed command runs once untraced and once
traced, and the per-layer metrics come from the traced repeat's spans.
Every repeat's output is checked; a repeat that raises, exits non-zero,
diverges or fails its check is counted as failed and the run goes on.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it give the environment and each metric by name.  Work files go
to .bench_work/ in the checkout; the spans of a traced run are kept there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

# BLAS/OpenMP threads of every process the benchmark starts: one thread is the
# single-threaded baseline, and a fixed count keeps cpu_s and run_s comparable.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 50
RUN_LIMIT_S = 170.0    # every child is killed by then, so a run ends within 180 s


@dataclass
class Repeat:
    ok: bool
    detail: str
    run_s: float
    cpu_s: float
    peak_rss_mb: float


class Runner:
    """Starts children for one benchmark run and waits for each to end."""

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def child(self, commands: list[list[str]], spans: str | None = None):
        """(result dict or None, peak RSS in MB, failure text) of one fresh process."""
        self.count += 1
        stem = os.path.join(self.run_dir, f"child-{self.count:03d}")
        result_path = stem + ".result.json"
        with open(stem + ".task.json", "w") as handle:
            json.dump({"src": SRC, "commands": commands, "result": result_path,
                       "spans": spans}, handle)
        with open(stem + ".log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, CHILD, stem + ".task.json"],
                cwd=self.run_dir, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                status, usage = self._wait(proc)
            finally:
                if proc.returncode is None:   # interrupted: end the child first
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -9
        rss_mb = usage.ru_maxrss / 1024.0
        if status != 0 or not os.path.exists(result_path):
            with open(stem + ".log") as handle:
                tail = handle.read()[-2000:]
            return None, rss_mb, f"child exited {status}: {tail}"
        with open(result_path) as handle:
            return json.load(handle), rss_mb, ""

    def _wait(self, proc):
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > self.deadline:
                proc.kill()
            time.sleep(0.01)


def timed_repeat(workload, runner: Runner, spans: str | None = None) -> Repeat:
    workload.clear_outputs(runner.run_dir)
    result, rss_mb, failure = runner.child(workload.timed_commands(runner.run_dir), spans)
    if result is None:
        return Repeat(False, failure, float("nan"), float("nan"), rss_mb)
    records = result["commands"]
    run_s = sum(r["wall_s"] for r in records)
    cpu_s = sum(r["cpu_s"] for r in records)
    try:
        return Repeat(True, workload.check(runner.run_dir, records), run_s, cpu_s, rss_mb)
    except Exception as exc:  # a check that cannot even read the output is a failed repeat
        return Repeat(False, f"{type(exc).__name__}: {exc}", run_s, cpu_s, rss_mb)


def _setup_samples(workload, runner: Runner, count: int) -> list[float]:
    """count set-up times: forward runs in one process, or fresh imports."""
    commands = workload.setup_commands(runner.run_dir)
    samples = []
    for batch in [commands * count] if commands else [[]] * count:
        result, _, failure = runner.child(batch)
        if result is None:
            raise RuntimeError(f"set-up failed: {failure}")
        samples += [r["wall_s"] for r in result["commands"]] if commands else [result["import_s"]]
    return samples


def measure_setup(workload, runner: Runner) -> float:
    """Median set-up seconds: config parse plus `lagfwi forward`, or for a
    workload without a config, the package import in a fresh process.  A
    set-up that takes milliseconds is repeated until about SETUP_MIN_S has
    been measured, so that its median is steady too."""
    samples = _setup_samples(workload, runner, SETUP_REPEATS)
    if sum(samples) < SETUP_MIN_S:
        more = min(SETUP_MAX_REPEATS, math.ceil(SETUP_MIN_S / statistics.median(samples)))
        samples += _setup_samples(workload, runner, more)
    return statistics.median(samples)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    package = os.path.join(SRC, "lagfwi")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "none"
    except OSError:
        git = "none"
    return {
        "seed": seed,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "git_revision": git,
        "src_sha256": digest.hexdigest()[:16],
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(repeats: list[Repeat], setup_s: float) -> dict[str, tuple[float, str]]:
    used = [r for r in repeats if r.ok] or repeats
    return {
        "run_s": (_median([r.run_s for r in used]), "s"),
        "setup_s": (setup_s, "s"),
        "cpu_s": (_median([r.cpu_s for r in used]), "s"),
        "peak_rss_mb": (_median([r.peak_rss_mb for r in used]), "MB"),
    }


def _load_workloads():
    """WORKLOADS, importing lagfwi from this checkout's src/ only."""
    if not os.path.isdir(os.path.join(SRC, "lagfwi")):
        raise SystemExit(f"run.py: no lagfwi package under {SRC}; run it inside a source checkout")
    sys.path.insert(0, SRC)
    import lagfwi
    from workloads import WORKLOADS

    if not os.path.abspath(lagfwi.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run.py: lagfwi imported from {lagfwi.__file__}, not from {SRC}")
    return WORKLOADS


def main(argv=None) -> int:
    # a terminated run still kills and waits for its child (see Runner.child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = _load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded only: every workload is a fixed, checked problem")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads[args.workload]

    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"{workload.name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        runner = Runner(run_dir)
        workload.write_configs(run_dir)
        setup_s = measure_setup(workload, runner)
        if workload.reference_scheme is not None:
            result, _, failure = runner.child(workload.reference_commands(run_dir))
            if result is None or any(r["exit"] != 0 for r in result["commands"]):
                print(f"reference run failed: {failure or result}", file=sys.stderr)
        if args.trace:
            spans_path = os.path.join(WORK, f"spans-{workload.name}-seed{args.seed}.json")
            if os.path.exists(spans_path):
                os.remove(spans_path)
            plain = timed_repeat(workload, runner)
            traced = timed_repeat(workload, runner, spans=spans_path)
            repeats = [plain, traced]
            from layertrace import layer_metrics

            trace = {"spans": [], "factorizations": 0}   # a traced child that died
            if os.path.exists(spans_path):
                with open(spans_path) as handle:
                    trace = json.load(handle)
            metrics = layer_metrics(trace, traced.run_s)
            metrics["trace.overhead_s"] = (traced.run_s - plain.run_s, "s")
        else:
            repeats = []
            start = time.monotonic()
            while True:
                began = time.monotonic()
                repeats.append(timed_repeat(workload, runner))
                now = time.monotonic()
                if now - start + (now - began) > args.seconds:
                    break
            metrics = end_to_end(repeats, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(not r.ok for r in repeats)
    for index, repeat in enumerate(repeats):
        verdict = "ok" if repeat.ok else "FAILED"
        print(f"repeat {index}: {verdict} run_s={repeat.run_s:.4f} {repeat.detail}")
    print(f"fail_ratio = {failed}/{len(repeats)} = {failed / len(repeats):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
