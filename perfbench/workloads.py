"""The benchmark's workloads: their inputs, timed commands and output checks.

Every workload is a fixed problem whose output is checked against a fixed or
independently computed reference, so its inputs do not depend on the run's
seed.  Runs are a prefix of the longer experiments the workloads come from
(al-1d replays the first 5 of the frozen log's 50 iterations), so that one
run can time several repeats.  Why each workload is in the set is in
README.md.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace
from typing import Callable

from lagfwi.config import (
    ExperimentConfig,
    ModelDescriptor,
    StopRules,
    two_scatterer_benchmark,
    write_config,
)
from lagfwi.grids import GridSpec
from lagfwi.saddle import PenaltyConfig

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FROZEN_LOG = os.path.join(ROOT, "tests", "data", "benchmark_log.csv")
FWI_2D_REFERENCE = os.path.join(HERE, "reference", "fwi-2d.csv")

HISTORY_TOL = 1e-8     # criterion-9 rule: fields 1-5, relative to max(|ref|, 1)
OUT_DIR = "out"        # work directory of the timed command, relative to its config
LOG_FILE = "convergence.csv"


class CheckFailed(Exception):
    """The program's output did not match its reference."""


def _with_iterations(config: ExperimentConfig, n: int) -> ExperimentConfig:
    return replace(config, stop=replace(config.stop, max_iter=n))


def fwi_2d_config() -> ExperimentConfig:
    grid = GridSpec(ndim=2, nx=101, nz=101, dx=10.0, dz=10.0, nt=400, dt=0.0028)
    return ExperimentConfig(
        grid=grid,
        true_model=ModelDescriptor(
            kind="box-anomaly",
            velocity=2000.0,
            boxes=((38, 50, 38, 62, 2200.0), (50, 62, 38, 62, 1800.0)),
        ),
        initial_model=ModelDescriptor(kind="uniform", velocity=2000.0),
        source_nodes=(218, 252, 286),                 # row 2
        receiver_nodes=tuple(range(103, 200, 8)),     # row 1, every 8th node
        scheme="fwi",
        penalty=PenaltyConfig(mu=100.0, alpha=1e-6),  # larger steps break CFL
        stop=StopRules(max_iter=2),
    )


# ---------------------------------------------------------------------------
# histories
# ---------------------------------------------------------------------------


def read_history(path: str) -> tuple[str | None, list[list[float]]]:
    """(scheme, rows) of a convergence log; rows are [iter, 5 fields, seconds]."""
    scheme = None
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("# scheme="):
                scheme = line.split("=", 1)[1]
            elif line and not line.startswith(("#", "iter")):
                rows.append([float(x) for x in line.split(",")])
    return scheme, rows


def compare_histories(got: list[list[float]], ref: list[list[float]]) -> float:
    """Largest relative difference over fields 1-5; seconds is excluded."""
    if len(got) != len(ref):
        raise CheckFailed(f"{len(got)} log rows, reference has {len(ref)}")
    worst = 0.0
    for g, r in zip(got, ref):
        if g[0] != r[0]:
            raise CheckFailed(f"iteration {g[0]:g} where the reference has {r[0]:g}")
        for field in range(1, 6):
            worst = max(worst, abs(g[field] - r[field]) / max(abs(r[field]), 1.0))
    if not worst <= HISTORY_TOL:
        raise CheckFailed(f"log drift {worst:.2e} above {HISTORY_TOL:g}")
    return worst


def _invert_history(run_dir: str, records: list[dict], scheme: str) -> list[list[float]]:
    (record,) = records
    if record["exit"] != 0:
        raise CheckFailed(f"exit {record['exit']}: {record['error'] or record['stdout'].strip()}")
    if record["stdout"].split(" ", 1)[0] != "max_iter":
        raise CheckFailed(f"unexpected status: {record['stdout'].strip()}")
    got_scheme, rows = read_history(os.path.join(run_dir, OUT_DIR, LOG_FILE))
    if got_scheme != scheme:
        raise CheckFailed(f"log is for scheme {got_scheme}, expected {scheme}")
    return rows


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """config is None for a workload that needs no experiment config; its
    set-up is then the package import alone."""

    name: str
    config: ExperimentConfig | None
    timed: tuple[tuple[str, ...], ...]      # commands of one repeat; CONFIG is substituted
    check_fn: Callable[..., str]            # (workload, run_dir, records) -> detail
    reference_scheme: str | None = None     # invert the same traces with this, untimed

    def write_configs(self, run_dir: str) -> None:
        if self.config is None:
            return
        with open(self.config_path(run_dir), "w") as handle:
            handle.write(write_config(replace(self.config, work_dir=OUT_DIR)))
        if self.reference_scheme is not None:
            with open(self.reference_config_path(run_dir), "w") as handle:
                handle.write(write_config(replace(self.config, work_dir="reference")))

    def config_path(self, run_dir: str) -> str:
        return os.path.join(run_dir, f"{self.name}.cfg")

    def reference_config_path(self, run_dir: str) -> str:
        return os.path.join(run_dir, "reference.cfg")

    def setup_commands(self, run_dir: str) -> list[list[str]]:
        return [] if self.config is None else [["forward", "--config", self.config_path(run_dir)]]

    def reference_commands(self, run_dir: str) -> list[list[str]]:
        path = self.reference_config_path(run_dir)
        return [["forward", "--config", path],
                ["invert", "--config", path, "--scheme", self.reference_scheme]]

    def timed_commands(self, run_dir: str) -> list[list[str]]:
        config = self.config_path(run_dir)
        return [[config if arg == "CONFIG" else arg for arg in argv] for argv in self.timed]

    def clear_outputs(self, run_dir: str) -> None:
        path = os.path.join(run_dir, OUT_DIR, LOG_FILE)
        if os.path.exists(path):
            os.remove(path)

    def check(self, run_dir: str, records: list[dict]) -> str:
        """Detail of a passed check; raises CheckFailed otherwise."""
        return self.check_fn(self, run_dir, records)


def _check_al_1d(workload, run_dir, records):
    rows = _invert_history(run_dir, records, workload.config.scheme)
    ref_scheme, ref_rows = read_history(FROZEN_LOG)
    if ref_scheme != workload.config.scheme:
        raise CheckFailed(f"frozen log is for scheme {ref_scheme}")
    worst = compare_histories(rows, ref_rows[: workload.config.stop.max_iter + 1])
    return f"frozen-log prefix of {len(rows)} rows, drift {worst:.2e}"


def _check_pw_1d(workload, run_dir, records):
    rows = _invert_history(run_dir, records, "penalty-wavefield")
    _, ref_rows = read_history(os.path.join(run_dir, "reference", LOG_FILE))
    worst = compare_histories(rows, ref_rows)
    return f"agrees with {workload.reference_scheme} to {worst:.2e}"


def _check_fwi_2d(workload, run_dir, records):
    rows = _invert_history(run_dir, records, "fwi")
    _, ref_rows = read_history(FWI_2D_REFERENCE)
    worst = compare_histories(rows, ref_rows)
    misfits = [row[1] for row in rows]
    if any(b > a for a, b in zip(misfits, misfits[1:])):
        raise CheckFailed(f"misfit increased: {misfits}")
    return f"reference history drift {worst:.2e}, misfit {misfits[0]:.6g} -> {misfits[-1]:.6g}"


_REPORT_LINE = re.compile(r"^(PASS|FAIL) ([\w-]+): ")
_MIN_CHECKS = 16


def _verdicts(stdout: str) -> list[tuple[str, str]]:
    """(PASS|FAIL, check name) per report line of `lagfwi selfcheck`."""
    return [m.groups() for m in map(_REPORT_LINE.match, stdout.splitlines()) if m]


def _check_selfcheck(workload, run_dir, records):
    clean, faulted = records
    for record, expected in ((clean, 0), (faulted, 1)):
        if record["exit"] != expected:
            raise CheckFailed(
                f"{' '.join(record['argv'])} exited {record['exit']}, expected {expected}"
                + (f": {record['error']}" if record["error"] else ""))
    verdicts = _verdicts(clean["stdout"])
    if len(verdicts) < _MIN_CHECKS or any(status != "PASS" for status, _ in verdicts):
        raise CheckFailed(f"clean battery: {clean['stdout'].strip()}")
    failed = [name for status, name in _verdicts(faulted["stdout"]) if status == "FAIL"]
    if failed != ["adjoint-dot-test"]:
        raise CheckFailed(f"injected perturb-adjoint tripped {failed or 'nothing'}")
    return f"{len(verdicts)}/{len(verdicts)} PASS; perturb-adjoint caught by adjoint-dot-test"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "al-1d",
            _with_iterations(two_scatterer_benchmark(), 5),
            (("invert", "--config", "CONFIG"),),
            _check_al_1d,
        ),
        Workload(
            "pw-1d",
            _with_iterations(two_scatterer_benchmark(), 1),
            (("invert", "--config", "CONFIG", "--scheme", "penalty-wavefield"),),
            _check_pw_1d,
            reference_scheme="penalty-multiplier",
        ),
        Workload(
            "fwi-2d",
            fwi_2d_config(),
            (("invert", "--config", "CONFIG"),),
            _check_fwi_2d,
        ),
        Workload(
            "selfcheck",
            None,
            (("selfcheck",), ("selfcheck", "--inject-fault", "perturb-adjoint")),
            _check_selfcheck,
        ),
    )
}
