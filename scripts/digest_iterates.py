#!/usr/bin/env python3
"""Print a digest of every scheme's first iteration states, for bit-for-bit checks.

    PYTHONPATH=src python3 scripts/digest_iterates.py > digest.txt

For each of the 13 schemes, on the pinned inputs of
``tests/test_pinned_iterates.py``, it steps N_STEPS = 3 iterations and
prints one line per step: scheme, step, then the sha1 of every slot of
the step's carry (an ``IterationState`` with its forward fields swept) in
field order: model, model_prev, forward_fields, wavefields, memory,
scatter_sources, iteration (``-`` for an unwritten slot), then of the
step's own fields ``us`` and ``vs``.  A per-source slot hashes the bytes
of its fields in source order.  That is 39 lines.  Two checkouts compute
the same iterates bit for bit exactly when they print the same lines, so
a refactor that claims unchanged iterates is checked by diffing this
output on both.

Then it prints one line per ``run_inversion`` of N_STEPS iterations for
each scheme on three experiments whose sources come from
``config.build_sources``: ``born_config`` of ``tests/test_iterations.py``
with two shots, the two-scatterer benchmark, and a 15 x 13 x 60 2D grid
with two shots (39 more lines): experiment, scheme, the run's status, the
sha1 of its history without the ``seconds`` column, then the sha1 of
every slot of its final state (the carry; the run keeps no step's us or
vs).

BLAS/OpenMP are pinned to one thread before numpy is imported: the
wavefield CG's dot products go through threaded BLAS, and its iterates
depend on the thread count.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import sys
from dataclasses import fields, replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from lagfwi.config import (
    ExperimentConfig, ModelDescriptor, StopRules, make_observed_data, true_model_grid,
    two_scatterer_benchmark,
)
from lagfwi.grids import GridSpec
from lagfwi.iterations import SCHEMES, IterationState, run_inversion
from lagfwi.saddle import PenaltyConfig

from test_iterations import born_config
from test_pinned_iterates import N_STEPS, case_states


def slot_digest(value) -> str:
    """sha1 of one slot: a field, a per-source tuple of fields, or an int."""
    if value is None:
        return "-"
    if isinstance(value, int):
        return hashlib.sha1(str(value).encode()).hexdigest()
    digest = hashlib.sha1()
    for f in value if isinstance(value, tuple) else (value,):
        digest.update(f.values.tobytes())
    return digest.hexdigest()


def _two_d_config() -> ExperimentConfig:
    """Two boxes in a 15 x 13 x 60 grid, two shots in row 2 recorded by
    every other node of row 1."""
    return ExperimentConfig(
        grid=GridSpec(ndim=2, nx=15, nz=13, dx=10.0, dz=10.0, nt=60, dt=0.0028),
        true_model=ModelDescriptor(kind="box-anomaly", velocity=2000.0,
                                   boxes=((5, 8, 5, 9, 2200.0), (8, 11, 5, 9, 1800.0))),
        initial_model=ModelDescriptor(kind="uniform", velocity=2000.0),
        source_nodes=(34, 40),
        receiver_nodes=tuple(range(15, 30, 2)),
    )


def experiments(scheme: str):
    """(label, config) of the run_inversion lines of one scheme: mu is the
    experiment's, gauss-* take a damping under which the run stays finite
    (the born_config one of the pinned rows), and fwi a pinned step of 1e-7."""
    born = born_config(scheme, mu=1e3, max_iter=N_STEPS)
    cases = (("born_config", replace(born, source_nodes=(3, 17)), 1e-4),
             ("benchmark", two_scatterer_benchmark(), 1e16),
             ("2d", _two_d_config(), 1e16))
    for label, config, damping in cases:
        mu = damping if scheme.startswith("gauss-") else config.penalty.mu
        penalty = PenaltyConfig(mu=mu, alpha=1e-7 if scheme == "fwi" else None)
        yield label, replace(config, scheme=scheme, penalty=penalty,
                             stop=StopRules(max_iter=N_STEPS))


def main() -> None:
    slots = [f.name for f in fields(IterationState)]
    for scheme in SCHEMES:
        for step, (state, us, vs) in enumerate(case_states(scheme), start=1):
            digests = " ".join([slot_digest(getattr(state, name)) for name in slots]
                               + [slot_digest(us), slot_digest(vs)])
            print(f"{scheme} {step} {digests}")
    for scheme in SCHEMES:
        for label, config in experiments(scheme):
            result = run_inversion(config, make_observed_data(config), true_model_grid(config))
            history = repr([row.as_row()[:-1] for row in result.history])
            digests = " ".join(slot_digest(getattr(result.state, name)) for name in slots)
            print(f"{label} {scheme} {result.status} "
                  f"{hashlib.sha1(history.encode()).hexdigest()} {digests}")


if __name__ == "__main__":
    main()
