"""Every scheme's first three model iterates, pinned against a frozen file.

The equivalence tests only tie schemes to each other; this file ties each
one to its own past, so a refactor of the step pipeline cannot move any
scheme's iterates (fwi, split-gn and gauss-* have no equivalence partner).

Inputs are chosen so that every scheme stays finite: the saddle and
scattering schemes run on ``tiny_problem`` at mu = 50, fwi needs a small
pinned step (alpha = 1e-6), and gauss-newton/gauss-seidel run on the weak
single scatterer of ``born_config`` with damping 1e-4.

Regenerate (only for a deliberate numerical change) the rows of the named
schemes with

    PYTHONPATH=src python tests/test_pinned_iterates.py SCHEME [SCHEME ...]

Rows of schemes not named are copied from the file unchanged.
"""

import argparse
import os

import numpy as np
import pytest

from lagfwi.config import build_model_values, build_sources, make_observed_data
from lagfwi.grids import ModelGrid
from lagfwi.iterations import SCHEMES
from lagfwi.saddle import PenaltyConfig

from test_iterations import born_config, iterate, tiny_problem

PINNED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                           "scheme_iterates.txt")
N_STEPS = 3


def case_states(scheme):
    """The first N_STEPS steps of a scheme on its pinned inputs, each as
    (carry with its forward fields, us, vs)."""
    if scheme.startswith("gauss-"):
        config = born_config(scheme, mu=1e-4, max_iter=N_STEPS)
        m0 = ModelGrid(config.grid, build_model_values(config.grid, config.initial_model))
        sources, data = build_sources(config), make_observed_data(config)
        cfg = config.penalty
    else:
        _, _, _, m0, sources, data = tiny_problem()
        alpha = 1e-6 if scheme == "fwi" else None
        cfg = PenaltyConfig(mu=50.0, alpha=alpha, cg_tol=1e-13)
    return iterate(scheme, m0, sources, data, cfg, N_STEPS)


def case_iterates(scheme):
    """Model values after each of the first N_STEPS steps, one row per step."""
    return np.array([state.model.values for state, _, _ in case_states(scheme)])


def read_pinned(path=PINNED_FILE):
    """scheme -> array of model iterates, rows in step order."""
    pinned = {}
    with open(path) as handle:
        for line in handle:
            if not line.startswith("#"):
                scheme, _, *values = line.split()
                pinned.setdefault(scheme, []).append(np.array(values, dtype=float))
    return {scheme: np.array(rows) for scheme, rows in pinned.items()}


# the ids keep the suffix naming the update rule the rows were pinned with
@pytest.mark.parametrize("scheme", SCHEMES, ids=[f"{s}-sum-terms" for s in SCHEMES])
def test_iterates_match_pinned(scheme):
    ref = read_pinned()[scheme]
    got = case_iterates(scheme)
    assert got.shape == ref.shape
    for step, (g, r) in enumerate(zip(got, ref), start=1):
        err = float(np.linalg.norm(g - r) / np.linalg.norm(r))
        assert err <= 1e-12, f"{scheme} step {step}: rel {err:.2e}"


@pytest.mark.parametrize("orientation", ["penalty", "al"])
def test_pinned_orientations_agree(orientation):
    """The wavefield and multiplier orientations solve the same saddle
    system, so their pinned iterates must agree to 1e-12; a re-pin cannot
    drift away from the exact saddle solution."""
    pinned = read_pinned()
    wavefield = pinned[f"{orientation}-wavefield"]
    multiplier = pinned[f"{orientation}-multiplier"]
    for step, (a, b) in enumerate(zip(wavefield, multiplier), start=1):
        err = float(np.linalg.norm(a - b) / np.linalg.norm(b))
        assert err <= 1e-12, f"{orientation} step {step}: rel {err:.2e}"


def main(argv=None):
    parser = argparse.ArgumentParser(description="re-pin the named schemes' rows")
    parser.add_argument("schemes", nargs="+", choices=SCHEMES, metavar="SCHEME")
    names = set(parser.parse_args(argv).schemes)
    kept = {}
    with open(PINNED_FILE) as handle:
        header = handle.readline().rstrip("\n")
        for line in handle:
            kept.setdefault(line.split()[0], []).append(line.rstrip("\n"))
    lines = [header]
    for scheme in SCHEMES:
        if scheme not in names:
            lines.extend(kept[scheme])
            continue
        for step, values in enumerate(case_iterates(scheme), start=1):
            lines.append(f"{scheme} {step} " + " ".join("%.17g" % v for v in values))
    with open(PINNED_FILE, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"re-pinned {', '.join(sorted(names))} in {PINNED_FILE}")


if __name__ == "__main__":
    main()
